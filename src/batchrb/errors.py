"""Exception taxonomy shared across the package, and its count and tolerance checks."""

from numbers import Real

import numpy as np


class ConfigurationError(ValueError):
    """Invalid configuration (incompatible sizes, bad option values)."""


class DimensionError(ValueError):
    """Operands with mismatched dimensions."""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """A numeric computation failed to meet its accuracy contract."""


class GreedyError(RuntimeError):
    """A greedy run aborted; carries the offending parameter and the partial trace."""

    def __init__(self, message, parameter=None, trace=None):
        super().__init__(message)
        self.parameter = parameter
        self.trace = trace


class InsufficientDataError(ValueError):
    """Not enough data points for a requested fit or check."""


def _integer(value):
    """`value` as an int if it equals one (3.0 gives 3), else None (2.5, NaN, inf, bools)."""
    try:
        return None if isinstance(value, (bool, np.bool_)) or int(value) != value else int(value)
    except (TypeError, ValueError, OverflowError):
        return None


def _checked_int(name, value, least):
    """`value` as an int (3.0 gives 3); ConfigurationError naming `name` if it
    is not an integer of at least `least`."""
    number = _integer(value)
    if number is None or number < least:
        raise ConfigurationError(f"{name}={value!r} must be an integer >= {least}")
    return number


def _check_positive_real(name, value):
    """ConfigurationError naming `name` unless `value` is a real number > 0 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not value > 0:
        raise ConfigurationError(f"{name}={value!r} must be a real number > 0")
