"""Exception taxonomy shared across the package, and the configs' integer check."""


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
    """`value` as an int if it equals one (3.0 gives 3), else None (2.5, NaN, inf)."""
    try:
        return int(value) if int(value) == value else None
    except (TypeError, ValueError, OverflowError):
        return None
