"""Batch greedy reduced basis method for affinely parameterized elliptic problems.

Modules
-------
fem
    Thermal-block full-order model: mesh, affine assembly, sparse solves.
rb
    Reduced basis container, orthonormal extension, Galerkin reduction.
estimator
    Residual-based a posteriori error estimation (offline/online split).
greedy
    One greedy loop with estimator (weak) and true-error (strong) drivers,
    traces, trace CSV export.
theory
    Convergence-theory checkers: projection widths, decay fits, bounds.
bench
    Experiment harness, break-even analysis, CSV/JSON reporting.
pool
    Deterministic worker pool for the concurrent full-order solves.
"""

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    GreedyError,
    InsufficientDataError,
    NumericError,
)
from .fem import AffineSystem, Mesh, ParameterPoint, Snapshot, assemble, build_mesh, solve_fom

__version__ = "0.1.0"

__all__ = [
    "AffineSystem",
    "Mesh",
    "ParameterPoint",
    "Snapshot",
    "assemble",
    "build_mesh",
    "solve_fom",
    "ConfigurationError",
    "DimensionError",
    "DomainError",
    "GreedyError",
    "InsufficientDataError",
    "NumericError",
    "__version__",
]
