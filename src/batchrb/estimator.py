"""Residual-based a posteriori error estimation with an offline/online split.

For an affinely decomposed coercive form, the X-norm error of the reduced
solution is bounded by

    Delta_n(mu) = ||r_n(mu)||_{X'} / alpha_LB(mu),

where the residual's Riesz representer is a combination of precomputed
representers: z(mu) = z_f - sum_{j,p} mu_p c_j z_(p,j), one for the load and
one per (component, basis vector) pair.  Offline, the representers are
factored Z = Q R with X-orthonormal Q and upper-triangular R (Buhr, Engwer,
Ohlberger & Rave 2014; Casenave, Ern & Lelievre 2014), so online

    ||r||_{X'} = || R [1, -mu_p c_j] ||_2,

a Euclidean norm of a vector of size 1 + P n.  A sweep over a training set
costs one batched reduced solve and one matrix product, O(T (P n)^2)
independent of the full-order dimension, and its accuracy floor is machine
epsilon relative to ||f||_{X'}, not the square root of it that a squared
Gram expansion reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError, NumericError
from .fem import MU_MAX_DEFAULT, MU_MIN_DEFAULT, AffineSystem, ParameterPoint
from .rb import DROP_TOL_DEFAULT, ReducedBasis, ReducedModel, solve_rom

__all__ = [
    "EffectivityBounds",
    "EstimatorData",
    "RieszSolver",
    "RieszDiagnostic",
    "build_estimator",
    "estimate",
    "estimate_sweep",
    "prefix_data",
    "check_riesz",
]

#: Residual dual norm, relative to ||f||_{X'}, below which the online
#: evaluation keeps fewer than about three significant digits: the
#: difference R[:, 0] - R[:, 1:] y carries an absolute error of a few machine
#: epsilons times ||f||_{X'} (at most 1e-15 times it on the nx=16 and nx=32
#: thermal blocks, against a residual formed in extended precision).
CANCELLATION_RATIO = 1e-12


@dataclass(frozen=True)
class EffectivityBounds:
    """Coercivity/continuity bounds for the min-theta thermal block.

    With X = H^1_0 seminorm and unit-sum components, the coercivity constant
    is bounded below by min_p mu_p and the continuity constant above by
    max_p mu_p, both exact for this problem class.
    """

    mu_min: float = MU_MIN_DEFAULT
    mu_max: float = MU_MAX_DEFAULT

    def __post_init__(self):
        if not 0 < self.mu_min <= self.mu_max:
            raise ConfigurationError(
                f"need 0 < mu_min <= mu_max, got [{self.mu_min}, {self.mu_max}]"
            )

    def alpha_lb(self, mu: ParameterPoint) -> float:
        return min(mu.weights)

    def gamma_ub(self, mu: ParameterPoint) -> float:
        return max(mu.weights)

    def kappa(self, mu: ParameterPoint) -> float:
        """Effectivity bound gamma_UB / alpha_LB at one parameter."""
        return self.gamma_ub(mu) / self.alpha_lb(mu)

    def gamma_greedy(self, block_count: int) -> float:
        """Weak-greedy parameter: min over the box of alpha_LB/gamma_UB.

        For two or more blocks the minimum is attained at a corner holding
        both extremes, giving mu_min/mu_max (0.1 on the default box); with a
        single block the ratio is identically 1.
        """
        if block_count < 1:
            raise DomainError(f"block_count must be positive, got {block_count}")
        if block_count == 1:
            return 1.0
        return self.mu_min / self.mu_max


@dataclass
class EstimatorData:
    """Offline data of the residual estimator.

    `Q` (X-orthonormal columns; None for artifacts loaded in online-only
    form) and the upper-triangular `R` factor the representers
    [z_f, z_(0,0), ..., z_(P-1,0), z_(0,1), ...]: load first, then basis
    vector by basis vector with the component index fastest, so the data of
    the first n basis vectors is the leading 1 + P n block.  A representer
    found linearly dependent on the earlier ones has a zero column in `Q`
    and a zero diagonal (and row) in `R`.
    """

    Q: Optional[np.ndarray]  # (dof_count, 1 + P n)
    R: np.ndarray  # (1 + P n, 1 + P n)
    block_count: int
    bounds: EffectivityBounds = field(default_factory=EffectivityBounds)

    @property
    def basis_size(self) -> int:
        return (self.R.shape[1] - 1) // self.block_count

    @property
    def online_only(self) -> bool:
        return self.Q is None

    @property
    def load_dual_norm(self) -> float:
        """||f||_{X'}, the residual dual norm of the empty basis."""
        return float(self.R[0, 0])


class RieszSolver:
    """Riesz representer solves z = M_X^{-1} rhs behind one cached factorization.

    M_X is factored in the system's shared nested-dissection ordering, like
    every full-order matrix.
    """

    def __init__(self, system: AffineSystem):
        self.system = system
        self._lu = system.factorize(system.gram.data)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M_X z = rhs; accepts a vector or a matrix of columns."""
        return self._lu.solve(rhs)


def build_estimator(
    model: ReducedModel,
    basis: ReducedBasis,
    system: AffineSystem,
    bounds: Optional[EffectivityBounds] = None,
    previous: Optional[EstimatorData] = None,
    solver: Optional[RieszSolver] = None,
) -> EstimatorData:
    """Compute (or incrementally extend) the estimator's offline data.

    With `previous` given for a prefix of the same basis, only the
    representers of the new basis vectors are computed and appended to its
    QR factorization; results agree with a from-scratch build to round-off.
    Each new representer is projected twice against every earlier column of
    Q (classical Gram-Schmidt with reorthogonalization, in the X inner
    product).  One whose remainder is at most ``rb.DROP_TOL_DEFAULT`` times
    its incoming X-norm is dropped: every snapshot in the basis makes one
    combination of representers vanish exactly, and normalizing its
    round-off remainder would destroy the orthogonality of Q.  The result is
    also attached to ``model.estimator_data``.
    """
    if model.basis_size != basis.size:
        raise DimensionError(
            f"model has {model.basis_size} DOFs but basis has {basis.size} vectors"
        )
    if solver is None:
        solver = RieszSolver(system)
    if bounds is None:
        bounds = previous.bounds if previous is not None else EffectivityBounds()

    gram = system.gram
    if previous is None:
        n_old, q_old, r = 0, np.empty((system.dof_count, 0)), np.empty((0, 0))
        columns = [solver.solve(system.load)[:, None]]
    else:
        if previous.online_only:
            raise ConfigurationError(
                "cannot extend estimator data loaded in online-only form"
            )
        n_old, q_old, r = previous.basis_size, previous.Q, previous.R
        if n_old > basis.size:
            raise DimensionError(f"previous data covers {n_old} > {basis.size} vectors")
        columns = []
    v_new = basis.vectors[:, n_old:]
    # (dof, added, P) flattened: basis vector by basis vector, component fastest
    riesz = np.stack([solver.solve(a_p @ v_new) for a_p in system.components], 2)
    columns.append(riesz.reshape(system.dof_count, -1))
    # Column-major throughout, so every column below is contiguous.
    z_new = np.asfortranarray(np.hstack(columns))
    gram_z_new = np.asfortranarray(gram @ z_new)
    incoming = np.sqrt(np.maximum(np.einsum("ik,ik->k", z_new, gram_z_new), 0.0))

    old, added = r.shape[0], z_new.shape[1]
    q = np.zeros((system.dof_count, old + added), order="F")
    q[:, :old] = q_old
    r = np.pad(r, (0, added))
    # Classical Gram-Schmidt takes every first-pass coefficient from the
    # incoming vector, so the first pass against the old columns is one
    # product for the whole block.
    r[:old, old:] = q_old.T @ gram_z_new
    z_new -= q_old @ r[:old, old:]
    for i, k in enumerate(range(old, old + added)):
        coeffs = q[:, old:k].T @ gram_z_new[:, i]
        z = z_new[:, i] - q[:, old:k] @ coeffs
        r[old:k, k] = coeffs
        gram_z = gram @ z  # second pass, against every earlier column
        coeffs = q[:, :k].T @ gram_z
        z = z - q[:, :k] @ coeffs
        r[:k, k] += coeffs
        gram_z = gram @ z
        remainder = np.sqrt(max(z @ gram_z, 0.0))
        if remainder > DROP_TOL_DEFAULT * incoming[i]:
            q[:, k] = z / remainder
            r[k, k] = remainder

    data = EstimatorData(Q=q, R=r, block_count=system.block_count, bounds=bounds)
    model.estimator_data = data
    return data


def _rom_coefficients_batch(model: ReducedModel, weights: np.ndarray) -> np.ndarray:
    """Reduced Galerkin coefficients for a (T, P) batch of parameter weights."""
    p, n = model.block_count, model.basis_size
    matrices = weights @ model.components.reshape(p, n * n)
    return np.linalg.solve(matrices.reshape(-1, n, n), model.load)


def _dual_norms(data: EstimatorData, y: np.ndarray) -> np.ndarray:
    """Residual dual norms ||R [1, -y]||_2, one per row of y = (mu_p c_j).

    The columns of y follow the representer order: basis vector j, then
    component p, at position j P + p.
    """
    residual = data.R[:, 0] - y @ data.R[:, 1:].T
    return np.sqrt(np.einsum("ta,ta->t", residual, residual))


def _residual_weights(weights: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """y[t, j P + p] = mu_p c_j for (T, P) weights and (T, n) coefficients."""
    return (coeffs[:, :, None] * weights[:, None, :]).reshape(weights.shape[0], -1)


def _check_sizes(data: EstimatorData, model: ReducedModel, p_count: int) -> None:
    if p_count != data.block_count:
        raise DimensionError(
            f"weights have {p_count} columns, estimator has {data.block_count} blocks"
        )
    if data.basis_size != model.basis_size:
        raise DimensionError(
            f"estimator data covers {data.basis_size} vectors, "
            f"model has {model.basis_size}"
        )


def estimate_sweep(
    data: EstimatorData, model: ReducedModel, weights: np.ndarray
) -> np.ndarray:
    """Vectorized error estimates for a (T, P) array of parameter weights.

    One fixed numpy code path regardless of any worker configuration, so
    sweep results never depend on parallelism settings.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    t_count, p_count = weights.shape
    _check_sizes(data, model, p_count)
    if np.any(weights <= 0):
        raise DomainError("all parameter weights must be positive")
    alpha = weights.min(axis=1)
    if model.basis_size == 0:
        return np.full(t_count, data.load_dual_norm) / alpha
    coeffs = _rom_coefficients_batch(model, weights)
    return _dual_norms(data, _residual_weights(weights, coeffs)) / alpha


def estimate(data: EstimatorData, model: ReducedModel, mu: ParameterPoint) -> float:
    """Error estimate Delta_n(mu) at one point: the sweep's kernels on one row,
    bitwise equal to ``estimate_sweep(data, model, mu.as_array()[None, :])[0]``.
    LU, as in the sweep: rb.solve_rom's Cholesky moves estimates near the
    accuracy floor by up to 1e-5 relative."""
    _check_sizes(data, model, mu.size)
    norm = data.load_dual_norm
    if model.basis_size > 0:
        weights = mu.as_array()[None, :]
        coeffs = _rom_coefficients_batch(model, weights)
        norm = float(_dual_norms(data, _residual_weights(weights, coeffs))[0])
    value = norm / min(mu.weights)
    if not math.isfinite(value):
        raise NumericError(f"non-finite error estimate at mu={mu.weights}")
    return value


def prefix_data(data: EstimatorData, n: int) -> EstimatorData:
    """Estimator data restricted to the first n basis vectors (leading blocks)."""
    if not 0 <= n <= data.basis_size:
        raise IndexError(f"prefix size {n} outside [0, {data.basis_size}]")
    count = 1 + data.block_count * n
    return EstimatorData(
        Q=None if data.Q is None else data.Q[:, :count],
        R=data.R[:count, :count].copy(),
        block_count=data.block_count,
        bounds=data.bounds,
    )


@dataclass(frozen=True)
class RieszDiagnostic:
    """Offline/online residual norm versus direct recomputation at one mu."""

    dual_norm_offline: float
    dual_norm_direct: float
    relative_deviation: float
    cancellation: bool


def check_riesz(
    data: EstimatorData,
    model: ReducedModel,
    basis: ReducedBasis,
    system: AffineSystem,
    mu: ParameterPoint,
    solver: Optional[RieszSolver] = None,
) -> RieszDiagnostic:
    """Verify the online residual norm ||R [1, -y]||_2 against a direct one.

    The direct path assembles r = f - A(mu) V c in the full-order space and
    measures its dual norm through a Riesz solve with `solver` (a fresh
    factorization of M_X when None).  Both carry absolute round-off of a few
    machine epsilons times ||f||_{X'}, so their relative deviation grows as
    the residual shrinks.  `cancellation` is set when the online norm is
    below `CANCELLATION_RATIO` times ||f||_{X'}, where relative deviations of
    1e-3 and more are expected.
    """
    if data.online_only:
        raise ConfigurationError("direct residual check needs full-order Riesz data")
    coeffs = solve_rom(model, mu)
    u_rb = basis.vectors @ coeffs
    residual = system.load - system.matrix(mu) @ u_rb
    z = (solver or RieszSolver(system)).solve(residual)
    direct = float(np.sqrt(max(z @ (system.gram @ z), 0.0)))

    y = _residual_weights(mu.as_array()[None, :], coeffs[None, :])
    offline = float(_dual_norms(data, y)[0])
    cancellation = offline < CANCELLATION_RATIO * data.load_dual_norm
    deviation = abs(offline - direct) / max(direct, 1e-300)
    return RieszDiagnostic(
        dual_norm_offline=offline,
        dual_norm_direct=direct,
        relative_deviation=deviation,
        cancellation=cancellation,
    )
