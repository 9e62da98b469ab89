"""Residual-based a posteriori error estimation with an offline/online split.

For an affinely decomposed coercive form, the X-norm error of the reduced
solution is bounded by

    Delta_n(mu) = ||r_n(mu)||_{X'} / alpha_LB(mu),

where the residual dual norm is evaluated online from precomputed Gram tables
of Riesz representers: one representer for the load and one per (component,
basis vector) pair.  The expansion

    ||r||^2 = G_ff - 2 sum_{p,j} mu_p c_j G_f[p,j]
            + sum mu_p c_i mu_q c_j G[(p,i),(q,j)]

is quadratic in mu and the reduced coefficients c, so a sweep over a training
set costs O(T (P n)^2) independent of the full-order dimension.  Round-off
can drive the expansion slightly negative near convergence; it is clamped at
zero before the square root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError
from .fem import MU_MAX_DEFAULT, MU_MIN_DEFAULT, AffineSystem, ParameterPoint
from .rb import ReducedBasis, ReducedModel, solve_rom

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

#: Relative estimate below which the offline/online expansion has lost its
#: significant digits to cancellation.
CANCELLATION_RATIO = 1e-7


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

    `riesz_load` and `riesz_components` hold the full-order Riesz
    representers (None for artifacts loaded in online-only form); the Gram
    tables `g_ff`, `g_fc`, `g_cc` drive the online expansion.
    """

    riesz_load: Optional[np.ndarray]  # (dof_count,)
    riesz_components: Optional[np.ndarray]  # (P, n, dof_count)
    g_ff: float
    g_fc: np.ndarray  # (P, n)
    g_cc: np.ndarray  # (P, n, P, n)
    bounds: EffectivityBounds = field(default_factory=EffectivityBounds)

    @property
    def block_count(self) -> int:
        return self.g_fc.shape[0]

    @property
    def basis_size(self) -> int:
        return self.g_fc.shape[1]

    @property
    def online_only(self) -> bool:
        return self.riesz_load is None


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

    With `previous` given for a prefix of the same basis, only representers
    and table entries for the new basis vectors are computed; results agree
    with a from-scratch build to round-off.  The result is also attached to
    ``model.estimator_data``.
    """
    if model.basis_size != basis.size:
        raise DimensionError(
            f"model has {model.basis_size} DOFs but basis has {basis.size} vectors"
        )
    if solver is None:
        solver = RieszSolver(system)
    if bounds is None:
        bounds = previous.bounds if previous is not None else EffectivityBounds()

    n = basis.size
    n_dof = system.dof_count
    block_count = system.block_count
    gram = system.gram

    if previous is not None:
        if previous.online_only:
            raise ConfigurationError(
                "cannot extend estimator data loaded in online-only form"
            )
        n_old = previous.basis_size
        if n_old > n:
            raise DimensionError(f"previous data covers {n_old} > {n} vectors")
        z_f = previous.riesz_load
        g_ff = previous.g_ff
    else:
        n_old = 0
        z_f = solver.solve(system.load)
        g_ff = float(z_f @ (gram @ z_f))

    riesz = np.empty((block_count, n, n_dof))
    g_fc = np.empty((block_count, n))
    g_cc = np.empty((block_count, n, block_count, n))
    if previous is not None and n_old > 0:
        riesz[:, :n_old] = previous.riesz_components
        g_fc[:, :n_old] = previous.g_fc
        g_cc[:, :n_old, :, :n_old] = previous.g_cc

    added = n - n_old
    if added > 0:
        v_new = basis.vectors[:, n_old:]
        for p, a_p in enumerate(system.components):
            riesz[p, n_old:] = solver.solve(a_p @ v_new).T

        z_new = riesz[:, n_old:].reshape(block_count * added, n_dof)
        m_z_new = gram @ z_new.T  # (dof, P*added)
        g_fc[:, n_old:] = (z_f @ m_z_new).reshape(block_count, added)
        cross = (riesz.reshape(block_count * n, n_dof) @ m_z_new).reshape(
            block_count, n, block_count, added
        )
        # symmetric fill: old-vs-new exactly mirrored, new-vs-new symmetrized
        g_cc[:, :, :, n_old:] = cross
        if n_old > 0:
            g_cc[:, n_old:, :, :n_old] = np.transpose(
                cross[:, :n_old, :, :], (2, 3, 0, 1)
            )
        corner = cross[:, n_old:, :, :]
        g_cc[:, n_old:, :, n_old:] = 0.5 * (
            corner + np.transpose(corner, (2, 3, 0, 1))
        )

    data = EstimatorData(
        riesz_load=z_f,
        riesz_components=riesz,
        g_ff=g_ff,
        g_fc=g_fc,
        g_cc=g_cc,
        bounds=bounds,
    )
    model.estimator_data = data
    return data


def _rom_coefficients_batch(model: ReducedModel, weights: np.ndarray) -> np.ndarray:
    """Reduced Galerkin coefficients for a (T, P) batch of parameter weights."""
    matrices = np.einsum("tp,pij->tij", weights, model.components)
    lower = np.linalg.cholesky(matrices)
    rhs = np.tile(model.load, (weights.shape[0], 1))[:, :, None]
    halfway = np.linalg.solve(lower, rhs)
    return np.linalg.solve(np.transpose(lower, (0, 2, 1)), halfway)[:, :, 0]


def _dual_norms(data: EstimatorData, y: np.ndarray) -> np.ndarray:
    """Residual dual norms from the Gram tables, one per row of y = (mu_p c_j).

    Evaluates sqrt(g_ff - 2 y.g_fc + y G y), clamping round-off negatives.
    """
    g_cc_flat = data.g_cc.reshape(y.shape[1], y.shape[1])
    r_sq = data.g_ff - 2.0 * (y @ data.g_fc.reshape(-1)) + np.einsum(
        "ta,ab,tb->t", y, g_cc_flat, y
    )
    return np.sqrt(np.clip(r_sq, 0.0, None))


def estimate_sweep(
    data: EstimatorData, model: ReducedModel, weights: np.ndarray
) -> np.ndarray:
    """Vectorized error estimates for a (T, P) array of parameter weights.

    One fixed numpy code path regardless of any worker configuration, so
    sweep results never depend on parallelism settings.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    t_count, p_count = weights.shape
    if p_count != data.block_count:
        raise DimensionError(
            f"weights have {p_count} columns, estimator has {data.block_count} blocks"
        )
    if np.any(weights <= 0):
        raise DomainError("all parameter weights must be positive")
    if data.basis_size != model.basis_size:
        raise DimensionError(
            f"estimator data covers {data.basis_size} vectors, "
            f"model has {model.basis_size}"
        )
    alpha = weights.min(axis=1)
    n = model.basis_size
    if n == 0:
        return np.full(t_count, np.sqrt(max(data.g_ff, 0.0))) / alpha
    coeffs = _rom_coefficients_batch(model, weights)
    y = (weights[:, :, None] * coeffs[:, None, :]).reshape(t_count, -1)
    return _dual_norms(data, y) / alpha


def estimate(data: EstimatorData, model: ReducedModel, mu: ParameterPoint) -> float:
    """Error estimate Delta_n(mu) at a single parameter point."""
    return float(estimate_sweep(data, model, mu.as_array()[None, :])[0])


def prefix_data(data: EstimatorData, n: int) -> EstimatorData:
    """Estimator data restricted to the first n basis vectors (table slices)."""
    if not 0 <= n <= data.basis_size:
        raise IndexError(f"prefix size {n} outside [0, {data.basis_size}]")
    return EstimatorData(
        riesz_load=data.riesz_load,
        riesz_components=(
            None if data.riesz_components is None else data.riesz_components[:, :n]
        ),
        g_ff=data.g_ff,
        g_fc=data.g_fc[:, :n].copy(),
        g_cc=data.g_cc[:, :n, :, :n].copy(),
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
) -> RieszDiagnostic:
    """Verify the Gram-table residual norm against a direct computation.

    The direct path assembles r = f - A(mu) V c in the full-order space and
    measures its dual norm through a fresh Riesz solve.  `cancellation` is
    set when the estimate has dropped below 1e-7 of its size at n = 0, where
    the quadratic expansion is dominated by round-off and deviations are
    expected.
    """
    if data.online_only:
        raise ConfigurationError("direct residual check needs full-order Riesz data")
    coeffs = solve_rom(model, mu)
    u_rb = basis.vectors @ coeffs
    residual = system.load - system.matrix(mu) @ u_rb
    z = RieszSolver(system).solve(residual)
    direct = float(np.sqrt(max(z @ (system.gram @ z), 0.0)))

    y = (mu.as_array()[:, None] * coeffs[None, :]).reshape(1, -1)
    offline = float(_dual_norms(data, y)[0])

    load_dual = np.sqrt(max(data.g_ff, 0.0))
    cancellation = offline < CANCELLATION_RATIO * load_dual
    deviation = abs(offline - direct) / max(direct, 1e-300)
    return RieszDiagnostic(
        dual_norm_offline=offline,
        dual_norm_direct=direct,
        relative_deviation=deviation,
        cancellation=cancellation,
    )
