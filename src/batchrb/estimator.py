"""Residual-based a posteriori error estimation with an offline/online split.

For an affinely decomposed coercive form, the X-norm error of the reduced
solution is bounded by

    Delta_n(mu) = ||r_n(mu)||_{X'} / alpha_LB(mu),  alpha_LB(mu) = min_p mu_p,

the thermal block's min-theta coercivity bound.  The residual's Riesz
representer is a combination of precomputed representers:
z(mu) = z_f - sum_{j,p} mu_p c_j z_(p,j), one for the load and
one per (component, basis vector) pair.  Offline, the representers are
factored Z = Q R with X-orthonormal Q and upper-triangular R (Buhr, Engwer,
Ohlberger & Rave 2014; Casenave, Ern & Lelievre 2014), so online

    ||r||_{X'} = || R [1, -mu_p c_j] ||_2,

a Euclidean norm of a vector of size 1 + P n.  One query's `estimate` takes c
from rb.solve_rom, so the bound certifies the reduced solution the caller
gets, in O(n^3 + (P n)^2).  A sweep over a training set runs in row blocks
within `SWEEP_BLOCK_BYTES`, one worker-pool task each, in
O(T (n^3 + (P n)^2)) time and O(workers SWEEP_BLOCK_BYTES + T) memory
independent of the full-order dimension, and its accuracy floor is machine
epsilon relative to ||f||_{X'}, not the square root of it that a squared
Gram expansion reaches.  A sweep masked to k rows solves only those,
O(k n^3), and keeps the residual product of each block that holds one; the
weak greedy masks out rows a bound rules out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sparse
from scipy.linalg.lapack import dtrtri

from .errors import ConfigurationError, DimensionError, DomainError, NumericError
from .fem import AffineSystem, ParameterPoint, solve_fom_block
from .pool import WorkerPool
# solve_rom bound at import: a tracer wrapping `rb.solve_rom` sees direct solves only.
from .rb import DROP_TOL_DEFAULT, ReducedBasis, ReducedModel, solve_rom

__all__ = [
    "EstimatorData",
    "RieszSolver",
    "build_estimator",
    "estimate",
    "estimate_sweep",
    "prefix_coefficients",
    "prefix_data",
]

#: Residual dual norm, relative to ||f||_{X'}, below which the online
#: evaluation keeps fewer than about three significant digits: the
#: difference R[:, 0] - R[:, 1:] y carries an absolute error of a few machine
#: epsilons times ||f||_{X'} (at most 1e-15 times it on the nx=16 and nx=32
#: thermal blocks, against a residual formed in extended precision).
CANCELLATION_RATIO = 1e-12

#: Bytes of per-row temporaries that one row block of `estimate_sweep` holds.
SWEEP_BLOCK_BYTES = 2 << 20


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
    """Riesz representers z_f = M_X^-1 f (`load`) and M_X^-1 A_p v, condensed.

    M_X = A(1, ..., 1) condenses like every A(mu) (see `fem`), with Schur
    complement S_X = sum_p S_p.  The constructor factors S_X = L L^T by
    dense Cholesky and keeps L^-1, one m x m matrix for m interface DOFs.
    No block interior is factored again: (A_p v)[I_q] = 0 for q != p and
    K_p^-1 (A_p v)[I_p] = v[I_p] + Z_p v[L_p], so A_p v condenses to S_p v_G.
    """

    def __init__(self, system: AffineSystem):
        self.system = system
        condensation = system._condensation
        size, blocks = condensation.interface.size, system.block_count
        self._condensation = condensation
        unit = np.ones((1, blocks))
        self._inverse = np.linalg.inv(condensation.cholesky(unit)[0])
        # Every S_p stacked by rows: row p m + i holds row i of S_p.
        entries = condensation.schur.tocoo()
        columns, rows = np.divmod(condensation.positions[entries.row], size)
        self._schur = sparse.csr_matrix(
            (entries.data, (entries.col * size + rows, columns)),
            shape=(blocks * size, size),
        )
        self.load = solve_fom_block(system, unit)[:, 0]

    def representers(self, vectors: np.ndarray) -> np.ndarray:
        """M_X^-1 A_p v_j for the k columns v_j of `vectors`: (dof, k P), column j P + p.

        z_G = S_X^-1 S_p v_G on the interface, z[I_p] = v[I_p] +
        Z_p (v_G - z_G)[L_p] inside block p, and z[I_q] = -Z_q z_G[L_q]
        inside every other block: for all k P columns at once, one pair of
        products with L^-1 and one with each Z_q, all on numpy's BLAS.
        """
        condensation, blocks = self._condensation, self.system.block_count
        interface = condensation.interface
        count = vectors.shape[1]
        v_interface = vectors[interface]
        rhs = (self._schur @ v_interface).reshape(blocks, interface.size, count)
        rhs = rhs.transpose(1, 2, 0).reshape(interface.size, count * blocks)
        z_interface = self._inverse.T @ (self._inverse @ rhs)
        z = np.empty((vectors.shape[0], count * blocks))
        z[interface] = z_interface
        for blk in condensation.interiors:
            own = slice(blk.block, None, blocks)
            shift = -z_interface[blk.interface]
            shift[:, own] += v_interface[blk.interface]
            interior = blk.coupling @ shift
            interior[:, own] += vectors[blk.dofs]
            z[blk.dofs] = interior
        return z


def build_estimator(
    model: ReducedModel,
    basis: ReducedBasis,
    system: AffineSystem,
    previous: Optional[EstimatorData] = None,
    solver: Optional[RieszSolver] = None,
) -> EstimatorData:
    """Compute (or incrementally extend) the estimator's offline data.

    Representers come from `solver` (a new `RieszSolver` when None).  With
    `previous` given for a prefix of the same basis, only the representers
    of the new basis vectors are computed, in one `RieszSolver.representers`
    call, and appended to its QR factorization; results agree with a
    from-scratch build to round-off.
    Each new representer is projected twice against every earlier column of
    Q (classical Gram-Schmidt with reorthogonalization, in the X inner
    product).  One whose remainder is at most ``rb.DROP_TOL_DEFAULT`` times
    its incoming X-norm is dropped: every snapshot in the basis makes one
    combination of representers vanish exactly, and normalizing its
    round-off remainder would destroy the orthogonality of Q.  The result
    is also attached to ``model.estimator_data``.
    """
    if model.basis_size != basis.size:
        raise DimensionError(
            f"model has {model.basis_size} DOFs but basis has {basis.size} vectors"
        )
    if solver is None:
        solver = RieszSolver(system)

    gram = system.gram
    if previous is None:
        n_old, q_old, r = 0, np.empty((system.dof_count, 0)), np.empty((0, 0))
        columns = [solver.load[:, None]]
    else:
        if previous.online_only:
            raise ConfigurationError(
                "cannot extend estimator data loaded in online-only form"
            )
        n_old, q_old, r = previous.basis_size, previous.Q, previous.R
        if n_old > basis.size:
            raise DimensionError(f"previous data covers {n_old} > {basis.size} vectors")
        columns = []
    columns.append(solver.representers(basis.vectors[:, n_old:]))
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

    data = EstimatorData(Q=q, R=r, block_count=system.block_count)
    model.estimator_data = data
    return data


def _rom_coefficients_batch(model: ReducedModel, weights: np.ndarray) -> np.ndarray:
    """Reduced Galerkin coefficients of (T, P) weights; row t depends on row t only."""
    try:
        return np.linalg.solve(model.matrix(weights), model.load)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"singular reduced operator in the {len(weights)}-row block "
            f"from mu={tuple(weights[0].tolist())}"
        ) from exc


def prefix_coefficients(model: ReducedModel, weights: np.ndarray):
    """Yield ``(start, stop), C`` per row block of (T, P) weights, with the reduced
    Galerkin coefficients of every basis prefix: C[t, m-1, :m] = A_m(mu)^-1 l_m
    for m = 1..N at mu = weights[start + t], and zeros right of the diagonal.

    A_m(mu) is the leading block of A_N(mu), so one Cholesky factor A_N = L L^T
    serves every m: L^-1 (one LAPACK ``dtrtri`` per row) and z = L^-1 l are
    prefix-consistent, and c^(m)_i = sum_{j<m} (L^-1)_{ji} z_j is one cumulative
    sum over j.  The basis is X-orthonormal, so cond(A_m) <= max mu / min mu and
    the explicit inverse costs no accuracy.  O(N^3) per row, once for all
    sizes; `greedy.sigma_proxy` then adds O(sum_n (1 + P n)^2) per row for the
    residual norms, against O(sum_n (n^3 + (1 + P n)^2)) for a sweep of every
    prefix.  Forming a block holds three (rows, N, N) tables, A_N, L and the
    caller's previous block, within `SWEEP_BLOCK_BYTES`; the split depends on
    T, N and P only.  A factor that fails raises NumericError naming the
    block's first mu.
    """
    n = model.basis_size
    for start, stop in _row_blocks(len(weights), n, model.block_count, tables=3):
        try:
            table = np.linalg.cholesky(model.matrix(weights[start:stop]))
            for row in table:  # row.T is L^T in Fortran order, inverted in place
                if dtrtri(row.T, lower=0, overwrite_c=1)[1]:
                    raise np.linalg.LinAlgError
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                "reduced operator not positive definite in the "
                f"{stop - start}-row block from mu={tuple(weights[start].tolist())}"
            ) from exc
        table *= (table @ model.load)[:, :, None]
        yield (start, stop), np.cumsum(table, axis=1, out=table)


def _row_bytes(n: int, p: int) -> int:
    """Sweep temporaries per row: A_n(mu), c, and three vectors of 1 + P n."""
    return 8 * (n * n + n + 3 * (1 + p * n))


def _row_blocks(t_count: int, n: int, p: int, tables: int = 1) -> list[tuple[int, int]]:
    """(start, stop) of the fewest near-equal row blocks within SWEEP_BLOCK_BYTES,
    at `_row_bytes` per row plus n^2 entries for each (rows, n, n) table past one."""
    row_bytes = _row_bytes(n, p) + 8 * (tables - 1) * n * n
    count = max(1, -(-t_count // max(1, SWEEP_BLOCK_BYTES // row_bytes)))
    bounds = [t_count * k // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


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
    data: EstimatorData,
    model: ReducedModel,
    weights: np.ndarray,
    rows: Optional[np.ndarray] = None,
    pool=None,
) -> np.ndarray:
    """Vectorized error estimates for a (T, P) array of parameter weights.

    Rows run in the fewest near-equal blocks within `SWEEP_BLOCK_BYTES` (set by
    T, n, P and the budget only), one `pool` task each (inline without a
    pool), so values never depend on the worker count.  A block of r rows
    forms its matrices (``ReducedModel.matrix``, bitwise as in rb.solve_rom),
    LU-solves them, O(r n^3), and takes a residual product, O(r (P n)^2),
    whose bits may depend on r.

    With a boolean `rows` mask of length T only the masked rows are
    estimated; the others read NaN.  A block without a masked row is
    skipped, and a touched block forms and solves only its masked rows (both
    kernels are row-independent).  Its residual product keeps the block's
    full shape, with zero weights in the other rows, so each masked row is
    bitwise the value of the unmasked sweep.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    t_count, p_count = weights.shape
    _check_sizes(data, model, p_count)
    if np.any(weights <= 0):
        raise DomainError("all parameter weights must be positive")
    rows = np.ones(t_count, dtype=bool) if rows is None else np.asarray(rows)
    if rows.shape != (t_count,) or rows.dtype != bool:
        raise DimensionError(f"rows must be a boolean mask of {t_count} entries")
    norms = np.where(rows, data.load_dual_norm, np.nan)
    n = model.basis_size

    def sweep_block(bounds: tuple[int, int]) -> None:
        start, stop = bounds
        take = np.flatnonzero(rows[start:stop])
        if take.size:
            block = weights[start:stop][take]
            y = np.zeros((stop - start, p_count * n))
            y[take] = _residual_weights(block, _rom_coefficients_batch(model, block))
            norms[start + take] = _dual_norms(data, y)[take]

    (pool or WorkerPool()).map(sweep_block, _row_blocks(t_count, n, p_count) if n else [])
    return norms / weights.min(axis=1)


def estimate(data: EstimatorData, model: ReducedModel, mu: ParameterPoint) -> float:
    """Error estimate Delta_n(mu) of the reduced solution c = rb.solve_rom(model, mu)
    a caller gets: bitwise ||R [1, -mu_p c_j]||_2 / min_p mu_p by the sweep's kernel.
    A row of `estimate_sweep`, whose LU rounds c differently, agrees to round-off
    (a few machine epsilons times ||f||_{X'} / alpha).  An indefinite or non-finite
    reduced operator raises rb.solve_rom's NumericError naming mu."""
    _check_sizes(data, model, mu.size)
    norm = data.load_dual_norm
    if model.basis_size > 0:
        weights = mu.as_array()[None, :]
        coeffs = solve_rom(model, mu)[None, :]
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
    )

