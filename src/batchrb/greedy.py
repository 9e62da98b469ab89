"""Weak batch greedy and strong greedy basis construction.

Both drivers run one loop; one iteration with batch size b is:

1. (Evaluate) sweep the error source over the training set (the weak driver
   evaluates exactly only the rows a certified bound does not rule out, with
   the maximum, picks and values of a full sweep, bit for bit);
2. (Select) take the argmax as in the classical greedy, then the b - 1
   next-largest values of the *same* sweep — no re-evaluation between batch
   members;
3. (Solve) get the b full-order snapshots: the weak driver farms the solves
   out to the worker pool, the strong driver looks them up;
4. (Extend) orthonormalize the batch into the basis, discarding members that
   have become linearly dependent;
5. (Reduce) update the error source to the extended basis.

The weak driver's error source is the residual estimator (reduced model plus
offline estimator data); the strong driver's is the table of true projection
residuals of precomputed snapshots, held in the coordinates of the
X-orthonormal snapshot basis it is given (an `rb.SnapshotBasis`).  With
b = 1 the weak driver is exactly the classical weak greedy.  Selection
happens before any parallel work, and the weak driver's estimator sweeps run
on fixed row blocks, one pool task each, so traces are independent of the
worker count.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import estimator as est_mod
from . import rb
# The lazy sweep's provisional values, bound at import: a tracer that wraps
# `estimator.estimate_sweep` counts one full sweep per iteration, not these too.
from .estimator import estimate_sweep as _provisional_sweep
from .errors import ConfigurationError, GreedyError, _check_positive_real, _checked_int
from .fem import (AffineSystem, ColumnBlocks, ParameterPoint, ParameterSet, Snapshot,
                  _tail_squares, _x_orthonormal, solve_fom)
from .pool import WorkerPool

__all__ = [
    "GreedyConfig",
    "GreedyTrace",
    "IterationRecord",
    "SelectionRecord",
    "PhaseTimings",
    "select_batch",
    "run_batch_greedy",
    "run_strong_greedy",
    "true_sigma",
    "sigma_proxy",
    "export_trace",
]

logger = logging.getLogger(__name__)

STOP_TOLERANCE = "tolerance"
STOP_MAX_BASIS = "max_basis"
STOP_EXHAUSTED = "exhausted"
STOP_STAGNATED = "stagnated"


@dataclass
class GreedyConfig:
    """Configuration of a greedy run.

    `training_set` must be a nonempty :class:`fem.ParameterSet` of distinct
    points (ConfigurationError otherwise), so a run reads its (T, P) array
    and builds only the selected points; the duplicate check holds O(T)
    memory beyond the array.  The counts go through `errors._checked_int`
    and `tolerance` through `errors._check_positive_real`.
    """

    training_set: ParameterSet
    batch_size: int = 1
    tolerance: float = 1e-5
    max_basis_size: int = 150
    worker_count: int = 1

    def __post_init__(self):
        for name in ("batch_size", "max_basis_size", "worker_count"):
            setattr(self, name, _checked_int(name, getattr(self, name), 1))
        _check_positive_real("tolerance", self.tolerance)
        if not isinstance(self.training_set, ParameterSet) or not self.training_set:
            raise ConfigurationError("training_set must be a nonempty fem.ParameterSet, "
                                     f"got {type(self.training_set).__name__}")
        duplicate = _first_duplicate(self.training_set.weights)
        if duplicate is not None:
            raise ConfigurationError(
                f"duplicate training point {self.training_set[duplicate].weights}"
            )


def _first_duplicate(weights: np.ndarray) -> Optional[int]:
    """Index of the first row of `weights` equal to an earlier row, or None.

    Each row's bit patterns hash to one 64-bit word by FNV-1a over its
    weights (h -> (h ^ w) * K, a bijection in h, so rows differing in one
    weight never collide); only rows whose word recurs are compared, by
    their bytes, in row order.  Exact for positive finite weights, where
    equal values have equal bits.  O(T P) time; beyond the array it holds
    the T words, one sorted copy of them and a mask.
    """
    keys = np.full(len(weights), 0xCBF29CE484222325, dtype=np.uint64)
    for column in weights.view(np.uint64).T:
        keys ^= column
        keys *= np.uint64(0x100000001B3)
    ranked = np.sort(keys)
    repeated = ranked[1:][ranked[1:] == ranked[:-1]]
    del ranked
    seen = set()
    for t in np.flatnonzero(np.isin(keys, repeated)).tolist():
        row = weights[t].tobytes()
        if row in seen:
            return t
        seen.add(row)
    return None


@dataclass(frozen=True)
class PhaseTimings:
    solve: float = 0.0
    evaluate: float = 0.0
    extend: float = 0.0
    reduce: float = 0.0
    other: float = 0.0


@dataclass
class SelectionRecord:
    """One selected training point: index, estimator value, extension outcome."""

    param_index: int
    parameter: ParameterPoint
    estimate: float
    accepted: bool = True


@dataclass
class IterationRecord:
    iteration: int
    basis_size: int  # before this iteration's extension
    max_estimate: float
    rel_estimate: float
    selections: list[SelectionRecord]
    timings: PhaseTimings
    evaluated: int  # training points whose error was evaluated exactly


@dataclass
class GreedyTrace:
    """Per-iteration records plus the expansion matrix of accepted snapshots."""

    batch_size: int
    iterations: list[IterationRecord] = field(default_factory=list)
    amatrix_rows: list[np.ndarray] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def extension_count(self) -> int:
        """Number of accepted basis vectors."""
        return len(self.amatrix_rows)

    @property
    def iteration_count(self) -> int:
        """Number of iterations that selected candidates (the final
        stop-check sweep is recorded but does not count)."""
        return sum(1 for rec in self.iterations if rec.selections)

    @property
    def amatrix(self) -> np.ndarray:
        """Lower-triangular expansion matrix: row m holds the coefficients of
        accepted snapshot m in the orthonormal basis, diagonal = remainder norm."""
        n = len(self.amatrix_rows)
        matrix = np.zeros((n, n))
        for m, row in enumerate(self.amatrix_rows):
            matrix[m, : len(row)] = row
        return matrix

    def selected_indices(self) -> list[int]:
        return [sel.param_index for rec in self.iterations for sel in rec.selections]


def select_batch(
    estimates: np.ndarray, batch_size: int, excluded: Iterable[int] = ()
) -> list[int]:
    """Pick the batch_size largest estimates outside the excluded set.

    The first pick is the classical weak-greedy argmax; the rest are the
    next-largest values of the same estimate vector.  Ties break toward the
    smaller training-set index.  Returns fewer than batch_size indices when
    candidates run out; an empty list signals termination.  Costs O(T) plus
    a sort of the values that reach the (batch_size + |excluded|)-th largest.
    `batch_size` goes through the one count check, `errors._checked_int`.
    """
    batch_size = _checked_int("batch_size", batch_size, 1)
    keys = -np.asarray(estimates, dtype=float)
    excluded = set(excluded)
    count = min(batch_size + len(excluded), len(keys))
    if not count:
        return []
    # The picks are among the first `count` of the full order, so only the
    # keys up to the count-th smallest need sorting.  NaN keys sort last in
    # both `partition` and `lexsort`; a NaN cut keeps every key.
    cut = np.partition(keys, count - 1)[count - 1]
    candidates = np.flatnonzero(~(keys > cut))
    picks = []
    for i in candidates[np.lexsort((candidates, keys[candidates]))].tolist():
        if i not in excluded:
            picks.append(i)
            if len(picks) == batch_size:
                break
    return picks


class _EstimatorSweep:
    """Weak-greedy error source: the residual estimator over the training set.

    A sweep evaluates exactly only the rows that could still be the maximum
    or a batch pick, and returns a certified upper bound for the others:

        B(mu) = min over evaluated m of  sqrt(kappa) Delta_m(mu) (1 + 1e-12)
                + (1 + sqrt(kappa)) CANCELLATION_RATIO ||f||_{X'} / alpha(mu)

    with kappa = gamma_UB(mu) / alpha_LB(mu).  Proof: A(mu) is symmetric and
    coercive, so the Galerkin solution on the nested spaces V_m in V_n is the
    energy-best one and the energy error e_n cannot grow with n.  The X-norm
    bounds alpha_LB = min_p mu_p <= alpha and gamma <= gamma_UB = max_p mu_p
    give sqrt(alpha) ||e||_mu <= ||r||_{X'} <= sqrt(gamma) ||e||_mu, hence
    Delta_n <= sqrt(kappa) Delta_m for m < n.  The relative factor and the
    floor term cover the round-off of both computed estimates, each a few
    machine epsilons times ||f||_{X'} / alpha.

    The cut: provisional values of the rows with the largest bounds (one
    inline `estimate_sweep` of those rows), each less its floor term (which
    covers their gathered-versus-blocked round-off), bound the b-th exact
    value outside `excluded` from below; one masked `estimate_sweep`
    evaluates every row whose bound reaches the cut, its row blocks as
    `pool` tasks.
    """

    #: Least number of rows that get provisional values (4 b for larger b).
    PROVISIONAL_ROWS = 64

    def __init__(self, system: AffineSystem, training_set: ParameterSet, pool=None):
        self.system, self.pool = system, pool
        self.weights = training_set.weights
        self.solver = est_mod.RieszSolver(system)
        basis = rb.ReducedBasis.empty(system.dof_count)
        self.model = rb.reduce(basis, system)
        self.data = est_mod.build_estimator(
            self.model, basis, system, solver=self.solver
        )
        alpha = self.weights.min(axis=1)
        root_kappa = np.sqrt(self.weights.max(axis=1) / alpha)
        self._slope = root_kappa * (1 + 1e-12)
        self._floor = (
            (1 + root_kappa) * est_mod.CANCELLATION_RATIO * self.data.load_dual_norm / alpha
        )
        self._bound = np.full(len(alpha), np.inf)

    def sweep(self, batch_size: int, excluded: np.ndarray) -> tuple[np.ndarray, int]:
        """Estimates (bounds in rows not evaluated) and the evaluated row count."""
        rows = self._rows(batch_size, excluded)
        values = est_mod.estimate_sweep(self.data, self.model, self.weights, rows, self.pool)
        bound = np.where(rows, self._slope * values + self._floor, np.inf)
        np.minimum(self._bound, bound, out=self._bound)
        return np.where(rows, values, self._bound), int(rows.sum())

    def _rows(self, batch_size: int, excluded: np.ndarray) -> np.ndarray:
        """Mask of the rows that a full sweep's maximum and picks can come from."""
        every = np.ones(len(self._bound), dtype=bool)
        top_count = max(self.PROVISIONAL_ROWS, 4 * batch_size)
        if not self.model.basis_size or top_count >= len(every):
            return every
        top = np.argpartition(self._bound, -top_count)[-top_count:]
        top = top[~excluded[top]]
        if len(top) < batch_size:
            return every
        low = _provisional_sweep(self.data, self.model, self.weights[top]) - self._floor[top]
        rows = self._bound >= np.partition(low, -batch_size)[-batch_size]
        rows[top] = True
        return rows

    def update(self, basis: rb.ReducedBasis) -> None:
        self.model = rb.extend_model(self.model, basis, self.system)
        self.data = est_mod.build_estimator(
            self.model, basis, self.system, previous=self.data, solver=self.solver
        )


class _ResidualTable:
    """Strong-greedy error source: projection residuals in the coordinates of
    a snapshot basis f_t = Q a_t + r_t (:class:`rb.SnapshotBasis`).

    The r x T table R starts as A; a sweep returns sqrt(rho_t**2 +
    ||R_t||**2), and an update peels each new basis vector v off R as
    c = (M_X Q)^T v, R -= c (c^T R).  Since v lies in span(Q) up to the
    remainders, the values are the residual X-norms up to
    O(DROP_TOL_DEFAULT ||f||_X).  O(r T) per vector and sweep.
    """

    def __init__(self, system: AffineSystem, snapshots: rb.SnapshotBasis):
        self.weighted = system.gram @ snapshots.vectors  # M_X Q
        self.table = snapshots.coeffs.copy()
        self.floor = snapshots.remainders**2
        self.size = 0  # basis vectors peeled so far

    def sweep(self, batch_size: int, excluded: np.ndarray) -> tuple[np.ndarray, int]:
        squares = self.floor + np.einsum("ij,ij->j", self.table, self.table)
        return np.sqrt(squares), squares.size

    def update(self, basis: rb.ReducedBasis) -> None:
        for j in range(self.size, basis.size):
            c = self.weighted.T @ basis.vectors[:, j]
            self.table -= np.outer(c, c @ self.table)
        self.size = basis.size


def _run_greedy(
    system: AffineSystem,
    config: GreedyConfig,
    source,
    fetch: Callable[[list[SelectionRecord]], Sequence[Snapshot]],
) -> tuple[rb.ReducedBasis, GreedyTrace]:
    """Evaluate, stop check, select, fetch snapshots, extend, update; repeat.

    `source` is an error source (`sweep(batch_size, excluded)` over the
    training set, returning the values and the count of rows evaluated
    exactly; `update(basis)` after an extension); `fetch` returns the snapshots of the
    selections.  Stopping uses the relative criterion
    max_mu err_n(mu) <= tolerance * max_mu err_0(mu), checked before
    selection; the run also stops when the basis reaches its cap (a batch
    selects at most the room left under it), when no candidate is left, or
    when every member of a batch is rejected ("stagnated").
    """
    trace = GreedyTrace(batch_size=config.batch_size)
    basis = rb.ReducedBasis.empty(system.dof_count)
    excluded = np.zeros(len(config.training_set), dtype=bool)
    err0_max: Optional[float] = None
    iteration = 0
    while True:
        iter_start = perf_counter()
        errors, evaluated = source.sweep(config.batch_size, excluded)
        t_evaluate = perf_counter() - iter_start
        max_err = float(errors.max())
        if err0_max is None:
            err0_max = max_err
        rel = max_err / err0_max if err0_max > 0 else 0.0

        stop = None
        if rel <= config.tolerance:
            stop = STOP_TOLERANCE
        elif basis.size >= config.max_basis_size:
            stop = STOP_MAX_BASIS
        else:
            # At most the room left under the cap, at least one member.
            room = min(config.batch_size, config.max_basis_size - basis.size)
            chosen = select_batch(errors, room, np.flatnonzero(excluded))
            if not chosen:
                stop = STOP_EXHAUSTED
        if stop is not None:
            timings = PhaseTimings(evaluate=t_evaluate)
            trace.iterations.append(
                IterationRecord(iteration, basis.size, max_err, rel, [], timings, evaluated)
            )
            trace.stop_reason = stop
            return basis, trace

        excluded[chosen] = True
        selections = [
            SelectionRecord(i, config.training_set[i], float(errors[i])) for i in chosen
        ]

        t0 = perf_counter()
        try:
            snapshots = fetch(selections)
        except Exception as exc:
            trace.stop_reason = "error"
            raise GreedyError(
                f"full-order solve failed during iteration {iteration}: {exc}",
                parameter=getattr(exc, "parameter", None),
                trace=trace,
            ) from exc
        t_solve = perf_counter() - t0

        size_before = basis.size
        t0 = perf_counter()
        basis, ext_records = rb.extend(basis, snapshots, system, iteration=iteration)
        t_extend = perf_counter() - t0

        t0 = perf_counter()
        source.update(basis)
        t_reduce = perf_counter() - t0

        for sel, ext in zip(selections, ext_records):
            sel.accepted = ext.accepted
            if ext.accepted:
                trace.amatrix_rows.append(np.asarray(ext.coefficients))
        phases = t_solve + t_evaluate + t_extend + t_reduce
        other = max(perf_counter() - iter_start - phases, 0.0)
        timings = PhaseTimings(t_solve, t_evaluate, t_extend, t_reduce, other)
        trace.iterations.append(
            IterationRecord(
                iteration, size_before, max_err, rel, selections, timings, evaluated
            )
        )
        logger.info(
            "iter %d: n=%d, max estimate %.3e (rel %.3e), evaluated %d/%d, batch %s",
            iteration,
            basis.size,
            max_err,
            rel,
            evaluated,
            len(errors),
            [sel.param_index for sel in selections],
        )
        if basis.size == size_before:
            # The largest errors belong to snapshots the basis already spans:
            # the error source is at its floor and more candidates would
            # only be solved and rejected the same way.
            trace.stop_reason = STOP_STAGNATED
            return basis, trace
        iteration += 1


def run_batch_greedy(
    system: AffineSystem, config: GreedyConfig
) -> tuple[rb.ReducedBasis, rb.ReducedModel, GreedyTrace]:
    """Run the weak batch greedy until tolerance, basis cap, exhaustion or
    stagnation.

    The error source is the residual estimator; its sweeps' row blocks and
    the b full-order solves of a batch run on the worker pool.  Raises
    :class:`GreedyError` carrying the offending parameter and the partial
    trace if a full-order solve fails, and the first sweep's DimensionError,
    before any full-order solve, if the training set's P is not the system's.
    """
    def solve_one(mu: ParameterPoint) -> Snapshot:
        try:
            # Looked up per call, so a rebinding of `greedy.solve_fom` is seen.
            return solve_fom(system, mu)
        except Exception as exc:
            # The pool re-raises the first failure in batch order, so the
            # parameter reported does not depend on the worker count.
            raise GreedyError(f"at mu={mu.weights}: {exc}", parameter=mu) from exc

    with WorkerPool(config.worker_count) as pool:
        source = _EstimatorSweep(system, config.training_set, pool)
        basis, trace = _run_greedy(
            system, config, source, lambda sels: pool.map(solve_one, [s.parameter for s in sels])
        )
    return basis, source.model, trace


def run_strong_greedy(
    system: AffineSystem, config: GreedyConfig, spanned: rb.SnapshotBasis, snapshots
) -> tuple[rb.ReducedBasis, GreedyTrace]:
    """Batch greedy steered by true projection errors over precomputed snapshots.

    `snapshots`, in any form `fem.ColumnBlocks` takes, and their
    :class:`rb.SnapshotBasis` `spanned` are in training-set order.  The error
    source is the residual table in the basis's coordinates, so the run never
    depends on the worker count; `snapshots` is read for the selected columns
    only and not kept.  Phase timings: solve covers the snapshot lookups,
    evaluate the sweeps, reduce the peels.
    """
    training, columns = config.training_set, ColumnBlocks(snapshots)
    if not columns.count == spanned.coeffs.shape[1] == len(training):
        raise ConfigurationError(f"{columns.count} snapshots for {len(training)} training points "
                                 f"(spanned: {spanned.coeffs.shape[1]})")
    return _run_greedy(system, config, _ResidualTable(system, spanned), lambda sels: [
        Snapshot(columns.column(s.param_index), s.parameter) for s in sels])


def true_sigma(basis: rb.ReducedBasis, snapshots, system: AffineSystem) -> np.ndarray:
    """Worst X-norm projection error onto each basis prefix.

    sigma[n] = max_t ||f_t - P_{V_n} f_t||_X, n = 0..basis.size, in the
    coordinates f_t = Q a_t + r_t of `snapshots`' :class:`rb.SnapshotBasis`
    (any other `fem.ColumnBlocks` form is spanned here, inline).  With
    B = Q^T M_X V and C = B^T A, sigma_n(t)**2 = rho_t**2 + ||a_t - B c_t||**2
    + sum_{j >= n} C_{jt}**2, accumulated from the last vector back, and
    sigma[0] is the largest direct norm.  Exact up to O(rho) for a V built
    from snapshots of the same set, which lies in span(Q) up to such
    remainders; max|B^T B - I| is logged at INFO.  O(r N dof + r N T), no
    dof x T array; NumericError when max|V^T M_X V - I| exceeds
    `fem.ORTHONORMALITY_TOL`.
    """
    spanned = rb.snapshot_basis(snapshots, system)
    b = spanned.vectors.T @ _x_orthonormal(basis.vectors, system.gram)
    c = b.T @ spanned.coeffs
    outside = b @ c
    outside -= spanned.coeffs  # -(a_t - B c_t), one r x T table
    floor = spanned.remainders**2 + np.einsum("ij,ij->j", outside, outside)
    sigma = np.sqrt(_tail_squares(floor, c).max(axis=1))
    sigma[0] = spanned.norms.max()
    logger.info("true sigma: n=%d in r=%d snapshot coordinates, max|B^T B - I| = %.1e",
                basis.size, len(b), np.abs(b.T @ b - np.eye(basis.size)).max(initial=0.0))
    return sigma


def sigma_proxy(model: rb.ReducedModel, weights: np.ndarray, trace=None) -> np.ndarray:
    """Estimator max over a training set for each nested basis prefix.

    proxy[n] = max_mu Delta_n(mu) for n = 0..model.basis_size, the maximum of
    ``estimate_sweep`` on the first n basis vectors.  The sizes a run's
    `trace` recorded (where the loop swept: multiples of the batch size) keep
    their recorded maxima bitwise; size 0 is max ||f||_{X'} / min_p mu_p.
    Every other size takes its coefficients from one
    :func:`estimator.prefix_coefficients` table per row block, O(T N^3) once,
    and its residual norms from the sweep's ``_dual_norms`` on the leading
    block of R, O(T (1 + P n)^2) each, so it agrees with a sweep to
    round-off (a few machine epsilons times Delta_0).  When
    the trace holds every size (b = 1), nothing is factored.

    `model` must carry estimator data (as left behind by the greedy loop);
    `weights` is a (T, P) training weight array, checked by fem.ParameterSet.
    """
    data = model.estimator_data
    if data is None:
        raise ConfigurationError("model carries no estimator data")
    weights = ParameterSet(np.atleast_2d(weights)).weights
    p_count = weights.shape[1]
    est_mod._check_sizes(data, model, p_count)
    alpha, size = weights.min(axis=1), model.basis_size
    proxy = np.zeros(size + 1)
    proxy[0] = (data.load_dual_norm / alpha).max()
    recorded = {r.basis_size: r.max_estimate for r in (trace.iterations if trace else [])}
    # Sizes go in fixed runs of at most N^2 / (1 + P N), so a run's residual
    # vectors hold at most one table's entries per row.  A run shares one
    # product with R's leading block for its largest size: C[t, m-1, m:] = 0,
    # so a smaller size's residual gains only exact zeros.  A run without a
    # missing size is skipped and the others keep their shape, so no value
    # depends on which sizes the trace recorded.
    bounds = [*range(1, size + 1, max(1, size * size // (1 + p_count * size))), size + 1]
    runs = [(a, b) for a, b in zip(bounds, bounds[1:]) if not recorded.keys() >= set(range(a, b))]
    if runs:
        for (start, stop), table in est_mod.prefix_coefficients(model, weights):
            block, scale = weights[start:stop], alpha[start:stop, None]
            for first, end in runs:
                last, k = end - 1, 1 + p_count * (end - 1)
                # A view of R's leading block: prefix_data would copy it per block.
                leading = est_mod.EstimatorData(None, data.R[:k, :k], p_count)
                coeffs = table[:, first - 1 : last, :last].reshape(-1, last)
                y = est_mod._residual_weights(np.repeat(block, end - first, axis=0), coeffs)
                norms = est_mod._dual_norms(leading, y)
                worst = (norms.reshape(len(block), -1) / scale).max(axis=0)
                proxy[first:end] = np.maximum(proxy[first:end], worst)
    for n, value in recorded.items():
        proxy[n] = value
    return proxy


def export_trace(trace: GreedyTrace, path) -> Path:
    """Write one CSV row per selection: iteration, basis size at evaluation,
    training index, estimator value, acceptance, and phase timings.

    The final stop-check sweep is included with an empty param_id so the
    estimator-max sequence is recoverable from the file.
    """
    rows = []
    for rec in trace.iterations:
        t = rec.timings
        timings = [repr(t.solve), repr(t.evaluate), repr(t.extend), repr(t.reduce)]
        picks = [(s.param_index, repr(s.estimate), int(s.accepted)) for s in rec.selections]
        for pick in picks or [("", repr(rec.max_estimate), "")]:
            rows.append([rec.iteration, rec.basis_size, *pick, *timings])
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [
                "iter",
                "n",
                "param_id",
                "est_value",
                "accepted",
                "t_solve",
                "t_evaluate",
                "t_extend",
                "t_reduce",
            ]
        )
        writer.writerows(rows)
    return path
