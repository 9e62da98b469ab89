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
residuals of precomputed snapshots, held in the coordinates of their
X-orthonormal snapshot basis (`rb.snapshot_basis`).  With b = 1 the weak
driver is exactly the classical weak greedy.  Selection happens before any
parallel work, and the weak driver's estimator sweeps run on fixed row
blocks, one pool task each, so traces are independent of the worker count.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from . import estimator as est_mod
from . import rb
from .errors import ConfigurationError, DimensionError, GreedyError
from .fem import (
    AffineSystem,
    ParameterPoint,
    Snapshot,
    projection_distances,
    solve_fom,
)
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
    """Configuration of a greedy run."""

    training_set: list[ParameterPoint]
    batch_size: int = 1
    tolerance: float = 1e-5
    max_basis_size: int = 150
    worker_count: int = 1

    def __post_init__(self):
        if int(self.batch_size) != self.batch_size or self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.tolerance > 0:
            raise ConfigurationError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_basis_size < 1:
            raise ConfigurationError(
                f"max_basis_size must be >= 1, got {self.max_basis_size}"
            )
        if int(self.worker_count) != self.worker_count or self.worker_count < 1:
            raise ConfigurationError(
                f"worker_count must be >= 1, got {self.worker_count}"
            )
        if not self.training_set:
            raise ConfigurationError("training_set must not be empty")
        sizes = {mu.size for mu in self.training_set}
        if len(sizes) != 1:
            raise ConfigurationError(f"mixed parameter sizes in training set: {sizes}")
        seen = set()
        for mu in self.training_set:
            if mu.weights in seen:
                raise ConfigurationError(f"duplicate training point {mu.weights}")
            seen.add(mu.weights)


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
    gamma_weak: float
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
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
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
    energy-best one and the energy error e_n cannot grow with n.  With true
    coercivity and continuity bounds alpha_LB <= alpha and gamma <= gamma_UB
    (`EffectivityBounds`), sqrt(alpha) ||e||_mu <= ||r||_{X'} <=
    sqrt(gamma) ||e||_mu, hence Delta_n <= sqrt(kappa) Delta_m for m < n.  The
    relative factor and the floor term cover the round-off of both computed
    estimates, each a few machine epsilons times ||f||_{X'} / alpha.

    The cut: provisional values of the rows with the largest bounds, each
    less its floor term (which covers their gathered-versus-blocked
    round-off), bound the b-th exact value outside `excluded` from below; one
    masked `estimate_sweep` evaluates every row whose bound reaches the cut,
    its row blocks as `pool` tasks.
    """

    #: Least number of rows that get provisional values (4 b for larger b).
    PROVISIONAL_ROWS = 64

    def __init__(self, system: AffineSystem, training_set: list[ParameterPoint], pool=None):
        self.system, self.pool = system, pool
        self.weights = np.array([mu.weights for mu in training_set])
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
        weights = self.weights[top]
        coeffs = est_mod._rom_coefficients_batch(self.model, weights)
        y = est_mod._residual_weights(weights, coeffs)
        low = est_mod._dual_norms(self.data, y) / weights.min(axis=1) - self._floor[top]
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
    fetch: Callable[[list[ParameterPoint]], Sequence[Snapshot]],
    gamma_weak: float,
) -> tuple[rb.ReducedBasis, GreedyTrace]:
    """Evaluate, stop check, select, fetch snapshots, extend, update; repeat.

    `source` is an error source (`sweep(batch_size, excluded)` over the
    training set, returning the values and the count of rows evaluated
    exactly; `update(basis)` after an extension); `fetch` returns the snapshots of the
    selected parameters.  Stopping uses the relative criterion
    max_mu err_n(mu) <= tolerance * max_mu err_0(mu), checked before
    selection; the run also stops when the basis reaches its cap, when no
    candidate is left, or when every member of a batch is rejected
    ("stagnated").
    """
    trace = GreedyTrace(batch_size=config.batch_size, gamma_weak=gamma_weak)
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
            chosen = select_batch(errors, config.batch_size, np.flatnonzero(excluded))
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
            snapshots = fetch([sel.parameter for sel in selections])
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
    system: AffineSystem,
    config: GreedyConfig,
    solver: Optional[Callable[[AffineSystem, ParameterPoint], Snapshot]] = None,
) -> tuple[rb.ReducedBasis, rb.ReducedModel, GreedyTrace]:
    """Run the weak batch greedy until tolerance, basis cap, exhaustion or
    stagnation.

    The error source is the residual estimator; its sweeps' row blocks and
    the b full-order solves of a batch run on the worker pool.  Raises
    :class:`GreedyError` carrying the offending parameter and the partial
    trace if a full-order solve fails.
    """
    if solver is None:
        solver = solve_fom
    p_size = config.training_set[0].size
    if p_size != system.block_count:
        raise DimensionError(
            f"training parameters have {p_size} weights, "
            f"system has {system.block_count} blocks"
        )

    def solve_one(mu: ParameterPoint) -> Snapshot:
        try:
            return solver(system, mu)
        except Exception as exc:
            # The pool re-raises the first failure in batch order, so the
            # parameter reported does not depend on the worker count.
            raise GreedyError(f"at mu={mu.weights}: {exc}", parameter=mu) from exc

    with WorkerPool(config.worker_count) as pool:
        source = _EstimatorSweep(system, config.training_set, pool)
        gamma_weak = source.data.bounds.gamma_greedy(system.block_count)
        basis, trace = _run_greedy(
            system, config, source, lambda mus: pool.map(solve_one, mus), gamma_weak
        )
    return basis, source.model, trace


def run_strong_greedy(
    system: AffineSystem, config: GreedyConfig, snapshots, pool=None
) -> tuple[rb.ReducedBasis, GreedyTrace]:
    """Batch greedy steered by true projection errors over precomputed snapshots.

    `snapshots` is a :class:`rb.SnapshotBasis` of the training snapshots, or
    maps every training point to its Snapshot, or holds the snapshots in
    training-set order in any other form `fem.ColumnBlocks` takes (spanned
    by :func:`rb.snapshot_basis` on `pool`).  The error source is the
    residual table in the basis's coordinates, so the run never depends on
    the worker count or the form given.  Phase timings: solve covers the
    snapshot lookups, evaluate the sweeps, reduce the peels.
    """
    training = config.training_set
    if isinstance(snapshots, Mapping):
        missing = [mu for mu in training if mu not in snapshots]
        if missing:
            raise ConfigurationError(
                f"{len(missing)} training points without snapshots, "
                f"first: {missing[0].weights}"
            )
        snapshots = [snapshots[mu] for mu in training]
    if not isinstance(snapshots, rb.SnapshotBasis):
        snapshots = rb.snapshot_basis(snapshots, system, pool)
    columns = snapshots.columns
    if columns.count != len(training):
        raise ConfigurationError(
            f"{columns.count} snapshots for {len(training)} training points"
        )
    index = {mu: t for t, mu in enumerate(training)}
    return _run_greedy(
        system,
        config,
        _ResidualTable(system, snapshots),
        lambda mus: [Snapshot(columns.column(index[mu]), mu) for mu in mus],
        1.0,
    )


def true_sigma(
    basis: rb.ReducedBasis, snapshots, system: AffineSystem, pool=None
) -> np.ndarray:
    """Worst X-norm projection error onto each basis prefix.

    sigma[n] = max over snapshots of || f - P_{V_n} f ||_X, n = 0..basis.size:
    the column maxima of :func:`fem.projection_distances` over `snapshots`,
    in any form `fem.ColumnBlocks` takes, with its column blocks on `pool`,
    so sigma is bitwise independent of the worker count.
    """
    return projection_distances(basis.vectors, snapshots, system, pool)[0].max(axis=1)


def sigma_proxy(model: rb.ReducedModel, weights: np.ndarray, trace=None) -> np.ndarray:
    """Estimator max over a training set for each nested basis prefix.

    proxy[n] = max_mu Delta_n(mu) for n = 0..model.basis_size, evaluated by
    slicing the reduced model and the offline estimator tables down to the
    first n basis vectors.  At the sizes where the greedy loop swept
    (multiples of the batch size), this reproduces the recorded
    per-iteration maxima exactly, so with the run's `trace` those maxima are
    taken as they are and only the sizes in between, which a batch run never
    evaluates live, are swept.

    `model` must carry estimator data (as left behind by the greedy loop);
    `weights` is a (T, P) array of training weights.
    """
    data = model.estimator_data
    if data is None:
        raise ConfigurationError("model carries no estimator data")
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    recorded = {r.basis_size: r.max_estimate for r in (trace.iterations if trace else [])}
    for n in range(model.basis_size + 1):
        if n not in recorded:
            sub_data, sub_model = est_mod.prefix_data(data, n), rb.prefix_model(model, n)
            recorded[n] = float(est_mod.estimate_sweep(sub_data, sub_model, weights).max())
    return np.array([recorded[n] for n in range(model.basis_size + 1)])


def export_trace(trace: GreedyTrace, path) -> Path:
    """Write one CSV row per selection: iteration, basis size at evaluation,
    training index, estimator value, acceptance, and phase timings.

    The final stop-check sweep is included with an empty param_id so the
    estimator-max sequence is recoverable from the file.
    """
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
        for rec in trace.iterations:
            timing_cells = [
                repr(rec.timings.solve),
                repr(rec.timings.evaluate),
                repr(rec.timings.extend),
                repr(rec.timings.reduce),
            ]
            if not rec.selections:
                writer.writerow(
                    [rec.iteration, rec.basis_size, "", repr(rec.max_estimate), ""]
                    + timing_cells
                )
                continue
            for sel in rec.selections:
                writer.writerow(
                    [
                        rec.iteration,
                        rec.basis_size,
                        sel.param_index,
                        repr(sel.estimate),
                        int(sel.accepted),
                    ]
                    + timing_cells
                )
    return path
