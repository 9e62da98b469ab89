"""Weak batch greedy and strong greedy basis construction.

Both drivers run one loop; one iteration with batch size b is:

1. (Evaluate) sweep the error source over the training set;
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
residuals of precomputed snapshots.  With b = 1 the weak driver is exactly
the classical weak greedy.  Selection happens before any parallel work and
estimator sweeps run on a fixed single-threaded path, so traces are
independent of the worker count.
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
from .fem import AffineSystem, ParameterPoint, Snapshot, solve_fom
from .pool import WorkerPool, column_blocks, map_column_blocks

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

    def selected_indices(self, accepted_only: bool = False) -> list[int]:
        out = []
        for rec in self.iterations:
            for sel in rec.selections:
                if sel.accepted or not accepted_only:
                    out.append(sel.param_index)
        return out


def select_batch(
    estimates: np.ndarray, batch_size: int, excluded: Iterable[int] = ()
) -> list[int]:
    """Pick the batch_size largest estimates outside the excluded set.

    The first pick is the classical weak-greedy argmax; the rest are the
    next-largest values of the same estimate vector.  Ties break toward the
    smaller training-set index.  Returns fewer than batch_size indices when
    candidates run out; an empty list signals termination.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    estimates = np.asarray(estimates, dtype=float)
    excluded = set(excluded)
    picks = []
    for i in np.lexsort((np.arange(len(estimates)), -estimates)).tolist():
        if i not in excluded:
            picks.append(i)
            if len(picks) == batch_size:
                break
    return picks


class _EstimatorSweep:
    """Weak-greedy error source: the residual estimator over the training set."""

    def __init__(self, system: AffineSystem, training_set: list[ParameterPoint]):
        self.system = system
        self.weights = np.array([mu.weights for mu in training_set])
        self.solver = est_mod.RieszSolver(system)
        basis = rb.ReducedBasis.empty(system.dof_count)
        self.model = rb.reduce(basis, system)
        self.data = est_mod.build_estimator(
            self.model, basis, system, solver=self.solver
        )

    def sweep(self) -> np.ndarray:
        return est_mod.estimate_sweep(self.data, self.model, self.weights)

    def update(self, basis: rb.ReducedBasis) -> None:
        self.model = rb.extend_model(self.model, basis, self.system)
        self.data = est_mod.build_estimator(
            self.model, basis, self.system, previous=self.data, solver=self.solver
        )


class _ResidualTable:
    """Strong-greedy error source: projection residuals of known snapshots.

    Basis vectors are peeled off the residual columns explicitly, one at a
    time, so the X-norms stay true projection errors down to round-off (no
    Parseval shortcut).  A sweep keeps its product M_X R of the unchanged
    residual R for the first peel after it, so each sweep-and-peel costs one
    sparse product.
    """

    def __init__(self, system: AffineSystem, snapshots: Sequence[Snapshot]):
        self.system = system
        self.residual = np.column_stack(
            [np.asarray(s.coefficients, dtype=float) for s in snapshots]
        )
        self.size = 0  # basis vectors peeled so far
        self._gram_residual = None  # M_X @ residual, while residual is unchanged

    def sweep(self) -> np.ndarray:
        self._gram_residual = self.system.gram @ self.residual
        squares = np.einsum("ij,ij->j", self.residual, self._gram_residual)
        return np.sqrt(np.clip(squares, 0.0, None))

    def update(self, basis: rb.ReducedBasis) -> None:
        gram = self.system.gram
        for j in range(self.size, basis.size):
            v = basis.vectors[:, j]
            if self._gram_residual is None:
                coeffs = v @ (gram @ self.residual)
            else:
                coeffs = v @ self._gram_residual
                self._gram_residual = None  # freed before np.outer allocates
            for cols in column_blocks(coeffs.size):  # bounds the outer product
                self.residual[:, cols] -= np.outer(v, coeffs[cols])
        self.size = basis.size


def _run_greedy(
    system: AffineSystem,
    config: GreedyConfig,
    source,
    fetch: Callable[[list[ParameterPoint]], Sequence[Snapshot]],
    gamma_weak: float,
) -> tuple[rb.ReducedBasis, GreedyTrace]:
    """Evaluate, stop check, select, fetch snapshots, extend, update; repeat.

    `source` is an error source (`sweep()` over the training set,
    `update(basis)` after an extension); `fetch` returns the snapshots of the
    selected parameters.  Stopping uses the relative criterion
    max_mu err_n(mu) <= tolerance * max_mu err_0(mu), checked before
    selection; the run also stops when the basis reaches its cap, when no
    candidate is left, or when every member of a batch is rejected
    ("stagnated").
    """
    trace = GreedyTrace(batch_size=config.batch_size, gamma_weak=gamma_weak)
    basis = rb.ReducedBasis.empty(system.dof_count)
    excluded: set[int] = set()
    err0_max: Optional[float] = None
    iteration = 0
    while True:
        iter_start = perf_counter()
        errors = source.sweep()
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
            chosen = select_batch(errors, config.batch_size, excluded)
            if not chosen:
                stop = STOP_EXHAUSTED
        if stop is not None:
            timings = PhaseTimings(evaluate=t_evaluate)
            trace.iterations.append(
                IterationRecord(iteration, basis.size, max_err, rel, [], timings)
            )
            trace.stop_reason = stop
            return basis, trace

        excluded.update(chosen)
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
            IterationRecord(iteration, size_before, max_err, rel, selections, timings)
        )
        logger.info(
            "iter %d: n=%d, max estimate %.3e (rel %.3e), batch %s",
            iteration,
            basis.size,
            max_err,
            rel,
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

    The error source is the residual estimator; the b full-order snapshots of
    a batch are solved on the worker pool.  Raises :class:`GreedyError`
    carrying the offending parameter and the partial trace if a full-order
    solve fails.
    """
    if solver is None:
        solver = solve_fom
    p_size = config.training_set[0].size
    if p_size != system.block_count:
        raise DimensionError(
            f"training parameters have {p_size} weights, "
            f"system has {system.block_count} blocks"
        )
    source = _EstimatorSweep(system, config.training_set)
    gamma_weak = source.data.bounds.gamma_greedy(system.block_count)

    def solve_one(mu: ParameterPoint) -> Snapshot:
        try:
            return solver(system, mu)
        except Exception as exc:
            # The pool re-raises the first failure in batch order, so the
            # parameter reported does not depend on the worker count.
            raise GreedyError(f"at mu={mu.weights}: {exc}", parameter=mu) from exc

    with WorkerPool(config.worker_count) as pool:
        basis, trace = _run_greedy(
            system, config, source, lambda mus: pool.map(solve_one, mus), gamma_weak
        )
    return basis, source.model, trace


def run_strong_greedy(
    system: AffineSystem,
    config: GreedyConfig,
    snapshots: Mapping[ParameterPoint, Snapshot],
) -> tuple[rb.ReducedBasis, GreedyTrace]:
    """Batch greedy steered by true projection errors over precomputed snapshots.

    The error source is the residual table of the training snapshots.  Phase
    timings: solve covers the snapshot lookups, evaluate the error sweep,
    reduce the residual-table downdate.
    """
    missing = [mu for mu in config.training_set if mu not in snapshots]
    if missing:
        raise ConfigurationError(
            f"{len(missing)} training points without snapshots, first: {missing[0].weights}"
        )
    table = _ResidualTable(system, [snapshots[mu] for mu in config.training_set])
    return _run_greedy(
        system, config, table, lambda mus: [snapshots[mu] for mu in mus], 1.0
    )


def true_sigma(
    basis: rb.ReducedBasis, snapshots, system: AffineSystem, pool=None
) -> np.ndarray:
    """Worst X-norm projection error onto each basis prefix.

    sigma[n] = max over snapshots of || f - P_{V_n} f ||_X for the nested
    prefixes V_n, n = 0..basis.size, computed by peeling one basis vector at
    a time from the residual table (certified against cancellation).  Each
    fixed-width column block of snapshots is one `pool` task (inline without
    a pool) and sees the arithmetic of the unsplit table, so the maxima
    merged across blocks are bitwise independent of the worker count.

    `snapshots` is a mapping parameter -> Snapshot or a sequence of Snapshots.
    """
    if isinstance(snapshots, Mapping):
        snapshot_list = list(snapshots.values())
    else:
        snapshot_list = list(snapshots)
    if not snapshot_list:
        raise ConfigurationError("need at least one snapshot")

    def block_sigma(block: slice) -> list[float]:
        table = _ResidualTable(system, snapshot_list[block])
        sigma = [table.sweep().max()]
        for n in range(1, basis.size + 1):
            table.update(basis.prefix(n))
            sigma.append(table.sweep().max())
        return sigma

    return np.max(map_column_blocks(pool, block_sigma, len(snapshot_list)), axis=0)


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
