"""Experiment driver: configuration, timing, error evaluation, CSV emission.

Runs the batch greedy for a list of batch sizes on the thermal-block problem,
measures offline/online/full-order times, evaluates relative test errors per
basis-prefix size, and writes the results as CSV files plus a resolved
``config.lock``.  In oracle mode every training snapshot is precomputed so
the strong greedy, the POD width surrogate, and the full empirical bound
check suite can run as well.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from numbers import Real
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import estimator, fem, greedy, rb, theory
from .errors import ConfigurationError, NumericError, _integer
from .pool import BLAS_THREADS, WorkerPool, column_blocks

logger = logging.getLogger(__name__)

#: Default cap on the training-set size; tensor grids grow fast.
TRAINING_CAP_DEFAULT = 1_000_000

#: Number of full-order solves averaged for the t_full measurement.
FULL_SOLVE_SAMPLES = 10


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one experiment run."""

    px: int = 2
    py: int = 2
    nx: int = 32
    ny: Optional[int] = None
    train_per_dim: int = 5
    test_count: int = 100
    seed: int = 0
    batch_sizes: tuple = (1, 2, 4, 8)
    tolerance: float = 1e-5
    worker_count: int = 1
    oracle: bool = False
    out: str = "results"
    max_basis_size: int = 150
    training_cap: int = TRAINING_CAP_DEFAULT

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" or (f.type == "Optional[int]" and value is not None):
                if _integer(value) is None:
                    raise ConfigurationError(f"{f.name}={value!r} must be an integer")
                object.__setattr__(self, f.name, _integer(value))
            elif f.type == "float" and (isinstance(value, bool) or not isinstance(value, Real)):
                raise ConfigurationError(f"{f.name}={value!r} must be a real number")
            elif f.type == "bool" and not isinstance(value, bool):
                raise ConfigurationError(f"{f.name}={value!r} must be true or false")
        if self.train_per_dim < 2:
            raise ConfigurationError(
                f"train_per_dim={self.train_per_dim} must be at least 2"
            )
        if self.test_count < 1:
            raise ConfigurationError(f"test_count={self.test_count} must be positive")
        sizes = tuple(_integer(b) for b in self.batch_sizes)
        if not sizes or None in sizes or min(sizes) < 1:
            raise ConfigurationError(f"invalid batch sizes {self.batch_sizes!r}")
        object.__setattr__(self, "batch_sizes", sizes)
        if not self.tolerance > 0:
            raise ConfigurationError(f"tolerance={self.tolerance} must be positive")
        if self.worker_count < 1:
            raise ConfigurationError(
                f"worker_count={self.worker_count} must be positive"
            )
        if self.max_basis_size < 1:
            raise ConfigurationError(
                f"max_basis_size={self.max_basis_size} must be positive"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed={self.seed} must be nonnegative")

    @property
    def resolved_ny(self) -> int:
        return self.nx if self.ny is None else self.ny

    @property
    def block_count(self) -> int:
        return self.px * self.py


@dataclass(frozen=True)
class RunSummary:
    """Aggregated results of one batch-size run."""

    batch_size: int
    num_ext: int
    num_iter: int
    t_solve: float
    t_evaluate: float
    t_extend: float
    t_reduce: float
    t_other: float
    t_offline: float
    t_online: float
    k_star: Optional[int]  # None without a break-even or a basis
    err_final: float
    stop_reason: str
    num_rejected: int  # selections whose snapshot the extension dropped


def build_training_set(px, py, train_per_dim, cap=TRAINING_CAP_DEFAULT):
    """Full tensor grid of equidistant weights in [0.1, 1] per block.

    Points are ordered lexicographically with the last dimension varying
    fastest; the first point is all-0.1.
    """
    if px < 1 or py < 1:
        raise ConfigurationError(f"px={px} and py={py} must be at least 1")
    if train_per_dim < 2:
        raise ConfigurationError(f"train_per_dim={train_per_dim} must be at least 2")
    count = train_per_dim ** (px * py)
    if count > cap:
        raise ConfigurationError(
            f"training grid would hold {count} points (cap {cap}); "
            f"choose a smaller train_per_dim"
        )
    values = np.linspace(fem.MU_MIN_DEFAULT, fem.MU_MAX_DEFAULT, train_per_dim)
    grids = np.meshgrid(*([values] * (px * py)), indexing="ij")
    stacked = np.stack([g.ravel() for g in grids], axis=1)
    return [fem.ParameterPoint(row) for row in stacked]


def build_test_set(px, py, count, seed):
    """Uniform random parameters in the admissible box, reproducible by seed."""
    if count < 1:
        raise ConfigurationError(f"test_count={count} must be positive")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(fem.MU_MIN_DEFAULT, fem.MU_MAX_DEFAULT, size=(count, px * py))
    return [fem.ParameterPoint(row) for row in draws]


def _prefix_test_errors(basis, model, system, weights, references, norms, sizes, pool=None):
    """Relative X-norm Galerkin errors on basis prefixes: (len(sizes), T).

    Row k holds the errors of the reduced solutions c_n of the prefix model
    of size n = sizes[k], relative to ||f||_X.  With A = V^T M_X f and the
    distances d_n of :func:`fem.projection_distances` (one call for all
    sizes, on `pool`), f - V_n c_n splits into X-orthogonal parts and
    ||f - V_n c_n||_X = hypot(d_n, ||A_{:n} - c_n||).  Every c_n comes from
    one :func:`estimator.prefix_coefficients` table over the test weights,
    O(T N^3) for all sizes, and no per-size solve.  Both parts carry
    O(eps ||f||_X) absolute error, as the explicit difference does, and
    nothing cancels.  Size 0 gives the exact value 1 (the reduced solution
    is zero).  Row t of the (T, P) array `weights` is a test point, f_t =
    `references[t]` its full-order solution and `norms[t]` that solution's
    X-norm.
    """
    for point, norm in zip(weights, norms):
        if norm <= 0.0:
            raise NumericError(f"full-order solution at weights {point.tolist()} has zero norm")
    dist, coeffs = fem.projection_distances(basis.vectors, references, system, pool)
    errors = np.ones((len(sizes), len(weights)))
    rows = [(row, n) for row, n in zip(errors, sizes) if n]
    if rows:
        for (start, stop), table in estimator.prefix_coefficients(model, weights):
            for row, n in rows:
                gap = np.linalg.norm(coeffs[:n, start:stop].T - table[:, n - 1, :n], axis=1)
                row[start:stop] = np.hypot(dist[n, start:stop], gap) / norms[start:stop]
    return errors


def evaluate_test_error(basis, model, system, test_set, fom_cache=None):
    """Relative X-norm Galerkin errors over a test set.

    Returns ``(errors, max_error)`` with one entry per test parameter, by the
    error-decay rows' code path (:func:`_prefix_test_errors` at the one size
    ``basis.size``, O(T N^3)): the projection distance to the basis and the
    coefficient gap ||V^T M_X f - c|| combine by hypot, each with
    O(eps ||f||_X) absolute error, as the explicit difference has.  An empty
    basis yields the exact value 1 for every parameter (the reduced solution
    is zero).  Pass ``fom_cache`` (a dict mapping a parameter to its
    full-order snapshot and that snapshot's X-norm) to reuse both across
    calls; missing entries are solved and added.
    """
    fom_cache = {} if fom_cache is None else fom_cache
    for mu in test_set:
        if mu not in fom_cache:
            snapshot = fem.solve_fom(system, mu)
            fom_cache[mu] = (snapshot, fem.x_norm(snapshot.coefficients, system))
    weights = np.array([mu.weights for mu in test_set])
    references = [fom_cache[mu][0].coefficients for mu in test_set]
    norms = np.array([fom_cache[mu][1] for mu in test_set])
    sizes = [basis.size]
    errors = _prefix_test_errors(basis, model, system, weights, references, norms, sizes)[0]
    return errors.tolist(), float(errors.max())


def break_even(t_offline, t_full, t_online):
    """Number of parameter queries after which the reduced model pays off.

    Returns ``ceil(t_offline / (t_full - t_online))``, or None when a full
    solve is not slower than an online solve (no break-even exists).
    """
    if t_full <= t_online:
        return None
    return math.ceil(t_offline / (t_full - t_online))


#: summary.csv in column order: each column's name and its value for a run
#: `s`, whose times are normalized against the reference run `ref`.
_SUMMARY_TABLE = (
    ("batchsizes", lambda s, ref: s.batch_size),
    ("num_ext", lambda s, ref: s.num_ext),
    ("num_iter", lambda s, ref: s.num_iter),
    ("t_solve", lambda s, ref: s.t_solve),
    ("t_evaluate", lambda s, ref: s.t_evaluate),
    ("t_extend", lambda s, ref: s.t_extend),
    ("t_reduce", lambda s, ref: s.t_reduce),
    ("t_other", lambda s, ref: s.t_other),
    ("t_offline", lambda s, ref: s.t_offline),
    ("t_online", lambda s, ref: s.t_online),
    ("t_online_n", lambda s, ref: s.t_online / ref.t_online),
    ("t_offline_n", lambda s, ref: s.t_offline / ref.t_offline),
    ("k_star", lambda s, ref: s.k_star),
    ("stop_reason", lambda s, ref: s.stop_reason),
    ("num_rejected", lambda s, ref: s.num_rejected),
    ("err_final", lambda s, ref: s.err_final),
)

SUMMARY_COLUMNS = [name for name, _ in _SUMMARY_TABLE]


def _write_csv(path, header, rows):
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summary(summaries: Sequence[RunSummary], path) -> Path:
    """Emit summary.csv with times normalized against the b=1 row."""
    ref = next((s for s in summaries if s.batch_size == 1), summaries[0])
    rows = [[_format_value(value(s, ref)) for _, value in _SUMMARY_TABLE] for s in summaries]
    return _write_csv(path, SUMMARY_COLUMNS, rows)


def batch_size_list(text: str) -> tuple:
    """Parse comma-separated batch sizes such as ``1,2,4,8``."""
    return tuple(int(part) for part in text.split(","))


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


#: Parser of a config.lock value, by the annotated type of its field.
_LOCK_PARSERS = {
    "int": int,
    "Optional[int]": int,
    "float": float,
    "tuple": batch_size_list,
    "bool": _parse_bool,
    "str": str,
}


def _lock_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(b) for b in value)
    return str(value)


def write_lock(config: ExperimentConfig, path) -> Path:
    """Write the resolved configuration as one key=value line per field."""
    resolved = replace(config, ny=config.resolved_ny)
    lines = [
        f"{f.name}={_lock_value(getattr(resolved, f.name))}"
        for f in fields(ExperimentConfig)
    ]
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_config(path) -> ExperimentConfig:
    """Parse a flat key=value config file into an ExperimentConfig."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = set(values) - set(types)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in values.items():
        try:
            kwargs[key] = _LOCK_PARSERS[types[key]](value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: {key}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def _solve_on_pool(pool, system, points, name):
    """Full-order solutions of `points` on `pool`, one task per column block.

    Returns the C-ordered (dof, width) blocks of `fem.solve_fom_block` over
    the slices of `pool.column_blocks`, in order; the first point whose
    solve fails is the one raised, whatever the worker count.  Logs the wall
    time at INFO as "<name>: <t> s (<count> in <blocks> blocks, <t> ms each)".
    """
    start = time.perf_counter()
    weights = np.array([mu.weights for mu in points])
    blocks = pool.map(lambda cols: fem.solve_fom_block(system, weights[cols]),
                      column_blocks(len(points)))
    elapsed = time.perf_counter() - start
    logger.info(
        "%s: %.3f s (%d in %d blocks, %.2f ms each)",
        name, elapsed, len(points), len(blocks), 1e3 * elapsed / max(len(points), 1),
    )
    return blocks


@contextmanager
def _logged_phase(name, *args):
    """Log the wall time of the enclosed block at INFO as "<name>: <t> s"."""
    start = time.perf_counter()
    yield
    logger.info(name + ": %.3f s", *args, time.perf_counter() - start)


def _oracle_run(mode, trace, sigma, d_up) -> dict:
    """One theory_report.json entry: a run's weakness constant and bound checks."""
    gamma = theory.empirical_gamma(trace, sigma)
    checks = theory.run_theory_checks(trace, sigma, d_up, gamma=gamma)
    return {
        "batch_size": trace.batch_size,
        "mode": mode,
        "gamma": gamma,
        "checks": [report.as_dict() for report in checks],
    }


def run_experiment(config: ExperimentConfig):
    """Run the configured experiment and write all result files.

    Returns the list of RunSummary objects, one per batch size, in the
    configured order.  `k_star` compares against the mean serial `fem.solve_fom`
    time over the first test points.  One worker pool serves the other reference
    solves and, in oracle mode, the training solves, each one task per
    64-point column block of `fem.solve_fom_block`; the oracle spans the
    training snapshots once by `rb.snapshot_basis` and drops them after the
    strong run (whose sigma is its trace's maxima), so the POD width and
    each weak run's `true_sigma` read the snapshot basis alone; no result
    depends on the worker count.  The test references are plain arrays in
    test-set order, the serial solutions first, each with one X-norm, and
    every size's test errors come from them without a further solve.  The
    wall time of each harness phase is logged at INFO, and the bulk solves
    also log their count, their blocks and the time per solve.
    """
    logger.info("BLAS threads: %s", BLAS_THREADS)
    logger.info(
        "experiment: %dx%d blocks, nx=%d, ny=%d, %d^%d training points",
        config.px, config.py, config.nx, config.resolved_ny,
        config.train_per_dim, config.block_count,
    )
    mesh = fem.build_mesh(config.nx, config.resolved_ny, config.px, config.py)
    system = fem.assemble(mesh)
    training = build_training_set(
        config.px, config.py, config.train_per_dim, config.training_cap
    )
    training_weights = np.array([mu.weights for mu in training])
    test_set = build_test_set(config.px, config.py, config.test_count, config.seed)
    test_weights = np.array([mu.weights for mu in test_set])
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    # Full-order reference timing (serial); these solutions are the first
    # error references, and the pool solves the other test points.
    timing_set = test_set[: min(FULL_SOLVE_SAMPLES, len(test_set))]
    start = time.perf_counter()
    references = [fem.solve_fom(system, mu).coefficients for mu in timing_set]
    t_full = (time.perf_counter() - start) / len(timing_set)
    logger.info("t_full = %.4g s (mean over %d solves)", t_full, len(timing_set))

    report_runs = []
    summaries = []
    with WorkerPool(config.worker_count) as pool:
        rest = test_set[len(timing_set) :]
        blocks = _solve_on_pool(pool, system, rest, "reference solves")
        # A copy of each column, not a row of one array: BLAS dot products
        # round differently at other alignments, and these feed the norms.
        references += [block[:, j].copy() for block in blocks for j in range(block.shape[1])]
        del blocks
        norms = np.array([fem.x_norm(u, system) for u in references])
        if config.oracle:
            logger.info("oracle mode: solving all %d training snapshots", len(training))
            snapshots = _solve_on_pool(pool, system, training, "training solves")
            start = time.perf_counter()
            spanned = rb.snapshot_basis(snapshots, system, pool)
            logger.info("snapshot basis: %.3f s (r=%d, %d of %d columns extended)",
                        time.perf_counter() - start, spanned.vectors.shape[1],
                        spanned.extended, len(training))
            strong_config = greedy.GreedyConfig(
                training_set=training, batch_size=1, tolerance=config.tolerance,
                max_basis_size=config.max_basis_size,
            )
            with _logged_phase("strong run"):
                _, strong_trace = greedy.run_strong_greedy(system, strong_config, spanned, snapshots)
            del snapshots  # the snapshot basis is now the training set's only form
            # b = 1 sweeps every basis size, so its maxima are its sigma.
            strong_sigma = np.array([rec.max_estimate for rec in strong_trace.iterations])
            with _logged_phase("width"):
                width = theory.pod_width_upper_bound(spanned, system)
        for b in config.batch_sizes:
            greedy_config = greedy.GreedyConfig(
                training_set=training,
                batch_size=b,
                tolerance=config.tolerance,
                max_basis_size=config.max_basis_size,
                worker_count=config.worker_count,
            )
            start = time.perf_counter()
            basis, model, trace = greedy.run_batch_greedy(system, greedy_config)
            t_offline = time.perf_counter() - start
            t_solve = sum(rec.timings.solve for rec in trace.iterations)
            t_evaluate = sum(rec.timings.evaluate for rec in trace.iterations)
            t_extend = sum(rec.timings.extend for rec in trace.iterations)
            t_reduce = sum(rec.timings.reduce for rec in trace.iterations)
            t_other = max(t_offline - (t_solve + t_evaluate + t_extend + t_reduce), 0.0)

            start = time.perf_counter()
            for mu in test_set:
                rb.solve_rom(model, mu)
            t_online = (time.perf_counter() - start) / len(test_set)

            # Densify the estimator-max sequence after timing: batch runs only
            # sweep at batch boundaries, the decay files want every n.
            with _logged_phase("b=%d: sigma proxy", b):
                proxy = greedy.sigma_proxy(model, training_weights, trace)
            with _logged_phase("b=%d: test errors", b):
                worst = _prefix_test_errors(
                    basis, model, system, test_weights, references, norms,
                    range(basis.size + 1), pool,
                ).max(axis=1)
            err_final = float(worst[-1])
            summary = RunSummary(
                batch_size=b,
                num_ext=trace.extension_count,
                num_iter=trace.iteration_count,
                t_solve=t_solve,
                t_evaluate=t_evaluate,
                t_extend=t_extend,
                t_reduce=t_reduce,
                t_other=t_other,
                t_offline=t_offline,
                t_online=t_online,
                k_star=break_even(t_offline, t_full, t_online) if trace.extension_count else None,
                err_final=err_final,
                stop_reason=trace.stop_reason,
                num_rejected=len(trace.selected_indices()) - trace.extension_count,
            )
            summaries.append(summary)
            logger.info(
                "b=%d: n=%d after %d iterations, stop=%s, err_final=%.3g, "
                "t_offline=%.3g s",
                b, trace.extension_count, trace.iteration_count, trace.stop_reason,
                err_final, t_offline,
            )

            _write_csv(
                out / f"errdecay_b{b}.csv",
                ["n", "est", "err"],
                [(n, repr(float(proxy[n])), repr(float(err))) for n, err in enumerate(worst)],
            )
            greedy.export_trace(trace, out / f"trace_b{b}.csv")

            if config.oracle:
                with _logged_phase("b=%d: true sigma", b):
                    sigma = greedy.true_sigma(basis, spanned, system)
                report_runs.append(_oracle_run("weak", trace, sigma, width.d_up))

    if config.oracle:
        report_runs.append(
            _oracle_run("strong", strong_trace, strong_sigma, width.d_up)
        )
        payload = {
            "format": "batchrb-theory-report",
            "version": 1,
            "runs": report_runs,
        }
        (out / "theory_report.json").write_text(
            json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8"
        )

    write_summary(summaries, out / "summary.csv")
    write_lock(config, out / "config.lock")
    return summaries
