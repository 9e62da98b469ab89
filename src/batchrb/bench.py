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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import fem, greedy, rb, theory
from .errors import ConfigurationError, NumericError
from .pool import WorkerPool

logger = logging.getLogger(__name__)

#: Default cap on the training-set size; tensor grids grow fast.
TRAINING_CAP_DEFAULT = 1_000_000

#: Number of full-order solves averaged for the t_full measurement.
FULL_SOLVE_SAMPLES = 10

SUMMARY_COLUMNS = [
    "batchsizes",
    "num_ext",
    "num_iter",
    "t_solve",
    "t_evaluate",
    "t_extend",
    "t_reduce",
    "t_other",
    "t_offline",
    "t_online",
    "t_online_n",
    "t_offline_n",
    "k_star",
    "stop_reason",
]

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
        if self.train_per_dim < 2:
            raise ConfigurationError(
                f"train_per_dim={self.train_per_dim} must be at least 2"
            )
        if self.test_count < 1:
            raise ConfigurationError(f"test_count={self.test_count} must be positive")
        sizes = tuple(int(b) for b in self.batch_sizes)
        if not sizes or any(b < 1 for b in sizes):
            raise ConfigurationError(f"invalid batch sizes {self.batch_sizes!r}")
        object.__setattr__(self, "batch_sizes", sizes)
        if self.tolerance <= 0:
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
    t_full: float
    k_star: Optional[int]
    err_final: float
    stop_reason: str


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


def evaluate_test_error(basis, model, system, test_set, fom_cache=None):
    """Relative X-norm Galerkin errors over a test set.

    Returns ``(errors, max_error)`` with one entry per test parameter.  An
    empty basis yields the exact value 1 for every parameter (the reduced
    solution is zero).  Pass ``fom_cache`` (a dict mapping a parameter to its
    full-order snapshot and that snapshot's X-norm) to reuse both across
    basis prefixes; missing entries are solved and added.
    """
    if fom_cache is None:
        fom_cache = {}
    errors = []
    for mu in test_set:
        if mu not in fom_cache:
            snapshot = fem.solve_fom(system, mu)
            fom_cache[mu] = (snapshot, fem.x_norm(snapshot.coefficients, system))
        snapshot, full_norm = fom_cache[mu]
        if full_norm <= 0.0:
            raise NumericError(f"full-order solution at {mu} has zero norm")
        if model.basis_size == 0:
            errors.append(1.0)
            continue
        approx = rb.reconstruct(basis, rb.solve_rom(model, mu))
        errors.append(fem.x_norm(snapshot.coefficients - approx, system) / full_norm)
    return errors, max(errors)


def break_even(t_offline, t_full, t_online):
    """Number of parameter queries after which the reduced model pays off.

    Returns ``ceil(t_offline / (t_full - t_online))``, or None when a full
    solve is not slower than an online solve (no break-even exists).
    """
    if t_full <= t_online:
        return None
    return math.ceil(t_offline / (t_full - t_online))


def _error_decay_rows(basis, model, system, test_set, proxy, fom_cache):
    """Per-prefix rows (n, max training estimate, max relative test error)."""
    rows = []
    for n in range(basis.size + 1):
        sub_model = rb.prefix_model(model, n)
        _, worst = evaluate_test_error(
            basis.prefix(n), sub_model, system, test_set, fom_cache
        )
        rows.append((n, float(proxy[n]), worst))
    return rows


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
    reference = next(
        (s for s in summaries if s.batch_size == 1), summaries[0]
    )
    rows = []
    for s in summaries:
        rows.append(
            [
                s.batch_size,
                s.num_ext,
                s.num_iter,
                repr(s.t_solve),
                repr(s.t_evaluate),
                repr(s.t_extend),
                repr(s.t_reduce),
                repr(s.t_other),
                repr(s.t_offline),
                repr(s.t_online),
                repr(s.t_online / reference.t_online),
                repr(s.t_offline / reference.t_offline),
                _format_value(s.k_star),
                s.stop_reason,
            ]
        )
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


def _solve_on_pool(pool, system, points):
    """Full-order snapshots of `points` solved on `pool`, keyed by parameter."""
    solutions = pool.map(lambda mu: fem.solve_fom(system, mu), points)
    return dict(zip(points, solutions))


def _strong_sigma(trace) -> np.ndarray:
    """True projection errors sigma_0..sigma_N of a strong run at b = 1.

    Each sweep of the strong greedy's residual table is the true projection
    error of the basis so far, so the first maximum recorded at each basis
    size equals `greedy.true_sigma` of the final basis to the last bit.
    """
    first = {}
    for rec in trace.iterations:
        first.setdefault(rec.basis_size, rec.max_estimate)
    return np.array(list(first.values()))


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
    configured order.  One worker pool serves the reference solves and, in
    oracle mode, the training solves and the column-block peels of the POD
    width and true sigma, whose results never depend on the worker count.
    """
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
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

    # Full-order reference timing (serial), reusing the solutions for error
    # evaluation; the other test points are solved on the pool.
    timing_set = test_set[: min(FULL_SOLVE_SAMPLES, len(test_set))]
    start = time.perf_counter()
    references = {mu: fem.solve_fom(system, mu) for mu in timing_set}
    t_full = (time.perf_counter() - start) / len(timing_set)
    logger.info("t_full = %.4g s (mean over %d solves)", t_full, len(timing_set))

    snapshots = None
    width = None
    report_runs = []
    summaries = []
    with WorkerPool(config.worker_count) as pool:
        references.update(_solve_on_pool(pool, system, test_set[len(timing_set) :]))
        if config.oracle:
            logger.info("oracle mode: solving all %d training snapshots", len(training))
            snapshots = _solve_on_pool(pool, system, training)
            # The strong run's full residual table goes before the block peels
            # leave freed memory in the workers' heaps, to keep the peak low.
            strong_config = greedy.GreedyConfig(
                training_set=training, batch_size=1, tolerance=config.tolerance,
                max_basis_size=config.max_basis_size,
            )
            _, strong_trace = greedy.run_strong_greedy(system, strong_config, snapshots)
            width = theory.pod_width_upper_bound(snapshots, system, pool=pool)
        fom_cache = {
            mu: (snapshot, fem.x_norm(snapshot.coefficients, system))
            for mu, snapshot in references.items()
        }
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
            proxy = greedy.sigma_proxy(model, training_weights, trace)
            rows = _error_decay_rows(basis, model, system, test_set, proxy, fom_cache)
            err_final = rows[-1][2]
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
                t_full=t_full,
                k_star=break_even(t_offline, t_full, t_online),
                err_final=err_final,
                stop_reason=trace.stop_reason,
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
                [(n, repr(est), repr(err)) for n, est, err in rows],
            )
            greedy.export_trace(trace, out / f"trace_b{b}.csv")

            if config.oracle:
                sigma = greedy.true_sigma(basis, snapshots, system, pool)
                report_runs.append(_oracle_run("weak", trace, sigma, width.d_up))

    if config.oracle:
        report_runs.append(
            _oracle_run("strong", strong_trace, _strong_sigma(strong_trace), width.d_up)
        )
        payload = {
            "format": "batchrb-theory-report",
            "version": 1,
            "runs": report_runs,
        }
        (out / "theory_report.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    write_summary(summaries, out / "summary.csv")
    write_lock(config, out / "config.lock")
    return summaries
