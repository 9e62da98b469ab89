"""One workload run in a fresh interpreter: set up, measure, check, report.

``run.py`` starts this file as

    python3 job.py --spec JSON --seed N --seconds S --trace 0|1
                   --state-dir DIR --artifact FILE [--probe]

and reads the last line of its standard output, one JSON object.  The
workload is repeated while another repetition is expected to end within
``--seconds``, and the time left is spent on more passes over the online
queries; every repetition is checked for correctness.  Without tracing,
the host's speed is sampled every ``speed.PERIOD_S`` throughout, and timed
intervals leave those samples out.  With ``--trace 1`` one untraced
repetition runs first, then one with every layer entry point of
``batchrb`` rebound to a span-recording wrapper, and the per-layer numbers
are read from that traced repetition.  Without tracing, the last model is
saved to ``--artifact``.  With ``--probe`` the process sets up, reports
when it is ready, loads that artifact as an online application would and
makes ``ONLINE_PASSES`` passes over the queries.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans as spans_mod
import speed as speed_mod

ROOT = Path(__file__).resolve().parent.parent

#: Batch sizes whose offline time is reported as ``greedy.offline_s.b<k>``.
REPORTED_BATCH_SIZES = (1, 4, 8)

#: Passes over the online queries after each build, and in each probe.
ONLINE_PASSES = 3


def import_layers():
    """Import the program's layers from the checkout; returns them and the time taken."""
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    from batchrb import bench, estimator, fem, greedy, pool, rb, theory

    elapsed = perf_counter() - start
    layers = SimpleNamespace(
        bench=bench, estimator=estimator, fem=fem, greedy=greedy,
        pool=pool, rb=rb, theory=theory,
    )
    return layers, elapsed


def entry_points(layers):
    """(owner, attribute, span name) for every traced layer entry point.

    Names that a caller looks up at call time in its own module, such as
    ``greedy.solve_fom``, are rebound where that caller finds them.
    """
    fem, greedy, estimator, rb = layers.fem, layers.greedy, layers.estimator, layers.rb
    bench, theory = layers.bench, layers.theory
    return [
        (fem, "build_mesh", "fem.build_mesh"),
        (fem, "assemble", "fem.assemble"),
        (fem, "solve_fom", "fem.solve_fom"),
        (greedy, "solve_fom", "fem.solve_fom"),
        (estimator, "estimate_sweep", "estimator.estimate_sweep"),
        (estimator, "build_estimator", "estimator.build_estimator"),
        (estimator.RieszSolver, "__init__", "estimator.riesz_factor"),
        (estimator, "estimate", "estimator.estimate"),
        (rb, "extend", "rb.extend"),
        (rb, "extend_model", "rb.extend_model"),
        (rb, "solve_rom", "rb.solve_rom"),
        (greedy, "select_batch", "greedy.select_batch"),
        (greedy, "run_batch_greedy", "greedy.run_batch_greedy"),
        (greedy, "run_strong_greedy", "greedy.run_strong_greedy"),
        (greedy, "true_sigma", "greedy.true_sigma"),
        (greedy, "sigma_proxy", "greedy.sigma_proxy"),
        (theory, "pod_width_upper_bound", "theory.pod_width_upper_bound"),
        (theory, "run_theory_checks", "theory.run_theory_checks"),
        (theory, "empirical_gamma", "theory.empirical_gamma"),
        (bench, "build_training_set", "bench.build_training_set"),
        (bench, "evaluate_test_error", "bench.evaluate_test_error"),
        (bench, "run_experiment", "bench.run_experiment"),
    ]


def instrument(layers, tracer: spans_mod.Tracer):
    """Context manager that traces every layer entry point while it is open."""
    bindings = [
        (owner, attribute, tracer.wrap(vars(owner)[attribute], name))
        for owner, attribute, name in entry_points(layers)
    ]
    worker_pool = layers.pool.WorkerPool
    plain_map = vars(worker_pool)["map"]

    def traced_map(pool, fn, items):
        # Tasks run on the pool's threads; they inherit the map span as parent.
        parent = tracer.current()

        def task(item):
            with tracer.adopt(parent):
                return fn(item)

        return plain_map(pool, task, items)

    bindings.append((worker_pool, "map", tracer.wrap(traced_map, "pool.map")))
    return spans_mod.patched(bindings)


@dataclass
class Run:
    """One greedy build: the system it ran on and what it returned."""

    system: object
    basis: object
    model: object
    trace: object


@dataclass
class Rep:
    """Measurements of one repetition of a workload.

    Times are wall times less the speed probes (``speed.py``).  ``latencies``
    are those of the first pass over the queries, which ``experiment_s``
    includes.
    """

    offline_s: float
    experiment_s: float
    latencies: list
    traces: list
    offline_by_b: dict
    counts: dict
    checks_failed: int = 0
    problems: list = field(default_factory=list)


def trace_counts(runs) -> dict:
    """Counts read from the builds' traces; ``basis_size`` is the last build's."""
    selected = sum(len(rec.selections) for run in runs for rec in run.trace.iterations)
    accepted = sum(run.trace.extension_count for run in runs)
    return {
        "greedy.iterations": sum(run.trace.iteration_count for run in runs),
        "greedy.selected": selected,
        "greedy.accepted": accepted,
        "rb.rejected": selected - accepted,
        "basis_size": runs[-1].basis.size,
    }


def query_latencies(layers, model, queries) -> list:
    """Per-query wall time of an online solve plus its error estimate."""
    data = model.estimator_data
    latencies = []
    for mu in queries:
        start = perf_counter()
        layers.rb.solve_rom(model, mu)
        layers.estimator.estimate(data, model, mu)
        latencies.append(perf_counter() - start)
    return latencies


class Online:
    """Passes over the online queries and the median latency of each,
    grouped by context: one per build and one per probe process.

    Per-query speed differs between contexts by up to 1.9x, all passes of
    one context alike, while a speed probe run between the passes does not
    move.  So ``online_us`` gives each context one vote, and a context
    with many passes does not decide the run alone.
    """

    def __init__(self, layers, queries):
        self.layers = layers
        self.queries = queries
        self.contexts = []

    def new_context(self):
        self.contexts.append([])

    def run_pass(self, model) -> list:
        """One pass in the current context; returns its per-query latencies."""
        latencies = query_latencies(self.layers, model, self.queries)
        self.contexts[-1].append(statistics.median(latencies) * 1e6)
        return latencies


def reference_solutions(layers, system, points):
    """Full-order solutions at the check points, solved one after another.

    Also returns the median wall time of one such serial solve.
    """
    solutions, durations = [], []
    for mu in points:
        start = perf_counter()
        solutions.append(layers.fem.solve_fom(system, mu).coefficients)
        durations.append(perf_counter() - start)
    return solutions, statistics.median(durations)


#: Relative X-norm error below which the gate does not require the error
#: estimate to bound the true error.  There the estimator's squared-residual
#: expansion has lost its digits to cancellation: its own cancellation
#: ratio is 1e-7 in the dual norm, and the coercivity bound divides by
#: weights down to 0.1.  Check points below it are counted, not gated.
ERROR_FLOOR = 1e-6


def gate(layers, runs, points, references, max_rel_err):
    """Check greedy builds against full-order solutions at check points.

    Returns ``(problems, stats)``.  A build must have stopped at its
    tolerance and stay within ``max_rel_err`` in the relative X-norm at every
    check point.  Its error estimate must bound the true error at every
    check point where the relative error is at least ``ERROR_FLOOR``.
    ``stats`` holds the worst relative error, the smallest effectivity
    (estimate over true error) at any check point, the number of check
    points below the floor and the number where the estimate does not bound
    the error.
    """
    fem, rb, estimator = layers.fem, layers.rb, layers.estimator
    problems = []
    stats = {"max_rel_err": 0.0, "effectivity_min": float("inf"),
             "floor_points": 0, "bound_violations": 0}
    gated_violations = 0
    for run in runs:
        if run.trace.stop_reason != "tolerance":
            problems.append(
                f"b={run.trace.batch_size} stopped for {run.trace.stop_reason!r}"
            )
        for mu, exact in zip(points, references):
            approx = rb.reconstruct(run.basis, rb.solve_rom(run.model, mu))
            error = fem.x_norm(exact - approx, run.system)
            relative = error / fem.x_norm(exact, run.system)
            stats["max_rel_err"] = max(stats["max_rel_err"], relative)
            bound = estimator.estimate(run.model.estimator_data, run.model, mu)
            if error > 0.0:
                stats["effectivity_min"] = min(stats["effectivity_min"], bound / error)
            below_floor = relative < ERROR_FLOOR
            stats["floor_points"] += below_floor
            if bound < error:
                stats["bound_violations"] += 1
                gated_violations += not below_floor
    if stats["max_rel_err"] > max_rel_err:
        problems.append(
            f"relative test error {stats['max_rel_err']:.3e} above the bound {max_rel_err:.1e}"
        )
    if gated_violations:
        problems.append(
            f"estimate below the true error at {gated_violations} check points "
            f"above the error floor"
        )
    return problems, stats


def check_experiment_files(summary_rows, report, batch_sizes) -> list:
    """summary.csv holds one row per batch size; every theory check passes."""
    problems = []
    found = [int(row["batchsizes"]) for row in summary_rows]
    if found != list(batch_sizes):
        problems.append(f"summary.csv rows for b={found}, expected {list(batch_sizes)}")
    failed = [
        f"{run['mode']} b={run['batch_size']} {check['name']}: {check['status']}"
        for run in report["runs"]
        for check in run["checks"]
        if check["status"] != "pass"
    ]
    if failed:
        problems.append("theory checks not passed: " + "; ".join(failed))
    return problems


class GreedyJob:
    """A certified-model build with ``greedy.run_batch_greedy``, then online queries."""

    def __init__(self, layers, spec):
        self.layers = layers
        self.spec = spec
        mesh = layers.fem.build_mesh(spec["nx"], spec["nx"], spec["px"], spec["py"])
        self.system = layers.fem.assemble(mesh)
        training = layers.bench.build_training_set(
            spec["px"], spec["py"], spec["train_per_dim"]
        )
        (self.batch_size,) = spec["batch_sizes"]
        self.config = layers.greedy.GreedyConfig(
            training_set=training,
            batch_size=self.batch_size,
            tolerance=spec["tolerance"],
            worker_count=spec["workers"],
        )

    def run_rep(self, sampler: speed_mod.SpeedProbe, online: Online):
        start = perf_counter()
        (basis, model, trace), offline = sampler.timed(
            self.layers.greedy.run_batch_greedy, self.system, self.config
        )
        online.new_context()
        latencies = online.run_pass(model)
        whole = sampler.since(start)
        for _ in range(ONLINE_PASSES - 1):
            online.run_pass(model)
        runs = [Run(self.system, basis, model, trace)]
        rep = Rep(
            offline_s=offline.raw_s,
            experiment_s=whole.raw_s,
            latencies=latencies,
            traces=[trace],
            offline_by_b={self.batch_size: offline.raw_s},
            counts=trace_counts(runs),
        )
        return rep, runs


class ExperimentJob:
    """``bench.run_experiment`` in oracle mode, as the ``batchrb`` CLI runs it."""

    def __init__(self, layers, spec, state_dir: Path):
        self.layers = layers
        self.spec = spec
        self.out = state_dir / f"out-{os.getpid()}"

    def run_rep(self, sampler: speed_mod.SpeedProbe, online: Online):
        layers, spec = self.layers, self.spec
        config = layers.bench.ExperimentConfig(
            px=spec["px"], py=spec["py"], nx=spec["nx"],
            train_per_dim=spec["train_per_dim"], test_count=spec["test_count"],
            seed=spec["seed"], batch_sizes=tuple(spec["batch_sizes"]),
            tolerance=spec["tolerance"], worker_count=spec["workers"],
            oracle=True, out=str(self.out),
        )
        runs, builds = [], []
        build = vars(layers.greedy)["run_batch_greedy"]

        def capture(system, greedy_config, *args, **kwargs):
            result, took = sampler.timed(build, system, greedy_config, *args, **kwargs)
            runs.append(Run(system, *result))
            builds.append(took)
            return result

        try:
            with spans_mod.patched([(layers.greedy, "run_batch_greedy", capture)]):
                _, whole = sampler.timed(layers.bench.run_experiment, config)
            with (self.out / "summary.csv").open(newline="") as handle:
                summary = list(csv.DictReader(handle))
            report = json.loads((self.out / "theory_report.json").read_text())
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        online.new_context()
        latencies = online.run_pass(runs[-1].model)
        for _ in range(ONLINE_PASSES - 1):
            online.run_pass(runs[-1].model)
        rep = Rep(
            offline_s=sum(took.raw_s for took in builds),
            experiment_s=whole.raw_s,
            latencies=latencies,
            traces=[run.trace for run in runs],
            offline_by_b={int(row["batchsizes"]): float(row["t_offline"]) for row in summary},
            counts=trace_counts(runs),
            checks_failed=sum(
                check["status"] != "pass"
                for run in report["runs"]
                for check in run["checks"]
            ),
            problems=check_experiment_files(summary, report, spec["batch_sizes"]),
        )
        return rep, runs


def percentile(values, share):
    """Nearest-rank percentile of ``values`` at ``share`` in [0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(
    spec, tracer, plain: Rep, traced: Rep, gate_stats, serial_solve_s, import_s
) -> dict:
    """Per-layer numbers from the spans and the traced repetition's own reports."""
    spans = tracer.spans
    by_id = {span.id: span for span in spans}

    def named(name, under=None):
        return [
            span for span in spans
            if span.name == name
            and (under is None or spans_mod.has_ancestor(span, under, by_id))
        ]

    def total(name, under=None):
        return sum(span.duration for span in named(name, under))

    def median_duration(name, scale):
        durations = [span.duration for span in named(name)]
        return statistics.median(durations) * scale if durations else 0.0

    def phase(name):
        return sum(
            getattr(rec.timings, name) for trace in traced.traces for rec in trace.iterations
        )

    solve_wall = phase("solve")
    greedy_solves = named("fem.solve_fom", "greedy.run_batch_greedy")
    solve_busy = sum(span.duration for span in greedy_solves)
    sweeps = named("estimator.estimate_sweep", "greedy.run_batch_greedy")
    sweep_s = sum(span.duration for span in sweeps)
    points = len(sweeps) * spec["train_per_dim"] ** (spec["px"] * spec["py"])
    counts = traced.counts
    metrics = {
        "fem.assemble_s": total("fem.assemble"),
        "fem.solve_ms": serial_solve_s * 1e3,
        "fem.solve_s": total("fem.solve_fom"),
        "fem.solves": len(named("fem.solve_fom")),
        "pool.solve_wall_s": solve_wall,
        "pool.speedup": len(greedy_solves) * serial_solve_s / solve_wall,
        "pool.concurrency": solve_busy / solve_wall,
        "pool.bulk_map_s": max((span.duration for span in named("pool.map")), default=0.0),
        "estimator.sweep_s": sweep_s,
        "estimator.sweeps": len(sweeps),
        "estimator.sweep_us_per_point": sweep_s / points * 1e6 if points else 0.0,
        "estimator.build_s": total("estimator.build_estimator"),
        "estimator.riesz_factor_s": total("estimator.riesz_factor"),
        "estimator.estimate_us": median_duration("estimator.estimate", 1e6),
        "estimator.effectivity_min": gate_stats["effectivity_min"],
        "estimator.floor_points": gate_stats["floor_points"],
        "estimator.bound_violations": gate_stats["bound_violations"],
        "rb.extend_s": total("rb.extend"),
        "rb.extend_model_s": total("rb.extend_model"),
        "rb.solve_rom_us": median_duration("rb.solve_rom", 1e6),
        "rb.rejected": counts["rb.rejected"],
        "online_tail_us": percentile(plain.latencies, 0.995) * 1e6,
        "greedy.iterations": counts["greedy.iterations"],
        "greedy.selected": counts["greedy.selected"],
        "greedy.accepted": counts["greedy.accepted"],
        "greedy.accept_ratio": counts["greedy.accepted"] / max(counts["greedy.selected"], 1),
        "greedy.select_s": total("greedy.select_batch", "greedy.run_batch_greedy"),
        "greedy.other_s": phase("other"),
        "greedy.strong_s": total("greedy.run_strong_greedy"),
        "greedy.true_sigma_s": total("greedy.true_sigma"),
        "theory.width_s": total("theory.pod_width_upper_bound"),
        "theory.checks_s": total("theory.run_theory_checks") + total("theory.empirical_gamma"),
        "theory.checks_failed": traced.checks_failed,
        "bench.import_s": import_s,
        "bench.training_set_s": total("bench.build_training_set"),
        "bench.test_error_s": total("bench.evaluate_test_error"),
        "bench.test_error_solves": len(named("fem.solve_fom", "bench.evaluate_test_error")),
        "bench.sigma_proxy_s": total("greedy.sigma_proxy"),
        "trace.overhead_pct": (traced.experiment_s / plain.experiment_s - 1.0) * 100.0,
    }
    for b in REPORTED_BATCH_SIZES:
        metrics[f"greedy.offline_s.b{b}"] = traced.offline_by_b.get(b, 0.0)
    return metrics


def blas_info(numpy) -> dict:
    """BLAS library name and thread count, where numpy reveals them."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # older numpy has no dict mode
        name = "unknown"
    threads = None
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
        libraries = {line.split()[-1] for line in maps if "blas" in line.lower()}
        for path in sorted(libraries):
            library = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                getter = getattr(library, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    threads = int(getter())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return {"blas": name, "blas_threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload settings as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--state-dir", type=Path, required=True)
    parser.add_argument("--artifact", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    sampler = speed_mod.SpeedProbe(0 if args.trace else speed_mod.PERIOD_S)
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


def run(args, sampler: speed_mod.SpeedProbe) -> int:
    """Set up, report readiness, then measure (or probe) and print the result."""
    setup_start = perf_counter()
    spec = dict(json.loads(args.spec), seed=args.seed)
    tracer = spans_mod.Tracer() if args.trace else None

    layers, import_s = import_layers()
    sampler.start()
    tracing = instrument(layers, tracer) if tracer else nullcontext()
    points = layers.bench.build_test_set(
        spec["px"], spec["py"], spec["queries"] + spec["checks"], args.seed
    )
    queries, check_points = points[: spec["queries"]], points[spec["queries"]:]
    with tracing:
        if spec["kind"] == "greedy":
            job = GreedyJob(layers, spec)
        else:
            job = ExperimentJob(layers, spec, args.state_dir)
    ready_at = time.time()
    ready = {"ready_at": ready_at, "setup_busy_s": sampler.since(setup_start).busy_s}
    if args.probe:
        model, _ = layers.rb.load_artifact(args.artifact)
        online = Online(layers, queries)
        online.new_context()
        for _ in range(ONLINE_PASSES):
            online.run_pass(model)
        print(json.dumps(dict(ready, windows_us=online.contexts, speed=sampler.cpu_times())))
        return 0

    import numpy
    import scipy

    reps = []
    problems = []
    failed = 0
    references = None
    serial_solve_s = None
    last_run = None
    gate_stats = {}

    def measure(traced: bool):
        nonlocal failed, references, serial_solve_s, last_run
        last_run = None  # let the previous model go before the next build
        with instrument(layers, tracer) if traced else nullcontext():
            rep, runs = job.run_rep(sampler, online)
        last_run = runs[-1]
        if references is None:
            references, serial_solve_s = reference_solutions(
                layers, runs[0].system, check_points
            )
        found, stats = gate(layers, runs, check_points, references, spec["max_rel_err"])
        for name, value in stats.items():
            merge = min if name == "effectivity_min" else max
            gate_stats[name] = merge(gate_stats.get(name, value), value)
        found += rep.problems
        if reps:
            first = reps[0].counts
            found += [
                f"{name}: {first[name]} in the first repetition, {value} in this one"
                for name, value in rep.counts.items()
                if name in first and first[name] != value
            ]
        if found:
            failed += 1
            problems.extend(found)
        reps.append(rep)
        return rep

    online = Online(layers, queries)
    started = perf_counter()
    if tracer:
        plain = measure(traced=False)
        traced = measure(traced=True)
        layers_out = layer_metrics(
            spec, tracer, plain, traced, gate_stats, serial_solve_s, import_s
        )
        traced.counts.update(
            {name: layers_out[name] for name in ("fem.solves", "estimator.sweeps")}
        )
    else:
        while True:
            measure(traced=False)
            if len(reps) == 1:
                # Later repetitions can raise the peak through a fragmented
                # heap, and how many fit depends on the host's speed.
                first_rep_rss_kb = sum(
                    resource.getrusage(who).ru_maxrss
                    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
                )
            elapsed = perf_counter() - started
            typical = statistics.median(rep.experiment_s for rep in reps)
            if elapsed + typical > args.seconds:
                break
        pass_s = sum(reps[-1].latencies)
        while perf_counter() - started + pass_s < args.seconds:
            online.run_pass(last_run.model)
        layers.rb.save_artifact(last_run.model, last_run.basis, args.artifact)

    result = {
        **ready,
        "attempted": len(reps),
        "failed": failed,
        "problems": problems,
        "counts": reps[-1].counts,
        "gate": gate_stats,
        "host": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            **blas_info(numpy),
        },
    }
    if tracer:
        result["layers"] = layers_out
        spans_dir = args.state_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{spec['name']}-seed{args.seed}.json"
        spans_file.write_text(
            json.dumps(
                {
                    "summary": spans_mod.summarize(tracer.spans),
                    "spans": [vars(span) for span in tracer.spans],
                }
            )
            + "\n"
        )
        result["spans_file"] = str(spans_file)
    else:
        result["windows_us"] = online.contexts
        result["first_rep_rss_kb"] = first_rep_rss_kb
        result["reps"] = [
            {"offline_s": rep.offline_s, "experiment_s": rep.experiment_s} for rep in reps
        ]
        result["speed"] = sampler.cpu_times()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
