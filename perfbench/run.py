"""The batchrb benchmark: one named workload, measured, checked and reported.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-heavy --seed 1 --seconds 50 --trace 0

Each workload runs in a fresh interpreter (``job.py``).  With ``--trace 0``
the set-up is repeated in further fresh interpreters and the end-to-end
metrics are printed; with ``--trace 1`` the per-layer metrics are.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
host.  See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"

#: Fresh interpreters started after the job.  Each sets up, so that
#: ``setup_s`` is a median over several, then loads the job's last model
#: from an artifact and makes passes over the online queries, one more
#: context for ``online_us`` (see ``Online`` in ``job.py``).
PROBES = 4

#: Longest the whole run may take before the benchmark gives up.
DEADLINE_S = 170

_COMMON = {"px": 2, "py": 2, "tolerance": 1e-5, "queries": 2000, "checks": 20}

#: Workload settings.  ``max_rel_err`` bounds the relative X-norm error at
#: the check points; it sits about ten times above the worst value seen over
#: seeds 0-39 at the commit that introduced the benchmark.
WORKLOADS = {
    "sweep-heavy": dict(
        _COMMON, kind="greedy", nx=32, train_per_dim=12, batch_sizes=[1], workers=1,
        max_rel_err=4e-5,
    ),
    "experiment-oracle": dict(
        _COMMON, kind="experiment", nx=64, train_per_dim=5, batch_sizes=[1, 4, 8],
        workers=2, test_count=100, max_rel_err=2e-6,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "offline_s": "s",
    "online_us": "us",
    "basis_size": "count",
    "experiment_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "fem.assemble_s": "s",
    "fem.solve_ms": "ms",
    "fem.solve_s": "s",
    "fem.solves": "count",
    "pool.solve_wall_s": "s",
    "pool.speedup": "x",
    "pool.concurrency": "x",
    "pool.bulk_map_s": "s",
    "estimator.sweep_s": "s",
    "estimator.sweeps": "count",
    "estimator.sweep_us_per_point": "us",
    "estimator.build_s": "s",
    "estimator.riesz_factor_s": "s",
    "estimator.estimate_us": "us",
    "estimator.effectivity_min": "ratio",
    "estimator.floor_points": "count",
    "estimator.bound_violations": "count",
    "rb.extend_s": "s",
    "rb.extend_model_s": "s",
    "rb.solve_rom_us": "us",
    "rb.rejected": "count",
    "online_tail_us": "us",
    "greedy.iterations": "count",
    "greedy.selected": "count",
    "greedy.accepted": "count",
    "greedy.accept_ratio": "ratio",
    "greedy.select_s": "s",
    "greedy.other_s": "s",
    "greedy.offline_s.b1": "s",
    "greedy.offline_s.b4": "s",
    "greedy.offline_s.b8": "s",
    "greedy.strong_s": "s",
    "greedy.true_sigma_s": "s",
    "theory.width_s": "s",
    "theory.checks_s": "s",
    "theory.checks_failed": "count",
    "bench.import_s": "s",
    "bench.training_set_s": "s",
    "bench.test_error_s": "s",
    "bench.test_error_solves": "count",
    "bench.sigma_proxy_s": "s",
    "host.calib_ms": "ms",
    "trace.overhead_pct": "%",
}


class JobFailed(RuntimeError):
    """A workload interpreter exited abnormally or printed no result."""


def calibrate_ms() -> float:
    """Wall time of a fixed pure-Python loop: context for slow-host runs."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def git_sha() -> str:
    """Commit of the checkout, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return "unknown"
    return top[1]


def code_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def artifact_path() -> Path:
    """Where this run's job saves its last model for the probes."""
    return STATE_DIR / f"model-{os.getpid()}.json"


def spawn(spec: dict, args, probe: bool, deadline: float) -> dict:
    """Run ``job.py`` in a fresh interpreter and return its result object.

    The interpreter is killed if it is still running at ``deadline`` (a
    ``time.monotonic`` value).  ``setup_s`` is added to the result: the
    time from just before the interpreter starts to the moment it reports
    itself ready, less the speed probes it ran meanwhile.
    """
    command = [
        sys.executable, str(HERE / "job.py"),
        "--spec", json.dumps(spec),
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--state-dir", str(STATE_DIR),
        "--artifact", str(artifact_path()),
    ]
    if probe:
        command.append("--probe")
    started = time.time()
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"the run did not end within {DEADLINE_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise JobFailed(f"workload interpreter exited with code {done.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started - result["setup_busy_s"]
    return result


def check_counts(name: str, spec: dict, seed: int, counts: dict) -> list:
    """Compare counts with earlier runs of the same code, workload and seed.

    Counts are kept under the state directory, keyed by a hash of the
    sources, the workload settings and the seed.  Returns mismatches.
    """
    key = hashlib.sha256(
        json.dumps([code_fingerprint(), name, spec, seed], sort_keys=True).encode()
    ).hexdigest()[:32]
    path = STATE_DIR / "counts" / f"{key}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    mismatches = [
        f"{count}: {known[count]} in an earlier run, {value} in this one"
        for count, value in counts.items()
        if count in known and known[count] != value
    ]
    if not mismatches:
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps({**known, **counts}, sort_keys=True) + "\n")
        partial.replace(path)
    return mismatches


def end_to_end(result: dict, probes: list) -> tuple:
    """End-to-end values as measured, and the same on the reference host.

    Times are medians: ``setup_s`` over the job's interpreter and the probes,
    ``offline_s`` and ``experiment_s`` over the job's repetitions, and
    ``online_us`` over the contexts of the job and the probes, each read as
    its median pass (see ``Online`` in ``job.py``).  The reference
    values scale every time by one factor, from the median speed probe of
    all interpreters of the run (``speed.py``).
    """
    interpreters = [result] + probes
    contexts = result["windows_us"] + [c for probe in probes for c in probe["windows_us"]]
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in interpreters),
        "offline_s": statistics.median(rep["offline_s"] for rep in result["reps"]),
        "online_us": statistics.median(
            statistics.median(context) for context in contexts
        ),
        "experiment_s": statistics.median(rep["experiment_s"] for rep in result["reps"]),
    }
    factor = speed.reference_factor([cpu for p in interpreters for cpu in p["speed"]])
    values = {name: value * factor for name, value in raw.items()}
    values.update(
        basis_size=result["counts"]["basis_size"], peak_rss_mb=peak_rss_mb(result)
    )
    return raw, factor, values


def peak_rss_mb(result: dict) -> float:
    """This process's peak resident set plus the job's, and its largest
    child's, up to the end of its first repetition.  The job is the largest
    of the processes this run starts."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + result["first_rep_rss_kb"]) / 1024.0


def host_record(args, calib_ms: float, job_host: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **job_host,
        "git_sha": git_sha(),
        "code_sha256": code_fingerprint(),
        "workload": args.workload,
        "seed": args.seed,
        "calib_ms": calib_ms,
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="Run one batchrb benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    if not (ROOT / "src" / "batchrb" / "__init__.py").is_file():
        print(f"perfbench: no batchrb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    calib_ms = calibrate_ms()
    spec = dict(workloads[args.workload], name=args.workload)
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    try:
        result = spawn(spec, args, False, deadline)
        probes = [] if args.trace else [
            spawn(spec, args, True, deadline) for _ in range(PROBES)
        ]
    except JobFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        artifact_path().unlink(missing_ok=True)

    problems = list(result["problems"])
    mismatches = check_counts(args.workload, spec, args.seed, result["counts"])
    problems += mismatches
    failed = result["failed"] + (1 if mismatches else 0)
    for problem in problems:
        print(f"perfbench: {args.workload}: check failed: {problem}", file=sys.stderr)

    print("gate: " + json.dumps(result["gate"]))
    if args.trace:
        print(f"spans: {result['spans_file']}")
        values = dict(result["layers"], **{"host.calib_ms": calib_ms})
        units = PER_LAYER_UNITS
    else:
        print("repetitions: " + json.dumps(result["reps"]))
        print("online windows (us), per context: " + json.dumps(
            result["windows_us"] + [c for probe in probes for c in probe["windows_us"]]
        ))
        print("setups (s): " + json.dumps([p["setup_s"] for p in [result] + probes]))
        raw, factor, values = end_to_end(result, probes)
        print("as measured: " + json.dumps(raw))
        print("reference-host factor: " + json.dumps(factor))
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print("host: " + json.dumps(host_record(args, calib_ms, result["host"])))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
