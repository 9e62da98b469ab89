"""Run one workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workload sweep-heavy --seeds 1-10 --seconds 50

Runs ``run.py`` once per seed, one after another, with ``--trace 0``.  For
every end-to-end metric it prints the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  ``--out`` also writes all values
as JSON.  A run that prints no result, or reports ``correct: false``, is an
error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    collected: dict = {}
    for seed in args.seeds:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct is false", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            collected.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
        ), flush=True)

    table = {name: summarize(values) for name, values in collected.items()}
    for name, row in table.items():
        print(
            f"{args.workload:18} {name:14} median {row['median']:<12.6g} "
            f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} spread {row['spread']:.4f}"
        )
    if args.out:
        payload = {"workload": args.workload, "seeds": args.seeds,
                   "seconds": args.seconds, "metrics": table}
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
