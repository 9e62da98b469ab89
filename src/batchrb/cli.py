"""Command-line entry point for running thermal-block experiments."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from typing import Optional, Sequence

from .bench import ExperimentConfig, batch_size_list, load_config, run_experiment
from .errors import ConfigurationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchrb",
        description=(
            "Run the batch greedy reduced-basis experiment on the thermal "
            "block and write summary/error-decay CSV files."
        ),
    )
    parser.add_argument(
        "config",
        nargs="?",
        default=None,
        help="optional key=value config file; flags override its entries",
    )
    parser.add_argument("--px", type=int, help="blocks in x direction")
    parser.add_argument("--py", type=int, help="blocks in y direction")
    parser.add_argument("--nx", type=int, help="grid cells in x direction")
    parser.add_argument("--ny", type=int, help="grid cells in y direction (default: nx)")
    parser.add_argument(
        "--train-per-dim", type=int, dest="train_per_dim",
        help="training grid points per parameter dimension",
    )
    parser.add_argument(
        "--test-count", type=int, dest="test_count",
        help="number of random test parameters",
    )
    parser.add_argument(
        "--batch-sizes", type=batch_size_list, dest="batch_sizes",
        help="comma-separated batch sizes, e.g. 1,2,4,8",
    )
    parser.add_argument(
        "--tol", type=float, dest="tolerance",
        help="relative estimator tolerance for the greedy stop",
    )
    parser.add_argument(
        "--workers", type=int, dest="worker_count",
        help="worker count for parallel snapshot solves (at most one per available CPU)",
    )
    parser.add_argument("--seed", type=int, help="seed for the random test set")
    parser.add_argument(
        "--oracle", action="store_true", default=None,
        help="also run the strong greedy and the empirical bound checks",
    )
    parser.add_argument("--out", help="output directory (default: results)")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="log per-iteration progress",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        flags = vars(args)
        overrides = {
            f.name: flags[f.name]
            for f in dataclasses.fields(ExperimentConfig)
            if flags.get(f.name) is not None
        }
        config = dataclasses.replace(config, **overrides)
        summaries = run_experiment(config)
    except ConfigurationError as exc:
        parser.exit(2, f"batchrb: {exc}\n")
    for summary in summaries:
        k_star = "-" if summary.k_star is None else summary.k_star
        print(
            f"b={summary.batch_size}: n={summary.num_ext} "
            f"({summary.num_iter} iterations), err={summary.err_final:.3e}, "
            f"offline {summary.t_offline:.3g}s, online {summary.t_online * 1e3:.3g}ms, "
            f"break-even after {k_star} queries"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
