"""Tests for the experiment driver: configs, break-even, CSV/JSON outputs."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from batchrb import bench, cli, estimator, fem, greedy, rb
from batchrb.errors import ConfigurationError, NumericError
from batchrb.pool import WorkerPool


@pytest.fixture(scope="module")
def system():
    return fem.assemble(fem.build_mesh(8, 8, 2, 2))


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiment")
    return bench.ExperimentConfig(
        px=2,
        py=2,
        nx=8,
        train_per_dim=3,
        test_count=5,
        seed=7,
        batch_sizes=(1, 2),
        tolerance=1e-3,
        oracle=True,
        out=str(out),
    )


@pytest.fixture(scope="module")
def experiment(small_config):
    summaries = bench.run_experiment(small_config)
    return small_config, summaries


@pytest.fixture(scope="module")
def greedy_run(system):
    training = bench.build_training_set(2, 2, 3)
    config = greedy.GreedyConfig(training_set=training, tolerance=1e-3)
    return greedy.run_batch_greedy(system, config)


@pytest.fixture(scope="module")
def twin_runs(tmp_path_factory):
    def once(tag):
        config = bench.ExperimentConfig(
            px=2, py=2, nx=8, train_per_dim=3, test_count=4, seed=11,
            batch_sizes=(2,), tolerance=1e-2,
            out=str(tmp_path_factory.mktemp(tag)),
        )
        return config, bench.run_experiment(config)

    return once("rerun_a"), once("rerun_b")


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestBreakEven:
    def test_reference_timings(self):
        # Measured offline/online/full-solve times for four problem setups
        # and the query counts at which the reduced model starts paying off.
        cases = [
            (1656.0, 52.87, 0.0177, 32),
            (489.0, 52.87, 0.0212, 10),
            (124351.0, 52.87, 0.1363, 2359),
            (19790.0, 52.87, 0.1738, 376),
        ]
        for t_offline, t_full, t_online, expected in cases:
            assert bench.break_even(t_offline, t_full, t_online) == expected

    def test_exact_division_boundary(self):
        assert bench.break_even(10.0, 2.0, 1.0) == 10
        assert bench.break_even(10.5, 2.0, 1.0) == 11

    def test_undefined_when_full_solve_not_slower(self):
        assert bench.break_even(100.0, 1.0, 1.0) is None
        assert bench.break_even(100.0, 1.0, 2.0) is None

    def test_amortization_property(self):
        k = bench.break_even(7.3, 0.51, 0.02)
        saving = 0.51 - 0.02
        assert k * saving >= 7.3
        assert (k - 1) * saving < 7.3


class TestTrainingSet:
    def test_single_block_endpoints(self):
        points = bench.build_training_set(1, 1, 2)
        assert [mu.weights for mu in points] == [(0.1,), (1.0,)]

    def test_single_block_four_levels(self):
        points = bench.build_training_set(1, 1, 4)
        values = np.array([mu.weights[0] for mu in points])
        np.testing.assert_allclose(values, [0.1, 0.4, 0.7, 1.0], atol=1e-15)

    def test_tensor_grid_order_last_dimension_fastest(self):
        points = bench.build_training_set(2, 2, 3)
        assert len(points) == 81
        arr = np.array([mu.weights for mu in points])
        np.testing.assert_allclose(arr[0], [0.1, 0.1, 0.1, 0.1], atol=1e-15)
        np.testing.assert_allclose(arr[1], [0.1, 0.1, 0.1, 0.55], atol=1e-15)
        np.testing.assert_allclose(arr[3], [0.1, 0.1, 0.55, 0.1], atol=1e-15)
        np.testing.assert_allclose(arr[-1], [1.0, 1.0, 1.0, 1.0], atol=1e-15)
        assert len({mu.weights for mu in points}) == 81

    def test_levels_are_equidistant(self):
        points = bench.build_training_set(1, 1, 3)
        values = [mu.weights[0] for mu in points]
        np.testing.assert_allclose(np.diff(values), 0.45, atol=1e-15)

    def test_cap_enforced(self):
        with pytest.raises(ConfigurationError, match="cap"):
            bench.build_training_set(2, 2, 3, cap=80)
        assert len(bench.build_training_set(2, 2, 3, cap=81)) == 81

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            bench.build_training_set(0, 1, 3)
        with pytest.raises(ConfigurationError):
            bench.build_training_set(1, 1, 1)

    @pytest.mark.parametrize("name, args", [
        ("train_per_dim", (2, 2, 2.5)),
        ("px", (2.5, 2, 3)),
        ("py", (2, "2", 3)),
        ("cap", (2, 2, 3, math.nan)),
        ("cap", (2, 2, 3, math.inf)),
        ("train_per_dim", (2, 2, None)),
    ])
    def test_rejects_non_integer_arguments(self, name, args):
        """A NaN cap must not turn the memory guard off."""
        with pytest.raises(ConfigurationError, match=f"^{name}=.* must be an integer"):
            bench.build_training_set(*args)

    def test_integer_valued_arguments_accepted(self):
        points = bench.build_training_set(2.0, np.int64(2), 3.0, cap=81.0)
        assert points.weights.tobytes() == bench.build_training_set(2, 2, 3).weights.tobytes()

    @pytest.mark.parametrize("px, py, per_dim", [(1, 1, 2), (2, 2, 3), (3, 1, 4)])
    def test_same_points_as_a_list_of_the_grid(self, px, py, per_dim):
        values = np.linspace(0.1, 1.0, per_dim)
        grids = np.meshgrid(*([values] * (px * py)), indexing="ij")
        grid = np.stack([g.ravel() for g in grids], axis=1)
        expected = [fem.ParameterPoint(row) for row in grid]
        points = bench.build_training_set(px, py, per_dim)
        assert isinstance(points, fem.ParameterSet) and len(points) == len(expected)
        weights = [mu.weights for mu in expected]
        assert [mu.weights for mu in points] == weights
        for i in (0, 1, len(expected) - 1, -1, -2, -len(expected)):
            assert points[i].weights == weights[i]
        for part in (slice(1, None, 2), slice(-3, None), slice(None, None, -1), slice(2, 2)):
            assert [mu.weights for mu in points[part]] == weights[part]

    def test_config_holds_about_the_array(self):
        """65,536 points: the (T, P) array is 2 MiB; a list of points held ~16 MB."""
        tracemalloc.start()
        try:
            config = greedy.GreedyConfig(training_set=bench.build_training_set(2, 2, 16))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        array = config.training_set.weights.nbytes
        assert array == 2 << 20
        assert held <= 2 * array
        assert peak <= 2 * array


class TestTestSet:
    def test_reproducible_by_seed(self):
        first = bench.build_test_set(2, 2, 20, seed=3)
        second = bench.build_test_set(2, 2, 20, seed=3)
        assert [mu.weights for mu in first] == [mu.weights for mu in second]

    def test_seed_changes_draws(self):
        first = bench.build_test_set(2, 2, 20, seed=3)
        second = bench.build_test_set(2, 2, 20, seed=4)
        assert [mu.weights for mu in first] != [mu.weights for mu in second]

    def test_within_admissible_box(self):
        arr = np.array([mu.weights for mu in bench.build_test_set(1, 2, 200, seed=0)])
        assert arr.shape == (200, 2)
        assert arr.min() >= 0.1
        assert arr.max() <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            bench.build_test_set(1, 1, 0, seed=0)

    @pytest.mark.parametrize("name, args", [
        ("count", (2, 2, 2.5, 0)),
        ("seed", (2, 2, 3, 1.5)),
        ("seed", (2, 2, 3, -1)),
        ("px", (2.5, 2, 3, 0)),
    ])
    def test_rejects_non_integer_arguments(self, name, args):
        with pytest.raises(ConfigurationError, match=f"^{name}=.* must be an integer"):
            bench.build_test_set(*args)


class TestEvaluateTestError:
    def test_empty_basis_gives_exactly_one(self, system, greedy_run):
        basis, model, _ = greedy_run
        test_set = bench.build_test_set(2, 2, 4, seed=1)
        errors, worst = bench.evaluate_test_error(
            basis.prefix(0), rb.prefix_model(model, 0), system, test_set
        )
        assert errors == [1.0, 1.0, 1.0, 1.0]
        assert worst == 1.0

    def test_snapshot_parameter_reproduced(self, system, greedy_run):
        basis, model, trace = greedy_run
        mu = trace.iterations[0].selections[0].parameter
        errors, worst = bench.evaluate_test_error(basis, model, system, [mu])
        assert worst <= 1e-8

    def test_full_basis_beats_empty(self, system, greedy_run):
        basis, model, _ = greedy_run
        test_set = bench.build_test_set(2, 2, 4, seed=1)
        _, worst = bench.evaluate_test_error(basis, model, system, test_set)
        assert worst < 0.1

    def test_cache_reused_and_filled(self, system, greedy_run):
        basis, model, _ = greedy_run
        test_set = bench.build_test_set(2, 2, 3, seed=2)
        cache = {}
        first, _ = bench.evaluate_test_error(
            basis, model, system, test_set, fom_cache=cache
        )
        assert set(cache) == set(test_set)
        second, _ = bench.evaluate_test_error(
            basis, model, system, test_set, fom_cache=cache
        )
        assert first == second

    def test_zero_full_order_solution_rejected(self, system, greedy_run):
        basis, model, _ = greedy_run
        dead = dataclasses.replace(system, load=np.zeros_like(system.load))
        mu = fem.ParameterPoint((0.5, 0.5, 0.5, 0.5))
        with pytest.raises(NumericError):
            bench.evaluate_test_error(basis.prefix(0), rb.prefix_model(model, 0), dead, [mu])


class TestConfig:
    def test_defaults_are_valid(self):
        config = bench.ExperimentConfig()
        assert config.resolved_ny == config.nx
        assert config.batch_sizes == (1, 2, 4, 8)

    def test_explicit_ny_preserved(self):
        config = bench.ExperimentConfig(nx=16, ny=24)
        assert config.resolved_ny == 24

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"train_per_dim": 1},
            {"test_count": 0},
            {"batch_sizes": ()},
            {"batch_sizes": (1, 0)},
            {"tolerance": 0.0},
            {"worker_count": 0},
            {"max_basis_size": 0},
            {"seed": -1},
            {"tolerance": float("nan")},
            {"tolerance": "1e-3"},
            {"tolerance": None},
            {"tolerance": True},
            {"oracle": "no"},
            {"oracle": 1},
            {"oracle": None},
        ],
    )
    def test_validation(self, kwargs, tmp_path):
        (name,) = kwargs
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match=name.replace("_", "[_ ]")):
            bench.ExperimentConfig(out=str(out), **kwargs)
        assert not out.exists()

    def test_infinite_tolerance_accepted(self):
        assert bench.ExperimentConfig(tolerance=float("inf")).tolerance == float("inf")

    def test_non_integer_batch_sizes_rejected(self):
        """As GreedyConfig does, rather than truncating 1.5 to 1."""
        with pytest.raises(ConfigurationError, match="invalid batch sizes"):
            bench.ExperimentConfig(batch_sizes=(1.5, 2))
        assert bench.ExperimentConfig(batch_sizes=[1.0, 4]).batch_sizes == (1, 4)

    @pytest.mark.parametrize(
        "name",
        [
            "px", "py", "nx", "ny", "train_per_dim", "test_count", "seed",
            "worker_count", "max_basis_size", "training_cap",
        ],
    )
    @pytest.mark.parametrize("value", [2.5, "3", float("nan"), float("inf"), True])
    def test_non_integer_fields_rejected(self, name, value):
        """Each integer field names itself in a ConfigurationError, as batch
        sizes do, instead of failing later with an untyped TypeError."""
        with pytest.raises(ConfigurationError, match=f"^{name}=.* must be an integer"):
            bench.ExperimentConfig(**{name: value})
        assert type(getattr(bench.ExperimentConfig(**{name: 3.0}), name)) is int

    @pytest.mark.parametrize("sizes", ["1,2", (1, "x"), (1, None), (1, float("inf"))])
    def test_non_numeric_batch_sizes_rejected(self, sizes):
        with pytest.raises(ConfigurationError, match="invalid batch sizes"):
            bench.ExperimentConfig(batch_sizes=sizes)

    def test_lock_round_trip(self, tmp_path):
        config = bench.ExperimentConfig(
            px=3, py=1, nx=12, ny=20, train_per_dim=4, test_count=17, seed=9,
            batch_sizes=(2, 5), tolerance=3.5e-4, worker_count=2,
            oracle=True, out="elsewhere", max_basis_size=40, training_cap=5000,
        )
        default = bench.ExperimentConfig()
        for f in dataclasses.fields(bench.ExperimentConfig):
            assert getattr(config, f.name) != getattr(default, f.name), f.name
        path = bench.write_lock(config, tmp_path / "config.lock")
        assert bench.load_config(path) == config

    def test_lock_is_flat_key_value(self, tmp_path):
        path = bench.write_lock(bench.ExperimentConfig(), tmp_path / "config.lock")
        lines = path.read_text().splitlines()
        assert all(line.count("=") >= 1 for line in lines)
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == [f.name for f in dataclasses.fields(bench.ExperimentConfig)]
        assert "ny=32" in lines  # resolved, not blank

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "partial.lock"
        path.write_text("# comment\n\nnx=10\ntolerance=1e-2\n")
        loaded = bench.load_config(path)
        assert loaded.nx == 10
        assert loaded.tolerance == 1e-2
        assert loaded.px == 2  # default fills the rest

    @pytest.mark.parametrize(
        "text",
        [
            "mystery=1\n",
            "nx=ten\n",
            "oracle=yes\n",
            "just a line without separator\n",
            "batch_sizes=1,two\n",
        ],
    )
    def test_load_rejects_malformed(self, tmp_path, text):
        path = tmp_path / "bad.lock"
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            bench.load_config(path)


class TestRunExperiment:
    def test_returns_one_summary_per_batch_size(self, experiment):
        config, summaries = experiment
        assert [s.batch_size for s in summaries] == [1, 2]

    def test_all_result_files_written(self, experiment):
        config, _ = experiment
        out = Path(config.out)
        expected = [
            "summary.csv",
            "errdecay_b1.csv",
            "errdecay_b2.csv",
            "trace_b1.csv",
            "trace_b2.csv",
            "config.lock",
            "theory_report.json",
        ]
        for name in expected:
            assert (out / name).is_file(), name

    def test_summary_columns_and_rows(self, experiment, tmp_path):
        config, summaries = experiment
        header, rows = read_csv(Path(config.out) / "summary.csv")
        assert header == bench.SUMMARY_COLUMNS == [
            "batchsizes", "num_ext", "num_iter", "t_solve", "t_evaluate",
            "t_extend", "t_reduce", "t_other", "t_offline", "t_online",
            "t_online_n", "t_offline_n", "k_star", "stop_reason",
            "num_rejected", "err_final",
        ]
        assert len(rows) == 2
        ref = summaries[0]
        assert ref.batch_size == 1
        for row, s in zip(rows, summaries):
            cells = dict(zip(header, row))
            assert len(row) == len(header)
            assert cells.pop("batchsizes") == str(s.batch_size)
            assert cells.pop("t_online_n") == repr(s.t_online / ref.t_online)
            assert cells.pop("t_offline_n") == repr(s.t_offline / ref.t_offline)
            assert cells.pop("k_star") == ("" if s.k_star is None else str(s.k_star))
            for name in ("num_ext", "num_iter", "stop_reason", "num_rejected"):
                assert cells.pop(name) == str(getattr(s, name)), name
            for name, cell in cells.items():
                assert cell == repr(getattr(s, name)), name
        unknown = dataclasses.replace(ref, k_star=None)
        _, (row,) = read_csv(bench.write_summary([unknown], tmp_path / "summary.csv"))
        assert row[header.index("k_star")] == ""

    def test_summary_carries_stop_reason(self, experiment):
        config, summaries = experiment
        header, rows = read_csv(Path(config.out) / "summary.csv")
        column = header.index("stop_reason")
        for row, summary in zip(rows, summaries):
            assert row[column] == summary.stop_reason == "tolerance"

    def test_summary_carries_rejections_and_final_error(self, experiment, tmp_path):
        # b=8 on the 3^4 grid drops two snapshots that b=1 and b=2 keep.
        eight = bench.ExperimentConfig(
            px=2, py=2, nx=8, train_per_dim=3, test_count=4, seed=0,
            batch_sizes=(8,), tolerance=1e-3, out=str(tmp_path),
        )
        runs = [experiment, (eight, bench.run_experiment(eight))]
        assert [s.num_rejected for _, found in runs for s in found] == [0, 0, 2]
        for config, summaries in runs:
            self.check_rejections_and_final_error(Path(config.out), summaries)

    @staticmethod
    def check_rejections_and_final_error(out, summaries):
        header, rows = read_csv(out / "summary.csv")
        assert header[-2:] == ["num_rejected", "err_final"]
        for row, summary in zip(rows, summaries):
            _, trace = read_csv(out / f"trace_b{summary.batch_size}.csv")
            rejected = sum(1 for line in trace if line[4] == "0")
            assert int(row[-2]) == summary.num_rejected == rejected
            _, decay = read_csv(out / f"errdecay_b{summary.batch_size}.csv")
            assert float(row[-1]) == summary.err_final == float(decay[-1][2])

    def test_summary_uses_lf_and_dot_decimal(self, experiment):
        config, _ = experiment
        raw = (Path(config.out) / "summary.csv").read_bytes()
        assert b"\r" not in raw
        assert b";" not in raw

    def test_normalized_times_reference_single_batch_row(self, experiment):
        config, summaries = experiment
        header, rows = read_csv(Path(config.out) / "summary.csv")
        online_n = header.index("t_online_n")
        offline_n = header.index("t_offline_n")
        assert float(rows[0][online_n]) == 1.0
        assert float(rows[0][offline_n]) == 1.0
        assert float(rows[1][offline_n]) == pytest.approx(
            summaries[1].t_offline / summaries[0].t_offline, rel=1e-12
        )

    def test_phase_times_bounded_by_offline_wall(self, experiment):
        _, summaries = experiment
        for s in summaries:
            named = s.t_solve + s.t_evaluate + s.t_extend + s.t_reduce
            assert named <= s.t_offline + 1e-9
            assert s.t_other == pytest.approx(s.t_offline - named, abs=1e-9)
            assert min(s.t_solve, s.t_evaluate, s.t_extend, s.t_reduce) >= 0.0

    def test_iteration_extension_bookkeeping(self, experiment):
        _, summaries = experiment
        for s in summaries:
            assert s.num_ext <= s.batch_size * s.num_iter
            assert s.num_iter == math.ceil(s.num_ext / s.batch_size)

    def test_break_even_consistent_with_times(self, experiment):
        """Every row's k_star is break_even against one full-order time t:
        k = ceil(t_offline / (t - t_online)) puts t in [t_online +
        t_offline / k, t_online + t_offline / (k - 1)), a row without k_star
        but with a basis puts it at or below t_online, and all rows agree."""
        _, summaries = experiment
        low, high = 0.0, math.inf
        for s in summaries:
            if s.k_star is not None:
                assert s.k_star >= 1
                low = max(low, s.t_online + s.t_offline / s.k_star)
                if s.k_star > 1:
                    high = min(high, s.t_online + s.t_offline / (s.k_star - 1))
            elif s.num_ext:
                high = min(high, s.t_online)
        assert low <= high * (1 + 1e-12)

    def test_error_decay_rows(self, experiment):
        config, summaries = experiment
        for s in summaries:
            path = Path(config.out) / f"errdecay_b{s.batch_size}.csv"
            header, rows = read_csv(path)
            assert header == ["n", "est", "err"]
            assert [int(r[0]) for r in rows] == list(range(s.num_ext + 1))
            est = [float(r[1]) for r in rows]
            err = [float(r[2]) for r in rows]
            assert err[0] == 1.0
            assert est[-1] <= config.tolerance * est[0] * (1 + 1e-9)
            assert err[-1] == s.err_final
            assert err[-1] < err[0]

    def test_final_error_far_below_start(self, experiment):
        _, summaries = experiment
        for s in summaries:
            assert s.err_final < 0.01

    def test_trace_has_selection_rows(self, experiment):
        config, summaries = experiment
        header, rows = read_csv(Path(config.out) / "trace_b2.csv")
        assert header[:5] == ["iter", "n", "param_id", "est_value", "accepted"]
        accepted = [r for r in rows if r[4] == "1"]
        assert len(accepted) == summaries[1].num_ext

    def test_lock_reloads_to_same_config(self, experiment):
        config, _ = experiment
        loaded = bench.load_config(Path(config.out) / "config.lock")
        assert loaded == dataclasses.replace(config, ny=config.resolved_ny)

    def test_theory_report_structure(self, experiment):
        config, _ = experiment
        payload = json.loads(
            (Path(config.out) / "theory_report.json").read_text()
        )
        assert payload["format"] == "batchrb-theory-report"
        assert payload["version"] == 1
        runs = payload["runs"]
        assert [(r["batch_size"], r["mode"]) for r in runs] == [
            (1, "weak"),
            (2, "weak"),
            (1, "strong"),
        ]
        for run in runs:
            assert 0 < run["gamma"] <= 1.0
            names = [check["name"] for check in run["checks"]]
            assert names == [
                "P1",
                "P2",
                "product-bound",
                "sqrt-width-bound",
                "rate-bounds",
            ]
            for check in run["checks"]:
                assert check["status"] == "pass", (run["mode"], check)
                assert check["worst_margin"] >= 0.0


class TestReferenceSolves:
    def test_test_set_solved_before_error_evaluation(self, tmp_path, monkeypatch):
        # t_full times the first FULL_SOLVE_SAMPLES test points serially; the
        # pool solves the rest up front, so error evaluation solves nothing.
        serial, calls = [], []
        solve_fom, prefix_errors = fem.solve_fom, bench._prefix_test_errors

        def counting_solve(system, mu):
            serial.append(mu)
            return solve_fom(system, mu)

        def checked(basis, model, system, weights, references, norms, sizes, pool=None):
            calls.append((weights.copy(), len(references), len(norms)))
            return prefix_errors(basis, model, system, weights, references, norms, sizes, pool)

        monkeypatch.setattr(fem, "solve_fom", counting_solve)
        monkeypatch.setattr(bench, "_prefix_test_errors", checked)
        config = bench.ExperimentConfig(
            px=2, py=2, nx=8, train_per_dim=3,
            test_count=bench.FULL_SOLVE_SAMPLES + 5, seed=3,
            batch_sizes=(1, 2), tolerance=1e-2, worker_count=2, out=str(tmp_path),
        )
        bench.run_experiment(config)
        test_set = bench.build_test_set(2, 2, config.test_count, config.seed)
        assert serial == test_set[: bench.FULL_SOLVE_SAMPLES]
        expected = np.array([mu.weights for mu in test_set])
        assert len(calls) == len(config.batch_sizes)
        for weights, references, norms in calls:
            assert np.array_equal(weights, expected)
            assert references == norms == config.test_count


class TestBulkSolves:
    """The reference and training solves: one pool task per column block."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_equal_per_point_solves(self, system, workers):
        points = bench.build_training_set(2, 2, 3)  # 81: a full and a tail block
        with WorkerPool(workers) as pool:
            blocks = bench._solve_on_pool(pool, system, points.weights, "training solves")
        assert [block.shape[1] for block in blocks] == [64, 17]
        columns = np.concatenate(blocks, axis=1).T
        for mu, column in zip(points, columns):
            assert fem.solve_fom(system, mu).coefficients.tobytes() == column.tobytes()

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_point_in_order_raised(self, system, workers):
        # Point 100 (second block) fails its residual and point 130 (third
        # block) its factorization; the pool raises the first in order.
        weights = np.vstack([bench.build_training_set(2, 2, 3).weights,
                             bench.build_training_set(2, 2, 4).weights[:70]])
        weights[100] = (0.5, 0.0, 0.5, 0.5)
        weights[130] = (-0.5, -0.5, -0.5, -0.5)
        with WorkerPool(workers) as pool:
            with pytest.raises(NumericError, match="relative residual") as error:
                bench._solve_on_pool(pool, system, weights, "training solves")
        assert str((0.5, 0.0, 0.5, 0.5)) in str(error.value)

    def test_phase_lines_give_count_blocks_and_time_per_solve(self, tmp_path, caplog):
        config = bench.ExperimentConfig(
            px=2, py=2, nx=8, train_per_dim=3, test_count=bench.FULL_SOLVE_SAMPLES + 5,
            seed=3, batch_sizes=(2,), tolerance=1e-2, oracle=True, out=str(tmp_path),
        )
        with caplog.at_level("INFO", logger="batchrb.bench"):
            bench.run_experiment(config)
        pattern = r"{}: \d+\.\d{{3}} s \({} in {} blocks, \d+\.\d{{2}} ms each\)"
        assert re.search(pattern.format("reference solves", 5, 1), caplog.text)
        assert re.search(pattern.format("training solves", 81, 2), caplog.text)
        # the first block's 64 columns always reach the per-column extension
        line = re.search(r"snapshot basis: \d+\.\d{3} s \(r=(\d+), (\d+) of 81 columns extended\)",
                         caplog.text)
        assert 0 < int(line[1]) <= 64 <= int(line[2]) <= 81


class TestReferenceQuantities:
    def test_reference_norms_computed_once(self, tmp_path, monkeypatch):
        # One X-norm per test point, for its reference solution; the errors
        # themselves come from the projection distances.
        calls = []
        x_norm = fem.x_norm

        def counting(u, system):
            calls.append(None)
            return x_norm(u, system)

        monkeypatch.setattr(fem, "x_norm", counting)
        config = bench.ExperimentConfig(
            px=2, py=2, nx=8, train_per_dim=3, test_count=4, seed=3,
            batch_sizes=(1, 2), tolerance=1e-2, out=str(tmp_path),
        )
        bench.run_experiment(config)
        assert len(calls) == config.test_count


class TestDeterminism:
    def test_nontiming_summary_fields_identical(self, twin_runs):
        (_, first), (_, second) = twin_runs
        for a, b in zip(first, second):
            assert (a.batch_size, a.num_ext, a.num_iter) == (
                b.batch_size,
                b.num_ext,
                b.num_iter,
            )
            assert a.err_final == b.err_final

    def test_error_decay_files_identical(self, twin_runs):
        (config_a, _), (config_b, _) = twin_runs
        lines_a = (Path(config_a.out) / "errdecay_b2.csv").read_bytes()
        lines_b = (Path(config_b.out) / "errdecay_b2.csv").read_bytes()
        assert lines_a == lines_b

    def test_trace_selections_identical(self, twin_runs):
        (config_a, _), (config_b, _) = twin_runs
        _, rows_a = read_csv(Path(config_a.out) / "trace_b2.csv")
        _, rows_b = read_csv(Path(config_b.out) / "trace_b2.csv")
        assert [r[:5] for r in rows_a] == [r[:5] for r in rows_b]


class TestOracleStore:
    """The oracle holds its training snapshots, dof x T doubles, only until
    the strong run returns; the width and the weak runs' sigma read the
    snapshot basis, whose B defect each weak run logs."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_training_blocks_released_before_the_weak_runs(
        self, tmp_path, monkeypatch, caplog, workers
    ):
        refs, alive = [], []
        solve_on_pool, run_batch_greedy = bench._solve_on_pool, greedy.run_batch_greedy

        def tracked(pool, system, points, name):
            blocks = solve_on_pool(pool, system, points, name)
            if name == "training solves":
                refs.extend(weakref.ref(block) for block in blocks)
            return blocks

        def checked(*args, **kwargs):
            if not alive:  # bytes of training blocks still held at the first weak run
                alive.append(sum(ref().nbytes for ref in refs if ref() is not None))
            return run_batch_greedy(*args, **kwargs)

        monkeypatch.setattr(bench, "_solve_on_pool", tracked)
        monkeypatch.setattr(greedy, "run_batch_greedy", checked)
        config = bench.ExperimentConfig(
            px=2, py=2, nx=8, train_per_dim=3, test_count=5, seed=7, batch_sizes=(1, 2),
            tolerance=1e-3, worker_count=workers, oracle=True, out=str(tmp_path),
        )
        with caplog.at_level("INFO", logger="batchrb"):
            bench.run_experiment(config)
        assert len(refs) == 2 and alive == [0]
        defects = re.findall(r"true sigma: n=\d+ in r=\d+ snapshot coordinates, "
                             r"max\|B\^T B - I\| = (\S+)", caplog.text)
        assert len(defects) == len(config.batch_sizes)
        assert all(0 <= float(defect) < 1e-3 for defect in defects)


class TestOracleWorkerInvariance:
    def test_reports_identical_at_one_and_two_workers(self, tmp_path):
        # The oracle peels split the 81 training columns into a full and a
        # tail block; the pool's worker count must not change a bit.
        names = ["theory_report.json", "errdecay_b1.csv", "errdecay_b2.csv"]
        outputs = []
        for workers in (1, 2):
            config = bench.ExperimentConfig(
                px=2, py=2, nx=8, train_per_dim=3, test_count=5, seed=7,
                batch_sizes=(1, 2), tolerance=1e-3, worker_count=workers,
                oracle=True, out=str(tmp_path / f"workers{workers}"),
            )
            bench.run_experiment(config)
            outputs.append({name: (Path(config.out) / name).read_bytes() for name in names})
        assert outputs[0] == outputs[1]


class TestThreeByThreeOracle:
    """The 3x3 thermal block through the CLI: 2^9 points, b = 1 and 4, where the
    b = 4 proxy fills 36 sizes between the swept ones from the prefix table."""

    def test_checks_pass_and_proxy_keeps_swept_maxima(self, tmp_path):
        out = tmp_path / "three"
        code = cli.main(
            [
                "--px", "3", "--py", "3", "--nx", "12", "--train-per-dim", "2",
                "--batch-sizes", "1,4", "--workers", "2", "--test-count", "20",
                "--seed", "3", "--oracle", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "theory_report.json").read_text())
        checks = [check for run in report["runs"] for check in run["checks"]]
        assert checks and all(check["status"] == "pass" for check in checks)
        _, summary = read_csv(out / "summary.csv")
        assert [int(row[0]) for row in summary] == [1, 4]
        for b in (1, 4):
            header, trace = read_csv(out / f"trace_b{b}.csv")
            n_col, est_col = header.index("n"), header.index("est_value")
            maxima = {}
            for row in trace:
                n = int(row[n_col])
                maxima[n] = max(maxima.get(n, -math.inf), float(row[est_col]))
            _, decay = read_csv(out / f"errdecay_b{b}.csv")
            est = {int(row[0]): float(row[1]) for row in decay}
            assert len(est) == max(maxima) + 1
            for n, value in maxima.items():
                assert est[n] == value, (b, n)


class TestCli:
    def test_full_run_writes_outputs(self, tmp_path):
        out = tmp_path / "cli_out"
        code = cli.main(
            [
                "--px", "2", "--py", "2", "--nx", "8",
                "--train-per-dim", "3", "--test-count", "3",
                "--batch-sizes", "1", "--tol", "1e-2",
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "summary.csv").is_file()
        assert (out / "config.lock").is_file()
        loaded = bench.load_config(out / "config.lock")
        assert loaded.nx == 8
        assert loaded.batch_sizes == (1,)
        assert loaded.tolerance == 1e-2

    def test_config_file_with_flag_override(self, tmp_path):
        lock = tmp_path / "base.lock"
        lock.write_text(
            "px=2\npy=2\nnx=8\ntrain_per_dim=3\ntest_count=3\n"
            "batch_sizes=1\ntolerance=1e-2\nseed=5\n"
        )
        out = tmp_path / "override_out"
        code = cli.main([str(lock), "--test-count", "2", "--out", str(out)])
        assert code == 0
        reloaded = bench.load_config(out / "config.lock")
        assert reloaded.test_count == 2  # flag wins
        assert reloaded.nx == 8  # file survives

    def test_zero_basis_run_at_unit_tolerance(self, tmp_path):
        """At --tol 1 the first sweep already meets the tolerance: every run
        stops for it with an empty basis, and every file is still written."""
        names = ["theory_report.json", "errdecay_b1.csv", "errdecay_b2.csv"]
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}" / "zero"
            code = cli.main(
                [
                    "--px", "2", "--py", "2", "--nx", "8", "--train-per-dim", "2",
                    "--batch-sizes", "1,2", "--test-count", "5", "--tol", "1",
                    "--oracle", "--workers", str(workers), "--out", str(out),
                ]
            )
            assert code == 0
            header, summary = read_csv(out / "summary.csv")
            assert [row[0] for row in summary] == ["1", "2"]
            for row in summary:
                cells = dict(zip(header, row))
                assert (cells["stop_reason"], cells["num_ext"]) == ("tolerance", "0")
                # An empty basis breaks even never, whatever the times say.
                assert cells["k_star"] == ""
            for b in (1, 2):
                header, decay = read_csv(out / f"errdecay_b{b}.csv")
                assert header == ["n", "est", "err"]
                assert len(decay) == 1 and decay[0][0] == "0" and float(decay[0][2]) == 1.0
                _, trace = read_csv(out / f"trace_b{b}.csv")
                assert [row[:5] for row in trace] == [["0", "0", "", decay[0][1], ""]]
            assert bench.load_config(out / "config.lock").tolerance == 1.0

            def strict(constant):
                raise ValueError(f"{constant} is not strict JSON")

            text = (out / "theory_report.json").read_text()
            report = json.loads(text, parse_constant=strict)
            checks = [check for run in report["runs"] for check in run["checks"]]
            assert len(checks) == 15
            assert {check["status"] for check in checks} == {"insufficient-data"}
            assert [check["worst_margin"] for check in checks] == [None] * 15
            # The t_* columns vary run to run.
            assert header[3:12] == [name for name in header if name.startswith("t_")]
            outputs.append(
                {name: (out / name).read_bytes() for name in names}
                | {"summary": [row[:3] + row[12:] for row in summary]}
            )
        assert outputs[0] == outputs[1]

    def test_rejects_malformed_batch_sizes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--batch-sizes", "1,x"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["--px", "1", "--py", "1", "--nx", "1"], "1x1 grid has no interior DOF"),
            (["--px", "19", "--py", "1", "--nx", "19", "--ny", "1000"], "17982 interface DOFs"),
        ],
    )
    def test_rejects_unsolvable_grid(self, tmp_path, capsys, grid, message):
        argv = grid + [
            "--train-per-dim", "2", "--batch-sizes", "1", "--test-count", "2",
            "--out", str(tmp_path / "out"),
        ]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_import_leaves_optional_scipy_modules_unloaded(self):
        # scipy.optimize (needed only by a free-rate fit) and scipy.io
        # (unused) add start-up time; importing the CLI must load neither.
        src = str(Path(bench.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        probe = (
            "import sys, batchrb.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.io') if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_rejects_invalid_config_value(self, tmp_path):
        lock = tmp_path / "bad.lock"
        lock.write_text("train_per_dim=1\n")
        with pytest.raises(SystemExit) as excinfo:
            cli.main([str(lock)])
        assert excinfo.value.code == 2
