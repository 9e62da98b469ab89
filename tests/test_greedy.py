"""Tests for the batch greedy drivers, selection logic, and tracing."""

import csv
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchrb import bench, estimator, fem, greedy, rb, theory
from batchrb import pool as pool_mod
from batchrb.errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    GreedyError,
    InsufficientDataError,
    NumericError,
)

from oracles import classical_weak_greedy, projection_error_dense


def grid_params(per_dim, count=4, lo=0.1, hi=1.0):
    values = np.linspace(lo, hi, per_dim)
    return [
        fem.ParameterPoint(combo)
        for combo in itertools.product(values, repeat=count)
    ]


@pytest.fixture(scope="module")
def system():
    return fem.assemble(fem.build_mesh(8, 8, 2, 2))


@pytest.fixture(scope="module")
def training():
    return grid_params(3)


DRIVERS = ("weak", "strong")


def run_driver(driver, system, config):
    """(basis, trace) of the weak or the strong driver on one configuration."""
    if driver == "weak":
        basis, _, trace = greedy.run_batch_greedy(system, config)
        return basis, trace
    snapshots = [fem.solve_fom(system, mu) for mu in config.training_set]
    return greedy.run_strong_greedy(system, config, rb.snapshot_basis(snapshots, system), snapshots)


def count_calls(monkeypatch, names):
    """Rebind module attributes to counting wrappers; returns the call counts."""
    modules = {"greedy": greedy, "rb": rb, "estimator": estimator}
    counts = dict.fromkeys(names, 0)
    for name in names:
        module_name, attribute = name.split(".")
        original = getattr(modules[module_name], attribute)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(modules[module_name], attribute, counting)
    return counts


class TestSelectBatch:
    def test_takes_largest_then_next_largest(self):
        estimates = np.array([0.2, 0.9, 0.9, 0.1])
        assert greedy.select_batch(estimates, 2) == [1, 2]  # tie -> smaller index
        assert greedy.select_batch(estimates, 2, excluded={1}) == [2, 0]
        assert greedy.select_batch(estimates, 10, excluded={1}) == [2, 0, 3]
        assert greedy.select_batch(estimates, 2, excluded={0, 1, 2, 3}) == []

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_matches_full_lexsort_with_ties(self, b):
        """The partitioned selection equals the full sort it replaces, ties
        and exclusions included."""

        def reference(estimates, excluded):
            order = np.lexsort((np.arange(len(estimates)), -estimates)).tolist()
            return [i for i in order if i not in excluded][:b]

        rng = np.random.default_rng(b)
        for trial in range(200):
            size = int(rng.integers(1, 300))
            levels = rng.choice([0.0, 0.25, 0.5, 1.0, np.inf], size=int(rng.integers(1, 6)))
            estimates = rng.choice(levels, size=size)
            excluded = set(rng.choice(size, size=int(rng.integers(0, size + 1))).tolist())
            picks = greedy.select_batch(estimates, b, excluded)
            assert picks == reference(estimates, excluded), (trial, size)
        estimates = np.array([np.nan, 3.0, 2.0, np.nan, 1.0, 3.0])
        assert greedy.select_batch(estimates, b, {5}) == reference(estimates, {5})

    @settings(max_examples=50)
    @given(
        values=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=40),
        b=st.integers(1, 10),
        data=st.data(),
    )
    def test_selection_properties(self, values, b, data):
        excluded = set(
            data.draw(
                st.lists(st.integers(0, len(values) - 1), max_size=len(values))
            )
        )
        picks = greedy.select_batch(np.array(values), b, excluded)
        assert len(picks) == min(b, len(values) - len(excluded & set(range(len(values)))))
        assert not (set(picks) & excluded)
        assert len(set(picks)) == len(picks)
        ranked = [(values[i], -i) for i in picks]
        assert ranked == sorted(ranked, reverse=True)
        remaining = [
            values[i] for i in range(len(values)) if i not in excluded and i not in picks
        ]
        if picks and remaining:
            assert min(values[i] for i in picks) >= max(remaining) or all(
                values[i] >= max(remaining) for i in picks
            )


@pytest.fixture(scope="module")
def run_b3(system, training):
    # tolerance chosen so the training manifold is not yet exhausted and no
    # batch member goes linearly dependent (discards are exercised separately)
    config = greedy.GreedyConfig(training_set=training, batch_size=3, tolerance=2e-3)
    return greedy.run_batch_greedy(system, config)


class TestBatchGreedy:
    def test_terminates_by_tolerance(self, run_b3):
        basis, model, trace = run_b3
        assert trace.stop_reason == "tolerance"
        assert trace.iterations[-1].rel_estimate <= 2e-3
        assert basis.size == model.basis_size == trace.extension_count

    def test_index_bookkeeping(self, run_b3):
        """n = b*ell + k without discards, and iterations = ceil(ext / b)."""
        basis, _, trace = run_b3
        assert all(sel.accepted for rec in trace.iterations for sel in rec.selections)
        for rec in trace.iterations:
            if rec.selections:
                assert rec.basis_size == trace.batch_size * rec.iteration
                assert len(rec.selections) == trace.batch_size
        for n, origin in enumerate(basis.provenance):
            assert n == trace.batch_size * origin.iteration + origin.batch_rank
        assert trace.iteration_count == math.ceil(
            trace.extension_count / trace.batch_size
        )

    def test_estimator_max_nonincreasing_across_batches(self, run_b3):
        _, _, trace = run_b3
        values = [rec.max_estimate for rec in trace.iterations]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-10)

    def test_first_selection_is_argmax(self, run_b3):
        _, _, trace = run_b3
        for rec in trace.iterations:
            if rec.selections:
                assert rec.selections[0].estimate == rec.max_estimate
                ests = [sel.estimate for sel in rec.selections]
                assert ests == sorted(ests, reverse=True)

    def test_amatrix_lower_triangular_positive_diagonal(self, run_b3):
        _, _, trace = run_b3
        matrix = trace.amatrix
        n = trace.extension_count
        assert matrix.shape == (n, n)
        assert np.all(np.diag(matrix) > 0)
        assert np.allclose(matrix, np.tril(matrix), atol=0)

    def test_timings_nonnegative(self, run_b3):
        _, _, trace = run_b3
        for rec in trace.iterations:
            t = rec.timings
            assert min(t.solve, t.evaluate, t.extend, t.reduce, t.other) >= 0.0

    def test_selected_snapshots_estimate_near_zero(self, system, run_b3):
        basis, model, trace = run_b3
        data = model.estimator_data
        first = basis.provenance[0].parameter
        delta = estimator.estimate(data, model, first)
        delta0 = data.load_dual_norm / min(first.weights)
        assert delta <= 1e-6 * delta0

    def test_dependent_batch_members_discarded_but_stay_excluded(
        self, system, training
    ):
        # Push far enough that later batches pick parameters whose snapshots
        # already lie in the current span; those must be reported as discarded
        # yet never offered for selection again.
        config = greedy.GreedyConfig(training_set=training, batch_size=3, tolerance=1e-5)
        basis, model, trace = greedy.run_batch_greedy(system, config)
        assert trace.stop_reason == "tolerance"
        chosen = trace.selected_indices()
        accepted = [
            sel.param_index
            for rec in trace.iterations
            for sel in rec.selections
            if sel.accepted
        ]
        assert len(chosen) > len(accepted)  # at least one discard happened
        assert len(set(chosen)) == len(chosen)  # exclusion set kept them out
        assert len(accepted) == basis.size == trace.extension_count
        flags = [sel.accepted for rec in trace.iterations for sel in rec.selections]
        assert sum(flags) == basis.size
        # discards contribute no amatrix row and no provenance entry
        assert trace.amatrix.shape == (basis.size, basis.size)
        assert len(basis.provenance) == basis.size


class TestSigmaProxy:
    """Dense per-size estimator maxima recovered from the final tables."""

    def test_matches_live_sweep_maxima_exactly(self, run_b3, training):
        basis, model, trace = run_b3
        weights = np.array([mu.weights for mu in training])
        dense = greedy.sigma_proxy(model, weights)
        reused = greedy.sigma_proxy(model, weights, trace)
        assert dense.shape == reused.shape == (basis.size + 1,)
        # With the trace, the sizes the loop swept keep the recorded maxima
        # bit for bit; without it, the prefix table agrees to round-off.
        for rec in trace.iterations:
            assert reused[rec.basis_size] == rec.max_estimate
            assert abs(dense[rec.basis_size] - rec.max_estimate) <= 1e-14 * dense[0]

    def test_initial_value_is_empty_basis_sweep(self, run_b3, training):
        _, model, _ = run_b3
        weights = np.array([mu.weights for mu in training])
        dense = greedy.sigma_proxy(model, weights)
        data = model.estimator_data
        expected = np.max(data.load_dual_norm / weights.min(axis=1))
        assert dense[0] == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_input(self, run_b3, training):
        _, model, _ = run_b3
        weights = np.array([mu.weights for mu in training])
        with pytest.raises(ConfigurationError):
            greedy.sigma_proxy(rb.prefix_model(model, 2), weights)

    def test_trace_maxima_reused_bitwise(self, monkeypatch, run_b3, training):
        basis, model, trace = run_b3
        weights = np.array([mu.weights for mu in training])
        dense = greedy.sigma_proxy(model, weights)
        counts = count_calls(monkeypatch, ["estimator.estimate_sweep"])
        reused = greedy.sigma_proxy(model, weights, trace)
        swept = {rec.basis_size for rec in trace.iterations}
        between = [n for n in range(basis.size + 1) if n not in swept]
        assert between
        assert reused[between].tobytes() == dense[between].tobytes()
        assert counts["estimator.estimate_sweep"] == 0

    def test_single_batch_run_needs_no_sweep(self, monkeypatch, system, training):
        config = greedy.GreedyConfig(training_set=training, batch_size=1, tolerance=2e-3)
        basis, model, trace = greedy.run_batch_greedy(system, config)
        weights = np.array([mu.weights for mu in training])
        recorded = np.array([rec.max_estimate for rec in trace.iterations])
        counts = count_calls(
            monkeypatch, ["estimator.estimate_sweep", "estimator.prefix_coefficients"]
        )
        assert greedy.sigma_proxy(model, weights, trace).tobytes() == recorded.tobytes()
        assert counts == {"estimator.estimate_sweep": 0, "estimator.prefix_coefficients": 0}

    def test_every_size_matches_prefix_sweep(self, run_b3, training):
        basis, model, _ = run_b3
        data = model.estimator_data
        weights = np.array([mu.weights for mu in training])
        dense = greedy.sigma_proxy(model, weights)
        for n in range(basis.size + 1):
            sub_data, sub_model = estimator.prefix_data(data, n), rb.prefix_model(model, n)
            reference = estimator.estimate_sweep(sub_data, sub_model, weights).max()
            assert abs(dense[n] - reference) <= 1e-14 * dense[0]

    @pytest.mark.parametrize("value", [0.0, -0.5])
    def test_non_positive_weights_rejected(self, run_b3, training, value):
        _, model, trace = run_b3
        weights = np.array([mu.weights for mu in training])
        weights[5, 2] = value
        for run_trace in (None, trace):
            with pytest.raises(DomainError, match="positive"):
                greedy.sigma_proxy(model, weights, run_trace)

    def test_memory_below_one_prefix_table(self):
        """T = 4,096 rows at N = 19: one (T, N, N) table holds 11.8 MB."""
        t_count, n, p = 4096, 19, 4
        rng = np.random.default_rng(37)
        factors = rng.standard_normal((p, n, n))
        model = rb.ReducedModel(
            components=factors @ factors.transpose(0, 2, 1) + n * np.eye(n),
            load=rng.standard_normal(n),
        )
        r = np.triu(rng.standard_normal((1 + p * n, 1 + p * n)))
        model.estimator_data = estimator.EstimatorData(Q=None, R=r, block_count=p)
        weights = rng.uniform(0.1, 1.0, (t_count, p))
        tracemalloc.start()
        try:
            proxy = greedy.sigma_proxy(model, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert proxy.shape == (n + 1,) and np.isfinite(proxy).all()
        assert peak < 8 * t_count * n * n


class TestClassicalEquivalence:
    def test_b1_matches_classical_sequence(self, system, training):
        config = greedy.GreedyConfig(
            training_set=training, batch_size=1, tolerance=1e-4
        )
        _, _, trace = greedy.run_batch_greedy(system, config)
        reference = classical_weak_greedy(system, training, 1e-4)
        assert trace.selected_indices() == reference


class TestWorkerInvariance:
    def test_trace_independent_of_worker_count(self, system, training):
        results = []
        for workers in (1, 3):
            config = greedy.GreedyConfig(
                training_set=training,
                batch_size=2,
                tolerance=1e-5,
                worker_count=workers,
            )
            results.append(greedy.run_batch_greedy(system, config))
        (_, _, t1), (_, _, t2) = results
        assert t1.selected_indices() == t2.selected_indices()
        assert np.array_equal(t1.amatrix, t2.amatrix)
        assert [rec.max_estimate for rec in t1.iterations] == [
            rec.max_estimate for rec in t2.iterations
        ]


    def test_pooled_sweep_blocks_independent_of_worker_count(self, monkeypatch, system):
        """Sweeps in many row blocks on 1 and 2 workers give bitwise equal traces."""
        monkeypatch.setattr(estimator, "SWEEP_BLOCK_BYTES", 16 << 10)
        assert len(estimator._row_blocks(256, 4, 4)) > 1
        sweep = estimator.estimate_sweep
        workers_seen = set()

        def recording(*args):
            workers_seen.add(args[4].workers)
            return sweep(*args)

        monkeypatch.setattr(estimator, "estimate_sweep", recording)
        traces = []
        for workers in (1, 2):
            config = greedy.GreedyConfig(
                training_set=grid_params(4), batch_size=3, tolerance=1e-6,
                worker_count=workers,
            )
            traces.append(greedy.run_batch_greedy(system, config)[2])
        one, two = traces
        assert workers_seen == {1, min(2, pool_mod._available_cpus())}
        assert one.selected_indices() == two.selected_indices()
        assert one.amatrix.tobytes() == two.amatrix.tobytes()
        for a, b in zip(one.iterations, two.iterations, strict=True):
            assert (a.max_estimate, a.evaluated) == (b.max_estimate, b.evaluated)
            assert [s.estimate for s in a.selections] == [s.estimate for s in b.selections]


class TestDegenerateTrainingSets:
    def test_collinear_snapshots_discarded(self, system):
        diagonal = [fem.ParameterPoint.uniform(4, c) for c in np.linspace(0.1, 1, 9)]
        config = greedy.GreedyConfig(
            training_set=diagonal, batch_size=4, tolerance=1e-5
        )
        basis, model, trace = greedy.run_batch_greedy(system, config)
        assert basis.size == 1
        assert trace.stop_reason == "tolerance"
        first = trace.iterations[0]
        assert [sel.accepted for sel in first.selections] == [True, False, False, False]
        assert trace.iterations[-1].rel_estimate <= 1e-6

    def test_exhaustion(self, system):
        few = [
            fem.ParameterPoint(w)
            for w in [(0.1, 1, 1, 1), (1, 0.1, 1, 1), (1, 1, 0.1, 1), (1, 1, 1, 0.1)]
        ]
        config = greedy.GreedyConfig(
            training_set=few, batch_size=2, tolerance=1e-30
        )
        for driver in DRIVERS:
            _, trace = run_driver(driver, system, config)
            assert trace.stop_reason == "exhausted", driver
            assert sorted(trace.selected_indices()) == [0, 1, 2, 3]

    def test_basis_cap(self, system, training):
        config = greedy.GreedyConfig(
            training_set=training, batch_size=1, tolerance=1e-30, max_basis_size=2
        )
        for driver in DRIVERS:
            basis, trace = run_driver(driver, system, config)
            assert trace.stop_reason == "max_basis", driver
            assert basis.size == 2


class TestStagnation:
    def test_rejected_batch_stops_both_drivers(self, system):
        """Collinear snapshots: after the first, every pick is rejected."""
        diagonal = [fem.ParameterPoint.uniform(4, c) for c in np.linspace(0.1, 1, 9)]
        config = greedy.GreedyConfig(
            training_set=diagonal, batch_size=2, tolerance=1e-30
        )
        for driver in DRIVERS:
            basis, trace = run_driver(driver, system, config)
            assert trace.stop_reason == "stagnated", driver
            assert basis.size == 1
            assert trace.iteration_count == 2
            assert not any(sel.accepted for sel in trace.iterations[-1].selections)

    def test_estimator_floor_stops_stagnated(self):
        """Below the estimator's accuracy floor the run stops in a few dozen
        iterations instead of solving and rejecting the whole training set."""
        system = fem.assemble(fem.build_mesh(32, 32, 2, 2))
        config = greedy.GreedyConfig(
            training_set=bench.build_training_set(2, 2, 5),
            batch_size=1,
            tolerance=1e-12,
        )
        basis, _, trace = greedy.run_batch_greedy(system, config)
        assert trace.stop_reason == "stagnated"
        assert trace.iteration_count <= 30
        assert basis.size == trace.extension_count == trace.iteration_count - 1


@pytest.fixture(scope="module")
def system16():
    return fem.assemble(fem.build_mesh(16, 16, 2, 2))


def random_snapshot(system, mu):
    """A snapshot independent of every other one, the same for the same mu."""
    rng = np.random.default_rng([int(w * 1e6) for w in mu.weights])
    return fem.Snapshot(rng.standard_normal(system.dof_count), mu)


class TestLazySweep:
    """Lazy estimator sweeps select, estimate and stop as full sweeps do, bit
    for bit, evaluating exactly only the rows a certified bound keeps."""

    def assert_bitwise_equal_to_full_sweeps(self, monkeypatch, system, config, solver=None):
        """Run lazily and with a source that sweeps every row; returns the lazy trace."""
        basis, _, trace = greedy.run_batch_greedy(system, config, solver)
        with monkeypatch.context() as patch:
            every = np.ones(len(config.training_set), dtype=bool)
            patch.setattr(greedy._EstimatorSweep, "_rows", lambda self, b, excluded: every)
            full_basis, _, full = greedy.run_batch_greedy(system, config, solver)
        assert basis.vectors.tobytes() == full_basis.vectors.tobytes()
        assert trace.amatrix.tobytes() == full.amatrix.tobytes()
        assert trace.stop_reason == full.stop_reason
        assert len(trace.iterations) == len(full.iterations)
        for lazy_rec, full_rec in zip(trace.iterations, full.iterations):
            assert (
                np.float64(lazy_rec.max_estimate).tobytes()
                == np.float64(full_rec.max_estimate).tobytes()
            )
            assert [(s.param_index, s.estimate, s.accepted) for s in lazy_rec.selections] == [
                (s.param_index, s.estimate, s.accepted) for s in full_rec.selections
            ]
        count = len(config.training_set)
        assert all(rec.evaluated == count for rec in full.iterations)
        return trace

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_bitwise_equal_to_full_sweeps(self, monkeypatch, caplog, system16, b):
        config = greedy.GreedyConfig(
            training_set=bench.build_training_set(2, 2, 5), batch_size=b, tolerance=1e-12
        )
        with caplog.at_level("INFO", logger="batchrb.greedy"):
            trace = self.assert_bitwise_equal_to_full_sweeps(monkeypatch, system16, config)
        assert trace.stop_reason == "stagnated"
        evaluated = [rec.evaluated for rec in trace.iterations]
        assert evaluated[0] == 625 and sum(evaluated) < 625 * len(evaluated)
        assert f"evaluated {evaluated[1]}/625, batch" in caplog.text

    @pytest.mark.parametrize(
        "case, per_dim, b, tolerance, max_basis, stop",
        [
            ("fewer rows than the provisional ones", 2, 2, 1e-30, 150, "exhausted"),
            ("fewer candidates than a batch", 3, 8, 1e-30, 150, "exhausted"),
            ("basis cap", 5, 4, 1e-30, 10, "max_basis"),
            ("all of a batch rejected", 5, 1, 1e-12, 150, "stagnated"),
        ],
    )
    def test_edge_cases(
        self, monkeypatch, system16, case, per_dim, b, tolerance, max_basis, stop
    ):
        # Random snapshots never go dependent, so every training point is taken.
        solver = random_snapshot if stop == "exhausted" else None
        config = greedy.GreedyConfig(
            training_set=bench.build_training_set(2, 2, per_dim),
            batch_size=b,
            tolerance=tolerance,
            max_basis_size=max_basis,
        )
        trace = self.assert_bitwise_equal_to_full_sweeps(monkeypatch, system16, config, solver)
        assert trace.stop_reason == stop, case

    def test_fewer_candidates_than_a_batch_sweep_every_row(self, system16):
        training = bench.build_training_set(2, 2, 5)
        source = greedy._EstimatorSweep(system16, training)
        basis, _ = rb.extend(
            rb.ReducedBasis.empty(system16.dof_count),
            [fem.solve_fom(system16, training[i]) for i in (0, 624)],
            system16,
        )
        source.sweep(4, np.zeros(625, dtype=bool))
        source.update(basis)
        excluded = np.ones(625, dtype=bool)
        excluded[[5, 300, 400]] = False
        values, evaluated = source.sweep(4, excluded)
        assert evaluated == 625
        assert values.tobytes() == estimator.estimate_sweep(
            source.data, source.model, source.weights
        ).tobytes()

    @pytest.mark.parametrize("blocks, nx, per_dim, b", [(2, 16, 5, 1), (3, 12, 2, 8)])
    def test_bound_holds_for_every_prefix_pair(self, blocks, nx, per_dim, b):
        """Delta_n <= sqrt(kappa) Delta_m + floor for all m < n, also at the floor."""
        system = fem.assemble(fem.build_mesh(nx, nx, blocks, blocks))
        training = bench.build_training_set(blocks, blocks, per_dim)
        config = greedy.GreedyConfig(training_set=training, batch_size=b, tolerance=1e-12)
        _, model, trace = greedy.run_batch_greedy(system, config)
        assert trace.stop_reason == "stagnated"
        source = greedy._EstimatorSweep(system, training)
        data = model.estimator_data
        table = np.array(
            [
                estimator.estimate_sweep(
                    estimator.prefix_data(data, n), rb.prefix_model(model, n), source.weights
                )
                for n in range(model.basis_size + 1)
            ]
        )
        alpha = source.weights.min(axis=1)
        root_kappa = np.sqrt(source.weights.max(axis=1) / alpha)
        floor = (1 + root_kappa) * estimator.CANCELLATION_RATIO * data.load_dual_norm / alpha
        assert np.array_equal(source._floor, floor)
        assert np.array_equal(source._slope, root_kappa * (1 + 1e-12))
        bound = np.minimum.accumulate(source._slope * table + source._floor, axis=0)
        assert np.all(table[1:] <= bound[:-1])
        assert (table[-1] < floor).any()  # rows at the estimator floor


class TestErrors:
    def test_solver_failure_carries_parameter_and_partial_trace(self, system, training):
        for workers in (1, 2):
            config = greedy.GreedyConfig(
                training_set=training, batch_size=2, worker_count=workers
            )
            _, _, reference = greedy.run_batch_greedy(system, config)
            batch = [sel.parameter for sel in reference.iterations[1].selections]
            assert len(batch) == 2

            def flaky(sys_, mu, batch=batch):
                # Both members of the second batch fail; the first is reported.
                if mu in batch:
                    raise RuntimeError("synthetic solver breakdown")
                return fem.solve_fom(sys_, mu)

            with pytest.raises(GreedyError) as info:
                greedy.run_batch_greedy(system, config, solver=flaky)
            assert info.value.parameter == batch[0], workers
            assert info.value.trace is not None
            assert len(info.value.trace.iterations) == 1  # the completed first batch
            assert info.value.trace.stop_reason == "error"

    def test_config_validation(self, training):
        with pytest.raises(ConfigurationError):
            greedy.GreedyConfig(training_set=[])
        with pytest.raises(ConfigurationError):
            greedy.GreedyConfig(training_set=training, batch_size=0)
        with pytest.raises(ConfigurationError):
            greedy.GreedyConfig(training_set=training, tolerance=0.0)
        with pytest.raises(ConfigurationError):
            greedy.GreedyConfig(training_set=training + [training[0]])
        mixed = [fem.ParameterPoint((0.5, 0.5)), fem.ParameterPoint((0.5, 0.5, 0.5))]
        with pytest.raises(ConfigurationError):
            greedy.GreedyConfig(training_set=mixed)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5])
    @pytest.mark.parametrize("name", ["batch_size", "worker_count", "max_basis_size"])
    def test_integer_fields_reject_non_integers(self, training, name, value):
        """Each raises ConfigurationError; a NaN cap must not disable the cap."""
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            greedy.GreedyConfig(training_set=training, **{name: value})

    def test_integer_fields_normalized(self, training):
        config = greedy.GreedyConfig(
            training_set=training, batch_size=2.0, worker_count=np.int64(1), max_basis_size=5.0
        )
        for value in (config.batch_size, config.worker_count, config.max_basis_size):
            assert type(value) is int

    def test_parameter_size_mismatch(self, system):
        config = greedy.GreedyConfig(training_set=[fem.ParameterPoint((0.5, 0.5))])
        with pytest.raises(DimensionError):
            greedy.run_batch_greedy(system, config)


@pytest.fixture(scope="module")
def snapshots(system, training):
    return {mu: fem.solve_fom(system, mu) for mu in training}


@pytest.fixture(scope="module")
def spanned(system, snapshots):
    return rb.snapshot_basis(snapshots, system)


class TestStrongGreedy:
    def test_run_and_sigma_consistency(self, system, training, snapshots, spanned):
        config = greedy.GreedyConfig(training_set=training, batch_size=2, tolerance=1e-6)
        basis, trace = greedy.run_strong_greedy(system, config, spanned, snapshots)
        assert trace.stop_reason == "tolerance"
        sigma = greedy.true_sigma(basis, snapshots, system)
        sizes = [rec.basis_size for rec in trace.iterations]
        values = [rec.max_estimate for rec in trace.iterations]
        assert np.allclose(values, sigma[sizes], rtol=1e-9, atol=1e-12)
        assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))

    def test_single_snapshot_terminates_immediately(self, system):
        mu = fem.ParameterPoint((0.3, 0.6, 0.9, 0.2))
        snapshots = [fem.solve_fom(system, mu)]
        spanned = rb.snapshot_basis(snapshots, system)
        config = greedy.GreedyConfig(training_set=[mu], batch_size=1, tolerance=1e-5)
        basis, trace = greedy.run_strong_greedy(system, config, spanned, snapshots)
        assert basis.size == 1
        assert trace.iterations[-1].max_estimate <= 1e-10

    @pytest.mark.parametrize("empty", [{}, []])
    def test_no_snapshots_is_insufficient_data(self, system, empty):
        """true_sigma and the POD width read snapshots through one helper."""
        basis = rb.ReducedBasis.empty(system.dof_count)
        with pytest.raises(InsufficientDataError, match="need at least one snapshot"):
            greedy.true_sigma(basis, empty, system)
        with pytest.raises(InsufficientDataError, match="need at least one snapshot"):
            theory.pod_width_upper_bound(empty, system)

    def test_true_sigma_against_dense_least_squares(self, system, training, snapshots, spanned):
        config = greedy.GreedyConfig(training_set=training, batch_size=1, tolerance=1e-3)
        basis, _ = greedy.run_strong_greedy(system, config, spanned, snapshots)
        sigma = greedy.true_sigma(basis, snapshots, system)
        gram_dense = system.gram.toarray()
        for n in range(basis.size + 1):
            expected = max(
                projection_error_dense(
                    basis.vectors[:, :n], snapshots[mu].coefficients, gram_dense
                )
                for mu in training
            )
            assert sigma[n] == pytest.approx(expected, rel=1e-8, abs=1e-12)


def x_norms(columns, system):
    """X-norm of every column of a (dof_count, k) matrix; negatives clamp to zero."""
    squares = np.einsum("ij,ij->j", columns, system.gram @ columns)
    return np.sqrt(np.clip(squares, 0.0, None))


def naive_peel_norms(basis, snapshot_list, system):
    """Residual X-norms of every snapshot after each peel, n = 0..basis.size;
    every peel forms its own product M_X R."""
    residual = np.column_stack([s.coefficients for s in snapshot_list])
    norms = [x_norms(residual, system)]
    for j in range(basis.size):
        v = basis.vectors[:, j]
        residual = residual - np.outer(v, v @ (system.gram @ residual))
        norms.append(x_norms(residual, system))
    return norms


def unsplit_distances(monkeypatch, basis, snapshot_list, system):
    """fem.projection_distances over the whole snapshot matrix as one block."""
    matrix = np.column_stack([s.coefficients for s in snapshot_list])
    with monkeypatch.context() as patch:
        patch.setattr(pool_mod, "COLUMN_BLOCK", matrix.shape[1])
        return fem.projection_distances(basis.vectors, matrix.T, system)[0]


class TestResidualTableReference:
    """The strong run's residual table lives in the snapshot basis's
    coordinates; its values are the full-space residual norms of the run's
    own basis up to round-off.  true_sigma, in the same coordinates, is the
    column maxima of the projection distances up to 1e-13 sigma_0."""

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_strong_trace_matches_naive_peel(
        self, system, training, snapshots, spanned, batch_size
    ):
        config = greedy.GreedyConfig(
            training_set=training, batch_size=batch_size, tolerance=1e-6
        )
        basis, trace = greedy.run_strong_greedy(system, config, spanned, snapshots)
        norms = naive_peel_norms(basis, [snapshots[mu] for mu in training], system)
        sigma0 = norms[0].max()
        for rec in trace.iterations:
            assert abs(rec.max_estimate - norms[rec.basis_size].max()) <= 1e-13 * sigma0
            for sel in rec.selections:
                value = norms[rec.basis_size][sel.param_index]
                assert abs(sel.estimate - value) <= 1e-13 * sigma0

    def test_true_sigma_bitwise(self, monkeypatch, system, training, snapshots):
        """Bitwise from given blocks, from stacked vectors and from their
        snapshot basis; within 1e-13 sigma_0 of the distances of the unsplit
        matrix."""
        config = greedy.GreedyConfig(training_set=training, batch_size=2, tolerance=1e-6)
        basis, _, _ = greedy.run_batch_greedy(system, config)
        sigma = greedy.true_sigma(basis, snapshots, system)
        weights = np.array([mu.weights for mu in training])
        splits = pool_mod.column_blocks(len(training))
        blocks = [fem.solve_fom_block(system, weights[cols]) for cols in splits]
        assert greedy.true_sigma(basis, blocks, system).tobytes() == sigma.tobytes()
        spanned = rb.snapshot_basis(blocks, system)
        assert greedy.true_sigma(basis, spanned, system).tobytes() == sigma.tobytes()
        dist = unsplit_distances(monkeypatch, basis, list(snapshots.values()), system)
        assert np.abs(sigma - dist.max(axis=1)).max() <= 1e-13 * sigma[0]


class TestTrueSigmaColumnBlocks:
    """true_sigma of a snapshot basis spanned over fixed-width column blocks,
    the distances one pool task each, is bitwise the same at every worker
    count and as spanning inline, and within 1e-13 sigma_0 of the distances
    of the unsplit matrix and of the sigma of another split (whose snapshot
    basis rounds differently)."""

    @pytest.fixture(scope="class")
    def basis(self, system, training):
        config = greedy.GreedyConfig(training_set=training, batch_size=2, tolerance=1e-6)
        return greedy.run_batch_greedy(system, config)[0]

    @pytest.mark.parametrize("count", [1, 17, pool_mod.COLUMN_BLOCK, 81])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bitwise_at_every_block_split(
        self, monkeypatch, system, training, snapshots, basis, count, workers
    ):
        snapshot_list = [snapshots[mu] for mu in training[:count]]
        naive = unsplit_distances(monkeypatch, basis, snapshot_list, system).max(axis=1)
        with pool_mod.WorkerPool(workers) as pool:
            spanned = rb.snapshot_basis(snapshot_list, system, pool)
        blocked = greedy.true_sigma(basis, spanned, system)
        inline = greedy.true_sigma(basis, snapshot_list, system)
        with monkeypatch.context() as patch:
            patch.setattr(pool_mod, "COLUMN_BLOCK", len(training))
            unblocked = greedy.true_sigma(basis, snapshot_list, system)
        assert blocked.shape == (basis.size + 1,)
        assert blocked.tobytes() == inline.tobytes()
        tol = 1e-13 * blocked[0]
        assert np.abs(blocked - naive).max() <= tol
        assert np.abs(blocked - unblocked).max() <= tol


class TestProjectionDistances:
    """fem.projection_distances, behind the snapshot basis (so the strong
    run, the POD width and true_sigma) and the test errors, agrees with the
    explicit peel and with per-point X-norms."""

    @pytest.fixture(scope="class")
    def system16(self):
        return fem.assemble(fem.build_mesh(16, 16, 2, 2))

    @pytest.fixture(scope="class")
    def run16(self, system16, training):
        snapshots = [fem.solve_fom(system16, mu) for mu in training]
        config = greedy.GreedyConfig(training_set=training, batch_size=2, tolerance=1e-6)
        basis, model, _ = greedy.run_batch_greedy(system16, config)
        return snapshots, basis, model

    def test_sigma_matches_explicit_peel(self, system16, run16):
        snapshots, basis, _ = run16
        matrix = np.column_stack([s.coefficients for s in snapshots])
        dist, coeffs = fem.projection_distances(basis.vectors, matrix.T, system16)
        peel = np.array(naive_peel_norms(basis, snapshots, system16))
        sigma0 = peel[0].max()
        assert dist.shape == peel.shape == (basis.size + 1, len(snapshots))
        assert np.abs(dist - peel).max() <= 1e-13 * sigma0
        assert np.array_equal(dist[0], x_norms(matrix, system16))
        direct = basis.vectors.T @ (system16.gram @ matrix)
        assert np.allclose(coeffs, direct, rtol=0, atol=1e-13 * sigma0)
        sigma = greedy.true_sigma(basis, snapshots, system16)
        assert np.abs(sigma - peel.max(axis=1)).max() <= 1e-13 * sigma0

    def test_width_matches_explicit_peel(self, system16, run16):
        snapshots, _, _ = run16
        spanned = rb.snapshot_basis(snapshots, system16)
        width = theory.pod_width_upper_bound(spanned, system16)
        assert width.d_up.tobytes() == theory.pod_width_upper_bound(snapshots, system16).d_up.tobytes()
        u, _, _ = np.linalg.svd(spanned.coeffs, full_matrices=False)
        modes = spanned.vectors @ u
        assert modes.shape[1] == width.rank
        modes_basis = SimpleNamespace(vectors=modes, size=modes.shape[1])
        expected = [n.max() for n in naive_peel_norms(modes_basis, snapshots, system16)]
        assert np.abs(width.d_up[: width.rank + 1] - expected).max() <= 1e-13 * expected[0]

    def test_test_errors_match_per_point_norms(self, system16, run16):
        _, basis, model = run16
        test_set = bench.build_test_set(2, 2, 6, seed=5)
        cache = {}
        expected = np.empty((basis.size + 1, len(test_set)))
        for n in range(basis.size + 1):
            sub_basis, sub_model = basis.prefix(n), rb.prefix_model(model, n)
            errors, _ = bench.evaluate_test_error(sub_basis, sub_model, system16, test_set, cache)
            for t, mu in enumerate(test_set):
                f = cache[mu][0].coefficients
                approx = rb.reconstruct(sub_basis, rb.solve_rom(sub_model, mu))
                expected[n, t] = fem.x_norm(f - approx, system16) / fem.x_norm(f, system16)
            assert np.abs(np.array(errors) - expected[n]).max() <= 1e-13
        assert np.all(expected[0] == 1.0)
        weights = np.array([mu.weights for mu in test_set])
        references = [cache[mu][0].coefficients for mu in test_set]
        norms = np.array([cache[mu][1] for mu in test_set])
        sizes = range(basis.size + 1)
        rows = bench._prefix_test_errors(
            basis, model, system16, weights, references, norms, sizes
        )
        assert np.all(rows[0] == 1.0)
        assert np.abs(rows - expected).max() <= 1e-13

    def test_non_orthonormal_vectors_raise(self, system16, run16):
        snapshots, basis, _ = run16
        skewed = basis.vectors.copy()
        skewed[:, -1] += 1e-6 * skewed[:, 0]
        columns = [s.coefficients for s in snapshots]
        with pytest.raises(NumericError, match="not X-orthonormal"):
            fem.projection_distances(skewed, columns, system16)
        with pytest.raises(NumericError, match="not X-orthonormal"):
            greedy.true_sigma(rb.ReducedBasis(skewed, basis.provenance), snapshots, system16)

    def test_memory_bounded_by_column_blocks(self, system16, run16):
        """The distances hold column blocks; true_sigma, given the snapshot
        basis, holds r x T and N x T tables.  Neither holds a dof x T stack."""
        _, basis, _ = run16
        snapshots = [fem.solve_fom(system16, mu) for mu in grid_params(5)]
        spanned = rb.snapshot_basis(snapshots, system16)
        count, rank = len(snapshots), spanned.vectors.shape[1]
        assert count >= 3 * pool_mod.COLUMN_BLOCK
        block_bytes = system16.dof_count * pool_mod.COLUMN_BLOCK * 8
        output_bytes = (2 * basis.size + 1) * count * 8  # distances, coefficients
        bounds = [3 * block_bytes + output_bytes, 4 * (basis.size + rank + 1) * count * 8]
        assert system16.dof_count * count * 8 > max(bounds)  # a stack would not fit
        calls = [
            lambda: fem.projection_distances(basis.vectors, snapshots, system16),
            lambda: greedy.true_sigma(basis, spanned, system16),
        ]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for call, bound in zip(calls, bounds):
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                call()
                _, peak = tracemalloc.get_traced_memory()
                assert peak - base <= bound
        finally:
            if not tracing:
                tracemalloc.stop()


class TestCoordinateSigma:
    """true_sigma reads the weak basis V in the coordinates of the snapshot
    basis Q.  V lies in span(Q) only up to the snapshots' remainders, so
    B = Q^T M_X V is not exactly orthonormal; sigma still agrees with the
    full-space distances of the raw snapshots."""

    def test_matches_raw_distances_where_b_is_not_orthonormal(self):
        system = fem.assemble(fem.build_mesh(32, 32, 2, 2))
        training = bench.build_training_set(2, 2, 8)
        blocks = bench._solve_on_pool(pool_mod.WorkerPool(), system, training, "training solves")
        config = greedy.GreedyConfig(training_set=training, batch_size=8, tolerance=1e-5)
        basis, _, _ = greedy.run_batch_greedy(system, config)
        spanned = rb.snapshot_basis(blocks, system)
        b = spanned.vectors.T @ (system.gram @ basis.vectors)
        assert np.abs(b.T @ b - np.eye(basis.size)).max() >= 1e-6
        sigma = greedy.true_sigma(basis, spanned, system)
        dist = fem.projection_distances(basis.vectors, blocks, system)[0]
        assert sigma[0] == dist[0].max()
        assert np.abs(sigma - dist.max(axis=1)).max() <= 1e-13 * sigma[0]


class TestStrongPeelColumnBlocks:
    """The snapshot basis spans its snapshots over fixed column blocks, the
    distances one pool task each; a strong run on it is bitwise the same at
    every worker count."""

    @pytest.fixture(scope="class")
    def snapshots625(self, system):
        return {mu: fem.solve_fom(system, mu) for mu in grid_params(5)}

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bytes_equal_to_inline_run(self, system, snapshots625, b, workers):
        training = list(snapshots625)
        assert len(training) > 2 * pool_mod.COLUMN_BLOCK
        config = greedy.GreedyConfig(training_set=training, batch_size=b, tolerance=1e-9)
        inline = rb.snapshot_basis(snapshots625, system)
        ref_basis, ref = greedy.run_strong_greedy(system, config, inline, snapshots625)
        with pool_mod.WorkerPool(workers) as pool:
            spanned = rb.snapshot_basis(snapshots625, system, pool)
        basis, trace = greedy.run_strong_greedy(system, config, spanned, snapshots625)
        assert basis.size == ref_basis.size > 10
        assert basis.vectors.tobytes() == ref_basis.vectors.tobytes()
        assert len(trace.iterations) == len(ref.iterations)
        for a, r in zip(trace.iterations, ref.iterations):
            assert np.float64(a.max_estimate).tobytes() == np.float64(r.max_estimate).tobytes()
            assert [(s.param_index, s.estimate, s.accepted) for s in a.selections] == [
                (s.param_index, s.estimate, s.accepted) for s in r.selections
            ]
        assert trace.stop_reason == ref.stop_reason
        assert trace.amatrix.tobytes() == ref.amatrix.tobytes()

    def test_trace_bitwise_equal_at_one_and_two_workers(self, system, training, snapshots):
        """A tail block (81 = 64 + 17 columns) spans alike on 1 and 2 workers."""
        assert len(training) == 81 and len(training) % pool_mod.COLUMN_BLOCK != 0
        config = greedy.GreedyConfig(training_set=training, batch_size=2, tolerance=1e-6)
        runs = []
        for workers in (1, 2):
            with pool_mod.WorkerPool(workers) as pool:
                spanned = rb.snapshot_basis(snapshots, system, pool)
            runs.append(greedy.run_strong_greedy(system, config, spanned, snapshots))
        (one_basis, one), (two_basis, two) = runs
        assert one_basis.vectors.tobytes() == two_basis.vectors.tobytes()
        assert len(one.iterations) == len(two.iterations) > 2
        for a, b in zip(one.iterations, two.iterations):
            assert np.float64(a.max_estimate).tobytes() == np.float64(b.max_estimate).tobytes()
            assert [(s.param_index, s.estimate) for s in a.selections] == [
                (s.param_index, s.estimate) for s in b.selections
            ]
        assert one.amatrix.tobytes() == two.amatrix.tobytes()


class TestStrongRunMemory:
    """The strong run holds its table in snapshot-basis coordinates: r x T
    and dof x r arrays, never a dof x T copy of the snapshots."""

    def test_peak_below_one_snapshot_copy(self, system16):
        training = bench.build_training_set(2, 2, 5)
        snaps = [fem.solve_fom(system16, mu) for mu in training]
        spanned = rb.snapshot_basis(snaps, system16)
        rank, count = spanned.coeffs.shape
        bound = 4 * rank * count * 8 + 6 * system16.dof_count * (rank + 1) * 8
        assert system16.dof_count * count * 8 > bound  # a copy would not fit
        config = greedy.GreedyConfig(training_set=training, batch_size=1, tolerance=1e-9)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            basis, _ = greedy.run_strong_greedy(system16, config, spanned, snaps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert basis.size > 10
        assert peak - base <= bound


class TestSolvedColumnBlocks:
    """The oracle keeps its training snapshots as the column blocks of the
    bulk solves; every consumer gives the bytes it gives on Snapshots."""

    @pytest.fixture(scope="class")
    def training625(self):
        return grid_params(5)

    @pytest.fixture(scope="class")
    def mapping(self, system, training625):
        return {mu: fem.solve_fom(system, mu) for mu in training625}

    @pytest.mark.parametrize("workers", [None, 2])
    def test_bytes_equal_to_snapshot_mapping(self, system, training625, mapping, workers):
        config = greedy.GreedyConfig(training_set=training625, batch_size=2, tolerance=1e-8)
        results = []
        with pool_mod.WorkerPool(workers or 1) as pool:
            task_pool = pool if workers else None
            blocks = bench._solve_on_pool(pool, system, training625, "training solves")
            assert len(blocks) > 1
            for snapshots in (blocks, mapping):
                spanned = rb.snapshot_basis(snapshots, system, task_pool)
                basis, trace = greedy.run_strong_greedy(system, config, spanned, snapshots)
                width = theory.pod_width_upper_bound(spanned, system)
                sigma = greedy.true_sigma(basis, spanned, system)
                results.append((basis, trace, width, sigma))
        (basis, trace, width, sigma), (ref_basis, ref, ref_width, ref_sigma) = results
        assert basis.size == ref_basis.size > 10
        assert basis.vectors.tobytes() == ref_basis.vectors.tobytes()
        assert [
            (rec.basis_size, rec.max_estimate, [(s.param_index, s.estimate) for s in rec.selections])
            for rec in trace.iterations
        ] == [
            (rec.basis_size, rec.max_estimate, [(s.param_index, s.estimate) for s in rec.selections])
            for rec in ref.iterations
        ]
        assert trace.stop_reason == ref.stop_reason
        assert trace.amatrix.tobytes() == ref.amatrix.tobytes()
        assert width.d_up.tobytes() == ref_width.d_up.tobytes()
        assert sigma.tobytes() == ref_sigma.tobytes()

    def test_block_count_must_match_training_set(self, system, training625):
        blocks = [fem.solve_fom_block(system, np.array([mu.weights for mu in training625[:64]]))]
        config = greedy.GreedyConfig(training_set=training625, batch_size=1)
        with pytest.raises(ConfigurationError, match="64 snapshots for 625 training points"):
            greedy.run_strong_greedy(system, config, rb.snapshot_basis(blocks, system), blocks)


class TestCallTimeLookups:
    """The loop looks these names up when it calls them, so a wrapper bound
    onto the module (a tracer, a profiler) sees every call."""

    def test_weak_driver(self, monkeypatch, system, training):
        counts = count_calls(
            monkeypatch,
            [
                "greedy.select_batch",
                "greedy.solve_fom",
                "rb.extend",
                "rb.extend_model",
                "estimator.estimate_sweep",
                "estimator.build_estimator",
            ],
        )
        config = greedy.GreedyConfig(training_set=training, batch_size=2, tolerance=1e-2)
        greedy.run_batch_greedy(system, config)
        assert all(counts.values()), counts

    @pytest.mark.parametrize("b", [1, 8])
    def test_weak_driver_sweeps_once_per_iteration(self, monkeypatch, system16, b):
        """One `estimate_sweep` call per recorded iteration, lazy or not: a
        tracer counting that name counts sweeps."""
        counts = count_calls(monkeypatch, ["estimator.estimate_sweep"])
        config = greedy.GreedyConfig(
            training_set=bench.build_training_set(2, 2, 5), batch_size=b, tolerance=1e-6
        )
        _, _, trace = greedy.run_batch_greedy(system16, config)
        assert any(rec.evaluated < 625 for rec in trace.iterations)
        assert counts["estimator.estimate_sweep"] == len(trace.iterations)

    def test_strong_driver(self, monkeypatch, system, training, snapshots, spanned):
        counts = count_calls(monkeypatch, ["greedy.select_batch", "rb.extend"])
        config = greedy.GreedyConfig(training_set=training, batch_size=2, tolerance=1e-2)
        greedy.run_strong_greedy(system, config, spanned, snapshots)
        assert all(counts.values()), counts


class TestExports:
    def test_trace_csv(self, system, training, tmp_path):
        config = greedy.GreedyConfig(training_set=training, batch_size=2, tolerance=1e-4)
        _, _, trace = greedy.run_batch_greedy(system, config)
        path = greedy.export_trace(trace, tmp_path / "trace.csv")
        raw = path.read_bytes()
        assert b"\r" not in raw
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0].keys()) == [
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
        selections = [r for r in rows if r["param_id"] != ""]
        assert len(selections) == len(trace.selected_indices())
        assert [int(r["param_id"]) for r in selections] == trace.selected_indices()
        # decimal points, not commas, and exact float round-trip
        assert float(selections[0]["est_value"]) == trace.iterations[0].selections[0].estimate
        final = rows[-1]
        assert final["param_id"] == ""
        assert float(final["est_value"]) == trace.iterations[-1].max_estimate
