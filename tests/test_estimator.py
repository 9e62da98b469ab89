"""Tests for the residual-based error estimator."""

import numpy as np
import pytest

from batchrb import estimator, fem, rb
from batchrb.errors import ConfigurationError, DimensionError, DomainError

TRAIN = [
    fem.ParameterPoint(w)
    for w in [
        (0.1, 1.0, 1.0, 0.1),
        (1.0, 0.1, 0.1, 1.0),
        (0.55, 0.25, 0.85, 0.4),
        (0.3, 0.9, 0.4, 0.7),
    ]
]


@pytest.fixture(scope="module")
def setup():
    system = fem.assemble(fem.build_mesh(8, 8, 2, 2))
    snaps = [fem.solve_fom(system, mu) for mu in TRAIN]
    basis, _ = rb.extend(rb.ReducedBasis.empty(system.dof_count), snaps, system)
    model = rb.reduce(basis, system)
    data = estimator.build_estimator(model, basis, system)
    return system, basis, model, data


class TestBounds:
    def test_coercivity_is_min_weight(self):
        mu = fem.ParameterPoint((0.3, 0.9, 0.15, 0.7))
        bounds = estimator.EffectivityBounds()
        assert bounds.alpha_lb(mu) == 0.15
        assert bounds.gamma_ub(mu) == 0.9

    def test_gamma_greedy_default_box(self):
        bounds = estimator.EffectivityBounds()
        assert bounds.gamma_greedy(4) == pytest.approx(0.1, rel=1e-15)
        assert bounds.gamma_greedy(2) == pytest.approx(0.1, rel=1e-15)
        assert bounds.gamma_greedy(1) == 1.0

    def test_invalid_box_rejected(self):
        with pytest.raises(ConfigurationError):
            estimator.EffectivityBounds(mu_min=0.5, mu_max=0.1)
        with pytest.raises(ConfigurationError):
            estimator.EffectivityBounds(mu_min=0.0, mu_max=1.0)

    def test_kappa(self):
        bounds = estimator.EffectivityBounds()
        mu = fem.ParameterPoint((0.2, 0.8, 0.5, 0.4))
        assert bounds.kappa(mu) == pytest.approx(4.0, rel=1e-15)


class TestBuild:
    def test_riesz_representers_solve_gram_system(self, setup):
        system, basis, model, data = setup
        gram = system.gram
        assert np.allclose(gram @ data.riesz_load, system.load, atol=1e-12)
        for p, a_p in enumerate(system.components):
            for j in range(basis.size):
                rhs = a_p @ basis.vectors[:, j]
                assert np.allclose(gram @ data.riesz_components[p, j], rhs, atol=1e-12)

    def test_tables_match_representers(self, setup):
        system, basis, model, data = setup
        gram = system.gram
        z_f = data.riesz_load
        assert data.g_ff == pytest.approx(z_f @ (gram @ z_f), rel=1e-13)
        p, j, q, i = 1, 2, 3, 0
        expected = data.riesz_components[p, j] @ (gram @ data.riesz_components[q, i])
        assert data.g_cc[p, j, q, i] == pytest.approx(expected, rel=1e-10)

    def test_gramian_symmetry_exact(self, setup):
        _, _, _, data = setup
        flat = data.g_cc.reshape(
            data.block_count * data.basis_size, data.block_count * data.basis_size
        )
        assert np.array_equal(flat, flat.T)

    def test_incremental_matches_scratch(self, setup):
        system, basis, model, data = setup
        sub = basis.prefix(2)
        sub_model = rb.reduce(sub, system)
        partial = estimator.build_estimator(sub_model, sub, system)
        scratch_model = rb.reduce(basis, system)  # keep the fixture model untouched
        grown = estimator.build_estimator(
            scratch_model, basis, system, previous=partial
        )
        scale = np.abs(data.g_cc).max()
        assert np.allclose(grown.g_cc, data.g_cc, rtol=0, atol=1e-10 * scale)
        assert np.allclose(grown.g_fc, data.g_fc, rtol=1e-10)
        assert grown.g_ff == pytest.approx(data.g_ff, rel=1e-13)

    def test_prefix_matches_fresh_build(self, setup):
        system, basis, model, data = setup
        sub = basis.prefix(2)
        sub_model = rb.reduce(sub, system)
        fresh = estimator.build_estimator(sub_model, sub, system)
        sliced = estimator.prefix_data(data, 2)
        assert np.allclose(sliced.g_cc, fresh.g_cc, rtol=1e-10)
        assert np.allclose(sliced.g_fc, fresh.g_fc, rtol=1e-10)

    def test_attached_to_model(self, setup):
        system, basis, *_ = setup
        sub = basis.prefix(1)
        sub_model = rb.reduce(sub, system)
        fresh = estimator.build_estimator(sub_model, sub, system)
        assert sub_model.estimator_data is fresh


class TestEstimate:
    def test_rigor_and_effectivity(self, setup):
        """alpha/gamma sandwich: err <= Delta <= kappa(mu) * err."""
        system, basis, model, data = setup
        sub = basis.prefix(2)
        sub_model = rb.reduce(sub, system)
        sub_data = estimator.build_estimator(sub_model, sub, system)
        rng = np.random.default_rng(42)
        for _ in range(50):
            mu = fem.ParameterPoint(tuple(rng.uniform(0.1, 1.0, 4)))
            u = fem.solve_fom(system, mu).coefficients
            u_rb = rb.reconstruct(sub, rb.solve_rom(sub_model, mu))
            err = fem.x_norm(u - u_rb, system)
            delta = estimator.estimate(sub_data, sub_model, mu)
            kappa = data.bounds.kappa(mu)
            assert err <= delta + 1e-8
            assert delta <= kappa * err + 1e-8

    def test_snapshot_in_basis_estimates_near_zero(self, setup):
        system, basis, model, data = setup
        empty_model = rb.reduce(rb.ReducedBasis.empty(system.dof_count), system)
        empty_data = estimator.build_estimator(
            empty_model, rb.ReducedBasis.empty(system.dof_count), system
        )
        for mu in TRAIN:
            delta0 = estimator.estimate(empty_data, empty_model, mu)
            delta = estimator.estimate(data, model, mu)
            assert delta <= 1e-6 * delta0

    def test_empty_basis_estimate_is_load_dual_norm(self, setup):
        system, *_ = setup
        empty = rb.ReducedBasis.empty(system.dof_count)
        model = rb.reduce(empty, system)
        data = estimator.build_estimator(model, empty, system)
        mu = fem.ParameterPoint((0.25, 0.5, 1.0, 0.4))
        z_f = data.riesz_load
        expected = np.sqrt(z_f @ (system.gram @ z_f)) / 0.25
        assert estimator.estimate(data, model, mu) == pytest.approx(expected, rel=1e-12)

    def test_sweep_matches_single_evaluations(self, setup):
        system, basis, model, data = setup
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.1, 1.0, (20, 4))
        sweep = estimator.estimate_sweep(data, model, weights)
        for row, value in zip(weights, sweep):
            single = estimator.estimate(data, model, fem.ParameterPoint(tuple(row)))
            assert single == pytest.approx(value, rel=1e-12)

    def test_negative_expansion_clamped_to_zero(self):
        """Crafted tables driving r^2 slightly negative give 0.0, not NaN."""
        model = rb.ReducedModel(
            components=np.ones((1, 1, 1)), load=np.array([1.0])
        )
        # c = 1/mu, y = mu*c = 1: r^2 = g_ff - 2 g_fc + g_cc = -1e-18
        data = estimator.EstimatorData(
            riesz_load=None,
            riesz_components=None,
            g_ff=1.0 - 1e-18,
            g_fc=np.array([[1.0]]),
            g_cc=np.array([[[[1.0]]]]),
        )
        value = estimator.estimate(data, model, fem.ParameterPoint((1.0,)))
        assert value == 0.0

    def test_domain_and_dimension_errors(self, setup):
        system, basis, model, data = setup
        with pytest.raises(DomainError):
            estimator.estimate_sweep(data, model, np.array([[0.5, -0.1, 0.2, 0.3]]))
        with pytest.raises(DimensionError):
            estimator.estimate_sweep(data, model, np.ones((2, 3)))
        with pytest.raises(DimensionError):
            estimator.estimate(data, rb.prefix_model(model, 2), TRAIN[0])


class TestRieszCheck:
    def test_offline_matches_direct(self, setup):
        system, basis, model, data = setup
        sub = basis.prefix(2)
        sub_model = rb.reduce(sub, system)
        sub_data = estimator.build_estimator(sub_model, sub, system)
        rng = np.random.default_rng(8)
        for _ in range(10):
            mu = fem.ParameterPoint(tuple(rng.uniform(0.1, 1.0, 4)))
            diag = estimator.check_riesz(sub_data, sub_model, sub, system, mu)
            assert not diag.cancellation
            assert diag.relative_deviation <= 1e-6

    def test_cancellation_flagged_when_converged(self, setup):
        system, basis, model, data = setup
        diag = estimator.check_riesz(data, model, basis, system, TRAIN[0])
        assert diag.cancellation
        assert diag.dual_norm_offline <= 1e-7 * np.sqrt(data.g_ff)

    def test_online_only_data_rejected(self, setup):
        system, basis, model, data = setup
        online = estimator.EstimatorData(
            riesz_load=None,
            riesz_components=None,
            g_ff=data.g_ff,
            g_fc=data.g_fc,
            g_cc=data.g_cc,
            bounds=data.bounds,
        )
        with pytest.raises(ConfigurationError):
            estimator.check_riesz(online, model, basis, system, TRAIN[0])
        with pytest.raises(ConfigurationError):
            estimator.build_estimator(model, basis, system, previous=online)


class TestRieszSolver:
    def test_column_matrix_matches_column_solves(self, setup):
        system = setup[0]
        solver = estimator.RieszSolver(system)
        rng = np.random.default_rng(5)
        columns = rng.standard_normal((system.dof_count, 6))
        for rhs in (columns, np.asfortranarray(columns)):
            together = solver.solve(rhs)
            one_by_one = np.column_stack(
                [solver.solve(rhs[:, j]) for j in range(rhs.shape[1])]
            )
            np.testing.assert_allclose(together, one_by_one, rtol=1e-14, atol=0.0)

    def test_solves_the_gram_system(self, setup):
        system = setup[0]
        z = estimator.RieszSolver(system).solve(system.load)
        residual = system.gram @ z - system.load
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(system.load)


class TestArtifactWithEstimator:
    def test_roundtrip_preserves_estimates(self, setup, tmp_path):
        system, basis, model, data = setup
        path = rb.save_artifact(model, basis, tmp_path / "rom.json")
        loaded, _ = rb.load_artifact(path, system=system)
        assert loaded.estimator_data is not None
        assert loaded.estimator_data.online_only
        rng = np.random.default_rng(11)
        for _ in range(5):
            mu = fem.ParameterPoint(tuple(rng.uniform(0.1, 1.0, 4)))
            a = estimator.estimate(data, model, mu)
            b = estimator.estimate(loaded.estimator_data, loaded, mu)
            assert a == b
