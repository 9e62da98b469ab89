"""Tests for the residual-based error estimator."""

import numpy as np
import pytest

from batchrb import bench, estimator, fem, greedy, rb
from batchrb.errors import ConfigurationError, DimensionError, DomainError, NumericError

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


def representers(system, basis):
    """[z_f, z_(0,0), ..., z_(P-1,0), z_(0,1), ...] by direct Riesz solves."""
    solver = estimator.RieszSolver(system)
    columns = [solver.solve(system.load)]
    for j in range(basis.size):
        for a_p in system.components:
            columns.append(solver.solve(a_p @ basis.vectors[:, j]))
    return np.column_stack(columns)


def kept_columns(data):
    """Indicator of the representers kept in Q (nonzero diagonal of R)."""
    return (np.diag(data.R) != 0).astype(float)


class TestBuild:
    def test_riesz_representers_solve_gram_system(self, setup):
        """Q R reproduces z_f = M_X^{-1} f and z_(p,j) = M_X^{-1} A_p v_j."""
        system, basis, model, data = setup
        gram = system.gram
        product = data.Q @ data.R
        assert np.allclose(gram @ product[:, 0], system.load, atol=1e-12)
        for j in range(basis.size):
            for p, a_p in enumerate(system.components):
                rhs = a_p @ basis.vectors[:, j]
                column = product[:, 1 + j * system.block_count + p]
                assert np.allclose(gram @ column, rhs, atol=1e-12)

    def test_tables_match_representers(self, setup):
        """R^T R is the Gram matrix of the representers in the X inner product."""
        system, basis, model, data = setup
        z = representers(system, basis)
        gram_table = z.T @ (system.gram @ z)
        z_f = z[:, 0]
        assert data.load_dual_norm == pytest.approx(
            np.sqrt(z_f @ (system.gram @ z_f)), rel=1e-13
        )
        scale = np.abs(gram_table).max()
        assert np.allclose(data.R.T @ data.R, gram_table, rtol=0, atol=1e-13 * scale)

    def test_gramian_symmetry_exact(self, setup):
        """Q is X-orthonormal and R upper triangular; dropped columns are zero."""
        system, _, _, data = setup
        kept = kept_columns(data)
        assert 0 < kept.sum() < len(kept)  # each snapshot makes one column drop
        orthonormality = data.Q.T @ (system.gram @ data.Q) - np.diag(kept)
        assert np.abs(orthonormality).max() <= 1e-13
        assert np.array_equal(data.R, np.triu(data.R))
        assert np.all(data.R[kept == 0] == 0.0)
        assert np.all(data.Q[:, kept == 0] == 0.0)

    def test_incremental_matches_scratch(self, setup):
        system, basis, model, data = setup
        sub = basis.prefix(2)
        sub_model = rb.reduce(sub, system)
        partial = estimator.build_estimator(sub_model, sub, system)
        scratch_model = rb.reduce(basis, system)  # keep the fixture model untouched
        grown = estimator.build_estimator(
            scratch_model, basis, system, previous=partial
        )
        scale = np.abs(data.R).max()
        assert np.array_equal(kept_columns(grown), kept_columns(data))
        assert np.allclose(grown.R, data.R, rtol=0, atol=1e-12 * scale)
        assert np.allclose(grown.Q, data.Q, rtol=0, atol=1e-10 * np.abs(data.Q).max())
        assert grown.load_dual_norm == pytest.approx(data.load_dual_norm, rel=1e-13)

    def test_prefix_matches_fresh_build(self, setup):
        system, basis, model, data = setup
        sub = basis.prefix(2)
        sub_model = rb.reduce(sub, system)
        fresh = estimator.build_estimator(sub_model, sub, system)
        sliced = estimator.prefix_data(data, 2)
        assert sliced.R.shape == (1 + 2 * system.block_count,) * 2
        assert np.allclose(sliced.R, fresh.R, rtol=0, atol=1e-12 * np.abs(data.R).max())
        assert np.allclose(sliced.Q, fresh.Q, rtol=0, atol=1e-10 * np.abs(data.Q).max())

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
        z_f = estimator.RieszSolver(system).solve(system.load)
        expected = np.sqrt(z_f @ (system.gram @ z_f)) / 0.25
        assert data.load_dual_norm == pytest.approx(expected * 0.25, rel=1e-12)
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
        """A residual that cancels exactly gives the exact norm 0.0, not NaN.

        The representers z_f = z_(0,0) of this crafted factor have Gram
        entries g_ff = g_fc = g_cc = 1, where a squared expansion rounds to
        either sign; the Euclidean form computes |1 - y| exactly.
        """
        model = rb.ReducedModel(
            components=np.ones((1, 1, 1)), load=np.array([1.0])
        )
        data = estimator.EstimatorData(
            Q=None, R=np.array([[1.0, 1.0], [0.0, 0.0]]), block_count=1
        )
        # c = 1/mu, y = mu*c = 1
        for mu in (0.1, 0.3, 0.7, 1.0):
            value = estimator.estimate(data, model, fem.ParameterPoint((mu,)))
            assert value == 0.0
        half = rb.ReducedModel(components=2.0 * np.ones((1, 1, 1)), load=np.array([1.0]))
        value = estimator.estimate(data, half, fem.ParameterPoint((0.5,)))
        assert value == 0.5 / 0.5  # y = 1/2: ||R [1, -1/2]|| = 1/2

    def test_domain_and_dimension_errors(self, setup):
        system, basis, model, data = setup
        with pytest.raises(DomainError):
            estimator.estimate_sweep(data, model, np.array([[0.5, -0.1, 0.2, 0.3]]))
        with pytest.raises(DimensionError):
            estimator.estimate_sweep(data, model, np.ones((2, 3)))
        with pytest.raises(DimensionError):
            estimator.estimate(data, rb.prefix_model(model, 2), TRAIN[0])


class TestSinglePointPath:
    """estimate runs the sweep's kernels on one row, bitwise equal to the sweep."""

    def points(self):
        rng = np.random.default_rng(23)
        return TRAIN + [fem.ParameterPoint(tuple(w)) for w in rng.uniform(0.1, 1.0, (8, 4))]

    def test_bitwise_equal_to_sweep_row_at_every_prefix(self, setup):
        system, basis, model, data = setup
        for n in range(basis.size + 1):
            sub_model, sub_data = rb.prefix_model(model, n), estimator.prefix_data(data, n)
            for mu in self.points():
                value = estimator.estimate(sub_data, sub_model, mu)
                row = estimator.estimate_sweep(sub_data, sub_model, mu.as_array()[None, :])
                assert type(value) is float
                assert np.float64(value).tobytes() == row[0].tobytes(), (n, mu)

    def test_empty_basis(self, setup):
        system, basis, model, data = setup
        empty_model, empty_data = rb.prefix_model(model, 0), estimator.prefix_data(data, 0)
        mu = fem.ParameterPoint((0.25, 0.5, 1.0, 0.4))
        value = estimator.estimate(empty_data, empty_model, mu)
        assert value == data.load_dual_norm / 0.25
        assert value == estimator.estimate_sweep(empty_data, empty_model, mu.as_array())[0]
        with pytest.raises(DimensionError):
            estimator.estimate(empty_data, empty_model, fem.ParameterPoint((1.0, 1.0)))

    def test_parameter_size_mismatch(self, setup):
        system, basis, model, data = setup
        with pytest.raises(DimensionError, match="estimator has 4 blocks"):
            estimator.estimate(data, model, fem.ParameterPoint((0.5, 0.5)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 on the way
    @pytest.mark.parametrize(
        "part, value", [("components", np.nan), ("load", np.nan), ("load", np.inf)]
    )
    def test_non_finite_model_raises_numeric_error(self, setup, part, value):
        """An infinite matrix entry can leave the LU solve finite, as in the
        sweep (rb.solve_rom rejects it); NaN and an infinite load cannot."""
        system, basis, model, data = setup
        broken = rb.prefix_model(model, model.basis_size)
        if part == "load":
            broken.load[1] = value
        else:
            broken.components[:, 1, 2] = broken.components[:, 2, 1] = value
        with pytest.raises(NumericError, match=r"non-finite error estimate at mu=\(0\.3"):
            estimator.estimate(data, broken, TRAIN[3])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 on the way
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_estimator_data_raises_numeric_error(self, setup, value):
        """Also at n = 0, where the estimate is ||f||_{X'} / alpha."""
        system, basis, model, data = setup
        for n in (0, model.basis_size):
            broken = estimator.prefix_data(data, n)
            broken.R[0, -1] = value
            with pytest.raises(NumericError, match="non-finite error estimate"):
                estimator.estimate(broken, rb.prefix_model(model, n), TRAIN[3])


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

    def test_passed_solver_gives_identical_diagnostic(self, monkeypatch, setup):
        system, basis, model, data = setup
        sub = basis.prefix(2)
        sub_model = rb.prefix_model(model, 2)
        sub_data = estimator.prefix_data(data, 2)
        points = [TRAIN[0], fem.ParameterPoint((0.3, 0.9, 0.5, 0.7))]
        fresh = [estimator.check_riesz(sub_data, sub_model, sub, system, mu) for mu in points]
        solver = estimator.RieszSolver(system)
        # A passed solver is used as it is: no new factorization of M_X.
        monkeypatch.setattr(estimator, "RieszSolver", None)
        reused = [
            estimator.check_riesz(sub_data, sub_model, sub, system, mu, solver=solver)
            for mu in points
        ]
        assert reused == fresh

    def test_cancellation_flagged_when_converged(self, setup):
        system, basis, model, data = setup
        diag = estimator.check_riesz(data, model, basis, system, TRAIN[0])
        assert diag.cancellation
        assert diag.dual_norm_offline <= estimator.CANCELLATION_RATIO * data.load_dual_norm
        assert diag.dual_norm_direct <= estimator.CANCELLATION_RATIO * data.load_dual_norm

    def test_online_only_data_rejected(self, setup):
        system, basis, model, data = setup
        online = estimator.EstimatorData(
            Q=None, R=data.R, block_count=data.block_count, bounds=data.bounds
        )
        assert online.online_only
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


@pytest.fixture(scope="module")
def tight_run():
    """b = 1 on nx=32 over the 5^4 grid, run to a relative tolerance of 1e-9."""
    system = fem.assemble(fem.build_mesh(32, 32, 2, 2))
    config = greedy.GreedyConfig(
        training_set=bench.build_training_set(2, 2, 5), batch_size=1, tolerance=1e-9
    )
    basis, model, trace = greedy.run_batch_greedy(system, config)
    rng = np.random.default_rng(17)
    points = [fem.ParameterPoint(tuple(w)) for w in rng.uniform(0.1, 1.0, (4, 4))]
    solutions = [fem.solve_fom(system, mu).coefficients for mu in points]
    return system, basis, model, trace, points, solutions


class TestStableForm:
    """The X-orthonormal form stays accurate far below the squared expansion's
    floor of about 1e-8 relative to ||f||_{X'}."""

    def test_tight_tolerance_stops_by_tolerance(self, tight_run):
        _, _, _, trace, *_ = tight_run
        assert trace.stop_reason == "tolerance"
        assert trace.iteration_count <= 30
        assert trace.iterations[-1].rel_estimate <= 1e-9

    def test_riesz_check_at_round_off_for_every_size(self, tight_run):
        """Offline and direct norms agree to round-off of ||f||_{X'} at every n.

        Both paths carry an absolute error of a few machine epsilons of
        ||f||_{X'}, so the relative deviation is at most 1e-6 while the
        residual is above 1e-8 of ||f||_{X'}, and stays a round-off effect
        down to the 1e-12 the run reaches.
        """
        system, basis, model, _, points, _ = tight_run
        data = model.estimator_data
        load = data.load_dual_norm
        smallest = np.inf
        for n in range(1, basis.size + 1):
            sub_data = estimator.prefix_data(data, n)
            sub_model, sub = rb.prefix_model(model, n), basis.prefix(n)
            for mu in points:
                diag = estimator.check_riesz(sub_data, sub_model, sub, system, mu)
                gap = abs(diag.dual_norm_offline - diag.dual_norm_direct)
                assert gap <= 1e-14 * load, (n, mu)
                if diag.dual_norm_direct >= 1e-8 * load:
                    assert diag.relative_deviation <= 1e-6, (n, mu)
                smallest = min(smallest, diag.dual_norm_direct / load)
        assert smallest <= 1e-11

    def test_estimate_bounds_true_error_for_every_size(self, tight_run):
        system, basis, model, _, points, solutions = tight_run
        data = model.estimator_data
        for n in range(basis.size + 1):
            sub_data = estimator.prefix_data(data, n)
            sub_model, sub = rb.prefix_model(model, n), basis.prefix(n)
            for mu, u in zip(points, solutions):
                error = fem.x_norm(u - rb.reconstruct(sub, rb.solve_rom(sub_model, mu)), system)
                assert estimator.estimate(sub_data, sub_model, mu) >= error, (n, mu)

    def test_more_representers_than_dofs(self):
        """With 1 + P n > dof, Q stays X-orthonormal on its kept columns."""
        system = fem.assemble(fem.build_mesh(4, 4, 2, 2))  # 9 DOFs
        config = greedy.GreedyConfig(
            training_set=bench.build_training_set(2, 2, 5), batch_size=1, tolerance=1e-12
        )
        basis, model, _ = greedy.run_batch_greedy(system, config)
        data = model.estimator_data
        assert basis.size == system.dof_count
        assert data.R.shape[0] == 1 + system.block_count * basis.size
        kept = kept_columns(data)
        assert kept.sum() <= system.dof_count
        gram = data.Q.T @ (system.gram @ data.Q)
        assert np.abs(gram - np.diag(kept)).max() <= 1e-12
