"""Tests for the residual-based error estimator."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from batchrb import bench, estimator, fem, greedy, rb
from batchrb.errors import ConfigurationError, DimensionError, DomainError, NumericError
from batchrb.pool import WorkerPool

from oracles import check_riesz

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
    """The estimator divides by the min-theta coercivity bound min_p mu_p."""

    def test_coercivity_is_min_weight(self, setup):
        system, *_ = setup
        empty = rb.ReducedBasis.empty(system.dof_count)
        model = rb.reduce(empty, system)
        data = estimator.build_estimator(model, empty, system)
        mu = fem.ParameterPoint((0.3, 0.9, 0.15, 0.7))
        assert estimator.estimate(data, model, mu) == data.load_dual_norm / 0.15
        sweep = estimator.estimate_sweep(data, model, np.array([mu.weights]))
        assert sweep[0] == data.load_dual_norm / 0.15

    def test_kappa(self, setup):
        """With the continuity bound max_p mu_p, kappa(mu) = 4 bounds the
        effectivity Delta / err from above."""
        system, basis, model, data = setup
        mu = fem.ParameterPoint((0.2, 0.8, 0.5, 0.4))
        assert max(mu.weights) / min(mu.weights) == pytest.approx(4.0, rel=1e-15)
        sub = basis.prefix(1)
        sub_model = rb.reduce(sub, system)
        sub_data = estimator.build_estimator(sub_model, sub, system)
        u = fem.solve_fom(system, mu).coefficients
        err = fem.x_norm(u - rb.reconstruct(sub, rb.solve_rom(sub_model, mu)), system)
        assert err <= estimator.estimate(sub_data, sub_model, mu) <= 4.0 * err


def direct_representers(system, vectors):
    """M_X^-1 A_p v_j by a plain sparse LU of M_X, at column j P + p."""
    lu = splu(system.gram.tocsc())
    rhs = np.stack([a_p @ vectors for a_p in system.components], 2)
    return lu.solve(rhs.reshape(system.dof_count, -1))


def representers(system, basis):
    """[z_f, z_(0,0), ..., z_(P-1,0), z_(0,1), ...] by direct Riesz solves."""
    z_f = splu(system.gram.tocsc()).solve(system.load)
    return np.column_stack([z_f, direct_representers(system, basis.vectors)])


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
            kappa = max(mu.weights) / min(mu.weights)
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
        z_f = splu(system.gram.tocsc()).solve(system.load)
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
        either sign; the Euclidean form computes |1 - y| exactly.  The sweep's
        LU gives c = 1/mu with y = mu c = 1 exactly; the Cholesky solve of
        `estimate` may round y by an ulp, a few eps of Delta_0 = 1/mu.
        """
        model = rb.ReducedModel(
            components=np.ones((1, 1, 1)), load=np.array([1.0])
        )
        data = estimator.EstimatorData(
            Q=None, R=np.array([[1.0, 1.0], [0.0, 0.0]]), block_count=1
        )
        eps = np.finfo(float).eps
        for mu in (0.1, 0.3, 0.7, 1.0):
            assert estimator.estimate_sweep(data, model, np.array([[mu]]))[0] == 0.0
            value = estimator.estimate(data, model, fem.ParameterPoint((mu,)))
            assert 0.0 <= value <= 4 * eps / mu
        half = rb.ReducedModel(components=2.0 * np.ones((1, 1, 1)), load=np.array([1.0]))
        value = estimator.estimate(data, half, fem.ParameterPoint((0.5,)))
        assert value == 0.5 / 0.5  # y = 1/2: ||R [1, -1/2]|| = 1/2

    def test_domain_and_dimension_errors(self, setup):
        system, basis, model, data = setup
        with pytest.raises(DomainError):
            estimator.estimate_sweep(data, model, np.array([[0.5, -0.1, 0.2, 0.3]]))
        for bad in (np.nan, np.inf):  # neither compares <= 0
            with pytest.raises(DomainError, match=r"finite and positive.* at point 1"):
                estimator.estimate_sweep(data, model, np.array([[0.5] * 4, [0.5, bad, 0.2, 0.3]]))
        with pytest.raises(DimensionError):
            estimator.estimate_sweep(data, model, np.ones((2, 3)))
        with pytest.raises(DimensionError):
            estimator.estimate(data, rb.prefix_model(model, 2), TRAIN[0])


class TestSinglePointPath:
    """estimate certifies rb.solve_rom's coefficients by the sweep's residual
    kernel, within round-off of the sweep's own LU-solved row."""

    def points(self):
        rng = np.random.default_rng(23)
        return TRAIN + [fem.ParameterPoint(tuple(w)) for w in rng.uniform(0.1, 1.0, (8, 4))]

    def test_bitwise_dual_norm_of_solve_rom_residual_at_every_prefix(self, setup):
        """Delta_n(mu) is bitwise ||R [1, -mu_p c_j]||_2 / min mu for
        c = rb.solve_rom(model, mu), and within 1e-15 ||f||_{X'} / alpha of a
        one-row sweep."""
        system, basis, model, data = setup
        for n in range(basis.size + 1):
            sub_model, sub_data = rb.prefix_model(model, n), estimator.prefix_data(data, n)
            for mu in self.points():
                weights, alpha = mu.as_array()[None, :], min(mu.weights)
                value = estimator.estimate(sub_data, sub_model, mu)
                assert type(value) is float
                y = estimator._residual_weights(weights, rb.solve_rom(sub_model, mu)[None, :])
                direct = estimator._dual_norms(sub_data, y)[0] / alpha
                assert np.float64(value).tobytes() == direct.tobytes(), (n, mu)
                floor = 1e-15 * data.load_dual_norm / alpha
                explicit = np.linalg.norm(sub_data.R @ np.concatenate([[1.0], -y[0]]))
                assert abs(value - explicit / alpha) <= floor, (n, mu)
                row = estimator.estimate_sweep(sub_data, sub_model, weights)[0]
                assert abs(value - row) <= floor, (n, mu)

    def test_within_round_off_of_sweep_row_on_greedy_model(self, sweep_run):
        """At every prefix of a greedy model, within 1e-15 ||f||_{X'} / alpha
        of a one-row sweep."""
        _, config, (basis, model, _) = sweep_run
        data = model.estimator_data
        rng = np.random.default_rng(29)
        points = fem.ParameterSet(
            np.vstack([config.training_set.weights[::17], rng.uniform(0.1, 1.0, (8, 4))])
        )
        for n in range(basis.size + 1):
            sub_model, sub_data = rb.prefix_model(model, n), estimator.prefix_data(data, n)
            for mu in points:
                value = estimator.estimate(sub_data, sub_model, mu)
                row = estimator.estimate_sweep(sub_data, sub_model, mu.as_array()[None, :])[0]
                assert abs(value - row) <= 1e-15 * data.load_dual_norm / min(mu.weights), (n, mu)

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
        "part, value",
        [("components", np.nan), ("components", np.inf), ("load", np.nan), ("load", np.inf)],
    )
    def test_non_finite_model_raises_numeric_error(self, setup, part, value):
        """rb.solve_rom's error, naming mu: an infinite matrix entry fails
        the Cholesky factor, NaN and an infinite load its finiteness check."""
        system, basis, model, data = setup
        broken = rb.prefix_model(model, model.basis_size)
        if part == "load":
            broken.load[1] = value
        else:
            broken.components[:, 1, 2] = broken.components[:, 2, 1] = value
        failure = "non-finite reduced operator or solution"
        if part == "components" and value == np.inf:
            failure = "reduced operator not positive definite"
        with pytest.raises(NumericError, match=failure + r" at mu=\(0\.3"):
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


@pytest.fixture(scope="module")
def sweep_run():
    """b = 4 on nx=16 over the 4^4 grid to 1e-6, a model with n of about 20."""
    system = fem.assemble(fem.build_mesh(16, 16, 2, 2))
    config = greedy.GreedyConfig(
        training_set=bench.build_training_set(2, 2, 4), batch_size=4, tolerance=1e-6
    )
    return system, config, greedy.run_batch_greedy(system, config)


def force_rows(monkeypatch, model, rows):
    """Patch the budget so that sweeps over `model` take blocks of <= `rows` rows."""
    budget = rows * estimator._row_bytes(model.basis_size, model.block_count)
    monkeypatch.setattr(estimator, "SWEEP_BLOCK_BYTES", budget)


class TestBlockSweep:
    """estimate_sweep runs in row blocks bounded by SWEEP_BLOCK_BYTES."""

    WEIGHTS = np.random.default_rng(29).uniform(0.1, 1.0, (363, 4))

    @pytest.mark.parametrize("t_count", [1, 7, 64, 363, 20736])
    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_fewest_near_equal_blocks(self, monkeypatch, t_count, rows):
        model = rb.ReducedModel(components=np.zeros((4, 19, 19)), load=np.zeros(19))
        force_rows(monkeypatch, model, rows)
        blocks = estimator._row_blocks(t_count, 19, 4)
        sizes = [stop - start for start, stop in blocks]
        assert blocks[0][0] == 0 and blocks[-1][1] == t_count
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == -(-t_count // rows)
        assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1

    def sweep(self, monkeypatch, data, model, rows):
        """One sweep over WEIGHTS in blocks of <= `rows` rows (None: one block),
        with the matrices it formed and the coefficients it solved for."""
        force_rows(monkeypatch, model, rows or len(self.WEIGHTS))
        matrices, coeffs = [], []

        def recorded(function, record):
            def call(*args):
                record.append(function(*args))
                return record[-1]

            return call

        monkeypatch.setattr(rb.ReducedModel, "matrix", recorded(rb.ReducedModel.matrix, matrices))
        monkeypatch.setattr(
            estimator,
            "_rom_coefficients_batch",
            recorded(estimator._rom_coefficients_batch, coeffs),
        )
        values = estimator.estimate_sweep(data, model, self.WEIGHTS)
        monkeypatch.undo()
        assert len(coeffs) == -(-len(self.WEIGHTS) // (rows or len(self.WEIGHTS)))
        return values, np.concatenate(matrices), np.concatenate(coeffs)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_formation_and_coefficients_bitwise_independent_of_blocks(
        self, monkeypatch, sweep_run, rows
    ):
        model = sweep_run[2][1]
        _, matrices, coeffs = self.sweep(monkeypatch, model.estimator_data, model, rows)
        _, one_matrices, one_coeffs = self.sweep(monkeypatch, model.estimator_data, model, None)
        assert matrices.tobytes() == one_matrices.tobytes()
        assert coeffs.tobytes() == one_coeffs.tobytes()

    def test_every_row_matrix_is_the_one_solve_rom_factors(self, monkeypatch, sweep_run):
        model = sweep_run[2][1]
        for rows in (7, None):
            _, matrices, _ = self.sweep(monkeypatch, model.estimator_data, model, rows)
            for w, matrix in zip(self.WEIGHTS, matrices):
                mu = fem.ParameterPoint(tuple(w))
                assert matrix.tobytes() == model.matrix(mu.as_array()).tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_estimates_within_round_off_of_one_block(self, monkeypatch, sweep_run, rows):
        model = sweep_run[2][1]
        data = model.estimator_data
        values = self.sweep(monkeypatch, data, model, rows)[0]
        one_block = self.sweep(monkeypatch, data, model, None)[0]
        floor = 1e-14 * data.load_dual_norm / self.WEIGHTS.min(axis=1)
        assert np.all(np.abs(values - one_block) <= floor)

    def test_memory_bounded_by_budget(self):
        """T = 20,736 rows at n = 19: an unblocked sweep holds 60 MB of matrices."""
        t_count, n, p = 20736, 19, 4
        rng = np.random.default_rng(31)
        factors = rng.standard_normal((p, n, n))
        model = rb.ReducedModel(
            components=factors @ factors.transpose(0, 2, 1) + n * np.eye(n),
            load=rng.standard_normal(n),
        )
        r = np.triu(rng.standard_normal((1 + p * n, 1 + p * n)))
        data = estimator.EstimatorData(Q=None, R=r, block_count=p)
        weights = rng.uniform(0.1, 1.0, (t_count, p))
        tracemalloc.start()
        try:
            values = estimator.estimate_sweep(data, model, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (t_count,) and np.isfinite(values).all()
        assert peak < estimator.SWEEP_BLOCK_BYTES + 64 * t_count

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_masked_rows_bitwise_equal_to_unmasked_sweep(self, monkeypatch, sweep_run, rows):
        """Masked rows read the unmasked sweep's bits, the others NaN; a
        block without a masked row solves nothing, a touched one its masked rows."""
        model = sweep_run[2][1]
        data = model.estimator_data
        count = len(self.WEIGHTS)
        force_rows(monkeypatch, model, rows)
        full = estimator.estimate_sweep(data, model, self.WEIGHTS)
        rng = np.random.default_rng(rows)
        sparse = np.zeros(count, dtype=bool)
        sparse[[0, 150, 151, 362]] = True
        masks = [np.zeros(count, bool), np.ones(count, bool), sparse, rng.random(count) < 0.3]
        solve = estimator._rom_coefficients_batch
        for mask in masks:
            solved = []
            monkeypatch.setattr(
                estimator,
                "_rom_coefficients_batch",
                lambda m, w: solved.append(len(w)) or solve(m, w),
            )
            values = estimator.estimate_sweep(data, model, self.WEIGHTS, mask)
            assert values[mask].tobytes() == full[mask].tobytes()
            assert np.isnan(values[~mask]).all()
            blocks = estimator._row_blocks(count, model.basis_size, model.block_count)
            touched = [mask[start:stop].sum() for start, stop in blocks]
            assert solved == [r for r in touched if r]

    @pytest.mark.parametrize("rows", [7, 64])
    def test_pooled_sweep_bitwise_equal_to_inline(self, monkeypatch, sweep_run, rows):
        """Row blocks as pool tasks read the inline sweep's bits, masked or not."""
        model = sweep_run[2][1]
        data = model.estimator_data
        force_rows(monkeypatch, model, rows)
        count = len(self.WEIGHTS)
        assert len(estimator._row_blocks(count, model.basis_size, model.block_count)) > 1
        mask = np.random.default_rng(rows).random(count) < 0.3
        with WorkerPool(2) as pool:
            for rows_mask in (None, mask):
                inline = estimator.estimate_sweep(data, model, self.WEIGHTS, rows_mask)
                pooled = estimator.estimate_sweep(data, model, self.WEIGHTS, rows_mask, pool)
                assert pooled.tobytes() == inline.tobytes()

    def test_mask_must_be_boolean_per_row(self, setup):
        system, basis, model, data = setup
        weights = np.full((3, 4), 0.5)
        for rows in (np.ones(2, dtype=bool), np.ones(3), np.ones((3, 1), dtype=bool)):
            with pytest.raises(DimensionError, match="boolean mask of 3 entries"):
                estimator.estimate_sweep(data, model, weights, rows)

    def test_greedy_selections_independent_of_budget(self, monkeypatch, sweep_run):
        system, config, (basis, model, trace) = sweep_run
        monkeypatch.setattr(estimator, "SWEEP_BLOCK_BYTES", 1)  # one row per block
        tiny_basis, _, tiny = greedy.run_batch_greedy(system, config)
        assert tiny.selected_indices() == trace.selected_indices()
        assert tiny.stop_reason == trace.stop_reason
        assert tiny_basis.vectors.tobytes() == basis.vectors.tobytes()


class TestPrefixCoefficients:
    """One Cholesky factor per row gives the coefficients of every basis prefix."""

    CORNERS = np.array(
        [[0.1, 1.0, 1.0, 0.1], [1.0, 0.1, 0.1, 1.0], [0.1, 0.1, 0.1, 1.0], [1.0, 1.0, 1.0, 0.1]]
    )

    def check(self, model, weights):
        tables = list(estimator.prefix_coefficients(model, weights))
        assert tables[0][0][0] == 0 and tables[-1][0][1] == len(weights)
        n = model.basis_size
        for (start, stop), table in tables:
            assert table.shape == (stop - start, n, n)
            for w, rows in zip(weights[start:stop], table):
                matrix = model.matrix(w)
                for m in range(1, n + 1):
                    reference = np.linalg.solve(matrix[:m, :m], model.load[:m])
                    gap = np.linalg.norm(rows[m - 1, :m] - reference)
                    assert gap <= 1e-13 * np.linalg.norm(reference)
                    assert not rows[m - 1, m:].any()

    @pytest.mark.parametrize("rows", [None, 7])
    def test_random_weights_match_per_size_solves(self, monkeypatch, sweep_run, rows):
        model = sweep_run[2][1]
        if rows:
            force_rows(monkeypatch, model, rows)
        self.check(model, TestBlockSweep.WEIGHTS[:40])

    def test_box_corners_match_per_size_solves(self, sweep_run):
        """Weights at the box corners, where max mu / min mu = 10."""
        self.check(sweep_run[2][1], self.CORNERS)

    def test_one_row(self, sweep_run):
        self.check(sweep_run[2][1], self.CORNERS[2:3])

    def test_indefinite_operator_names_block(self, sweep_run):
        model = sweep_run[2][1]
        weights = np.array([[0.5, 0.5, 0.5, 0.5], [-1.0, 0.5, 0.5, 0.5]])
        with pytest.raises(NumericError, match=r"2-row block from mu=\(0\.5"):
            list(estimator.prefix_coefficients(model, weights))


class TestRieszCheck:
    def test_offline_matches_direct(self, setup):
        system, basis, model, data = setup
        sub = basis.prefix(2)
        sub_model = rb.reduce(sub, system)
        sub_data = estimator.build_estimator(sub_model, sub, system)
        rng = np.random.default_rng(8)
        for _ in range(10):
            mu = fem.ParameterPoint(tuple(rng.uniform(0.1, 1.0, 4)))
            diag = check_riesz(sub_data, sub_model, sub, system, mu)
            assert not diag.cancellation
            assert diag.relative_deviation <= 1e-6

    def test_passed_solver_gives_identical_diagnostic(self, monkeypatch, setup):
        system, basis, model, data = setup
        sub = basis.prefix(2)
        sub_model = rb.prefix_model(model, 2)
        sub_data = estimator.prefix_data(data, 2)
        points = [TRAIN[0], fem.ParameterPoint((0.3, 0.9, 0.5, 0.7))]
        fresh = [check_riesz(sub_data, sub_model, sub, system, mu) for mu in points]
        solver = estimator.RieszSolver(system)
        # A passed solver is used as it is: no new factorization of M_X.
        monkeypatch.setattr(estimator, "RieszSolver", None)
        reused = [
            check_riesz(sub_data, sub_model, sub, system, mu, solver=solver)
            for mu in points
        ]
        assert reused == fresh

    def test_cancellation_flagged_when_converged(self, setup):
        system, basis, model, data = setup
        diag = check_riesz(data, model, basis, system, TRAIN[0])
        assert diag.cancellation
        assert diag.dual_norm_offline <= estimator.CANCELLATION_RATIO * data.load_dual_norm
        assert diag.dual_norm_direct <= estimator.CANCELLATION_RATIO * data.load_dual_norm

    def test_online_only_data_rejected(self, setup):
        system, basis, model, data = setup
        online = estimator.EstimatorData(Q=None, R=data.R, block_count=data.block_count)
        assert online.online_only
        with pytest.raises(ConfigurationError):
            check_riesz(online, model, basis, system, TRAIN[0])
        with pytest.raises(ConfigurationError):
            estimator.build_estimator(model, basis, system, previous=online)


class TestRieszSolver:
    """The condensed representer kernel against a plain sparse LU of M_X.

    LAYOUTS covers 2x2 blocks, nx != ny on 3x2 blocks, one block (no
    interface) and one-cell blocks (no interiors).
    """

    LAYOUTS = [(16, 16, 2, 2), (12, 8, 3, 2), (8, 8, 1, 1), (16, 16, 16, 16)]

    @pytest.fixture(scope="class", params=LAYOUTS, ids=str)
    def layout(self, request):
        system = fem.assemble(fem.build_mesh(*request.param))
        return system, estimator.RieszSolver(system)

    def test_column_matrix_matches_column_solves(self, setup):
        system = setup[0]
        solver = estimator.RieszSolver(system)
        rng = np.random.default_rng(5)
        columns = rng.standard_normal((system.dof_count, 6))
        for vectors in (columns, np.asfortranarray(columns)):
            together = solver.representers(vectors)
            one_by_one = np.hstack(
                [solver.representers(vectors[:, j : j + 1]) for j in range(6)]
            )
            np.testing.assert_allclose(together, one_by_one, rtol=1e-14, atol=0.0)

    def test_solves_the_gram_system(self, setup):
        system = setup[0]
        solver = estimator.RieszSolver(system)
        residual = system.gram @ solver.load - system.load
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(system.load)
        vectors = np.random.default_rng(6).standard_normal((system.dof_count, 3))
        z = solver.representers(vectors)
        for p, a_p in enumerate(system.components):
            rhs = a_p @ vectors
            residual = system.gram @ z[:, p :: system.block_count] - rhs
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)

    def test_matches_plain_lu(self, layout):
        system, solver = layout
        rng = np.random.default_rng(7)
        for count in (5, 0):  # no new vectors gives no columns
            vectors = rng.standard_normal((system.dof_count, count))
            expected = direct_representers(system, vectors)
            got = solver.representers(vectors)
            assert got.shape == (system.dof_count, count * system.block_count)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        z_f = splu(system.gram.tocsc()).solve(system.load)
        assert np.linalg.norm(solver.load - z_f) <= 1e-12 * np.linalg.norm(z_f)

    def test_incremental_build_matches_scratch(self, layout):
        system, solver = layout
        rng = np.random.default_rng(8)
        mu = fem.ParameterPoint((1.0,) * system.block_count)
        snapshots = [fem.Snapshot(rng.standard_normal(system.dof_count), mu) for _ in range(3)]
        basis, _ = rb.extend(rb.ReducedBasis.empty(system.dof_count), snapshots, system)
        scratch = estimator.build_estimator(
            rb.reduce(basis, system), basis, system, solver=solver
        )
        sub = basis.prefix(1)
        partial = estimator.build_estimator(rb.reduce(sub, system), sub, system, solver=solver)
        grown = estimator.build_estimator(
            rb.reduce(basis, system), basis, system, previous=partial, solver=solver
        )
        assert np.array_equal(kept_columns(grown), kept_columns(scratch))
        scale = np.abs(scratch.R).max()
        assert np.allclose(grown.R, scratch.R, rtol=0, atol=1e-12 * scale)
        assert np.allclose(
            grown.Q, scratch.Q, rtol=0, atol=1e-10 * np.abs(scratch.Q).max()
        )


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

    def test_singular_reduced_operator_raises_numeric_error(self, setup, tmp_path):
        """All-zero reduced components: every online path raises NumericError
        naming a parameter, never numpy's LinAlgError."""
        system, basis, model, data = setup
        path = rb.save_artifact(model, basis, tmp_path / "rom.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["reduced_components"] = np.zeros_like(model.components)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        loaded, _ = rb.load_artifact(path, system=system)
        online = loaded.estimator_data
        with pytest.raises(NumericError, match=r"not positive definite at mu=\(0\.3"):
            rb.solve_rom(loaded, TRAIN[3])
        with pytest.raises(NumericError, match=r"not positive definite at mu=\(0\.3"):
            estimator.estimate(online, loaded, TRAIN[3])
        weights = np.array([mu.weights for mu in TRAIN])
        with pytest.raises(
            NumericError, match=r"singular reduced operator in the 4-row block from mu=\(0\.1"
        ):
            estimator.estimate_sweep(online, loaded, weights)


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
                diag = check_riesz(sub_data, sub_model, sub, system, mu)
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
