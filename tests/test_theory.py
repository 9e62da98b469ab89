"""Tests for width surrogates, rate constants, and the empirical bound checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchrb import fem, greedy, rb, theory
from batchrb import pool as pool_mod
from batchrb.errors import DimensionError, DomainError, InsufficientDataError

from oracles import pod_errors_dense, projection_error_dense


def grid_params(per_dim, count=4, lo=0.1, hi=1.0):
    values = np.linspace(lo, hi, per_dim)
    return fem.ParameterSet(list(itertools.product(values, repeat=count)))


@pytest.fixture(scope="module")
def system():
    return fem.assemble(fem.build_mesh(8, 8, 2, 2))


@pytest.fixture(scope="module")
def training():
    return grid_params(3)


@pytest.fixture(scope="module")
def snapshots(system, training):
    return {mu: fem.solve_fom(system, mu) for mu in training}


@pytest.fixture(scope="module")
def spanned(snapshots, system):
    return rb.snapshot_basis(snapshots, system)


@pytest.fixture(scope="module")
def width(spanned, system):
    return theory.pod_width_upper_bound(spanned, system)


@pytest.fixture(scope="module")
def strong_b1(system, training, snapshots, spanned):
    config = greedy.GreedyConfig(training_set=training, batch_size=1, tolerance=1e-6)
    basis, trace = greedy.run_strong_greedy(system, config, spanned, snapshots)
    sigma = greedy.true_sigma(basis, snapshots, system)
    return basis, trace, sigma


@pytest.fixture(scope="module")
def weak_b4(system, training, snapshots):
    config = greedy.GreedyConfig(training_set=training, batch_size=4, tolerance=1e-6)
    basis, _, trace = greedy.run_batch_greedy(system, config)
    sigma = greedy.true_sigma(basis, snapshots, system)
    return basis, trace, sigma


class TestWidthSurrogate:
    def test_matches_dense_pod_oracle(self, snapshots, system, width):
        # "first n modes" is only well defined where the spectrum has a gap:
        # inside a tied eigenvalue cluster the mode basis is an arbitrary
        # rotation, so compare against the oracle at gap indices only
        columns = np.column_stack([s.coefficients for s in snapshots.values()])
        gram_dense = system.gram.toarray()
        chol = np.linalg.cholesky(gram_dense)
        eigs = np.linalg.svd(chol.T @ columns, compute_uv=False) ** 2
        ns = [
            n
            for n in range(min(width.rank + 1, 17))
            if n == 0 or eigs[n - 1] > eigs[n] * (1 + 1e-6)
        ]
        assert len(ns) >= 10  # the filter must not hollow out the check
        expected = pod_errors_dense(columns, gram_dense, ns)
        scale = width.d_up[0]
        for n, value in zip(ns, expected):
            assert width.d_up[n] == pytest.approx(value, rel=1e-6, abs=1e-10 * scale)

    def test_eigenvalues_match_dense_spectrum(self, snapshots, system, spanned, width):
        # The squared singular values of A = Q^T M_X F are the POD eigenvalues;
        # the dense spectrum beyond the basis size is covered by the remainders.
        columns = np.column_stack([s.coefficients for s in snapshots.values()])
        chol = np.linalg.cholesky(system.gram.toarray())
        expected = np.linalg.svd(chol.T @ columns, compute_uv=False) ** 2
        eigs = np.linalg.svd(spanned.coeffs, compute_uv=False) ** 2
        assert eigs.size == width.rank == spanned.vectors.shape[1]
        assert np.allclose(eigs, expected[: eigs.size], rtol=1e-8, atol=1e-10 * expected[0])
        tail = expected[eigs.size :].sum()
        assert tail <= np.sum(spanned.remainders**2) + 1e-10 * expected[0]

    def test_nonincreasing(self, width):
        d = width.d_up
        for a, b in zip(d, d[1:]):
            assert b <= a * (1 + 1e-12) + 1e-14 * d[0]

    def test_mean_square_eigenvalue_identity(self, snapshots, spanned, width):
        # sum of squared residuals over the set after n modes = remainders plus
        # eigenvalue tail, so the worst residual dominates the root-mean-square
        count = len(snapshots)
        eigs = np.linalg.svd(spanned.coeffs, compute_uv=False) ** 2
        floor = np.sum(spanned.remainders**2)
        for n in range(width.rank + 1):
            tail = math.sqrt((floor + np.sum(eigs[n:])) / count)
            assert width.d_up[n] >= tail * (1 - 1e-10)

    def test_rank_one_family(self, system):
        family = {
            mu: fem.solve_fom(system, mu)
            for mu in (fem.ParameterPoint((c, c, c, c)) for c in np.linspace(0.1, 1, 7))
        }
        surrogate = theory.pod_width_upper_bound(family, system)
        assert surrogate.rank == 1
        assert surrogate.d_up[1] <= 1e-8 * surrogate.d_up[0]
        assert np.all(surrogate.d_up[1:] <= 1e-8 * surrogate.d_up[0])

    def test_dominates_exact_width_small_instance(self, system):
        # three coplanar snapshots: the exact discrete widths are computable
        # (zero at n=2, dense 1-D minimax over in-plane lines at n=1) and the
        # surrogate must sit above them
        mu1 = fem.ParameterPoint((0.1, 1.0, 1.0, 0.1))
        mu2 = fem.ParameterPoint((1.0, 0.1, 0.1, 1.0))
        f1 = fem.solve_fom(system, mu1)
        f2 = fem.solve_fom(system, mu2)
        f3 = fem.Snapshot(
            coefficients=0.3 * f1.coefficients + 0.7 * f2.coefficients,
            parameter=mu1,
        )
        surrogate = theory.pod_width_upper_bound([f1, f2, f3], system)
        scale = surrogate.d_up[0]
        assert surrogate.rank == 2
        assert surrogate.d_up[2] <= 1e-8 * scale

        # in-plane orthonormal coordinates of the three snapshots
        chol = np.linalg.cholesky(system.gram.toarray())
        weighted = chol.T @ np.column_stack(
            [f1.coefficients, f2.coefficients, f3.coefficients]
        )
        plane, _ = np.linalg.qr(weighted[:, :2])
        coords = plane.T @ weighted  # (2, 3), exact: f3 lies in the plane
        angles = np.linspace(0.0, np.pi, 2_000_001)
        directions = np.column_stack([np.cos(angles), np.sin(angles)])
        along = directions @ coords  # (angles, 3)
        norms_sq = np.sum(coords**2, axis=0)
        residuals = np.sqrt(np.clip(norms_sq - along**2, 0.0, None))
        exact_n1 = float(residuals.max(axis=1).min())
        assert surrogate.d_up[1] >= exact_n1 - 1e-4 * scale

    def test_length_and_tail(self, snapshots, width):
        assert width.d_up.size == len(snapshots) + 1
        tail = width.d_up[width.rank:]
        assert np.all(tail <= 1e-8 * width.d_up[0])


class TestWidthColumnBlocks:
    """The snapshot basis and its distances run over fixed-width column
    blocks, the distances one pool task each; the surrogate is bitwise the
    same at every worker count and from a given snapshot basis."""

    @pytest.mark.parametrize("count", [1, 17, pool_mod.COLUMN_BLOCK, 81])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bitwise_at_every_block_split(self, system, training, snapshots, count, workers):
        snapshot_list = [snapshots[mu] for mu in training[:count]]
        with pool_mod.WorkerPool(workers) as pool:
            blocked = theory.pod_width_upper_bound(
                rb.snapshot_basis(snapshot_list, system, pool), system
            )
        inline = theory.pod_width_upper_bound(snapshot_list, system)
        given = theory.pod_width_upper_bound(rb.snapshot_basis(snapshot_list, system), system)
        assert blocked.d_up.shape == (count + 1,)
        assert blocked.d_up.tobytes() == inline.d_up.tobytes() == given.d_up.tobytes()
        assert blocked.rank == inline.rank == given.rank


class TestEmpiricalGamma:
    def test_strong_greedy_attains_one(self, strong_b1):
        _, trace, sigma = strong_b1
        gamma = theory.empirical_gamma(trace, sigma)
        assert gamma == pytest.approx(1.0, abs=1e-10)

    def test_weak_run_bounds_every_step(self, weak_b4):
        _, trace, sigma = weak_b4
        gamma = theory.empirical_gamma(trace, sigma)
        assert 0.0 < gamma <= 1.0
        diag = np.abs(np.diag(trace.amatrix))
        for n in range(diag.size):
            if sigma[n] > 0:
                assert diag[n] >= gamma * sigma[n] * (1 - 1e-12)

    def test_requires_enough_sigma_values(self, weak_b4):
        _, trace, sigma = weak_b4
        with pytest.raises(DimensionError):
            theory.empirical_gamma(trace, sigma[:2])


class TestPropertyChecks:
    def test_P1_strong_greedy_diagonal_equals_sigma(self, strong_b1):
        _, trace, sigma = strong_b1
        report = theory.check_P1(trace, sigma, gamma=1.0)
        assert report.passed
        diag = np.abs(np.diag(trace.amatrix))
        assert np.allclose(diag, sigma[: diag.size], rtol=1e-9, atol=1e-12 * sigma[0])

    def test_P1_weak_run_with_empirical_gamma(self, weak_b4):
        _, trace, sigma = weak_b4
        gamma = theory.empirical_gamma(trace, sigma)
        report = theory.check_P1(trace, sigma, gamma)
        assert report.passed
        assert report.worst_margin >= 0.0
        assert report.context["b"] == 4

    def test_P1_detects_violation(self):
        trace = greedy.GreedyTrace(
            batch_size=1,
            amatrix_rows=[np.array([1.0]), np.array([0.5, 0.4])],
        )
        report = theory.check_P1(trace, [1.0, 0.9, 0.2], gamma=1.0)
        assert report.status == "fail"
        assert report.context["n"] == 1

    def test_P2_weak_batch_run(self, system, training, snapshots):
        config = greedy.GreedyConfig(training_set=training, batch_size=2, tolerance=1e-6)
        basis, _, trace = greedy.run_batch_greedy(system, config)
        sigma = greedy.true_sigma(basis, snapshots, system)
        report = theory.check_P2(trace, sigma)
        assert report.passed

    def test_P2_row_norm_is_snapshot_norm(self, strong_b1):
        # n = 0 tail sum is the squared norm of the snapshot, bounded by sigma_0
        _, trace, sigma = strong_b1
        matrix = trace.amatrix
        norms = np.sqrt(np.sum(matrix**2, axis=1))
        assert np.all(norms <= sigma[0] * (1 + 1e-10))
        report = theory.check_P2(trace, sigma)
        assert report.passed

    def test_P2_detects_violation(self):
        trace = greedy.GreedyTrace(
            batch_size=1,
            amatrix_rows=[np.array([1.0]), np.array([0.9, 0.8])],
        )
        report = theory.check_P2(trace, [1.0, 0.5])
        assert report.status == "fail"
        # row 1 violates both at n=0 (0.81+0.64 > 1) and n=1 (0.64 > 0.25);
        # the worst margin is the n=0 tail
        assert (report.context["n"], report.context["m"]) == (0, 1)


def product_margins(sigma, d_up, b, gamma):
    """Every product-bound instance as (margin, context), in (K, N, m) order,
    each evaluated on its own."""
    sig, d = np.asarray(sigma, dtype=float), np.asarray(d_up, dtype=float)
    out = []
    for K in range(2, theory.PRODUCT_MAX_K + 1):
        for N in range(0, len(sig) - 1 - (b - 1) - K + 1):
            for m in range(1, min(K, len(d))):
                lhs = float(np.prod(sig[N + b : N + b + K] ** 2))
                rhs = (
                    gamma ** (-2 * K)
                    * (K / m) ** m
                    * (K / (K - m)) ** (K - m)
                    * sig[N + 1] ** (2 * m)
                    * d[m] ** (2 * (K - m))
                )
                context = {"N": N, "K": K, "m": m, "b": b, "gamma": gamma, "alpha": None}
                out.append((float(rhs * (1.0 + theory.BOUND_SLACK) - lhs), context))
    return out


def width_margins(sigma, d_up, b, gamma):
    """Every square-root-width instance as (margin, context), in n order,
    each evaluated on its own."""
    raw = np.asarray(sigma, dtype=float)
    sig, d = raw / raw[0], np.asarray(d_up, dtype=float) / raw[0]
    factor = math.sqrt(2.0) / gamma
    out = []
    n = 1
    while 2 * n + b - 1 <= len(raw) - 1 and n < len(d_up):
        worst = factor * math.sqrt(d[n]) * (1.0 + theory.BOUND_SLACK) - sig[2 * n + b - 1]
        if n >= 2:
            ms = np.arange(1, n)
            general_bound = factor * float(np.min(d[ms] ** ((n - ms) / n)))
            worst = min(worst, general_bound * (1.0 + theory.BOUND_SLACK) - sig[n + b - 1])
        out.append((float(worst), {"n": n, "b": b, "gamma": gamma, "alpha": None}))
        n += 1
    return out


def assert_first_worst(report, instances):
    """The report carries the first smallest margin, its context, and passes
    only when every margin is nonnegative."""
    margin, context = min(instances, key=lambda instance: instance[0])
    assert report.worst_margin == margin
    assert report.context == context
    assert list(report.context) == list(context)
    assert report.status == ("pass" if all(m >= 0.0 for m, _ in instances) else "fail")


class TestProductBound:
    def test_direct_evaluation_small_case(self, strong_b1, width):
        _, trace, sigma = strong_b1
        # sigma_0..sigma_2 leave the single instance N=0, K=2, m=1.
        report = theory.check_product_bound(sigma[:3], width.d_up, 1, 1.0)
        assert report.passed
        assert report.context == {"N": 0, "K": 2, "m": 1, "b": 1, "gamma": 1.0, "alpha": None}
        lhs = sigma[1] ** 2 * sigma[2] ** 2
        rhs = 2.0 * 2.0 * sigma[1] ** 2 * width.d_up[1] ** 2
        assert report.worst_margin == pytest.approx(
            rhs * (1 + theory.BOUND_SLACK) - lhs, rel=1e-12
        )

    def test_all_small_combinations_weak_batch(self, weak_b4, width):
        _, trace, sigma = weak_b4
        gamma = theory.empirical_gamma(trace, sigma)
        instances = product_margins(sigma, width.d_up, 4, gamma)
        assert len(instances) > 1
        report = theory.check_product_bound(sigma, width.d_up, 4, gamma)
        assert report.passed
        assert_first_worst(report, instances)

    def test_degenerate_rank_one_passes(self):
        sigma = [1.0, 0.0, 0.0, 0.0, 0.0]
        d_up = [1.0, 0.0, 0.0]
        report = theory.check_product_bound(sigma, d_up, 1, 1.0)
        assert report.passed

    def test_failure_and_no_instance(self):
        # sigma_1 = sigma_2 = 1 against a zero width: the one instance fails.
        report = theory.check_product_bound([1.0, 1.0, 1.0], [1.0, 0.0], 1, 1.0)
        assert report.status == "fail" and report.worst_margin == -1.0
        for sigma, d_up in (([1.0, 0.5], [1.0, 0.5]), ([1.0, 0.5, 0.2], [1.0])):
            report = theory.check_product_bound(sigma, d_up, 1, 0.5)
            assert report.status == "insufficient-data"
            assert report.context == {"gamma": 0.5}


class TestSqrtWidthBound:
    def test_strong_greedy_small_n(self, strong_b1, width):
        _, _, sigma = strong_b1
        scale = sigma[0]
        # n=1, b=1: particular bound at sigma_{2n+b-1} = sigma_2 only
        first = math.sqrt(2.0) * math.sqrt(width.d_up[1] / scale) * (
            1 + theory.BOUND_SLACK
        ) - sigma[2] / scale
        report = theory.check_sqrt_width(sigma[:3], width.d_up, 1, 1.0)
        assert report.passed
        assert report.context == {"n": 1, "b": 1, "gamma": 1.0, "alpha": None}
        assert report.worst_margin == pytest.approx(first, rel=1e-12)
        # n=2, b=1: particular bound at sigma_4, general form at
        # sigma_{n+b-1} = sigma_2 with the single choice m=1
        particular = math.sqrt(2.0) * math.sqrt(width.d_up[2] / scale) * (
            1 + theory.BOUND_SLACK
        ) - sigma[4] / scale
        general = math.sqrt(2.0) * (width.d_up[1] / scale) ** 0.5 * (
            1 + theory.BOUND_SLACK
        ) - sigma[2] / scale
        report = theory.check_sqrt_width(sigma[:5], width.d_up, 1, 1.0)
        assert report.worst_margin == pytest.approx(
            min(first, particular, general), rel=1e-12
        )

    def test_weak_batch_all_valid_n(self, weak_b4, width):
        _, trace, sigma = weak_b4
        gamma = theory.empirical_gamma(trace, sigma)
        instances = width_margins(sigma, width.d_up, 4, gamma)
        assert len(instances) > 1
        report = theory.check_sqrt_width(sigma, width.d_up, 4, gamma)
        assert report.passed
        assert_first_worst(report, instances)

    def test_rank_one_passes(self):
        sigma = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        d_up = [2.0, 0.0, 0.0, 0.0]
        report = theory.check_sqrt_width(sigma, d_up, 1, 1.0)
        assert report.passed

    @pytest.mark.parametrize("first", [0.0, -1.0])
    def test_sigma_not_starting_positive_is_insufficient(self, weak_b4, width, first):
        _, trace, sigma = weak_b4
        sigma = np.concatenate([[first], sigma[1:]])
        report = theory.check_sqrt_width(sigma, width.d_up, 4, 0.5)
        assert report.status == "insufficient-data"
        assert report.context == {"gamma": 0.5}
        reports = theory.run_theory_checks(trace, sigma, width.d_up, 0.5)
        assert reports[3] == report

    def test_no_instance_is_insufficient(self):
        for sigma, d_up in (([1.0, 0.5, 0.2], [1.0, 0.5]), ([1.0, 0.5, 0.2], [1.0])):
            report = theory.check_sqrt_width(sigma, d_up, 2, 0.5)
            assert report.status == "insufficient-data"
            assert report.context == {"gamma": 0.5}


class TestRateConstants:
    def test_polynomial_examples(self):
        assert theory.constant_C1_polynomial(10, 1, 1.0, 1.0, 1.0) == 64.0
        assert theory.constant_C1_polynomial(1, 2, 1.0, 1.0, 1.0) == 100.0

    def test_exponential_example(self):
        value = theory.constant_c1_exponential(5, 1, 1.0, 1.0, math.e)
        assert value == 0.125

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_ceiling_factors(self, alpha):
        # classical b=1 factor 4^(2a); saturated batch factor 5^(2a)
        base = 100.0 * 2.0 ** (alpha + 1)
        assert theory.constant_C1_polynomial(7, 1, alpha, 1.0, 100.0) / base == (
            pytest.approx(4.0 ** (2 * alpha), rel=1e-14)
        )
        assert theory.constant_C1_polynomial(5, 4, alpha, 1.0, 100.0) / base == (
            pytest.approx(5.0 ** (2 * alpha), rel=1e-14)
        )
        # classical b=1 exponential factor 2^(-a)
        c1 = theory.constant_c1_exponential(7, 1, alpha, 1.0, math.exp(10.0))
        assert c1 * 2.0 ** (alpha + 1) == pytest.approx(2.0**-alpha, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_batch_loss_ratio(self, alpha):
        big = math.exp(10.0)
        for n, b in ((4, 2), (4, 4), (9, 3)):
            ratio = theory.constant_c1_exponential(
                n, b, alpha, 1.0, big
            ) / theory.constant_c1_exponential(n, 1, alpha, 1.0, big)
            assert ratio == pytest.approx((2.0 / 3.0) ** alpha, rel=1e-14)

    def test_piecewise_saturated_value(self):
        for alpha in (0.5, 1.0, 2.0):
            value = theory.constant_c1_exponential(7, 4, alpha, 1.0, math.exp(10.0))
            assert value == pytest.approx(0.5 * 6.0**-alpha, rel=1e-14)

    def test_degenerate_and_invalid(self):
        assert theory.constant_c1_exponential(3, 2, 1.0, 1.0, 0.5) <= 0.0
        with pytest.raises(DomainError):
            theory.constant_c1_exponential(3, 2, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            theory.constant_C1_polynomial(0, 1, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            theory.constant_C1_polynomial(3, 1, -1.0, 1.0, 1.0)


class TestFitExponential:
    def test_exact_recovery_unit_exponent(self):
        ns = np.arange(12, dtype=float)
        fit = theory.fit_exponential(2.0 * np.exp(-0.5 * ns))
        assert fit.alpha == pytest.approx(1.0, abs=1e-7)
        assert fit.C == pytest.approx(2.0, rel=1e-7)
        assert fit.c == pytest.approx(0.5, rel=1e-7)
        assert fit.residual <= 1e-8
        assert fit.is_decaying

    def test_free_alpha_recovery(self):
        ns = np.arange(1, 15, dtype=float)
        values = 3.0 * np.exp(-0.3 * ns**1.5)
        fit = theory.fit_exponential(values, ns=ns)
        assert fit.alpha == pytest.approx(1.5, abs=1e-4)
        assert fit.c == pytest.approx(0.3, rel=1e-3)
        assert fit.C == pytest.approx(3.0, rel=1e-3)

    def test_noisy_rate_recovery(self):
        rng = np.random.default_rng(7)
        ns = np.arange(20, dtype=float)
        noise = 1.0 + rng.uniform(-0.01, 0.01, ns.size)
        fit = theory.fit_exponential(1.5 * np.exp(-0.4 * ns) * noise)
        assert fit.c == pytest.approx(0.4, rel=0.05)

    def test_constant_values_flagged(self):
        fit = theory.fit_exponential(np.full(8, 3.0))
        assert abs(fit.c) <= 1e-8
        assert not fit.is_decaying

    def test_error_conditions(self):
        with pytest.raises(DomainError):
            theory.fit_exponential([1.0, 0.5, -0.1, 0.2])
        with pytest.raises(InsufficientDataError):
            theory.fit_exponential([1.0, 0.5, 0.25])
        with pytest.raises(DimensionError):
            theory.fit_exponential([1.0, 0.5, 0.25, 0.1], ns=[0.0, 1.0])

    @settings(max_examples=25, deadline=None)
    @given(
        logC=st.floats(-2.0, 2.0),
        c=st.floats(0.05, 1.5),
    )
    def test_round_trip_property(self, logC, c):
        ns = np.arange(10, dtype=float)
        values = np.exp(logC - c * ns)
        fit = theory.fit_exponential(values)
        assert fit.c == pytest.approx(c, rel=1e-6, abs=1e-9)
        assert math.log(fit.C) == pytest.approx(logC, abs=1e-6)


class TestRateBounds:
    def test_exact_exponential_passes(self):
        ns = np.arange(15, dtype=float)
        sigma = np.exp(-ns)
        report = theory.check_rate_bounds(sigma, np.exp(-ns), b=1, gamma=1.0)
        assert report.passed
        assert report.worst_margin > 0.0

    def test_planted_violation_fails_with_first_n(self):
        """sigma follows the width's exp(-n) up to `first` and stops decaying
        there; the report names that n as the first violation."""
        ns = np.arange(15, dtype=float)
        for first in (5, 9):
            sigma = np.exp(-ns)
            sigma[first:] = 1.0
            report = theory.check_rate_bounds(sigma, np.exp(-ns), b=1, gamma=1.0)
            assert report.status == "fail"
            assert report.context["first_violation"] == first
            assert report.context["n"] >= first
            assert report.worst_margin < 0.0
            assert report.as_dict()["context"]["first_violation"] == first

    def test_thermal_block_runs_pass(self, strong_b1, weak_b4, width):
        _, trace1, sigma1 = strong_b1
        report1 = theory.check_rate_bounds(sigma1, width.d_up, b=1, gamma=1.0)
        assert report1.passed
        _, trace4, sigma4 = weak_b4
        report4 = theory.check_rate_bounds(
            sigma4, width.d_up, b=4, gamma=theory.empirical_gamma(trace4, sigma4)
        )
        assert report4.passed

    def test_insufficient_data(self):
        report = theory.check_rate_bounds([1.0, 0.5, 0.0, 0.0], [1.0, 0.5], 1, 1.0)
        assert report.status == "insufficient-data"


class TestDriverAndExport:
    def test_run_theory_checks_all_pass(self, weak_b4, width):
        _, trace, sigma = weak_b4
        reports = theory.run_theory_checks(
            trace, sigma, width.d_up, theory.empirical_gamma(trace, sigma)
        )
        names = [report.name for report in reports]
        assert names == ["P1", "P2", "product-bound", "sqrt-width-bound", "rate-bounds"]
        assert all(report.passed for report in reports)
