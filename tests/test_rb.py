"""Tests for basis extension, Galerkin reduction, and artifact round-trips."""

import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.linalg

from batchrb import bench, fem, greedy, rb
from batchrb.errors import ConfigurationError, DimensionError, NumericError

MUS = [
    fem.ParameterPoint(w)
    for w in [
        (0.1, 1.0, 1.0, 0.1),
        (1.0, 0.1, 0.1, 1.0),
        (0.5, 0.5, 1.0, 0.2),
        (0.3, 0.9, 0.4, 0.7),
        (1.0, 1.0, 1.0, 1.0),
    ]
]

#: A batch at nearby parameters.  Each later member's remainder falls to
#: 1e-8-1e-10 of its norm, where one Gram-Schmidt pass loses orthogonality.
NEAR_MUS = [
    fem.ParameterPoint(w)
    for w in [
        (0.5, 0.6, 0.7, 0.8),
        (0.50000001, 0.59999999, 0.7, 0.8),
        (0.5, 0.600000001, 0.699999999, 0.8),
        (0.5, 0.6, 0.700000001, 0.799999999),
    ]
]


@pytest.fixture(scope="module")
def system():
    return fem.assemble(fem.build_mesh(8, 8, 2, 2))


@pytest.fixture(scope="module")
def basis_and_records(system):
    snaps = [fem.solve_fom(system, mu) for mu in MUS]
    return rb.extend(rb.ReducedBasis.empty(system.dof_count), snaps, system)


def test_extend_single_snapshot_normalizes(system):
    snap = fem.solve_fom(system, MUS[0])
    basis, records = rb.extend(rb.ReducedBasis.empty(system.dof_count), [snap], system)
    norm = fem.x_norm(snap.coefficients, system)
    assert basis.size == 1
    assert records[0].accepted
    assert records[0].coefficients == pytest.approx([norm], rel=1e-12)
    assert np.allclose(basis.vectors[:, 0], snap.coefficients / norm, rtol=1e-12)
    assert fem.x_norm(basis.vectors[:, 0], system) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def extensions(system):
    """(snapshots, basis, records) of the MUS and the NEAR_MUS batch, each
    extending the empty basis."""
    runs = []
    for mus in (MUS, NEAR_MUS):
        snaps = [fem.solve_fom(system, mu) for mu in mus]
        runs.append((snaps, *rb.extend(rb.ReducedBasis.empty(system.dof_count), snaps, system)))
    return runs


def test_extended_basis_is_x_orthonormal(system, extensions):
    for snaps, basis, records in extensions:
        assert basis.size == len(snaps)
        assert all(r.accepted for r in records)
        gramian = basis.vectors.T @ (system.gram @ basis.vectors)
        assert np.allclose(gramian, np.eye(basis.size), atol=1e-8)
    ratios = [r.residual_norm / r.incoming_norm for r in extensions[1][2][1:]]
    assert all(1e-10 < ratio < 1e-8 for ratio in ratios), ratios  # NEAR_MUS regime


def test_duplicate_snapshot_discarded(system):
    snap = fem.solve_fom(system, MUS[0])
    basis, records = rb.extend(
        rb.ReducedBasis.empty(system.dof_count), [snap, snap], system
    )
    assert basis.size == 1
    assert records[0].accepted and not records[1].accepted
    assert records[1].residual_norm <= 1e-10 * records[1].incoming_norm


def test_near_duplicate_respects_drop_tol(system):
    snap = fem.solve_fom(system, MUS[1])
    rng = np.random.default_rng(0)
    wiggle = rng.standard_normal(system.dof_count)
    wiggle *= 1e-13 * np.linalg.norm(snap.coefficients) / np.linalg.norm(wiggle)
    almost = fem.Snapshot(snap.coefficients + wiggle, snap.parameter)
    basis, records = rb.extend(
        rb.ReducedBasis.empty(system.dof_count), [snap, almost], system
    )
    assert basis.size == 1
    assert not records[1].accepted


def test_zero_snapshot_discarded(system):
    zero = fem.Snapshot(np.zeros(system.dof_count), MUS[0])
    basis, records = rb.extend(rb.ReducedBasis.empty(system.dof_count), [zero], system)
    assert basis.size == 0
    assert not records[0].accepted


def test_records_reproduce_snapshots(system, extensions):
    """Each record row expands its snapshot in the accepted basis (Parseval)."""
    for snaps, basis, records in extensions:
        for m, (snap, record) in enumerate(zip(snaps, records)):
            rebuilt = basis.vectors[:, : m + 1] @ record.coefficients
            norm = fem.x_norm(snap.coefficients, system)
            assert fem.x_norm(snap.coefficients - rebuilt, system) <= 1e-8 * norm
            assert np.sum(record.coefficients**2) == pytest.approx(norm**2, rel=1e-8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 on the way
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_snapshot_rejected(system, bad):
    snap = fem.solve_fom(system, MUS[0])
    poisoned = snap.coefficients.copy()
    poisoned[3] = bad
    batch = [snap, fem.Snapshot(poisoned, MUS[1])]
    with pytest.raises(NumericError, match=re.escape(f"mu={MUS[1].weights}")):
        rb.extend(rb.ReducedBasis.empty(system.dof_count), batch, system)


class TestSnapshotBasis:
    """rb.snapshot_basis: one X-orthonormal basis Q of a snapshot set with
    its coordinates A = Q^T M_X F and remainders rho."""

    @pytest.fixture(scope="class")
    def snaps(self, system):
        points = bench.build_training_set(2, 2, 3)
        return [fem.solve_fom(system, mu) for mu in points]

    def test_remainders_within_drop_tolerance(self, system, snaps):
        spanned = rb.snapshot_basis(snaps, system)
        columns = np.column_stack([s.coefficients for s in snaps])
        norms = np.sqrt(np.einsum("ij,ij->j", columns, system.gram @ columns))
        assert 0 < spanned.vectors.shape[1] < len(snaps)
        assert spanned.coeffs.shape == (spanned.vectors.shape[1], len(snaps))
        assert np.allclose(norms, spanned.norms, rtol=1e-14, atol=0)
        assert np.all(spanned.remainders <= rb.DROP_TOL_DEFAULT * spanned.norms * (1 + 1e-6))
        gram = spanned.vectors.T @ (system.gram @ spanned.vectors)
        assert np.abs(gram - np.eye(spanned.vectors.shape[1])).max() <= 1e-14
        residual = columns - spanned.vectors @ spanned.coeffs
        rho = np.sqrt(np.einsum("ij,ij->j", residual, system.gram @ residual))
        assert np.allclose(rho, spanned.remainders, rtol=0, atol=1e-14 * norms.max())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_column_raises(self, system, snaps, bad):
        poisoned = [s.coefficients for s in snaps]
        poisoned[5] = poisoned[5].copy()
        poisoned[5][3] = bad
        with pytest.raises(NumericError, match="column 5"):
            rb.snapshot_basis(poisoned, system)


class CountingGram:
    """M_X behind a proxy that counts the products formed with it."""

    def __init__(self, gram):
        self.gram, self.products = gram, 0

    def __matmul__(self, other):
        self.products += 1
        return self.gram @ other


def test_extension_forms_constant_gram_products(system):
    """One snapshot costs O(1) products with M_X whatever the basis size n."""
    rng = np.random.default_rng(3)
    fakes = [
        fem.Snapshot(rng.standard_normal(system.dof_count), fem.ParameterPoint.uniform(4))
        for _ in range(20)
    ]
    snap = fem.solve_fom(system, MUS[0])
    products = []
    for n in (0, 20):
        basis, _ = rb.extend(rb.ReducedBasis.empty(system.dof_count), fakes[:n], system)
        counting = CountingGram(system.gram)
        extended, _ = rb.extend(basis, [snap], dataclasses.replace(system, gram=counting))
        assert extended.size == n + 1
        products.append(counting.products)
    assert products[0] == products[1] <= 3, products


def test_provenance_tracks_iteration_and_rank(system):
    snaps = [fem.solve_fom(system, mu) for mu in MUS[:3]]
    basis, _ = rb.extend(
        rb.ReducedBasis.empty(system.dof_count), snaps, system, iteration=7
    )
    assert [o.iteration for o in basis.provenance] == [7, 7, 7]
    assert [o.batch_rank for o in basis.provenance] == [0, 1, 2]
    assert [o.parameter for o in basis.provenance] == MUS[:3]


def test_reduce_single_vector_oracle(system):
    """n = 1: the Galerkin coefficient is (v^T f) / (v^T A(mu) v)."""
    snap = fem.solve_fom(system, MUS[2])
    basis, _ = rb.extend(rb.ReducedBasis.empty(system.dof_count), [snap], system)
    model = rb.reduce(basis, system)
    v = basis.vectors[:, 0]
    mu = MUS[3]
    energy = sum(w * (v @ (component @ v)) for w, component in zip(mu.weights, system.components))
    expected = (v @ system.load) / energy
    assert rb.solve_rom(model, mu) == pytest.approx([expected], rel=1e-12)


def test_reduced_operator_spd(system, basis_and_records):
    basis, _ = basis_and_records
    model = rb.reduce(basis, system)
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = rng.uniform(0.1, 1.0, 4)
        matrix = model.matrix(w)
        assert np.allclose(matrix, matrix.T, atol=1e-14)
        assert np.linalg.eigvalsh(matrix).min() > 0


def test_incremental_reduction_matches_scratch(system):
    snaps = [fem.solve_fom(system, mu) for mu in MUS]
    basis3, _ = rb.extend(rb.ReducedBasis.empty(system.dof_count), snaps[:3], system)
    model3 = rb.reduce(basis3, system)
    basis5, _ = rb.extend(basis3, snaps[3:], system)
    grown = rb.extend_model(model3, basis5, system)
    scratch = rb.reduce(basis5, system)
    scale = np.abs(scratch.components).max()
    assert np.allclose(grown.components, scratch.components, rtol=0, atol=1e-12 * scale)
    assert np.allclose(grown.load, scratch.load, rtol=1e-12)


def test_full_basis_reproduces_fom(system):
    """With n = N_h and any X-orthonormal basis, the ROM equals the FOM."""
    rng = np.random.default_rng(5)
    n = system.dof_count
    fakes = [
        fem.Snapshot(rng.standard_normal(n), fem.ParameterPoint.uniform(4))
        for _ in range(n)
    ]
    basis, records = rb.extend(rb.ReducedBasis.empty(n), fakes, system)
    assert basis.size == n
    model = rb.reduce(basis, system)
    for mu in MUS[:3]:
        u = fem.solve_fom(system, mu).coefficients
        u_rb = rb.reconstruct(basis, rb.solve_rom(model, mu))
        assert fem.x_norm(u - u_rb, system) <= 1e-8 * fem.x_norm(u, system)


def test_galerkin_quasi_optimality(system, basis_and_records):
    """X-norm ROM error is within sqrt(mu_max/mu_min) of the best approximation."""
    basis, _ = basis_and_records
    sub = basis.prefix(3)
    model = rb.reduce(sub, system)
    rng = np.random.default_rng(9)
    for _ in range(10):
        mu = fem.ParameterPoint(tuple(rng.uniform(0.1, 1.0, 4)))
        u = fem.solve_fom(system, mu).coefficients
        u_rb = rb.reconstruct(sub, rb.solve_rom(model, mu))
        best = u - sub.vectors @ (sub.vectors.T @ (system.gram @ u))
        factor = np.sqrt(max(mu.weights) / min(mu.weights))
        assert fem.x_norm(u - u_rb, system) <= factor * fem.x_norm(best, system) * (
            1 + 1e-10
        ) + 1e-14


def test_projection_errors_nonincreasing(system, basis_and_records):
    basis, _ = basis_and_records
    u = fem.solve_fom(system, fem.ParameterPoint((0.2, 0.8, 0.6, 0.4))).coefficients
    errors = []
    for n in range(basis.size + 1):
        v = basis.vectors[:, :n]
        errors.append(fem.x_norm(u - v @ (v.T @ (system.gram @ u)), system))
    assert all(b <= a * (1 + 1e-12) for a, b in zip(errors, errors[1:]))


def test_empty_model_solves_to_empty(system):
    model = rb.reduce(rb.ReducedBasis.empty(system.dof_count), system)
    assert rb.solve_rom(model, MUS[0]).shape == (0,)


def test_prefix_model_matches_reduced_prefix(system, basis_and_records):
    basis, _ = basis_and_records
    model = rb.reduce(basis, system)
    for n in (0, 2, basis.size):
        direct = rb.reduce(basis.prefix(n), system)
        sliced = rb.prefix_model(model, n)
        assert np.allclose(sliced.components, direct.components, rtol=1e-14, atol=1e-16)
        assert np.allclose(sliced.load, direct.load, rtol=1e-14, atol=1e-16)


def test_dimension_errors(system, basis_and_records):
    basis, _ = basis_and_records
    model = rb.reduce(basis, system)
    with pytest.raises(DimensionError):
        rb.solve_rom(model, fem.ParameterPoint((1.0, 1.0)))
    with pytest.raises(DimensionError):
        rb.reconstruct(basis, np.zeros(basis.size + 1))
    with pytest.raises(IndexError):
        basis.prefix(basis.size + 1)
    with pytest.raises(IndexError):
        rb.prefix_model(model, -1)


def cho_reference(model, mu):
    """The reduced solve through scipy's validating Cholesky wrappers."""
    factor = scipy.linalg.cho_factor(model.matrix(mu.as_array()))
    return scipy.linalg.cho_solve(factor, model.load)


@pytest.fixture(scope="module")
def greedy_model(system):
    config = greedy.GreedyConfig(
        training_set=bench.build_training_set(2, 2, 3), batch_size=2, tolerance=1e-6
    )
    return greedy.run_batch_greedy(system, config)[1]


class TestLeanSolve:
    """solve_rom calls potrf/potrs directly, bitwise equal to cho_factor/cho_solve."""

    def test_bitwise_at_every_prefix_of_a_greedy_model(self, greedy_model):
        rng = np.random.default_rng(7)
        points = MUS + [fem.ParameterPoint(tuple(w)) for w in rng.uniform(0.1, 1.0, (5, 4))]
        assert greedy_model.basis_size >= 5
        for n in range(1, greedy_model.basis_size + 1):
            sub = rb.prefix_model(greedy_model, n)
            for mu in points:
                x = rb.solve_rom(sub, mu)
                assert x.shape == (n,)
                assert x.tobytes() == cho_reference(sub, mu).tobytes(), (n, mu)

    def test_bitwise_on_a_loaded_read_only_model(self, system, greedy_model, tmp_path):
        basis = rb.ReducedBasis(
            np.zeros((system.dof_count, greedy_model.basis_size)),
            [rb.BasisVectorOrigin(MUS[0], 0, j) for j in range(greedy_model.basis_size)],
        )
        path = rb.save_artifact(greedy_model, basis, tmp_path / "rom.json")
        loaded, _ = rb.load_artifact(path, system=system)
        loaded.components.flags.writeable = False
        loaded.load.flags.writeable = False
        for mu in MUS:
            x = rb.solve_rom(loaded, mu)
            assert x.tobytes() == cho_reference(greedy_model, mu).tobytes()

    def test_empty_model(self, greedy_model):
        empty = rb.prefix_model(greedy_model, 0)
        x = rb.solve_rom(empty, MUS[0])
        assert x.shape == (0,) and x.dtype == float
        with pytest.raises(DimensionError):
            rb.solve_rom(empty, fem.ParameterPoint((1.0, 1.0)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 on the way
    @pytest.mark.parametrize(
        "entry, value",
        [((0, 0, 0), np.nan), ((1, 0, 2), np.nan), ((0, 0, 0), np.inf), ((2, 1, 0), -np.inf)],
    )
    def test_non_finite_components_raise_numeric_error(self, greedy_model, entry, value):
        broken = rb.prefix_model(greedy_model, greedy_model.basis_size)
        p, i, j = entry
        broken.components[p, i, j] = broken.components[p, j, i] = value
        with pytest.raises(NumericError, match=r"mu=\(0\.3, 0\.9"):
            rb.solve_rom(broken, MUS[3])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 on the way
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_load_raises_numeric_error(self, greedy_model, value):
        broken = rb.prefix_model(greedy_model, greedy_model.basis_size)
        broken.load[-1] = value
        with pytest.raises(NumericError, match="non-finite reduced operator or solution"):
            rb.solve_rom(broken, MUS[3])

    def test_indefinite_operator_raises_numeric_error(self, greedy_model):
        indefinite = rb.prefix_model(greedy_model, 3)
        indefinite.components[:, 1, 1] *= -1.0
        with pytest.raises(NumericError, match="not positive definite at mu="):
            rb.solve_rom(indefinite, MUS[2])


class TestArtifact:
    def test_roundtrip_is_exact(self, system, basis_and_records, tmp_path):
        basis, _ = basis_and_records
        model = rb.reduce(basis, system)
        path = rb.save_artifact(model, basis, tmp_path / "rom.json")
        loaded, provenance = rb.load_artifact(path, system=system)
        assert np.array_equal(loaded.components, model.components)
        assert np.array_equal(loaded.load, model.load)
        assert provenance == basis.provenance
        mu = MUS[1]
        assert np.array_equal(rb.solve_rom(loaded, mu), rb.solve_rom(model, mu))

    def test_fingerprint_mismatch_rejected(self, system, basis_and_records, tmp_path):
        basis, _ = basis_and_records
        model = rb.reduce(basis, system)
        path = rb.save_artifact(model, basis, tmp_path / "rom.json")
        other = fem.assemble(fem.build_mesh(8, 8, 2, 2), rhs_value=2.0)
        with pytest.raises(ConfigurationError, match="different assembled system"):
            rb.load_artifact(path, system=other)

    def test_foreign_file_rejected(self, tmp_path):
        bogus = tmp_path / "nope.json"
        bogus.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigurationError, match="artifact"):
            rb.load_artifact(bogus)

    @pytest.mark.parametrize("key", ["reduced_components", "reduced_load", "R"])
    def test_non_finite_arrays_rejected(self, system, greedy_model, tmp_path, key):
        """+inf at (0, 2) and (2, 0) of every component passes estimate's LU
        solve as a finite estimate, so loading rejects any non-finite entry."""
        assert greedy_model.estimator_data is not None
        basis = rb.ReducedBasis(
            np.zeros((system.dof_count, greedy_model.basis_size)),
            [rb.BasisVectorOrigin(MUS[0], 0, j) for j in range(greedy_model.basis_size)],
        )
        path = rb.save_artifact(greedy_model, basis, tmp_path / "rom.json")
        payload = json.loads(path.read_text())
        holder = payload["estimator"] if key == "R" else payload
        array = rb._decode_array(holder[key])
        if key == "reduced_components":
            array[:, 0, 2] = array[:, 2, 0] = np.inf
        else:
            array[-1] = np.nan
        holder[key] = rb._encode_array(array)
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=f"non-finite entries in {key}$"):
            rb.load_artifact(path, system=system)

    @pytest.mark.parametrize(
        "case, key",
        [
            ("long load", "reduced_load"),
            ("fewer blocks", "reduced_components"),
            ("non-square components", "reduced_components"),
            ("small R", "R"),
        ],
    )
    def test_mis_shaped_arrays_rejected(self, system, greedy_model, tmp_path, case, key):
        """Shapes are checked against the payload's block_count and basis_size
        at load, not left to fail in a LAPACK wrapper or an estimate."""
        p, n = greedy_model.block_count, greedy_model.basis_size
        basis = rb.ReducedBasis(
            np.zeros((system.dof_count, n)),
            [rb.BasisVectorOrigin(MUS[0], 0, j) for j in range(n)],
        )
        path = rb.save_artifact(greedy_model, basis, tmp_path / "rom.json")
        payload = json.loads(path.read_text())
        if case == "long load":
            payload["reduced_load"] = rb._encode_array(np.zeros(n + 2))
            shapes = f"{(n + 2,)}, expected {(n,)}"
        elif case == "fewer blocks":
            payload["block_count"] = p - 1
            shapes = f"{(p, n, n)}, expected {(p - 1, n, n)}"
        elif case == "non-square components":
            payload["reduced_components"] = rb._encode_array(greedy_model.components[:, :, 1:])
            shapes = f"{(p, n, n - 1)}, expected {(p, n, n)}"
        else:
            payload["estimator"]["R"] = rb._encode_array(greedy_model.estimator_data.R[:-1, :-1])
            shapes = f"{(p * n, p * n)}, expected {(1 + p * n, 1 + p * n)}"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match=re.escape(f"{key} of shape {shapes}")):
            rb.load_artifact(path, system=system)

    @pytest.mark.parametrize("key", ["reduced_components", "reduced_load", "R"])
    def test_shape_field_disagreeing_with_data_rejected(
        self, system, greedy_model, tmp_path, key
    ):
        """A shape field that asks for more values than its data holds is a
        typed error naming the array and both sizes, not a failed reshape."""
        n = greedy_model.basis_size
        basis = rb.ReducedBasis(
            np.zeros((system.dof_count, n)),
            [rb.BasisVectorOrigin(MUS[0], 0, j) for j in range(n)],
        )
        path = rb.save_artifact(greedy_model, basis, tmp_path / "rom.json")
        payload = json.loads(path.read_text())
        holder = payload["estimator"] if key == "R" else payload
        shape = holder[key]["shape"]
        held = int(np.prod(shape))
        shape[0] += 1
        needed = int(np.prod(shape))
        path.write_text(json.dumps(payload))
        message = f"{key} of artifact {path} holds {held} values, "
        message += f"its shape field {tuple(shape)} needs {needed}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            rb.load_artifact(path, system=system)

    def test_short_provenance_rejected(self, system, greedy_model, tmp_path):
        n = greedy_model.basis_size
        basis = rb.ReducedBasis(
            np.zeros((system.dof_count, n)),
            [rb.BasisVectorOrigin(MUS[0], 0, j) for j in range(n)],
        )
        path = rb.save_artifact(greedy_model, basis, tmp_path / "rom.json")
        payload = json.loads(path.read_text())
        payload["provenance"] = payload["provenance"][:-2]
        path.write_text(json.dumps(payload))
        with pytest.raises(
            ConfigurationError, match=f"holds {n - 2} provenance entries for {n} basis vectors"
        ):
            rb.load_artifact(path, system=system)

    def test_version_1_rejected(self, system, basis_and_records, tmp_path):
        """A file with the squared-expansion Gram tables of version 1."""
        basis, _ = basis_and_records
        model = rb.reduce(basis, system)
        path = rb.save_artifact(model, basis, tmp_path / "rom.json")
        payload = json.loads(path.read_text())
        n, p = model.basis_size, model.block_count
        payload["version"] = 1
        payload["estimator"] = {
            "g_ff": 1.0,
            "g_fc": rb._encode_array(np.zeros((p, n))),
            "g_cc": rb._encode_array(np.zeros((p, n, p, n))),
            "mu_min": 0.1,
            "mu_max": 1.0,
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="version 1 unsupported .expected 2"):
            rb.load_artifact(path, system=system)
