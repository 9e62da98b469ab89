"""Tests for basis extension, Galerkin reduction, and artifact round-trips."""

import base64
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from batchrb import bench, estimator, fem, greedy, rb
from batchrb import pool as pool_mod
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 on the way
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_non_finite_snapshot_without_parameter_names_batch_rank(system, bad):
    """Snapshots of a bare vector set, as rb.snapshot_basis passes them, carry
    no parameter; the error names the batch rank."""
    snaps = [fem.solve_fom(system, mu).coefficients for mu in MUS[:3]]
    snaps[2] = snaps[2].copy()
    snaps[2][3] = bad
    batch = [fem.Snapshot(u, None) for u in snaps]
    with pytest.raises(NumericError, match=r"non-finite snapshot at batch rank 2$"):
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

    @pytest.fixture(scope="class")
    def system16(self):
        return fem.assemble(fem.build_mesh(16, 16, 2, 2))

    @pytest.fixture(scope="class")
    def snaps625(self, system16):
        """625 columns: ten fixed blocks, the last one short."""
        return [fem.solve_fom(system16, mu).coefficients for mu in bench.build_training_set(2, 2, 5)]

    @pytest.fixture(scope="class")
    def crafted(self, system16, snaps625):
        """A first block, then a copy of one of its columns and two columns
        u + delta g, u in the span of the first block's basis and g X-orthogonal
        to it: relative remainders 0.75 and 1.5 times DROP_TOL_DEFAULT."""
        first = snaps625[:64]
        columns = [fem.Snapshot(f, None) for f in first]
        basis, _ = rb.extend(rb.ReducedBasis.empty(system16.dof_count), columns, system16)
        q, gram = basis.vectors, system16.gram
        rng = np.random.default_rng(11)
        u = q @ rng.standard_normal(q.shape[1])
        g = rng.standard_normal(system16.dof_count)
        for _ in range(2):
            g -= q @ (q.T @ (gram @ g))
        g /= fem.x_norm(g, system16)
        scale = rb.DROP_TOL_DEFAULT * fem.x_norm(u, system16)
        return first + [snaps625[3], u + 0.75 * scale * g, u + 1.5 * scale * g], basis.size

    @staticmethod
    def assert_per_column_bits(snapshots, system):
        """Assert snapshot_basis bitwise equal to the per-column algorithm it
        filters for: every column through rb.extend, one call per fixed column
        block, then the distances."""
        columns = fem.ColumnBlocks(snapshots)
        basis = rb.ReducedBasis.empty(system.dof_count)
        for cols in pool_mod.column_blocks(columns.count):
            batch = [fem.Snapshot(columns.column(t), None) for t in range(columns.count)[cols]]
            basis, _ = rb.extend(basis, batch, system)
        dist, coeffs = fem.projection_distances(basis.vectors, columns, system)
        spanned = rb.snapshot_basis(snapshots, system)
        got = spanned.vectors, spanned.coeffs, spanned.remainders, spanned.norms
        for array, reference in zip(got, (basis.vectors, coeffs, dist[-1], dist[0])):
            assert array.shape == reference.shape
            assert array.tobytes() == reference.tobytes()
        return spanned

    def test_bitwise_the_per_column_extension(self, system16, snaps625):
        spanned = self.assert_per_column_bits(snaps625, system16)
        assert 64 <= spanned.extended < len(snaps625) / 4

    def test_filter_margin_keeps_drop_decisions(self, system16, crafted):
        """Columns at 0.75 and 1.5 times DROP_TOL_DEFAULT both pass the filter;
        extend drops the first and takes the second."""
        crafted, r = crafted
        spanned = self.assert_per_column_bits(crafted, system16)
        assert spanned.extended == 66
        # Q's last vector is g, so the two columns' coordinates on it are
        # their remainders against the first block's basis
        assert spanned.vectors.shape[1] == r + 1
        relative = np.abs(spanned.coeffs[r, -2:]) / spanned.norms[-2:] / rb.DROP_TOL_DEFAULT
        assert 0.5 < relative[0] < 1 < relative[1]

    def test_gram_products_per_block_and_survivor(self, monkeypatch, system16, snaps625):
        """The filter forms 2 products with M_X a block and M_X V once after
        each extension, an extension 1 a call and 2 a column it takes, the
        distances 2 a block and 1 more: of order blocks + survivors, not the
        2 a column of extending every column, and M_X V is not formed again
        for a block that left the basis as it was."""
        calls, extend = [], rb.extend

        def counted(*args, **kwargs):
            calls.append(None)
            return extend(*args, **kwargs)

        monkeypatch.setattr(rb, "extend", counted)
        counting = CountingGram(system16.gram)
        spanned = rb.snapshot_basis(snaps625, dataclasses.replace(system16, gram=counting))
        blocks = len(pool_mod.column_blocks(len(snaps625)))
        assert blocks == 10 and len(calls) < blocks - 1 and spanned.extended < len(snaps625) / 4
        bound = 4 * blocks + 2 * len(calls) + 2 * spanned.extended
        assert counting.products <= bound < len(snaps625)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_non_finite_column_raises(self, system16, snaps625, bad):
        """A non-finite entry, or a finite one whose X-norm overflows, raises
        naming the first such column, in the first block or a filtered one."""
        for poisoned in [[5], [70], [70, 100]]:
            columns = list(snaps625)
            for t in poisoned:
                columns[t] = columns[t].copy()
                columns[t][3] = bad
            with pytest.raises(NumericError, match=f"column {poisoned[0]}$"):
                rb.snapshot_basis(columns, system16)


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
        fem.Snapshot(rng.standard_normal(system.dof_count), fem.ParameterPoint((1.0,) * 4))
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
        fem.Snapshot(rng.standard_normal(n), fem.ParameterPoint((1.0,) * 4))
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
        with pytest.raises(DimensionError, match="expected 4 weights per row"):  # model.matrix's
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


def save_online(system, model, tmp_path):
    """Save `model` with a basis of its size and fixed provenance."""
    n = model.basis_size
    basis = rb.ReducedBasis(
        np.zeros((system.dof_count, n)), [rb.BasisVectorOrigin(MUS[0], 0, j) for j in range(n)]
    )
    return rb.save_artifact(model, basis, tmp_path / "rom.npz")


def read_arrays(path):
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def rewrite(path, **changes):
    """Write the archive at `path` again through np.savez with `changes`
    applied: an array replaces the stored one, None deletes it."""
    arrays = read_arrays(path)
    for key, value in changes.items():
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def encoded(array):
    """An array as the JSON artifacts of versions 1-3 held it."""
    data = base64.b64encode(np.ascontiguousarray(array).tobytes()).decode("ascii")
    return {"shape": list(array.shape), "dtype": str(array.dtype), "data": data}


def write_json_artifact(path, version, model, estimator=None):
    """A JSON artifact as versions 1-3 wrote them."""
    payload = {
        "format": rb.ARTIFACT_FORMAT,
        "version": version,
        "block_count": model.block_count,
        "basis_size": model.basis_size,
        "system_fingerprint": model.system_fingerprint,
        "provenance": [
            {"weights": list(MUS[0].weights), "iteration": 0, "batch_rank": j}
            for j in range(model.basis_size)
        ],
        "reduced_components": encoded(model.components),
        "reduced_load": encoded(model.load),
        "estimator": estimator,
    }
    path.write_text(json.dumps(payload))


def not_an_archive(path):
    return f"artifact {path} is not a .npz archive; rebuild it with save_artifact"


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

    def test_archive_holds_plain_arrays(self, system, greedy_model, tmp_path):
        """One .npz archive at the given name (np.savez would append .npz)."""
        n = greedy_model.basis_size
        basis = rb.ReducedBasis(
            np.zeros((system.dof_count, n)), [rb.BasisVectorOrigin(MUS[0], 0, j) for j in range(n)]
        )
        path = rb.save_artifact(greedy_model, basis, tmp_path / "model-1.json")
        assert path == tmp_path / "model-1.json"
        assert [p.name for p in tmp_path.iterdir()] == ["model-1.json"]
        arrays = read_arrays(path)
        p, n = greedy_model.block_count, greedy_model.basis_size
        assert {key: (a.shape, a.dtype.kind) for key, a in arrays.items()} == {
            "format": ((), "U"),
            "version": ((), "i"),
            "system_fingerprint": ((), "U"),
            "reduced_components": ((p, n, n), "f"),
            "reduced_load": ((n,), "f"),
            "weights": ((n, p), "f"),
            "origins": ((n, 2), "i"),
            "R": ((1 + p * n, 1 + p * n), "f"),
        }
        assert (arrays["format"].tolist(), arrays["version"].tolist()) == ("batchrb-rom", 4)
        assert arrays["origins"].tolist() == [[0, j] for j in range(n)]

    def test_empty_model_roundtrip(self, system, tmp_path):
        basis = rb.ReducedBasis.empty(system.dof_count)
        model = rb.reduce(basis, system)
        path = rb.save_artifact(model, basis, tmp_path / "rom.npz")
        loaded, provenance = rb.load_artifact(path, system=system)
        assert loaded.components.shape == (4, 0, 0) and loaded.load.shape == (0,)
        assert provenance == [] and loaded.estimator_data is None
        assert rb.solve_rom(loaded, MUS[0]).shape == (0,)

    def test_archive_without_R_loads_without_estimator(self, system, greedy_model, tmp_path):
        path = save_online(system, greedy_model, tmp_path)
        rewrite(path, R=None)
        loaded, _ = rb.load_artifact(path, system=system)
        assert loaded.estimator_data is None
        x = rb.solve_rom(loaded, MUS[2])
        assert x.tobytes() == rb.solve_rom(greedy_model, MUS[2]).tobytes()

    def test_fingerprint_mismatch_rejected(self, system, basis_and_records, tmp_path):
        basis, _ = basis_and_records
        model = rb.reduce(basis, system)
        path = rb.save_artifact(model, basis, tmp_path / "rom.json")
        other = fem.assemble(fem.build_mesh(8, 6, 2, 2))
        with pytest.raises(ConfigurationError, match="different assembled system"):
            rb.load_artifact(path, system=other)

    def test_foreign_file_rejected(self, system, basis_and_records, tmp_path):
        basis, _ = basis_and_records
        path = rb.save_artifact(rb.reduce(basis, system), basis, tmp_path / "rom.npz")
        rewrite(path, format=np.array("something-else"))
        message = f"not a batchrb-rom artifact: {path}"
        with pytest.raises(ConfigurationError, match=re.escape(message) + "$"):
            rb.load_artifact(path)
        # A zip whose members are not .npy files: np.load reads them as bytes.
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name.removesuffix(".npy"), data)
        with pytest.raises(ConfigurationError, match=re.escape(message) + "$"):
            rb.load_artifact(path)

    @pytest.mark.parametrize("key", ["reduced_components", "reduced_load", "R"])
    def test_non_finite_arrays_rejected(self, system, greedy_model, tmp_path, key):
        """+inf at (0, 2) and (2, 0) of every component passes estimate's LU
        solve as a finite estimate, so loading rejects any non-finite entry."""
        assert greedy_model.estimator_data is not None
        path = save_online(system, greedy_model, tmp_path)
        array = read_arrays(path)[key]
        if key == "reduced_components":
            array[:, 0, 2] = array[:, 2, 0] = np.inf
        else:
            array[-1] = np.nan
        rewrite(path, **{key: array})
        with pytest.raises(ConfigurationError, match=f"non-finite entries in {key}$"):
            rb.load_artifact(path, system=system)

    def test_non_positive_weights_rejected(self, system, greedy_model, tmp_path):
        """Provenance weights are parameters, so each entry must be positive."""
        path = save_online(system, greedy_model, tmp_path)
        weights = read_arrays(path)["weights"]
        weights[0, 0] = 0
        rewrite(path, weights=weights)
        message = f"artifact {path} holds non-positive entries in weights"
        with pytest.raises(ConfigurationError, match=re.escape(message) + "$"):
            rb.load_artifact(path, system=system)

    @pytest.mark.parametrize(
        "case, key",
        [
            ("long load", "reduced_load"),
            ("fewer blocks", "reduced_components"),
            ("non-square components", "reduced_components"),
            ("small R", "R"),
            ("wide origins", "origins"),
        ],
    )
    def test_mis_shaped_arrays_rejected(self, system, greedy_model, tmp_path, case, key):
        """Shapes are checked against P and n of the stored reduced_components
        at load, not left to fail in a LAPACK wrapper or an estimate; `key`
        is the array changed, the message names the first that disagrees."""
        p, n = greedy_model.block_count, greedy_model.basis_size
        path = save_online(system, greedy_model, tmp_path)
        stored = read_arrays(path)[key]
        if case == "long load":
            change, named, held, expected = np.zeros(n + 2), key, (n + 2,), (n,)
        elif case == "fewer blocks":
            change, named, held, expected = stored[:-1], "weights", (n, p), (n, p - 1)
        elif case == "non-square components":
            change, named, held, expected = stored[:, :, 1:], key, (p, n, n - 1), (p, n, n)
        elif case == "small R":
            change, named, held, expected = stored[:-1, :-1], key, (p * n,) * 2, (1 + p * n,) * 2
        else:
            change, named, held, expected = np.zeros((n, 3), int), key, (n, 3), (n, 2)
        rewrite(path, **{key: change})
        message = f"{named} of shape {held} and type {read_arrays(path)[named].dtype}, "
        message += f"expected {expected}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            rb.load_artifact(path, system=system)

    def test_components_without_three_axes_rejected(self, system, greedy_model, tmp_path):
        path = save_online(system, greedy_model, tmp_path)
        rewrite(path, reduced_components=greedy_model.components[0])
        n = greedy_model.basis_size
        message = f"artifact {path} holds reduced_components of shape {(n, n)}"
        with pytest.raises(ConfigurationError, match=re.escape(message) + "$"):
            rb.load_artifact(path, system=system)

    @pytest.mark.parametrize(
        "key, dtype, kind",
        [
            ("reduced_components", str, "floating"),
            ("reduced_components", np.int64, "floating"),
            ("weights", str, "floating"),
            ("origins", float, "integer"),
        ],
    )
    def test_arrays_of_the_wrong_kind_rejected(
        self, system, greedy_model, tmp_path, key, dtype, kind
    ):
        """The archive keeps each array's type: a float array must be floating
        point and `origins` integer, even where the values would convert."""
        path = save_online(system, greedy_model, tmp_path)
        array = read_arrays(path)[key].astype(dtype)
        rewrite(path, **{key: array})
        message = f"artifact {path} holds {key} of shape {array.shape} and type {array.dtype}, "
        message += f"expected {array.shape} and {kind}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            rb.load_artifact(path, system=system)

    def test_object_array_rejected(self, system, greedy_model, tmp_path):
        """np.load without pickles refuses an object array; the error names it."""
        path = save_online(system, greedy_model, tmp_path)
        rewrite(path, reduced_load=greedy_model.load.astype(object))
        message = f"artifact {path} array 'reduced_load' is unreadable: Object arrays"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            rb.load_artifact(path, system=system)

    @pytest.mark.parametrize("key", ["reduced_components", "reduced_load", "R"])
    def test_shape_field_disagreeing_with_data_rejected(
        self, system, greedy_model, tmp_path, key
    ):
        """A truncated member, whose .npy shape field asks for more values than
        its data holds, is a typed error naming the array, not a failed reshape."""
        path = save_online(system, greedy_model, tmp_path)
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        members[f"{key}.npy"] = members[f"{key}.npy"][:-8]
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        message = f"artifact {path} array {key!r} is unreadable: EOF"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            rb.load_artifact(path, system=system)

    def test_corrupt_member_rejected(self, system, greedy_model, tmp_path):
        """Flipped data bytes fail the member's CRC (zipfile.BadZipFile)."""
        path = save_online(system, greedy_model, tmp_path)
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as archive:
            member = archive.read("reduced_load.npy")  # stored, not compressed
        raw[raw.index(member) + len(member) - 1] ^= 0xFF
        path.write_bytes(bytes(raw))
        message = f"artifact {path} array 'reduced_load' is unreadable: Bad CRC-32"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            rb.load_artifact(path, system=system)

    def test_short_provenance_rejected(self, system, greedy_model, tmp_path):
        p, n = greedy_model.block_count, greedy_model.basis_size
        path = save_online(system, greedy_model, tmp_path)
        arrays = read_arrays(path)
        rewrite(path, weights=arrays["weights"][:-2], origins=arrays["origins"][:-2])
        message = f"holds weights of shape {(n - 2, p)} and type float64, expected {(n, p)}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            rb.load_artifact(path, system=system)

    def test_version_1_rejected(self, system, basis_and_records, tmp_path):
        """A JSON file with the squared-expansion Gram tables of version 1."""
        basis, _ = basis_and_records
        path = tmp_path / "rom.json"
        write_json_artifact(path, 1, rb.reduce(basis, system), {"g_ff": 1.0})
        with pytest.raises(ConfigurationError, match=re.escape(not_an_archive(path)) + "$"):
            rb.load_artifact(path, system=system)

    def test_version_2_rejected(self, system, greedy_model, tmp_path):
        """A JSON file of version 2 also stored the estimator's mu box."""
        path = tmp_path / "rom.json"
        estimator = {"R": encoded(greedy_model.estimator_data.R), "mu_min": 0.1, "mu_max": 1.0}
        write_json_artifact(path, 2, greedy_model, estimator)
        with pytest.raises(ConfigurationError, match=re.escape(not_an_archive(path)) + "$"):
            rb.load_artifact(path, system=system)

    def test_version_3_rejected(self, system, greedy_model, tmp_path):
        """The last JSON version, as its save_artifact wrote it."""
        path = tmp_path / "rom.json"
        write_json_artifact(path, 3, greedy_model, {"R": encoded(greedy_model.estimator_data.R)})
        with pytest.raises(ConfigurationError, match=re.escape(not_an_archive(path)) + "$"):
            rb.load_artifact(path, system=system)

    @pytest.mark.parametrize("version", [3, 5])
    def test_other_archive_version_rejected(self, system, greedy_model, tmp_path, version):
        path = save_online(system, greedy_model, tmp_path)
        rewrite(path, version=np.array(version))
        message = f"artifact {path} has version {version} unsupported (expected 4); "
        with pytest.raises(ConfigurationError, match=re.escape(message + "rebuild it")):
            rb.load_artifact(path, system=system)

    def test_non_archive_file_rejected(self, tmp_path):
        """Text, an empty file, a bare zip signature and a bare .npy array."""
        npy = io.BytesIO()
        np.save(npy, np.zeros((4, 3, 3)))
        path = tmp_path / "rom.npz"
        for content in [b"not json {", b"", b"PK", npy.getvalue()]:
            path.write_bytes(content)
            with pytest.raises(ConfigurationError, match=re.escape(not_an_archive(path)) + "$"):
                rb.load_artifact(path)

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "absent.npz"
        message = f"artifact {path} is unreadable: [Errno 2]"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            rb.load_artifact(path)

    def test_missing_field_rejected(self, system, basis_and_records, tmp_path):
        """Every array but R is required; each missing one is named."""
        basis, _ = basis_and_records
        model = rb.reduce(basis, system)
        required = ["format", "version", "system_fingerprint", "reduced_components",
                    "reduced_load", "weights", "origins"]
        for key in required:
            path = rb.save_artifact(model, basis, tmp_path / f"no-{key}.npz")
            rewrite(path, **{key: None})
            message = f"artifact {path} has no array {key!r}"
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                rb.load_artifact(path, system=system)


HANDOFF = """
import sys
import numpy as np
from batchrb import estimator, fem, rb

model, _ = rb.load_artifact(sys.argv[1])
for weights in np.load(sys.argv[2]):
    mu = fem.ParameterPoint(tuple(weights))
    value = estimator.estimate(model.estimator_data, model, mu)
    print(rb.solve_rom(model, mu).tobytes().hex(), np.float64(value).tobytes().hex())
"""


def test_online_handoff_across_processes_is_bitwise(system, tmp_path):
    """A model saved here and loaded by a fresh interpreter, as an online
    application loads it, solves and estimates bit for bit as the model in
    memory: the hand-off that perfbench's online probe times."""
    config = greedy.GreedyConfig(
        training_set=bench.build_training_set(2, 2, 3), batch_size=1, tolerance=1e-6
    )
    basis, model, _ = greedy.run_batch_greedy(system, config)
    assert model.basis_size >= 5 and model.estimator_data is not None
    path = rb.save_artifact(model, basis, tmp_path / "model-1.json")
    weights = np.random.default_rng(3).uniform(0.1, 1.0, (6, 4))
    np.save(tmp_path / "points.npy", weights)
    env = dict(os.environ, PYTHONPATH=str(Path(rb.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", HANDOFF, str(path), str(tmp_path / "points.npy")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    expected = []
    for w in weights:
        mu = fem.ParameterPoint(tuple(w))
        x = rb.solve_rom(model, mu).tobytes().hex()
        value = estimator.estimate(model.estimator_data, model, mu)
        expected.append(f"{x} {np.float64(value).tobytes().hex()}")
    assert done.stdout.splitlines() == expected
