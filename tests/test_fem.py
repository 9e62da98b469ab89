"""Tests for the thermal-block full-order model."""

import re
import warnings
from dataclasses import replace

import numpy as np
import scipy.sparse as sparse
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from batchrb import fem
from batchrb import pool as pool_mod
from batchrb.errors import ConfigurationError, DimensionError, DomainError, NumericError


@pytest.fixture(scope="module")
def small_system():
    mesh = fem.build_mesh(4, 4, 2, 2)
    return fem.assemble(mesh)


def component_data(system):
    """The (P, nnz) data arrays of the components on their shared pattern."""
    return np.array([component.data for component in system.components])


def affine_matrix(system, weights):
    """A(mu) = sum_p mu_p A_p as one dense combination of the data arrays."""
    if isinstance(weights, fem.ParameterPoint):
        weights = weights.as_array()
    pattern = system.components[0]
    data = np.asarray(weights, dtype=float) @ component_data(system)
    return sparse.csc_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


class TestMesh:
    def test_counts_4x4_2x2(self):
        mesh = fem.build_mesh(4, 4, 2, 2)
        assert mesh.dof_count == 9
        assert mesh.triangles.shape == (32, 3)
        for p in range(1, 5):
            assert np.count_nonzero(mesh.tri_block == p) == 8

    @pytest.mark.parametrize("nx,ny,px,py", [(8, 6, 4, 3), (16, 16, 2, 2), (3, 3, 1, 3)])
    def test_counts_general(self, nx, ny, px, py):
        mesh = fem.build_mesh(nx, ny, px, py)
        assert mesh.dof_count == (nx - 1) * (ny - 1)
        assert mesh.vertices.shape == ((nx + 1) * (ny + 1), 2)
        assert mesh.triangles.shape == (2 * nx * ny, 3)
        assert np.count_nonzero(mesh.boundary) == 2 * (nx + ny)

    def test_divisibility_error_names_pair(self):
        with pytest.raises(ConfigurationError, match="nx=3.*px=2"):
            fem.build_mesh(3, 4, 2, 2)
        with pytest.raises(ConfigurationError, match="ny=4.*py=3"):
            fem.build_mesh(6, 4, 2, 3)

    def test_positive_sizes_required(self):
        with pytest.raises(ConfigurationError):
            fem.build_mesh(0, 4, 1, 1)
        for name, args in [("nx", (np.nan, 8, 2, 2)), ("nx", (np.inf, 8, 2, 2)),
                           ("ny", (8, 2.5, 2, 2)), ("px", (8, 8, True, 2)), ("py", (8, 8, 2, "2"))]:
            with pytest.raises(ConfigurationError, match=f"^{name}=.* must be an integer >= 1"):
                fem.build_mesh(*args)
        mesh = fem.build_mesh(4.0, 8, 2, 2)
        assert type(mesh.nx) is int
        assert mesh.vertices.tobytes() == fem.build_mesh(4, 8, 2, 2).vertices.tobytes()

    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 4), (4, 1)])
    def test_grid_without_interior_dof_rejected(self, nx, ny):
        with pytest.raises(ConfigurationError, match=f"{nx}x{ny} grid has no interior DOF"):
            fem.build_mesh(nx, ny, 1, 1)

    def test_triangles_ccw_and_block_aligned(self):
        mesh = fem.build_mesh(6, 4, 3, 2)
        pts = mesh.vertices[mesh.triangles]
        cross = (pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1]) - (
            pts[:, 2, 0] - pts[:, 0, 0]
        ) * (pts[:, 1, 1] - pts[:, 0, 1])
        assert np.all(cross > 0)
        # every triangle sits inside the box of the sub-block it is assigned to
        wx, wy = 1.0 / mesh.px, 1.0 / mesh.py
        for p in range(1, mesh.block_count + 1):
            tri_pts = mesh.vertices[mesh.triangles[mesh.tri_block == p]]
            bx = (p - 1) % mesh.px
            by = (p - 1) // mesh.px
            assert np.all(tri_pts[:, :, 0] >= bx * wx - 1e-14)
            assert np.all(tri_pts[:, :, 0] <= (bx + 1) * wx + 1e-14)
            assert np.all(tri_pts[:, :, 1] >= by * wy - 1e-14)
            assert np.all(tri_pts[:, :, 1] <= (by + 1) * wy + 1e-14)

    def test_block_numbering_row_major_from_bottom_left(self):
        mesh = fem.build_mesh(4, 4, 2, 2)
        # first triangle of the first cell lives in block 1 (bottom-left);
        # the cell at (x>0.5, y<0.5) in block 2; top-left in 3; top-right in 4.
        centroids = mesh.vertices[mesh.triangles].mean(axis=1)
        for p, (cx, cy) in [(1, (0.25, 0.25)), (2, (0.75, 0.25)), (3, (0.25, 0.75)), (4, (0.75, 0.75))]:
            sel = mesh.tri_block == p
            assert np.all(np.abs(centroids[sel, 0] - cx) < 0.25)
            assert np.all(np.abs(centroids[sel, 1] - cy) < 0.25)


class TestParameterPoint:
    def test_positive_weights_required(self):
        """A point is checked as one row of a ParameterSet, by its rule."""
        for weights in [(0.5, -0.1), (0.0,), (np.inf, 1.0), (np.nan, 1.0), (1.0, -np.inf)]:
            with pytest.raises(DomainError, match="finite and positive"):
                fem.ParameterPoint(weights)
        for weights in [(), 0.5, ((0.5, 0.5),)]:
            with pytest.raises(DimensionError):
                fem.ParameterPoint(weights)

    def test_hashable_and_equal_by_value(self):
        a = fem.ParameterPoint((0.1, 0.2))
        b = fem.ParameterPoint((0.1, 0.2))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize("weights", [
        (1, 3), (np.float32(0.1), np.float32(0.7)), (np.float64(0.1), 0.3), (True, 0.5),
    ])
    def test_weights_held_as_floats(self, weights):
        mu = fem.ParameterPoint(weights)
        assert mu.weights == tuple(float(x) for x in weights)
        assert all(type(x) is float for x in mu.weights)


class TestParameterSet:
    @pytest.mark.parametrize("bad", [0.0, -0.5, np.inf, np.nan])
    def test_weights_checked_as_a_whole(self, bad):
        weights = np.full((5, 3), 0.5)
        weights[3, 1] = bad
        with pytest.raises(DomainError, match=r"finite and positive.* at point 3"):
            fem.ParameterSet(weights)

    @pytest.mark.parametrize("shape", [(4,), (2, 0), (2, 2, 2)])
    def test_two_dimensional_with_weights(self, shape):
        with pytest.raises(DimensionError):
            fem.ParameterSet(np.full(shape, 0.5))

    def test_read_only_view_and_slices_share_it(self):
        weights = np.linspace(0.1, 1.0, 12).reshape(6, 2)
        points = fem.ParameterSet(weights)
        assert np.shares_memory(points.weights, weights)
        with pytest.raises(ValueError, match="read-only"):
            points.weights[0, 0] = 0.7
        tail = points[2::2]
        assert isinstance(tail, fem.ParameterSet) and len(tail) == 2
        assert np.shares_memory(tail.weights, weights)
        assert len(points[6:]) == 0
        with pytest.raises(IndexError):
            points[6]

    def test_points_built_on_access(self):
        points = fem.ParameterSet([[0.1, 0.2], [0.3, 0.4]])
        assert points[1] == fem.ParameterPoint((0.3, 0.4))
        assert points.index(points[1]) == 1 and points[0] in points
        assert list(reversed(points)) == [points[1], points[0]]
        with pytest.raises(TypeError):
            points[[0, 1]]

    def test_points_not_checked_again(self, monkeypatch):
        """Indexing and iterating build each point from the row the set has
        checked, without a one-row ParameterSet per point."""
        built = []
        init = fem.ParameterSet.__init__
        monkeypatch.setattr(fem.ParameterSet, "__init__",
                            lambda self, weights: built.append(1) or init(self, weights))
        points = fem.ParameterSet(np.linspace(0.1, 1.0, 4000).reshape(1000, 4))
        listed, indexed = list(points), [points[t] for t in range(len(points))]
        assert len(built) == 1
        monkeypatch.undo()
        expected = [fem.ParameterPoint(row) for row in points.weights.tolist()]
        assert listed == expected and indexed == expected
        assert all(type(x) is float for mu in listed for x in mu.weights)


class TestAssembly:
    def test_single_interior_node_stencil(self):
        """2x2 grid with 2x2 blocks: one DOF, hand-assembled values.

        The five-point P1 stencil on this mesh has diagonal 4 independent of
        h, each sub-block contributing exactly 1 (two 45-degree corners or
        one right-angle corner of the criss-cross triangles).  The load of
        f = 1 is h^2 for the interior hat function.
        """
        mesh = fem.build_mesh(2, 2, 2, 2)
        system = fem.assemble(mesh)
        assert system.dof_count == 1
        total = affine_matrix(system, fem.ParameterPoint((1.0, 1.0, 1.0, 1.0))).toarray()
        assert np.allclose(total, [[4.0]], rtol=0, atol=1e-14)
        assert system.load == pytest.approx([0.25], abs=1e-15)
        for comp in system.components:
            assert np.allclose(comp.toarray(), [[1.0]], rtol=0, atol=1e-14)

    def test_components_symmetric_psd(self, small_system):
        rng = np.random.default_rng(7)
        for comp in small_system.components:
            assert abs(comp - comp.T).max() == 0.0
            dense = comp.toarray()
            for _ in range(5):
                v = rng.standard_normal(small_system.dof_count)
                assert v @ dense @ v >= -1e-12 * (v @ v)

    def test_gram_is_component_sum(self, small_system):
        total = sum(comp.toarray() for comp in small_system.components)
        assert np.allclose(small_system.gram.toarray(), total, rtol=0, atol=1e-15)

    def test_affine_consistency_on_matvecs(self, small_system):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = rng.uniform(0.1, 1.0, small_system.block_count)
            v = rng.standard_normal(small_system.dof_count)
            combined = affine_matrix(small_system, w) @ v
            summed = sum(wp * (comp @ v) for wp, comp in zip(w, small_system.components))
            scale = np.linalg.norm(combined)
            assert np.linalg.norm(combined - summed) <= 1e-14 * scale

    def test_coercivity_continuity_witness(self, small_system):
        rng = np.random.default_rng(11)
        gram = small_system.gram
        for _ in range(20):
            w = rng.uniform(0.1, 1.0, small_system.block_count)
            v = rng.standard_normal(small_system.dof_count)
            energy = v @ (affine_matrix(small_system, w) @ v)
            xnorm2 = v @ (gram @ v)
            assert energy >= w.min() * xnorm2 - 1e-12 * xnorm2
            assert energy <= w.max() * xnorm2 + 1e-12 * xnorm2

    def test_zero_rows_away_from_block(self):
        """DOFs whose support misses a sub-block give zero rows in that A_p."""
        mesh = fem.build_mesh(8, 8, 2, 2)
        system = fem.assemble(mesh)
        # DOF nearest (0.25, 0.25) sits strictly inside block 1
        interior = mesh.vertices[~mesh.boundary]
        dof = int(np.argmin(np.linalg.norm(interior - [0.25, 0.25], axis=1)))
        row = system.components[3][dof].toarray()  # block 4 = top-right
        assert np.all(row == 0.0)
        assert system.components[0][dof].toarray().any()

    def test_gram_products_skip_stored_zeros(self):
        # The hypotenuse couplings are exact zeros of the shared pattern;
        # gram drops them, and its products stay bitwise those of the full
        # pattern, whose arrays the components keep.
        system = fem.assemble(fem.build_mesh(16, 16, 2, 2))
        pattern = system.components[0]
        indices, indptr = pattern.indices.copy(), pattern.indptr.copy()
        full = sparse.csc_matrix(
            (component_data(system).sum(axis=0), indices, indptr), shape=pattern.shape
        )
        assert np.count_nonzero(full.data == 0.0) > 0
        assert system.gram.nnz == np.count_nonzero(full.data)
        columns = np.random.default_rng(5).standard_normal((system.dof_count, 70))
        assert (system.gram @ columns).tobytes() == (full @ columns).tobytes()
        # Pruning gram in place on shared index arrays would garble these.
        for component in system.components:
            assert np.array_equal(component.indices, indices)
            assert np.array_equal(component.indptr, indptr)
            assert component.nnz == indices.size
        dense = sum(component.toarray() for component in system.components)
        assert np.array_equal(dense, system.gram.toarray())
        assert affine_matrix(system, np.ones(4)).nnz == indices.size

    def test_fingerprint_tracks_content(self):
        a = fem.assemble(fem.build_mesh(4, 4, 2, 2))
        b = fem.assemble(fem.build_mesh(4, 4, 2, 2))
        c = fem.assemble(fem.build_mesh(4, 6, 2, 2))
        d = fem.assemble(fem.build_mesh(4, 4, 4, 4))
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
        assert a.fingerprint != d.fingerprint


class TestSolve:
    def test_residual_contract(self, small_system):
        mu = fem.ParameterPoint((0.3, 0.7, 1.0, 0.45))
        snap = fem.solve_fom(small_system, mu)
        matrix = affine_matrix(small_system, mu)
        rel = np.linalg.norm(matrix @ snap.coefficients - small_system.load)
        rel /= np.linalg.norm(small_system.load)
        assert rel <= 1e-10
        assert snap.parameter == mu

    def test_parameter_size_checked(self, small_system):
        with pytest.raises(DimensionError):
            fem.solve_fom(small_system, fem.ParameterPoint((1.0, 1.0)))

    def test_failed_residual_contract_raises(self, monkeypatch):
        # The condensed solve still checks its residual against A(mu).
        system = fem.assemble(fem.build_mesh(8, 8, 2, 2))
        mu = fem.ParameterPoint((0.3, 0.7, 1.0, 0.45))
        monkeypatch.setattr(fem, "FOM_RESIDUAL_TOL", -1.0)
        with pytest.raises(NumericError, match=re.escape(str(mu.weights))):
            fem.solve_fom(system, mu)

    @settings(max_examples=25, deadline=None)
    @given(
        factor=st.floats(min_value=0.05, max_value=20.0),
        weights=st.lists(
            st.floats(min_value=0.1, max_value=1.0), min_size=4, max_size=4
        ),
    )
    def test_scaling_law(self, factor, weights):
        """u(c * mu) = u(mu) / c for any scalar c > 0."""
        system = _SCALING_SYSTEM
        mu = fem.ParameterPoint(tuple(weights))
        u = fem.solve_fom(system, mu).coefficients
        scaled = fem.ParameterPoint(tuple(factor * w for w in mu.weights))
        u_scaled = fem.solve_fom(system, scaled).coefficients
        assert np.allclose(u_scaled, u / factor, rtol=1e-10, atol=1e-13)

    def test_scaling_law_c2(self, small_system):
        mu = fem.ParameterPoint((0.25, 0.5, 0.75, 1.0))
        u = fem.solve_fom(small_system, mu).coefficients
        u2 = fem.solve_fom(small_system, fem.ParameterPoint((0.5, 1.0, 1.5, 2.0))).coefficients
        assert np.allclose(u2, u / 2.0, rtol=1e-12, atol=1e-15)


# module-level system for the hypothesis test (fixtures don't mix with @given)
_SCALING_SYSTEM = fem.assemble(fem.build_mesh(4, 4, 2, 2))


class TestOrderedFactorization:
    """The condensed solves match plain splu, and the interface is numbered
    in ascending DOF order.

    MESHES covers one block (no interface), no interior DOFs (4, 4, 4, 4),
    blocks one cell wide in x (8, 6, 8, 2), and blocks of several sizes.
    """

    MESHES = [
        (2, 2, 1, 1), (3, 5, 1, 1), (12, 8, 3, 2), (6, 30, 2, 3), (16, 16, 4, 4),
        (4, 4, 4, 4), (8, 6, 8, 2),
    ]

    @pytest.mark.parametrize("shape", MESHES)
    def test_solves_match_plain_splu(self, shape):
        system = fem.assemble(fem.build_mesh(*shape))
        rng = np.random.default_rng(3)
        for _ in range(3):
            weights = rng.uniform(0.1, 1.0, size=system.block_count)
            matrix = affine_matrix(system, weights)
            expected = splu(matrix).solve(system.load)
            u = fem.solve_fom(system, fem.ParameterPoint(tuple(weights))).coefficients
            assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("shape", MESHES)
    def test_interface_ascends_over_dofs_interior_to_no_block(self, shape):
        mesh = fem.build_mesh(*shape)
        interface = fem.assemble(mesh)._condensation.interface
        assert np.all(np.diff(interface) > 0)
        vertex = np.flatnonzero(~mesh.boundary)
        shared = [
            len(set(mesh.tri_block[(mesh.triangles == v).any(axis=1)])) > 1 for v in vertex
        ]
        assert np.array_equal(interface, np.flatnonzero(shared))


class TestCondensation:
    @pytest.mark.parametrize("shape", [(12, 8, 3, 2), (4, 4, 4, 4), (3, 5, 1, 1)])
    def test_interface_and_interiors_partition_the_dofs(self, shape):
        mesh = fem.build_mesh(*shape)
        condensed = fem.assemble(mesh)._condensation
        parts = [condensed.interface] + [blk.dofs for blk in condensed.interiors]
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(mesh.dof_count))
        # An interior DOF's triangles all lie in its block.
        vertex = np.flatnonzero(~mesh.boundary)
        for blk in condensed.interiors:
            touching = np.isin(mesh.triangles, vertex[blk.dofs]).any(axis=1)
            assert set(mesh.tri_block[touching]) == {blk.block + 1}

    def test_single_block_has_no_interface(self):
        # One block: every DOF is interior, and no interface factor is made.
        system = fem.assemble(fem.build_mesh(8, 8, 1, 1))
        assert system._condensation.interface.size == 0
        mu = fem.ParameterPoint((0.4,))
        expected = splu(affine_matrix(system, mu)).solve(system.load)
        u = fem.solve_fom(system, mu).coefficients
        assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_indefinite_schur_complement_names_mu(self, monkeypatch):
        system = fem.assemble(fem.build_mesh(8, 8, 2, 2))
        condensed = system._condensation
        flipped = condensed.schur.copy()
        flipped.data = -flipped.data
        monkeypatch.setattr(system, "_condensation", replace(condensed, schur=flipped))
        mu = fem.ParameterPoint((0.3, 0.7, 1.0, 0.45))
        with pytest.raises(NumericError, match=re.escape(str(mu.weights))):
            fem.solve_fom(system, mu)

    def test_every_dof_on_the_interface(self):
        # 256 one-cell blocks: nothing is eliminated, and the condensed data
        # stays sparse (a dense interface matrix alone would be 35x A's data).
        system = fem.assemble(fem.build_mesh(16, 16, 16, 16))
        condensed = system._condensation
        assert condensed.interiors == ()
        assert condensed.interface.size == system.dof_count
        weights = np.random.default_rng(4).uniform(0.1, 1.0, size=system.block_count)
        matrix = affine_matrix(system, weights)
        expected = splu(matrix).solve(system.load)
        u = fem.solve_fom(system, fem.ParameterPoint(tuple(weights))).coefficients
        assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)
        held = [condensed.interface, condensed.positions, condensed.load]
        held += [condensed.schur.data, condensed.schur.indices, condensed.schur.indptr]
        assert sum(a.nbytes for a in held) < 16 * matrix.data.nbytes


class TestInterfaceBound:
    """`assemble` rejects a grid whose dense interface matrix would exceed
    INTERFACE_MAX_BYTES, before any dense allocation."""

    def test_one_cell_wide_blocks_at_nx_64_admitted(self):
        system = fem.assemble(fem.build_mesh(64, 64, 64, 1))
        assert system._condensation.interface.size == 3969

    def test_oversized_interface_rejected_naming_size_and_bytes(self):
        # 17,982 interface DOFs: 2.6 GB for one dense matrix.
        mesh = fem.build_mesh(19, 1000, 19, 1)
        message = f"17982 interface DOFs need {8 * 17982**2} bytes"
        with pytest.raises(ConfigurationError, match=message):
            fem.assemble(mesh)

    def test_limit_is_inclusive(self, monkeypatch):
        mesh = fem.build_mesh(8, 6, 8, 2)
        size = fem.assemble(mesh)._condensation.interface.size
        monkeypatch.setattr(fem, "INTERFACE_MAX_BYTES", 8 * size**2 - 1)
        with pytest.raises(ConfigurationError, match=f"{size} interface DOFs"):
            fem.assemble(mesh)
        monkeypatch.setattr(fem, "INTERFACE_MAX_BYTES", 8 * size**2)
        assert fem.assemble(mesh)._condensation.interface.size == size


class TestBlockSolve:
    """`solve_fom_block` solves a block of points through stacked Cholesky
    chunks; every column is bitwise the one-point `solve_fom`."""

    LAYOUTS = [(64, 64, 2, 2), (48, 48, 3, 3), (8, 8, 1, 1), (16, 16, 16, 16), (12, 8, 3, 2)]

    @staticmethod
    def per_point(system, weights):
        return [
            fem.solve_fom(system, fem.ParameterPoint(tuple(w))).coefficients for w in weights
        ]

    @pytest.mark.parametrize("shape", LAYOUTS)
    def test_bitwise_equal_to_per_point_solves(self, monkeypatch, shape):
        system = fem.assemble(fem.build_mesh(*shape))
        weights = np.random.default_rng(11).uniform(0.1, 1.0, size=(81, system.block_count))
        expected = self.per_point(system, weights)
        # The default chunks, one point per chunk, and the whole block in one.
        for budget in (fem.FACTOR_BLOCK_BYTES, 1, 1 << 40):
            monkeypatch.setattr(fem, "FACTOR_BLOCK_BYTES", budget)
            for count in (1, 5, 64, 81):
                block = fem.solve_fom_block(system, weights[:count])
                assert block.shape == (system.dof_count, count)
                assert block.flags.c_contiguous
                for u, column in zip(expected, block.T):
                    assert u.tobytes() == column.tobytes()

    def test_empty_block(self, small_system):
        block = fem.solve_fom_block(small_system, np.empty((0, 4)))
        assert block.shape == (small_system.dof_count, 0)

    @pytest.mark.parametrize("weights", [np.ones(4), np.ones((2, 3)), np.ones((1, 2, 4))])
    def test_weight_shape_checked(self, small_system, weights):
        with pytest.raises(DimensionError):
            fem.solve_fom_block(small_system, weights)

    @pytest.fixture(scope="class")
    def system8(self):
        return fem.assemble(fem.build_mesh(8, 8, 2, 2))

    @pytest.mark.parametrize("bad", [np.nan, 0.0, np.inf, -0.5])
    def test_bad_weight_rejected_before_factoring(self, monkeypatch, system8, bad):
        weights = np.random.default_rng(2).uniform(0.1, 1.0, size=(5, 4))
        weights[3, 1] = bad
        monkeypatch.setattr(fem.Condensation, "cholesky", None)  # never reached
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite and positive.* at point 3"):
                fem.solve_fom_block(system8, weights)

    @staticmethod
    def failing_at(bad):
        """`fem._check_residuals` with the solution of the point `bad` set to NaN."""
        check = fem._check_residuals

        def failing(system, weights, rows):
            rows[(weights == bad).all(axis=1)] = np.nan
            check(system, weights, rows)

        return failing

    @pytest.mark.parametrize("budget", [None, 1 << 40])
    def test_indefinite_point_named_not_the_first(self, monkeypatch, system8, budget):
        # A stacked factorization does not say which matrix failed.  Negative
        # weights fail the weight rule first, so the kernel is called directly.
        if budget is not None:
            monkeypatch.setattr(fem, "FACTOR_BLOCK_BYTES", budget)
        weights = np.random.default_rng(2).uniform(0.1, 1.0, size=(5, 4))
        weights[2] = (-0.3, -0.7, -1.0, -0.45)
        with pytest.raises(NumericError, match="not positive definite") as error:
            system8._condensation.solve(
                weights, lambda chunk, rows: fem._check_residuals(system8, chunk, rows)
            )
        assert str(tuple(weights[2].tolist())) in str(error.value)
        assert str(tuple(weights[0].tolist())) not in str(error.value)

    @pytest.mark.parametrize("budget", [None, 1 << 40])
    def test_residual_failure_named(self, monkeypatch, system8, budget):
        if budget is not None:
            monkeypatch.setattr(fem, "FACTOR_BLOCK_BYTES", budget)
        weights = np.random.default_rng(3).uniform(0.1, 1.0, size=(5, 4))
        monkeypatch.setattr(fem, "_check_residuals", self.failing_at(weights[2]))
        with pytest.raises(NumericError, match="relative residual") as error:
            fem.solve_fom_block(system8, weights)
        assert str(tuple(weights[2].tolist())) in str(error.value)

    def test_earlier_residual_failure_wins_over_later_factorization(
        self, monkeypatch, system8
    ):
        # Both failures fall in one chunk: the first failing point in order
        # is reported, whichever check catches it.
        monkeypatch.setattr(fem, "FACTOR_BLOCK_BYTES", 1 << 40)
        weights = np.random.default_rng(4).uniform(0.1, 1.0, size=(5, 4))
        weights[3] = -weights[3]
        check = self.failing_at(weights[1])
        with pytest.raises(NumericError, match="relative residual") as error:
            system8._condensation.solve(weights, lambda chunk, rows: check(system8, chunk, rows))
        assert str(tuple(weights[1].tolist())) in str(error.value)


class TestColumnBlocks:
    """The one reader of snapshot sets: given blocks or stacked vectors."""

    def test_blocks_and_vectors_read_alike(self, monkeypatch, small_system):
        monkeypatch.setattr(pool_mod, "COLUMN_BLOCK", 4)
        weights = np.random.default_rng(5).uniform(0.1, 1.0, size=(10, 4))
        blocks = [fem.solve_fom_block(small_system, weights[s : s + 4]) for s in (0, 4, 8)]
        snapshots = [
            fem.solve_fom(small_system, fem.ParameterPoint(tuple(w))) for w in weights
        ]
        given, stacked = fem.ColumnBlocks(blocks), fem.ColumnBlocks(snapshots)
        assert given.count == stacked.count == 10
        for k in range(3):
            block = given.block(k)
            assert block is not blocks[k] and block.flags.c_contiguous
            assert block.tobytes() == stacked.block(k).tobytes() == blocks[k].tobytes()
        for t in range(10):
            assert given.column(t).tobytes() == stacked.column(t).tobytes()

    def test_blocks_must_follow_the_fixed_split(self, small_system):
        weights = np.full((3, 4), 0.5)
        block = fem.solve_fom_block(small_system, weights)
        with pytest.raises(DimensionError, match="fixed split"):
            fem.ColumnBlocks([block, block])


class TestInnerProduct:
    def test_bilinear_symmetric_positive(self, small_system):
        """x_norm is the norm of a symmetric positive definite bilinear form:
        u^T M_X u, which satisfies the parallelogram law."""
        rng = np.random.default_rng(5)
        u = rng.standard_normal(small_system.dof_count)
        v = rng.standard_normal(small_system.dof_count)

        def norm(x):
            return fem.x_norm(x, small_system)

        assert norm(u) ** 2 == pytest.approx(u @ (small_system.gram @ u), rel=1e-14)
        assert norm(u + v) ** 2 + norm(u - v) ** 2 == pytest.approx(
            2 * norm(u) ** 2 + 2 * norm(v) ** 2, rel=1e-12
        )
        assert norm(-2 * u) == pytest.approx(2 * norm(u), rel=1e-14)
        assert norm(u) > 0
        assert norm(np.zeros(small_system.dof_count)) == 0.0

    def test_dimension_checked(self, small_system):
        with pytest.raises(DimensionError):
            fem.x_norm(np.ones(3), small_system)
        with pytest.raises(DimensionError):
            fem.x_norm(np.ones((small_system.dof_count, 1)), small_system)


class TestRefinement:
    def test_h_convergence_ratio(self):
        """Successive energy-norm errors against an nx=64 reference shrink by ~2.

        The P1 spaces at nx=16 and nx=32 nest into the nx=64 space, so by
        Galerkin orthogonality ||u_ref - u_h||_a^2 = f(u_ref) - f(u_h).
        """
        ref_sys = fem.assemble(fem.build_mesh(64, 64, 2, 2))
        for weights in [(1.0, 1.0, 1.0, 1.0), (0.3, 0.7, 1.0, 0.45)]:
            mu = fem.ParameterPoint(weights)
            u_ref = fem.solve_fom(ref_sys, mu).coefficients
            errors = []
            for nx in (16, 32):
                system = fem.assemble(fem.build_mesh(nx, nx, 2, 2))
                u = fem.solve_fom(system, mu).coefficients
                errors.append(np.sqrt(ref_sys.load @ u_ref - system.load @ u))
            ratio = errors[0] / errors[1]
            assert 1.5 <= ratio <= 3.0, f"ratio {ratio} for mu={weights}"
