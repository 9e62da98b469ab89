"""Full-order model: thermal-block geometry, P1 assembly, and solves.

The domain is the unit square split into ``px * py`` equal rectangular
sub-blocks, each carrying one scalar diffusion weight.  The bilinear form is

    a_mu(u, v) = sum_p  mu_p * (grad u, grad v)_{L2(Omega_p)},

discretized with continuous piecewise-linear elements on a structured
triangulation (each grid cell split along its bottom-left/top-right
diagonal) and homogeneous Dirichlet conditions on the whole boundary.  The
reference inner product is the H^1_0 seminorm, whose Gram matrix is the
unit-coefficient stiffness matrix M_X = sum_p A_p.

Every full-order matrix — A(mu) for any mu, and M_X — lives on one shared
sparsity pattern.  `assemble` orders the interior DOF grid once by nested
dissection (George 1973): the grid is cut along a full grid line, the two
halves are numbered recursively and the cut line last.  A grid line is a
separator because P1 couplings only join adjacent grid lines.

Full-order solves use static condensation, as Huynh, Knezevic & Patera
(2013) apply it to parametrized components.  A DOF all of whose triangles
lie in block p is interior to that block: it couples only through
mu_p A_p.  The other DOFs, on the grid lines between blocks, form the
interface.  `assemble` eliminates every block interior once, for all mu: one
sparse LU of each interior block K_p, then discarded, gives the dense
interface coupling Z_p, the interior solution w_p of the load, the
mu-independent condensed load and the Schur complement S(mu) = sum_p mu_p S_p
as sparse data on one pattern over the interface.  A `solve_fom` then forms
S(mu) as a dense matrix, factors it by dense Cholesky (125 interface DOFs
against 3,969 DOFs at nx=64 on 2x2 blocks, where S(mu) is 75% dense), and
recovers each interior with one dense matrix-vector product.
The dense factor costs m^2 memory and m^3 / 3 flops for m interface DOFs,
whatever the sparsity of S(mu).  Against a sparse LU of S(mu) it was about
2.5x faster on 2x2 blocks at nx=64, 1.8x on 3x3 blocks at nx=48, and about
even on 4x4 blocks at nx=64 and on 16x16 one-cell blocks at nx=16, where
the interface is the whole grid.  Blocks one cell wide on a fine grid put
the whole grid on the interface, and there it loses: 0.6-1.2 s against
16-31 ms per solve for 64x1 blocks at nx=64.

The nested-dissection order numbers the interface.  The estimator's Riesz
solves with M_X = A(1, ..., 1) go through the same condensation
(`estimator.RieszSolver`): a right-hand side A_p v vanishes on every other
block's interior and condenses to S_p v on the interface, so no K_p is
factored again.  A `RieszSolver` holds the inverse of the Cholesky factor
of S(1, ..., 1), one dense m x m matrix per greedy run, with the same m^2
memory caveat as a full-order solve.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.linalg.blas import dtrsv
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, DimensionError, DomainError, NumericError
from .pool import map_column_blocks

__all__ = [
    "ParameterPoint",
    "Mesh",
    "AffineSystem",
    "Snapshot",
    "build_mesh",
    "assemble",
    "solve_fom",
    "x_inner",
    "x_norm",
    "x_norms",
    "projection_distances",
]

#: Default admissible range for the diffusion weights.
MU_MIN_DEFAULT = 0.1
MU_MAX_DEFAULT = 1.0

#: Relative residual each full-order solve must achieve.
FOM_RESIDUAL_TOL = 1e-10

#: Largest orthonormality defect max|V^T M_X V - I| that
#: `projection_distances` accepts.  Its distances are exact for an
#: orthonormal V and move by O(defect * ||f||_X) otherwise, so this keeps
#: them within 1e-10 of the snapshot norm.
ORTHONORMALITY_TOL = 1e-10

#: Nested dissection keeps the natural order of grid blocks this small.
_DISSECTION_LEAF = 16


@dataclass(frozen=True)
class ParameterPoint:
    """A point of the parameter space: one positive weight per sub-block.

    Weights are stored as a tuple so points are hashable and usable as
    dictionary keys (snapshot tables).  Positivity and finiteness are
    enforced here; membership in a concrete admissible box is checked where
    parameter sets are constructed.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) == 0:
            raise DomainError("a parameter point needs at least one weight")
        if not all(np.isfinite(w)):
            raise DomainError(f"non-finite weight in {w}")
        if min(w) <= 0.0:
            raise DomainError(f"weights must be positive, got {w}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, count: int, value: float = 1.0) -> "ParameterPoint":
        """The point (value, ..., value) with `count` entries."""
        return cls((value,) * count)

    @property
    def size(self) -> int:
        return len(self.weights)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def scaled(self, factor: float) -> "ParameterPoint":
        """The point with every weight multiplied by `factor`."""
        return ParameterPoint(tuple(factor * w for w in self.weights))


@dataclass(frozen=True)
class Mesh:
    """Structured triangulation of the unit square.

    Attributes
    ----------
    nx, ny : int
        Number of grid cells per direction.
    px, py : int
        Number of sub-blocks per direction; nx % px == 0 and ny % py == 0.
    vertices : (num_vertices, 2) float array
        Vertex coordinates, x-fastest scan order.
    triangles : (num_triangles, 3) int array
        Vertex indices, counterclockwise.  Each cell contributes two
        triangles split along the bottom-left -> top-right diagonal.
    tri_block : (num_triangles,) int array
        1-based sub-block id per triangle, row-major over the px-by-py block
        grid starting at the bottom-left block.
    boundary : (num_vertices,) bool array
        True on the Dirichlet boundary.
    dof_index : (num_vertices,) int array
        Interior DOF number per vertex, -1 on the boundary.
    """

    nx: int
    ny: int
    px: int
    py: int
    vertices: np.ndarray
    triangles: np.ndarray
    tri_block: np.ndarray
    boundary: np.ndarray
    dof_index: np.ndarray

    @property
    def block_count(self) -> int:
        return self.px * self.py

    @property
    def dof_count(self) -> int:
        return (self.nx - 1) * (self.ny - 1)


@dataclass
class AffineSystem:
    """Assembled affine decomposition A(mu) = sum_p mu_p A_p plus load and Gram.

    All component matrices share one sparsity pattern (stored zeros allowed),
    so A(mu) is formed by a single dense combination of the stacked data
    arrays — cheap and bitwise deterministic.  `solve_fom` solves through the
    block-interior condensation built with the system, and the estimator's
    Riesz solves with M_X go through it too.  `gram` holds M_X without the
    shared pattern's exact zeros (the couplings across cell hypotenuses), so
    its products skip them and are bitwise those of the full pattern.
    """

    components: list[sparse.csc_matrix]
    load: np.ndarray
    gram: sparse.csc_matrix
    dof_count: int
    mesh: Mesh
    rhs_value: float
    _stacked: np.ndarray = field(repr=False)  # (P, nnz) data on the shared pattern
    _order: np.ndarray = field(repr=False)  # DOF at each position of the ordering
    _condensation: Condensation = field(repr=False)  # A(mu) u = f on the interface
    _fingerprint: str = field(default="", repr=False)

    @property
    def block_count(self) -> int:
        return len(self.components)

    def matrix(self, weights) -> sparse.csc_matrix:
        """A(mu) for a ParameterPoint or a length-P weight sequence."""
        if isinstance(weights, ParameterPoint):
            weights = weights.as_array()
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.block_count,):
            raise DimensionError(
                f"expected {self.block_count} weights, got shape {w.shape}"
            )
        pattern = self.components[0]
        data = w @ self._stacked
        return sparse.csc_matrix(
            (data, pattern.indices, pattern.indptr), shape=pattern.shape
        )

    @property
    def fingerprint(self) -> str:
        """Content hash identifying this assembled system."""
        return self._fingerprint


@dataclass(frozen=True)
class BlockInterior:
    """The eliminated interior I_p of one block, solved back from the interface.

    ``u[dofs] = load / mu_p - coupling @ u_interface[interface]``.
    """

    block: int  # 0-based block index p
    dofs: np.ndarray  # I_p, DOF numbers
    interface: np.ndarray  # L_p, positions in the interface numbering
    load: np.ndarray  # w_p = K_p^-1 f[I_p]
    coupling: np.ndarray  # Z_p = K_p^-1 A_p[I_p, L_p], dense (|I_p|, |L_p|)


@dataclass(frozen=True)
class Condensation:
    """A(mu) u = f condensed onto the interface DOFs, once for every mu.

    The Schur complement S(mu) = sum_p mu_p S_p lives on one sparsity pattern
    over the interface DOFs `interface`, numbered in nested-dissection order:
    entry k sits at ``positions[k] = column * m + row`` of the dense
    column-major m x m matrix.  `schur` is the sparse (nnz, P) stack of the
    S_p data, so ``schur @ mu`` is the data of S(mu).  `load` is the
    mu-independent condensed load g.
    """

    dof_count: int
    interface: np.ndarray
    positions: np.ndarray
    schur: sparse.csr_matrix
    load: np.ndarray
    interiors: tuple[BlockInterior, ...]

    @property
    def nbytes(self) -> int:
        """Bytes held by the condensed operator, load and interior data."""
        arrays = [self.interface, self.positions, self.load]
        arrays += [self.schur.data, self.schur.indices, self.schur.indptr]
        for blk in self.interiors:
            arrays += [blk.dofs, blk.interface, blk.load, blk.coupling]
        return sum(a.nbytes for a in arrays)

    def cholesky(self, weights: np.ndarray) -> np.ndarray:
        """Lower Cholesky factor of S(mu), formed as a dense m x m matrix."""
        size = self.interface.size
        schur = np.zeros(size * size)
        schur[self.positions] = self.schur @ weights
        # numpy's LAPACK, not scipy's: each wheel bundles its own threaded
        # OpenBLAS, and at nx=128 a scipy `potrf` between the numpy
        # products of a solve made both thread pools contend for the
        # CPUs (7.9 ms against 2.3-2.8 ms per solve on 2 CPUs).
        try:
            return np.linalg.cholesky(schur.reshape(size, size, order="F"))
        except np.linalg.LinAlgError:
            raise NumericError(
                f"interface Schur complement at mu={tuple(weights.tolist())} "
                f"is not positive definite"
            ) from None

    def solve(self, weights: np.ndarray) -> np.ndarray:
        """u with A(mu) u = f: one dense Cholesky of S(mu), then the interiors."""
        u_interface = np.zeros(0)
        if self.interface.size:
            lower = self.cholesky(weights)
            # L^T is upper triangular and Fortran-ordered, as `trsv` wants it.
            half = dtrsv(lower.T, self.load, lower=0, trans=1)
            u_interface = dtrsv(lower.T, half, lower=0)
        u = np.empty(self.dof_count)
        u[self.interface] = u_interface
        for blk in self.interiors:
            u[blk.dofs] = (
                blk.load / weights[blk.block] - blk.coupling @ u_interface[blk.interface]
            )
        return u


@dataclass(frozen=True)
class Snapshot:
    """A full-order solution together with the parameter that produced it."""

    coefficients: np.ndarray
    parameter: ParameterPoint


def build_mesh(nx: int, ny: int, px: int, py: int) -> Mesh:
    """Build the structured criss-cross triangulation of the unit square.

    Parameters
    ----------
    nx, ny : int
        Cells per direction; must be positive and divisible by px, py.
    px, py : int
        Sub-blocks per direction; must be positive.

    Returns
    -------
    Mesh

    Raises
    ------
    ConfigurationError
        If a grid size is not positive or not divisible by its block count.
    """
    for name, value in (("nx", nx), ("ny", ny), ("px", px), ("py", py)):
        if int(value) != value or value < 1:
            raise ConfigurationError(f"{name} must be a positive integer, got {value}")
    if nx % px != 0:
        raise ConfigurationError(f"nx={nx} is not divisible by px={px}")
    if ny % py != 0:
        raise ConfigurationError(f"ny={ny} is not divisible by py={py}")

    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")  # row = constant y
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(ix, iy):
        return iy * (nx + 1) + ix

    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ci = ci.ravel()
    cj = cj.ravel()
    ll = vid(ci, cj)
    lr = vid(ci + 1, cj)
    ul = vid(ci, cj + 1)
    ur = vid(ci + 1, cj + 1)
    # Lower triangle (ll, lr, ur) and upper triangle (ll, ur, ul); both CCW.
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    bx = ci // (nx // px)
    by = cj // (ny // py)
    cell_block = by * px + bx + 1  # 1-based, bottom-left block first
    tri_block = np.repeat(cell_block, 2)

    ix = np.arange(nx + 1)
    iy = np.arange(ny + 1)
    gx_i, gy_i = np.meshgrid(ix, iy, indexing="xy")
    boundary = (
        (gx_i == 0) | (gx_i == nx) | (gy_i == 0) | (gy_i == ny)
    ).ravel()

    dof_index = np.full(vertices.shape[0], -1, dtype=np.int64)
    interior = np.flatnonzero(~boundary)
    dof_index[interior] = np.arange(interior.size)

    return Mesh(
        nx=nx,
        ny=ny,
        px=px,
        py=py,
        vertices=vertices,
        triangles=triangles,
        tri_block=tri_block,
        boundary=boundary,
        dof_index=dof_index,
    )


def _element_quantities(mesh: Mesh):
    """Per-triangle P1 stiffness (3x3) and area."""
    pts = mesh.vertices[mesh.triangles]  # (Nt, 3, 2)
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    # Gradients of the barycentric basis: grad(lambda_i) = (b_i, c_i) / (2 area)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (
        (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
        - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    )
    if np.any(area <= 0):
        raise NumericError("non-positive triangle area; mesh orientation broken")
    scale = 1.0 / (4.0 * area)
    k_local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * scale[
        :, None, None
    ]
    return k_local, area


def _nested_dissection(columns: int, rows: int) -> np.ndarray:
    """Nested-dissection order of a rows-by-columns DOF grid numbered x-fastest.

    Returns the DOF at each position of the ordering.  A block is cut along
    the middle grid line across its longer side; both halves come first,
    each ordered the same way, then the cut line.  Blocks of at most
    `_DISSECTION_LEAF` DOFs keep their natural order.
    """
    pieces = []

    def visit(block):
        if block.size <= _DISSECTION_LEAF:
            pieces.append(np.sort(block, axis=None))
            return
        if block.shape[0] > block.shape[1]:
            block = block.T
        mid = block.shape[1] // 2
        visit(block[:, :mid])
        visit(block[:, mid + 1 :])
        pieces.append(block[:, mid])

    visit(np.arange(rows * columns).reshape(rows, columns))
    return np.concatenate(pieces)


def _condense(
    mesh: Mesh,
    components: list[sparse.csc_matrix],
    stacked: np.ndarray,
    load: np.ndarray,
    order: np.ndarray,
) -> Condensation:
    """Eliminate every block's interior DOFs from A(mu) u = f, for all mu at once.

    A DOF all of whose triangles lie in block p is in that block's interior
    I_p; it couples only through mu_p A_p, and only to I_p and to the
    interface DOFs L_p next to it.  The remaining DOFs form the interface,
    numbered in the nested-dissection `order`.  One sparse LU of each
    K_p = A_p[I_p, I_p], discarded afterwards, gives Z_p = K_p^-1 A_p[I_p, L_p]
    and w_p = K_p^-1 f[I_p].  Then the mu_p cancel from the condensed load
    g = f_interface - sum_p A_p[L_p, I_p] w_p, and block p adds mu_p times
    A_p[interface, interface] - A_p[L_p, I_p] Z_p to S(mu); the dense part of
    that is L_p x L_p only, so S stays sparse.
    """
    n_dof, blocks = mesh.dof_count, mesh.block_count
    corners = mesh.triangles.ravel()
    corner_block = np.repeat(mesh.tri_block, 3)
    lowest = np.full(mesh.vertices.shape[0], blocks + 1)
    highest = np.zeros(mesh.vertices.shape[0], dtype=lowest.dtype)
    np.minimum.at(lowest, corners, corner_block)
    np.maximum.at(highest, corners, corner_block)
    owner = np.where(lowest == highest, lowest - 1, -1)[~mesh.boundary]
    interface = order[owner[order] < 0]
    local = np.full(n_dof, -1)
    local[interface] = np.arange(interface.size)

    # A_p[interface, interface]: the nonzero entries of each block's data on
    # the pattern that every component shares.
    pattern = components[0]
    rows = local[pattern.indices]
    cols = local[np.repeat(np.arange(n_dof), np.diff(pattern.indptr))]
    kept = np.flatnonzero((rows >= 0) & (cols >= 0))
    entry_block, at = np.nonzero(stacked[:, kept])
    rows, cols = [rows[kept[at]]], [cols[kept[at]]]
    owners, values = [entry_block], [stacked[entry_block, kept[at]]]

    condensed_load = load[interface].copy()
    interiors = []
    for p in range(blocks):
        dofs = np.flatnonzero(owner == p)
        if dofs.size == 0:
            continue
        columns = components[p][:, dofs]
        coupled = columns[interface]
        touched = np.unique(coupled.indices)
        lu = splu(columns[dofs].tocsc())
        b = coupled[touched].tocsr()  # A_p[L_p, I_p]
        # One right-hand side at a time: a many-column SuperLU solve makes
        # small threaded BLAS-3 calls, which took 80-130 ms instead of 4 ms
        # for 63 columns at nx=64 (2 CPUs, 2 BLAS threads) whenever the BLAS
        # threads had gone idle, as they have when a system is assembled.
        coupling = np.empty((dofs.size, touched.size))
        for j, row in enumerate(b.toarray()):
            coupling[:, j] = lu.solve(row)
        w = lu.solve(load[dofs])
        condensed_load[touched] -= b @ w
        rows.append(np.repeat(touched, touched.size))
        cols.append(np.tile(touched, touched.size))
        owners.append(np.full(touched.size**2, p))
        values.append(-(b @ coupling).ravel())
        interiors.append(BlockInterior(p, dofs, touched, w, coupling))

    positions, entry = np.unique(
        np.concatenate(cols) * interface.size + np.concatenate(rows),
        return_inverse=True,
    )
    schur = sparse.csr_matrix(
        (np.concatenate(values), (entry, np.concatenate(owners))),
        shape=(positions.size, blocks),
    )
    return Condensation(
        dof_count=n_dof,
        interface=interface,
        positions=positions,
        schur=schur,
        load=condensed_load,
        interiors=tuple(interiors),
    )


def assemble(mesh: Mesh, rhs_value: float = 1.0) -> AffineSystem:
    """Assemble the affine component matrices, load vector, and Gram matrix.

    Each component A_p collects the stiffness contributions of the triangles
    in sub-block p only; rows/columns of DOFs whose support misses that block
    are zero.  The load is the P1 discretization of the constant right-hand
    side `rhs_value`.  All matrices are restricted to interior DOFs
    (homogeneous Dirichlet).  The block interiors are eliminated here, once
    for all mu, for `solve_fom` (see `_condense`).

    Returns
    -------
    AffineSystem
    """
    if not np.isfinite(rhs_value):
        raise DomainError(f"rhs_value must be finite, got {rhs_value}")

    k_local, area = _element_quantities(mesh)
    n_vert = mesh.vertices.shape[0]
    n_dof = mesh.dof_count
    tris = mesh.triangles

    rows = np.repeat(tris, 3, axis=1).ravel()  # (Nt*9,)
    cols = np.tile(tris, (1, 3)).ravel()
    dof_r = mesh.dof_index[rows]
    dof_c = mesh.dof_index[cols]
    interior_entry = (dof_r >= 0) & (dof_c >= 0)
    tri_of_entry = np.repeat(np.arange(tris.shape[0]), 9)

    # Shared sparsity pattern from every interior entry of every triangle.
    pat = sparse.coo_matrix(
        (
            np.ones(np.count_nonzero(interior_entry)),
            (dof_r[interior_entry], dof_c[interior_entry]),
        ),
        shape=(n_dof, n_dof),
    ).tocsc()
    pat.sum_duplicates()
    pat.sort_indices()
    nnz = pat.nnz
    # Column-major key of each stored position, for COO -> pattern scatter.
    col_of_pos = np.repeat(np.arange(n_dof), np.diff(pat.indptr))
    keys_pattern = col_of_pos * n_dof + pat.indices

    stacked = np.zeros((mesh.block_count, nnz))
    sel = interior_entry
    values_sel = k_local.reshape(-1, 9).ravel()[sel]
    blocks_sel = mesh.tri_block[tri_of_entry[sel]]
    keys_entries = dof_c[sel] * n_dof + dof_r[sel]
    pos = np.searchsorted(keys_pattern, keys_entries)
    for p in range(1, mesh.block_count + 1):
        mask = blocks_sel == p
        np.add.at(stacked[p - 1], pos[mask], values_sel[mask])

    # A copy of the pattern: pruning in place would corrupt the components'.
    gram = sparse.csc_matrix(
        (stacked.sum(axis=0), pat.indices, pat.indptr), shape=(n_dof, n_dof), copy=True
    )
    gram.eliminate_zeros()
    components = [
        sparse.csc_matrix((stacked[p], pat.indices, pat.indptr), shape=(n_dof, n_dof))
        for p in range(mesh.block_count)
    ]

    order = _nested_dissection(mesh.nx - 1, mesh.ny - 1)

    # Load: integral of each interior hat function is area/3 per triangle.
    load_full = np.zeros(n_vert)
    np.add.at(load_full, tris.ravel(), np.repeat(area / 3.0, 3))
    load = rhs_value * load_full[~mesh.boundary]

    digest = hashlib.sha256()
    digest.update(
        np.asarray(
            [mesh.nx, mesh.ny, mesh.px, mesh.py, n_dof], dtype=np.int64
        ).tobytes()
    )
    digest.update(np.float64(rhs_value).tobytes())
    digest.update(pat.indptr.astype(np.int64).tobytes())
    digest.update(pat.indices.astype(np.int64).tobytes())
    digest.update(stacked.tobytes())
    digest.update(load.tobytes())

    return AffineSystem(
        components=components,
        load=load,
        gram=gram,
        dof_count=n_dof,
        mesh=mesh,
        rhs_value=float(rhs_value),
        _stacked=stacked,
        _order=order,
        _condensation=_condense(mesh, components, stacked, load, order),
        _fingerprint=digest.hexdigest(),
    )


def solve_fom(system: AffineSystem, mu: ParameterPoint) -> Snapshot:
    """Solve the full-order problem A(mu) u = f through the condensation.

    The block interiors were eliminated once by `assemble`.  A solve forms
    the interface Schur complement S(mu) from the per-block data (one sparse
    product with mu, scattered into a dense matrix), factors it by dense
    Cholesky and solves for the interface values u_G, then sets each
    interior to u[I_p] = w_p / mu_p - Z_p u_G[L_p].  The Cholesky reads one
    triangle of S(mu) only; the relative residual, checked against the
    assembled A(mu), certifies the solve.  At nx=64 on 2x2 blocks a solve
    takes about 0.5 ms, against about 1.2 ms with a sparse LU of S(mu) and
    about 12 ms with a sparse LU of A(mu).

    Raises
    ------
    DimensionError
        If the parameter size does not match the system's block count
        (non-positive weights are already rejected by `ParameterPoint`).
    NumericError
        If S(mu) is not positive definite or the relative residual exceeds
        1e-10.
    """
    if mu.size != system.block_count:
        raise DimensionError(
            f"parameter has {mu.size} weights, system has {system.block_count} blocks"
        )
    weights = mu.as_array()
    u = system._condensation.solve(weights)
    matrix = system.matrix(weights)
    load_norm = np.linalg.norm(system.load)
    residual = np.linalg.norm(matrix @ u - system.load) / (load_norm or 1.0)
    if not residual <= FOM_RESIDUAL_TOL:
        raise NumericError(
            f"FOM solve at mu={mu.weights} reached relative residual {residual:.3e} "
            f"(contract {FOM_RESIDUAL_TOL:.0e})"
        )
    return Snapshot(coefficients=u, parameter=mu)


def x_inner(u: np.ndarray, v: np.ndarray, system: AffineSystem) -> float:
    """X-inner product u^T M_X v (H^1_0 seminorm metric)."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != (system.dof_count,) or v.shape != (system.dof_count,):
        raise DimensionError(
            f"vectors must have shape ({system.dof_count},), "
            f"got {u.shape} and {v.shape}"
        )
    return float(u @ (system.gram @ v))


def x_norm(u: np.ndarray, system: AffineSystem) -> float:
    """X-norm sqrt(<u, u>_X); round-off negatives are clamped to zero."""
    return float(np.sqrt(max(x_inner(u, u, system), 0.0)))


def x_norms(columns: np.ndarray, system: AffineSystem) -> np.ndarray:
    """X-norm of every column of a (dof_count, k) matrix; negatives clamp to zero."""
    squares = np.einsum("ij,ij->j", columns, system.gram @ columns)
    return np.sqrt(np.clip(squares, 0.0, None))


def projection_distances(vectors, columns, system: AffineSystem, pool=None):
    """X-distance of every column to every prefix span of X-orthonormal vectors.

    `vectors` is a (dof_count, N) matrix V with V^T M_X V = I; `columns` is
    a sequence of T full-order vectors f_t (or a (T, dof_count) array).
    Returns ``(dist, coeffs)``: ``dist[n, t] = ||f_t - V_n V_n^T M_X f_t||_X``
    for the prefixes V_n of the first n vectors, n = 0..N, and
    ``coeffs = V^T M_X F``, (N, T).

    Each fixed-width column block is stacked on its own, one `pool` task
    (inline without a pool), and forms its coefficients A and its explicit
    remainder R = F - V A.  Then ``dist[n]**2 = ||R||_X**2 + sum_{j >= n}
    A_j**2``, a sum of nonnegative terms accumulated from the last vector
    back, and ``dist[0]`` is the direct norm ||f||_X.  The remainder and the
    tail carry O(eps ||f||_X) absolute error, as peeling the vectors off one
    at a time does, and no term cancels; an orthonormality defect delta
    adds O(delta ||f||_X), so NumericError is raised when max|V^T M_X V - I|
    exceeds ORTHONORMALITY_TOL.  The column split is fixed, so the results
    are bitwise independent of the worker count.
    """
    gram = system.gram
    size = vectors.shape[1]
    if size:
        defect = np.abs(vectors.T @ (gram @ vectors) - np.eye(size)).max()
        if not defect <= ORTHONORMALITY_TOL:
            raise NumericError(
                f"vectors are not X-orthonormal: max|V^T M_X V - I| = {defect:.2e} "
                f"exceeds {ORTHONORMALITY_TOL:.0e}"
            )

    count = len(columns)
    dist, coeffs = np.empty((size + 1, count)), np.empty((size, count))

    def block(cols: slice) -> None:
        f = np.column_stack(columns[cols])
        mf = gram @ f
        direct = np.einsum("ij,ij->j", f, mf)
        a = coeffs[:, cols] = vectors.T @ mf
        del mf
        f -= vectors @ a  # the remainder R, in place
        squares = np.empty((size + 1, f.shape[1]))
        squares[0] = np.einsum("ij,ij->j", f, gram @ f)
        squares[1:] = a[::-1] ** 2
        squares = np.cumsum(squares, axis=0)[::-1]
        squares[0] = direct
        dist[:, cols] = np.sqrt(np.clip(squares, 0.0, None))

    map_column_blocks(pool, block, count)
    return dist, coeffs
