"""Full-order model: thermal-block geometry, P1 assembly, and solves.

The domain is the unit square split into ``px * py`` equal rectangular
sub-blocks, each carrying one scalar diffusion weight.  The bilinear form is

    a_mu(u, v) = sum_p  mu_p * (grad u, grad v)_{L2(Omega_p)},

with the load f = 1, discretized with continuous piecewise-linear elements
on a structured triangulation (each grid cell split along its
bottom-left/top-right diagonal) and homogeneous Dirichlet conditions on the
whole boundary.  The
reference inner product is the H^1_0 seminorm, whose Gram matrix is the
unit-coefficient stiffness matrix M_X = sum_p A_p.

Every full-order matrix — A(mu) for any mu, and M_X — lives on one shared
sparsity pattern over the interior DOFs, numbered x-fastest.

Full-order solves use static condensation, as Huynh, Knezevic & Patera
(2013) apply it to parametrized components.  A DOF all of whose triangles
lie in block p is interior to that block: it couples only through
mu_p A_p.  The other DOFs, on the grid lines between blocks, form the
interface, in ascending DOF order.  `assemble` eliminates every block
interior once, for all mu: one sparse LU of each interior block K_p, then
discarded, gives the dense interface coupling Z_p, the interior solution
w_p of the load, the mu-independent condensed load and the Schur complement
S(mu) = sum_p mu_p S_p as sparse data on one pattern over the interface.  A
solve then forms S(mu) as a dense matrix, factors it by dense Cholesky and
recovers each interior with one dense matrix-vector product: O(m^2) memory
and O(m^3) flops for m interface DOFs, whatever the sparsity of S(mu), plus
O(|I_p| |L_p|) for each block interior I_p and its interface neighbours
L_p.  `assemble` rejects a grid whose dense m x m matrix would exceed
`INTERFACE_MAX_BYTES`.

One kernel, `solve_fom_block`, solves a block of k points: one sparse
product and one scatter form their k matrices S(mu), and one stacked
Cholesky factors each chunk of them that fits `FACTOR_BLOCK_BYTES` (a
stacked call hands all of a chunk's factorizations to LAPACK at once, as
batched BLAS does; Dongarra et al. 2017).  The triangular solves and the
interior products stay per point, so each solution is bitwise the one-point
solve, and one sparse matrix-vector product a point checks the residuals
against the assembled A(mu), chunk by chunk.  `solve_fom` is its k = 1
case.

The estimator's Riesz solves with M_X = A(1, ..., 1) go through the same
condensation (`estimator.RieszSolver`): a right-hand side A_p v vanishes on
every other block's interior and condenses to S_p v on the interface, so no
K_p is factored again.  A `RieszSolver` holds the inverse of the Cholesky
factor of S(1, ..., 1), one dense m x m matrix per greedy run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse as sparse
from scipy.linalg.blas import dtrsv
from scipy.sparse.linalg import splu

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    InsufficientDataError,
    NumericError,
)
from .pool import WorkerPool, column_blocks

__all__ = [
    "ParameterPoint",
    "Mesh",
    "AffineSystem",
    "Snapshot",
    "ColumnBlocks",
    "build_mesh",
    "assemble",
    "solve_fom",
    "solve_fom_block",
    "x_norm",
    "projection_distances",
]

#: Default admissible range for the diffusion weights.
MU_MIN_DEFAULT = 0.1
MU_MAX_DEFAULT = 1.0

#: Relative residual each full-order solve must achieve.
FOM_RESIDUAL_TOL = 1e-10

#: Bytes of dense interface matrices and residual products that one chunk of
#: a block solve holds (`Condensation.solve`): 8 points at nx=64 on 2x2
#: blocks.
FACTOR_BLOCK_BYTES = 2 << 20

#: Largest dense m x m interface matrix, in bytes, that `assemble` admits:
#: m <= 5792 interface DOFs.  Every solve holds at least one such matrix,
#: whatever `FACTOR_BLOCK_BYTES` allows.
INTERFACE_MAX_BYTES = 256 << 20

#: Largest orthonormality defect max|V^T M_X V - I| that `projection_distances`
#: and `greedy.true_sigma` accept.  Distances are exact for an orthonormal V
#: and move by O(defect * ||f||_X) otherwise, so this keeps them within 1e-10
#: of the snapshot norm.
ORTHONORMALITY_TOL = 1e-10


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

    All component matrices share one sparsity pattern (stored zeros
    allowed); A(mu) itself is never formed.  `solve_fom_block` solves
    through the block-interior condensation built with the system and checks
    its residuals with the components side by side, [A_1 ... A_P] without
    stored zeros; the estimator's Riesz solves with M_X go through the
    condensation too.  `gram` holds M_X without the
    shared pattern's exact zeros (the couplings across cell hypotenuses), so
    its products skip them and are bitwise those of the full pattern.
    """

    components: list[sparse.csc_matrix]
    load: np.ndarray
    gram: sparse.csc_matrix
    dof_count: int
    mesh: Mesh
    _condensation: Condensation = field(repr=False)  # A(mu) u = f on the interface
    _operator: sparse.csr_matrix = field(repr=False)  # [A_1 ... A_P], (dof, P dof)
    _fingerprint: str = field(default="", repr=False)

    @property
    def block_count(self) -> int:
        return len(self.components)

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
    over the interface DOFs `interface`, in ascending DOF order: entry k sits
    at ``positions[k] = column * m + row`` of the dense column-major m x m
    matrix.  `schur` is the sparse (nnz, P) stack of the S_p data, so
    ``schur @ mu`` is the data of S(mu).  `load` is the mu-independent
    condensed load g.
    """

    dof_count: int
    interface: np.ndarray
    positions: np.ndarray
    schur: sparse.csr_matrix
    load: np.ndarray
    interiors: tuple[BlockInterior, ...]

    def cholesky(self, weights: np.ndarray) -> np.ndarray:
        """Lower Cholesky factors of S(mu) for the k rows mu of `weights`, (k, m, m).

        One sparse product and one scatter form all k dense matrices, and one
        stacked call factors them.  Each matrix is handed over column-major,
        as a lone one is: S(mu) is symmetric only to round-off, so a
        row-major stack would factor other bits.  Raises NumericError if
        some S(mu) is not positive definite; a stacked factorization does not
        say which, so only a one-row `weights` names its mu.
        """
        size = self.interface.size
        dense = np.zeros((len(weights), size * size))
        dense[:, self.positions] = (self.schur @ weights.T).T
        stack = dense.reshape(len(weights), size, size).transpose(0, 2, 1)
        # numpy's LAPACK: its gufunc factors the whole stack in one call.
        try:
            return np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            where = f"mu={tuple(weights[0].tolist())}"
            if len(weights) > 1:
                where = f"one of {len(weights)} points"
            raise NumericError(
                f"interface Schur complement at {where} is not positive definite"
            ) from None

    def solve(self, weights: np.ndarray, check) -> np.ndarray:
        """u_j with A(mu_j) u_j = f for the k rows mu_j of `weights`: C-ordered (dof, k).

        The points run in chunks whose dense interface matrices and residual
        products (P dof values a point) fit `FACTOR_BLOCK_BYTES`, each
        factored by one stacked `cholesky`.  Every point then gets its own
        pair of triangular solves and one matrix-vector product per block
        interior, so each column is bitwise the solve of its point alone.
        ``check(weights, rows)`` runs on each chunk once it is solved, with
        the chunk's solutions as rows.  A failure names the first mu in row
        order: a chunk whose factorization fails is redone point by point, so
        the points before the failing one are solved and checked first.
        """
        solutions = np.empty((self.dof_count, len(weights)))
        point_bytes = 8 * (self.interface.size**2 + weights.shape[1] * self.dof_count)
        step = max(1, FACTOR_BLOCK_BYTES // point_bytes)
        # Each chunk is solved in rows and copied into its columns: writing
        # each solution into a column of the result was slower at nx=128,
        # and transposing all rows at the end held one more (dof, k) array.
        rows = np.empty((min(step, len(weights)), self.dof_count))
        for start in range(0, len(weights), step):
            chunk = rows[: len(weights[start : start + step])]
            self._solve_chunk(weights[start : start + step], chunk, check)
            solutions[:, start : start + step] = chunk.T
        return solutions

    def _solve_chunk(self, weights: np.ndarray, rows: np.ndarray, check) -> None:
        """Solve one chunk into `rows`, then `check` it."""
        try:
            lowers = self.cholesky(weights)
        except NumericError:
            if len(weights) == 1:
                raise
            for j in range(len(weights)):
                self._solve_chunk(weights[j : j + 1], rows[j : j + 1], check)
            return
        for w, lower, u in zip(weights, lowers, rows):
            u_interface = np.zeros(0)
            if self.interface.size:
                # L^T is upper triangular and Fortran-ordered, as `trsv` wants it.
                half = dtrsv(lower.T, self.load, lower=0, trans=1)
                u_interface = dtrsv(lower.T, half, lower=0)
            u[self.interface] = u_interface
            for blk in self.interiors:
                u[blk.dofs] = (
                    blk.load / w[blk.block] - blk.coupling @ u_interface[blk.interface]
                )
        check(weights, rows)


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
        Cells per direction; must be at least 2 (so that the grid has an
        interior DOF) and divisible by px, py.
    px, py : int
        Sub-blocks per direction; must be positive.

    Returns
    -------
    Mesh

    Raises
    ------
    ConfigurationError
        If a grid size is not positive or not divisible by its block count,
        or if nx or ny is below 2.
    """
    for name, value in (("nx", nx), ("ny", ny), ("px", px), ("py", py)):
        if int(value) != value or value < 1:
            raise ConfigurationError(f"{name} must be a positive integer, got {value}")
    if min(nx, ny) < 2:
        raise ConfigurationError(
            f"the {nx}x{ny} grid has no interior DOF; nx and ny must be at least 2"
        )
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


def _condense(
    mesh: Mesh,
    components: list[sparse.csc_matrix],
    stacked: np.ndarray,
    load: np.ndarray,
) -> Condensation:
    """Eliminate every block's interior DOFs from A(mu) u = f, for all mu at once.

    A DOF all of whose triangles lie in block p is in that block's interior
    I_p; it couples only through mu_p A_p, and only to I_p and to the
    interface DOFs L_p next to it.  The remaining DOFs form the interface,
    in ascending order.  One sparse LU of each K_p = A_p[I_p, I_p], discarded
    afterwards, gives Z_p = K_p^-1 A_p[I_p, L_p] and w_p = K_p^-1 f[I_p].
    Then the mu_p cancel from the condensed load g = f_interface -
    sum_p A_p[L_p, I_p] w_p, and block p adds mu_p times A_p[interface,
    interface] - A_p[L_p, I_p] Z_p to S(mu); the dense part of that is
    L_p x L_p only, so S stays sparse.

    Raises ConfigurationError, before any dense allocation, when a dense
    m x m interface matrix would exceed INTERFACE_MAX_BYTES.
    """
    n_dof, blocks = mesh.dof_count, mesh.block_count
    corners = mesh.triangles.ravel()
    corner_block = np.repeat(mesh.tri_block, 3)
    lowest = np.full(mesh.vertices.shape[0], blocks + 1)
    highest = np.zeros(mesh.vertices.shape[0], dtype=lowest.dtype)
    np.minimum.at(lowest, corners, corner_block)
    np.maximum.at(highest, corners, corner_block)
    owner = np.where(lowest == highest, lowest - 1, -1)[~mesh.boundary]
    interface = np.flatnonzero(owner < 0)
    dense_bytes = 8 * interface.size**2
    if dense_bytes > INTERFACE_MAX_BYTES:
        raise ConfigurationError(
            f"{interface.size} interface DOFs need {dense_bytes} bytes for one dense "
            f"interface matrix (limit {INTERFACE_MAX_BYTES}); use fewer or wider blocks"
        )
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
        coupling = lu.solve(b.toarray().T)
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


def assemble(mesh: Mesh) -> AffineSystem:
    """Assemble the affine component matrices, load vector, and Gram matrix.

    Each component A_p collects the stiffness contributions of the triangles
    in sub-block p only; rows/columns of DOFs whose support misses that block
    are zero.  The load is the P1 discretization of f = 1.  All matrices are
    restricted to interior DOFs (homogeneous Dirichlet).  The block
    interiors are eliminated here, once for all mu, for `solve_fom` (see
    `_condense`).

    Raises
    ------
    ConfigurationError
        If one dense interface matrix would exceed INTERFACE_MAX_BYTES.
    """
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

    operator = sparse.hstack(components, format="csr")
    operator.eliminate_zeros()

    # Load: integral of each interior hat function is area/3 per triangle.
    load_full = np.zeros(n_vert)
    np.add.at(load_full, tris.ravel(), np.repeat(area / 3.0, 3))
    load = load_full[~mesh.boundary]

    digest = hashlib.sha256()
    digest.update(
        np.asarray(
            [mesh.nx, mesh.ny, mesh.px, mesh.py, n_dof], dtype=np.int64
        ).tobytes()
    )
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
        _condensation=_condense(mesh, components, stacked, load),
        _operator=operator,
        _fingerprint=digest.hexdigest(),
    )


def solve_fom_block(system: AffineSystem, weights) -> np.ndarray:
    """Full-order solutions for the k rows mu_j of a (k, P) weight array.

    Returns a C-ordered (dof, k) array whose column j solves A(mu_j) u = f,
    the layout that sparse products with column blocks want.  Chunks of
    points that fit `FACTOR_BLOCK_BYTES` (8 points at nx=64 on 2x2 blocks)
    are factored by one stacked Cholesky of their interface Schur
    complements; each point then solves for its interface values u_G and
    sets each interior to u[I_p] = w_p / mu_p - Z_p u_G[L_p] on its own
    (`Condensation.solve`), so every column is bitwise the solution
    `solve_fom` gives for its point.  The relative residuals, checked
    against the assembled A(mu) for each chunk, certify the solves.  Each
    point costs O(m^3) flops for m interface DOFs plus O(dof) for its
    interiors and residual; beyond the (dof, k) result, a call holds
    O(FACTOR_BLOCK_BYTES) and at least one dense m x m matrix.

    Raises
    ------
    DimensionError
        If `weights` is not a (k, P) array for the system's P blocks.
    NumericError
        Naming the first mu, in row order, whose S(mu) is not positive
        definite or whose relative residual exceeds 1e-10.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != system.block_count:
        raise DimensionError(
            f"expected a (k, {system.block_count}) weight array, got shape {weights.shape}"
        )
    return system._condensation.solve(
        weights, lambda chunk, rows: _check_residuals(system, chunk, rows)
    )


def _check_residuals(system: AffineSystem, weights: np.ndarray, rows: np.ndarray) -> None:
    """Raise NumericError at the first row u_j of `rows` whose relative
    residual ||A(mu_j) u_j - f|| / ||f|| exceeds FOM_RESIDUAL_TOL.

    [A_1 ... A_P] times (mu_j1 u_j, ..., mu_jP u_j) is A(mu_j) u_j: one
    sparse matrix-vector product a point, and no A(mu) is formed.
    """
    scaled = (weights[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)
    residuals = np.array([system._operator @ row for row in scaled]) - system.load
    squares = np.einsum("ij,ij->i", residuals, residuals)
    relative = np.sqrt(squares) / (np.linalg.norm(system.load) or 1.0)
    failed = np.flatnonzero(~(relative <= FOM_RESIDUAL_TOL))
    if failed.size:
        j = failed[0]
        raise NumericError(
            f"FOM solve at mu={tuple(weights[j].tolist())} reached relative residual "
            f"{relative[j]:.3e} (contract {FOM_RESIDUAL_TOL:.0e})"
        )


def solve_fom(system: AffineSystem, mu: ParameterPoint) -> Snapshot:
    """Solve the full-order problem A(mu) u = f: `solve_fom_block` at one point.

    The Cholesky reads one triangle of S(mu) only.

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
    return Snapshot(coefficients=solve_fom_block(system, [mu.weights])[:, 0], parameter=mu)


def x_norm(u: np.ndarray, system: AffineSystem) -> float:
    """X-norm sqrt(u^T M_X u) (H^1_0 seminorm); round-off negatives are clamped to zero."""
    u = np.asarray(u)
    if u.shape != (system.dof_count,):
        raise DimensionError(f"vector must have shape ({system.dof_count},), got {u.shape}")
    return float(np.sqrt(max(float(u @ (system.gram @ u)), 0.0)))


class ColumnBlocks:
    """Full-order vectors f_0, ..., f_{T-1} read in the fixed column blocks of
    `pool.column_blocks`.

    Built from a list of such blocks, C-ordered (dof, width) arrays as the
    experiment's bulk solves return them (`solve_fom_block` over the slices
    of `pool.column_blocks`), or from a mapping parameter -> Snapshot (its
    values, in order), a sequence of Snapshots or vectors, or a (T, dof)
    array of rows.  `block(k)` returns block k as a new array the caller
    owns, a copy of a given block or the stack of its vectors, so a
    sequence of vectors is stacked one block at a time, never whole.

    Raises InsufficientDataError without a column, and DimensionError when
    given blocks do not follow the fixed split.
    """

    def __init__(self, columns):
        if isinstance(columns, Mapping):
            columns = columns.values()
        items = [getattr(c, "coefficients", c) for c in columns]
        if not items:
            raise InsufficientDataError("need at least one snapshot")
        stacked = np.ndim(items[0]) == 2
        widths = [b.shape[1] for b in items] if stacked else [1] * len(items)
        self.count = sum(widths)
        self.slices = column_blocks(self.count)
        if stacked and widths != [len(range(self.count)[s]) for s in self.slices]:
            raise DimensionError(f"column blocks of widths {widths} break the fixed split")
        self._blocks = items if stacked else None
        self._vectors = None if stacked else items

    def block(self, k: int) -> np.ndarray:
        """Columns `slices[k]` as a new C-ordered (dof, width) array."""
        if self._blocks is None:
            return np.column_stack(self._vectors[self.slices[k]])
        return self._blocks[k].copy()

    def column(self, t: int) -> np.ndarray:
        """f_t as a contiguous vector (not a copy when given as a vector)."""
        if self._blocks is None:
            return self._vectors[t]
        k, j = divmod(t, self.slices[0].stop)
        return self._blocks[k][:, j].copy()


def _x_orthonormal(vectors, gram) -> np.ndarray:
    """M_X V; NumericError when max|V^T M_X V - I| exceeds ORTHONORMALITY_TOL."""
    weighted = gram @ vectors
    defect = np.abs(vectors.T @ weighted - np.eye(vectors.shape[1])).max(initial=0.0)
    if not defect <= ORTHONORMALITY_TOL:
        raise NumericError(
            f"vectors are not X-orthonormal: max|V^T M_X V - I| = {defect:.2e} "
            f"exceeds {ORTHONORMALITY_TOL:.0e}"
        )
    return weighted


def _tail_squares(floor, coeffs) -> np.ndarray:
    """``squares[n] = floor + sum_{j >= n} coeffs[j]**2`` for n = 0..len(coeffs),
    a sum of nonnegative terms accumulated from the last row back."""
    squares = np.empty((len(coeffs) + 1, coeffs.shape[1]))
    squares[0] = floor
    squares[1:] = coeffs[::-1] ** 2
    return np.cumsum(squares, axis=0)[::-1]


def projection_distances(vectors, columns, system: AffineSystem, pool=None):
    """X-distance of every column to every prefix span of X-orthonormal vectors.

    `vectors` is a (dof_count, N) matrix V with V^T M_X V = I; `columns`
    holds T full-order vectors f_t in any form `ColumnBlocks` takes.
    Returns ``(dist, coeffs)``: ``dist[n, t] = ||f_t - V_n V_n^T M_X f_t||_X``
    for the prefixes V_n of the first n vectors, n = 0..N, and
    ``coeffs = V^T M_X F``, (N, T).

    Each fixed-width column block, one `pool` task (inline without a pool),
    takes its own copy of the block and forms its coefficients A and its
    explicit remainder R = F - V A.  Then ``dist[n]**2 = ||R||_X**2 +
    sum_{j >= n} A_j**2``, a sum of nonnegative terms accumulated from the
    last vector back, and ``dist[0]`` is the direct norm ||f||_X.  The
    remainder and the tail carry O(eps ||f||_X) absolute error, as peeling
    the vectors off one at a time does, and no term cancels; an
    orthonormality defect delta adds O(delta ||f||_X), so NumericError is
    raised when max|V^T M_X V - I| exceeds ORTHONORMALITY_TOL.  The column
    split is fixed, so the results are bitwise independent of the worker
    count and of whether the columns came stacked.
    """
    gram = system.gram
    size = vectors.shape[1]
    _x_orthonormal(vectors, gram)
    if not isinstance(columns, ColumnBlocks):
        columns = ColumnBlocks(columns)
    dist, coeffs = np.empty((size + 1, columns.count)), np.empty((size, columns.count))

    def block(k: int) -> None:
        cols = columns.slices[k]
        f = columns.block(k)
        mf = gram @ f
        direct = np.einsum("ij,ij->j", f, mf)
        a = coeffs[:, cols] = vectors.T @ mf
        del mf
        f -= vectors @ a  # the remainder R, in place
        squares = _tail_squares(np.einsum("ij,ij->j", f, gram @ f), a)
        squares[0] = direct
        dist[:, cols] = np.sqrt(np.clip(squares, 0.0, None))

    (pool or WorkerPool()).map(block, range(len(columns.slices)))
    return dist, coeffs
