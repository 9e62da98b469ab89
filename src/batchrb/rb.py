"""Reduced basis container, orthonormal extension, and Galerkin reduction.

The basis is kept X-orthonormal (X = H^1_0 seminorm metric) by two classical
Gram-Schmidt passes on matrix products, O(n dof) per snapshot.  Extension
records the expansion coefficients of every incoming snapshot with respect to
the updated basis; these rows form the lower-triangular matrix consumed by the
convergence-theory checks.  The one Galerkin projection, :func:`extend_model`,
projects only the vectors a basis gained; :func:`reduce` grows the empty model.
:func:`snapshot_basis` spans a whole snapshot set by the same extension for the
oracle, after two block passes drop the columns the extension would drop:
O(r dof) per column block plus O(r dof) per column left.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConfigurationError, DimensionError, NumericError
from .fem import AffineSystem, ColumnBlocks, ParameterPoint, Snapshot, projection_distances

__all__ = [
    "BasisVectorOrigin",
    "ReducedBasis",
    "ReducedModel",
    "ExtensionRecord",
    "SnapshotBasis",
    "extend",
    "snapshot_basis",
    "reduce",
    "extend_model",
    "prefix_model",
    "solve_rom",
    "reconstruct",
    "save_artifact",
    "load_artifact",
]

#: Snapshots whose orthogonal remainder falls below this fraction of their
#: incoming X-norm are treated as linearly dependent and discarded.
DROP_TOL_DEFAULT = 1e-10

ARTIFACT_FORMAT = "batchrb-rom"
ARTIFACT_VERSION = 4


@dataclass(frozen=True)
class BasisVectorOrigin:
    """Where a basis vector came from: parameter, greedy iteration, batch rank."""

    parameter: ParameterPoint
    iteration: int
    batch_rank: int


@dataclass
class ReducedBasis:
    """X-orthonormal basis vectors (columns) with per-vector provenance."""

    vectors: np.ndarray  # (dof_count, size)
    provenance: list[BasisVectorOrigin] = field(default_factory=list)

    def __post_init__(self):
        if self.vectors.ndim != 2:
            raise DimensionError("basis vectors must form a 2-d column matrix")
        if len(self.provenance) != self.vectors.shape[1]:
            raise DimensionError(
                f"{self.vectors.shape[1]} vectors but "
                f"{len(self.provenance)} provenance entries"
            )

    @classmethod
    def empty(cls, dof_count: int) -> "ReducedBasis":
        return cls(vectors=np.empty((dof_count, 0)), provenance=[])

    @property
    def size(self) -> int:
        return self.vectors.shape[1]

    @property
    def dof_count(self) -> int:
        return self.vectors.shape[0]

    def prefix(self, n: int) -> "ReducedBasis":
        """The sub-basis of the first n vectors (greedy order is nested)."""
        if not 0 <= n <= self.size:
            raise IndexError(f"prefix size {n} outside [0, {self.size}]")
        return ReducedBasis(self.vectors[:, :n], self.provenance[:n])


@dataclass
class ReducedModel:
    """Galerkin-reduced affine operator, load, and optional estimator data."""

    components: np.ndarray  # (P, n, n)
    load: np.ndarray  # (n,)
    system_fingerprint: str = ""
    estimator_data: Optional[object] = None  # estimator.EstimatorData

    @property
    def basis_size(self) -> int:
        return self.load.shape[0]

    @property
    def block_count(self) -> int:
        return self.components.shape[0]

    def matrix(self, weights) -> np.ndarray:
        """A_r(mu) = sum_p mu_p (V^T A_p V), or its (T, n, n) stack for (T, P) weights:
        solve_rom's and the sweeps' one formation (row t bitwise matrix(weights[t]))."""
        w = np.asarray(weights, dtype=float)
        if w.ndim not in (1, 2) or w.shape[-1] != self.block_count:
            raise DimensionError(
                f"expected {self.block_count} weights per row, got shape {w.shape}"
            )
        return np.einsum("...p,pij->...ij", w, self.components)


@dataclass(frozen=True)
class ExtensionRecord:
    """Outcome of orthogonalizing one snapshot during extend().

    `coefficients` is the expansion row of the incoming snapshot: projections
    onto the previously accepted vectors (both Gram-Schmidt passes summed)
    followed, for accepted snapshots, by the remainder norm as the diagonal entry.
    """

    parameter: ParameterPoint
    accepted: bool
    coefficients: np.ndarray
    incoming_norm: float
    residual_norm: float


def extend(
    basis: ReducedBasis,
    snapshots: Sequence[Snapshot],
    system: AffineSystem,
    iteration: int = 0,
) -> tuple[ReducedBasis, list[ExtensionRecord]]:
    """Orthonormally extend the basis by a batch of snapshots.

    Snapshots are processed in the given order; each gets two classical
    Gram-Schmidt passes ``c = (M_X V)^T w; w -= V c`` against all previously
    accepted vectors V, including earlier members of the same batch, at
    O(n dof) per snapshot: M_X V is formed once per call and gains a column per
    accepted vector, so a snapshot costs two sparse products with M_X.
    Members whose remainder norm falls below ``DROP_TOL_DEFAULT`` times their
    incoming X-norm are discarded and reported with ``accepted=False``; a
    snapshot with a non-finite X-norm raises ``NumericError`` naming its batch
    rank (its position in `snapshots`) and any parameter it has.  Returns the
    extended basis, whose provenance records `iteration` and each snapshot's
    batch rank, and one record per snapshot.
    """
    gram = system.gram
    n = basis.size
    # Fortran order keeps the leading columns V[:, :n] one contiguous block.
    shape = (system.dof_count, n + len(snapshots))
    v, mv = np.empty(shape, order="F"), np.empty(shape, order="F")
    v[:, :n] = basis.vectors
    mv[:, :n] = gram @ basis.vectors
    provenance = list(basis.provenance)
    records: list[ExtensionRecord] = []

    for rank, snap in enumerate(snapshots):
        u = np.asarray(snap.coefficients, dtype=float)
        if u.shape != (system.dof_count,):
            raise DimensionError(
                f"snapshot has shape {u.shape}, system expects ({system.dof_count},)"
            )
        incoming = math.sqrt(max(float(u @ (gram @ u)), 0.0))
        if not math.isfinite(incoming):
            at = "" if snap.parameter is None else f", mu={snap.parameter.weights}"
            raise NumericError(f"non-finite snapshot at batch rank {rank}{at}")
        w, coeffs = u, np.zeros(n)
        for _ in range(2):
            c = mv[:, :n].T @ w
            w = w - v[:, :n] @ c
            coeffs += c
        mw = gram @ w
        rnorm = math.sqrt(max(float(w @ mw), 0.0))
        if rnorm <= DROP_TOL_DEFAULT * incoming:
            records.append(ExtensionRecord(snap.parameter, False, coeffs, incoming, rnorm))
            continue
        v[:, n], mv[:, n] = w / rnorm, mw / rnorm
        n += 1
        provenance.append(BasisVectorOrigin(snap.parameter, iteration, rank))
        row = np.append(coeffs, rnorm)
        records.append(ExtensionRecord(snap.parameter, True, row, incoming, rnorm))

    return ReducedBasis(np.ascontiguousarray(v[:, :n]), provenance), records


@dataclass(frozen=True)
class SnapshotBasis:
    """Snapshots f_0..f_{T-1} in the coordinates of one X-orthonormal basis Q,
    (dof_count, r): ``coeffs`` A = Q^T M_X F, (r, T), ``remainders``
    rho_t = ||f_t - Q a_t||_X <= DROP_TOL_DEFAULT ||f_t||_X (up to round-off,
    by the drop rule of :func:`extend`) and the direct ``norms`` ||f_t||_X;
    ``extended`` counts the columns that passed the block filter to extend.
    O(r (dof + T)) numbers in place of the dof x T snapshots, for the strong
    run, the POD width and the weak runs' sigma."""

    vectors: np.ndarray
    coeffs: np.ndarray
    remainders: np.ndarray
    norms: np.ndarray
    extended: int


def snapshot_basis(snapshots, system: AffineSystem, pool=None) -> SnapshotBasis:
    """Span snapshots, in any form `fem.ColumnBlocks` takes, by :func:`extend`;
    a given SnapshotBasis is returned as it is.  Each fixed column block, in
    column order, first takes two block passes ``F -= V ((M_X V)^T F)``
    against the current basis V, whose M_X V is formed again only after a
    block that grew it.  A column whose remainder is at most half of
    ``DROP_TOL_DEFAULT`` times its incoming X-norm is dropped: :func:`extend`
    would drop it too, as its remainder only shrinks against the larger basis
    extend sees, and the half covers round-off.  One extension per block then
    takes the rest, so Q is bitwise what extending every column gives; its
    bits depend on the fixed split and never on the worker count.  One
    :func:`fem.projection_distances` call on `pool` gives A, the remainders
    and the norms.  O(r dof) per block plus O(r dof) per column extended; a
    column with a non-finite entry or X-norm raises NumericError naming it.
    """
    if isinstance(snapshots, SnapshotBasis):
        return snapshots
    columns, gram = ColumnBlocks(snapshots), system.gram
    basis, extended = ReducedBasis.empty(system.dof_count), 0
    mv = basis.vectors  # M_X V of the empty basis
    for k, cols in enumerate(columns.slices):
        f = columns.block(k)
        # M_X has a positive diagonal, so a non-finite entry gives a non-finite norm.
        incoming = np.sqrt(np.clip(np.einsum("ij,ij->j", f, gram @ f), 0.0, None))
        finite = np.isfinite(incoming)
        if not finite.all():
            raise NumericError(f"non-finite snapshot in column {cols.start + finite.argmin()}")
        kept = range(columns.count)[cols]
        v = basis.vectors
        if v.shape[1]:
            mv = mv if mv.shape[1] == v.shape[1] else gram @ v
            for _ in range(2):
                f -= v @ (mv.T @ f)
            remainder = np.sqrt(np.clip(np.einsum("ij,ij->j", f, gram @ f), 0.0, None))
            kept = cols.start + np.flatnonzero(remainder > 0.5 * DROP_TOL_DEFAULT * incoming)
        if len(kept):
            basis, _ = extend(basis, [Snapshot(columns.column(t), None) for t in kept], system)
            extended += len(kept)
    dist, coeffs = projection_distances(basis.vectors, columns, system, pool)
    return SnapshotBasis(basis.vectors, coeffs, dist[-1], dist[0], extended)


def reduce(basis: ReducedBasis, system: AffineSystem) -> ReducedModel:
    """Project the affine operator and load onto the basis: the empty model
    grown by :func:`extend_model`."""
    empty = ReducedModel(np.empty((system.block_count, 0, 0)), np.empty(0), system.fingerprint)
    return extend_model(empty, basis, system)


def extend_model(
    model: ReducedModel, basis: ReducedBasis, system: AffineSystem
) -> ReducedModel:
    """Grow a reduced model to match an extended basis (the Galerkin projection).

    The leading block of each reduced component is carried over; only the new
    rows/columns are projected.  The new diagonal block is symmetrized to
    suppress round-off asymmetry; for admissible parameters the combined
    reduced operator is symmetric positive definite.
    """
    n_old = model.basis_size
    n_new = basis.size
    if n_new < n_old:
        raise DimensionError(f"basis shrank from {n_old} to {n_new}")
    if n_new == n_old:
        return model
    v_all = basis.vectors
    v_new = v_all[:, n_old:]
    comps = np.empty((system.block_count, n_new, n_new))
    for p, a_p in enumerate(system.components):
        apv = a_p @ v_new
        cross = v_all[:, :n_old].T @ apv  # (n_old, added)
        corner = v_new.T @ apv
        comps[p, :n_old, :n_old] = model.components[p]
        comps[p, :n_old, n_old:] = cross
        comps[p, n_old:, :n_old] = cross.T
        comps[p, n_old:, n_old:] = 0.5 * (corner + corner.T)
    load = np.concatenate([model.load, v_new.T @ system.load])
    return ReducedModel(
        components=comps,
        load=load,
        system_fingerprint=model.system_fingerprint,
    )


def prefix_model(model: ReducedModel, n: int) -> ReducedModel:
    """The reduced model of the first n basis vectors (leading blocks)."""
    if not 0 <= n <= model.basis_size:
        raise IndexError(f"prefix size {n} outside [0, {model.basis_size}]")
    return ReducedModel(
        components=model.components[:, :n, :n].copy(),
        load=model.load[:n].copy(),
        system_fingerprint=model.system_fingerprint,
    )


def solve_rom(model: ReducedModel, mu: ParameterPoint) -> np.ndarray:
    """Solve the reduced Galerkin system by dense Cholesky factorization: LAPACK's
    potrf/potrs, called as ``scipy.linalg.cho_factor``/``cho_solve`` call them
    (bitwise equal), without the wrappers' validation overhead."""
    if mu.size != model.block_count:
        raise DimensionError(
            f"parameter has {mu.size} weights, model has {model.block_count} blocks"
        )
    if model.basis_size == 0:
        return np.zeros(0)
    factor, info = dpotrf(model.matrix(mu.as_array()), lower=0, clean=0)
    if info > 0:
        raise NumericError(f"reduced operator not positive definite at mu={mu.weights}")
    x, _ = dpotrs(factor, model.load, lower=0)
    # potrf passes a +inf diagonal entry, so its factor diagonal is checked too
    if not math.isfinite(x.dot(factor.diagonal())):
        raise NumericError(f"non-finite reduced operator or solution at mu={mu.weights}")
    return x


def reconstruct(basis: ReducedBasis, coefficients: np.ndarray) -> np.ndarray:
    """Lift reduced coefficients to the full-order space: V @ c."""
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (basis.size,):
        raise DimensionError(
            f"expected {basis.size} coefficients, got shape {c.shape}"
        )
    return basis.vectors @ c


def save_artifact(model: ReducedModel, basis: ReducedBasis, path) -> Path:
    """Write the online artifact, one ``.npz`` archive of plain arrays: the 0-d
    ``format``, ``version`` and ``system_fingerprint``, ``reduced_components``
    (P, n, n), ``reduced_load`` (n,), the provenance as ``weights`` (n, P) and
    ``origins`` (n, 2: iteration, batch rank), and the estimator's triangular
    factor ``R`` if the model carries one.  Full-order vectors are not stored."""
    provenance = basis.provenance
    estimator = {} if model.estimator_data is None else {"R": model.estimator_data.R}
    with Path(path).open("wb") as handle:  # np.savez appends .npz to a name without it
        np.savez(
            handle, format=ARTIFACT_FORMAT, version=ARTIFACT_VERSION,
            system_fingerprint=model.system_fingerprint,
            reduced_components=model.components, reduced_load=model.load,
            weights=np.reshape([o.parameter.weights for o in provenance], (-1, model.block_count)),
            origins=np.array([(o.iteration, o.batch_rank) for o in provenance], int).reshape(-1, 2),
            **estimator,
        )
    return Path(path)


def _read_archive(path) -> dict:
    """Every array of the ``.npz`` archive at `path`, read without pickles."""
    key = None
    try:
        with open(path, "rb") as handle:
            if zipfile.is_zipfile(handle):  # JSON artifacts (version 3 or older) are not
                handle.seek(0)
                with np.load(handle, allow_pickle=False) as archive:
                    arrays = {}
                    for key in archive.files:  # a member not named .npy reads as bytes
                        arrays[key] = np.asarray(archive[key])
                    return arrays
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        where = "" if key is None else f" array {key!r}"
        raise ConfigurationError(f"artifact {path}{where} is unreadable: {exc}") from exc
    raise ConfigurationError(
        f"artifact {path} is not a .npz archive; rebuild it with save_artifact"
    )


def load_artifact(
    path, system: Optional[AffineSystem] = None
) -> tuple[ReducedModel, list[BasisVectorOrigin]]:
    """Read an artifact of :func:`save_artifact` for online use (solve_rom,
    estimate); a given `system` must match its content hash.  A file that is
    not an archive, an unreadable, object or missing array, another format or
    version, a foreign system, an array of the wrong shape (against P and n of
    ``reduced_components``) or kind or with non-finite entries, or ``weights``
    with a non-positive entry raises ConfigurationError naming the file and,
    where there is one, the array."""
    arrays = _read_archive(path)
    for key in ("format", "version", "system_fingerprint", "reduced_components",
                "reduced_load", "weights", "origins"):
        if key not in arrays:
            raise ConfigurationError(f"artifact {path} has no array {key!r}")
    version, fingerprint = arrays["version"].tolist(), str(arrays["system_fingerprint"])
    if arrays["format"].tolist() != ARTIFACT_FORMAT:
        raise ConfigurationError(f"not a {ARTIFACT_FORMAT} artifact: {path}")
    if version != ARTIFACT_VERSION:
        raise ConfigurationError(
            f"artifact {path} has version {version} unsupported "
            f"(expected {ARTIFACT_VERSION}); rebuild it with save_artifact"
        )
    if system is not None and system.fingerprint != fingerprint:
        raise ConfigurationError(
            f"artifact {path} was built for a different assembled system "
            f"(hash {fingerprint[:12]}... vs {system.fingerprint[:12]}...)"
        )
    shape = arrays["reduced_components"].shape
    if len(shape) != 3:
        raise ConfigurationError(f"artifact {path} holds reduced_components of shape {shape}")
    p, n = shape[:2]
    shapes = {"reduced_components": (p, n, n), "reduced_load": (n,), "weights": (n, p),
              "origins": (n, 2), "R": (1 + p * n, 1 + p * n)}
    for key in [key for key in shapes if key in arrays]:
        array, kind = arrays[key], np.integer if key == "origins" else np.floating
        if array.shape != shapes[key] or not np.issubdtype(array.dtype, kind):
            raise ConfigurationError(
                f"artifact {path} holds {key} of shape {array.shape} and type {array.dtype}, "
                f"expected {shapes[key]} and {kind.__name__}"
            )
        if not np.isfinite(array).all():
            raise ConfigurationError(f"artifact {path} holds non-finite entries in {key}")
        if key == "weights" and not (array > 0).all():
            raise ConfigurationError(f"artifact {path} holds non-positive entries in weights")
    model = ReducedModel(arrays["reduced_components"], arrays["reduced_load"], fingerprint)
    if "R" in arrays:
        from .estimator import EstimatorData

        model.estimator_data = EstimatorData(Q=None, R=arrays["R"], block_count=p)
    origins = zip(arrays["weights"].tolist(), arrays["origins"].tolist())
    return model, [BasisVectorOrigin(ParameterPoint(tuple(w)), i, r) for w, (i, r) in origins]
