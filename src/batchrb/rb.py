"""Reduced basis container, orthonormal extension, and Galerkin reduction.

The basis is kept X-orthonormal (X = H^1_0 seminorm metric) by two classical
Gram-Schmidt passes on matrix products, O(n dof) per snapshot.  Extension
records the expansion coefficients of every incoming snapshot with respect to
the updated basis; these rows form the lower-triangular matrix consumed by the
convergence-theory checks.  The one Galerkin projection, :func:`extend_model`,
projects only the vectors a basis gained; :func:`reduce` grows the empty model.
:func:`snapshot_basis` spans a whole snapshot set by the same extension, for
the oracle's width and strong run.
"""

from __future__ import annotations

import base64
import json
import math
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
ARTIFACT_VERSION = 2


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
    snapshot with a non-finite X-norm raises ``NumericError``.  Returns the
    extended basis, whose provenance records `iteration` and each snapshot's
    position in `snapshots` (its batch rank), and one record per snapshot.
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
            raise NumericError(f"non-finite snapshot at mu={snap.parameter.weights}")
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
    """An X-orthonormal basis Q, (dof_count, r), of the snapshots f_t in `columns`,
    with ``coeffs`` A = Q^T M_X F, the ``remainders`` rho_t = ||f_t - Q a_t||_X
    and the direct ``norms`` ||f_t||_X.  The drop rule of :func:`extend` gives
    rho_t <= DROP_TOL_DEFAULT ||f_t||_X, up to round-off."""

    columns: ColumnBlocks
    vectors: np.ndarray
    coeffs: np.ndarray
    remainders: np.ndarray
    norms: np.ndarray


def snapshot_basis(snapshots, system: AffineSystem, pool=None) -> SnapshotBasis:
    """Span snapshots, in any form `fem.ColumnBlocks` takes, by :func:`extend`.

    One extension per fixed column block, in column order, so Q's bits depend
    on that split and never on the worker count; then one
    :func:`fem.projection_distances` call on `pool` gives A, the remainders
    and the norms.  O(r dof) per snapshot; a non-finite column raises
    NumericError.
    """
    columns = ColumnBlocks(snapshots)
    basis = ReducedBasis.empty(system.dof_count)
    for cols in columns.slices:
        batch = []
        for t in range(columns.count)[cols]:
            f = columns.column(t)
            if not np.isfinite(f).all():
                raise NumericError(f"non-finite snapshot in column {t}")
            batch.append(Snapshot(f, None))
        basis, _ = extend(basis, batch, system)
    dist, coeffs = projection_distances(basis.vectors, columns, system, pool)
    return SnapshotBasis(columns, basis.vectors, coeffs, dist[-1], dist[0])


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


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict, name: str = "array") -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    dtype, shape = np.dtype(obj["dtype"]), tuple(obj["shape"])
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise ConfigurationError(
            f"{name} holds {len(raw) / dtype.itemsize:g} values, "
            f"its shape field {shape} needs {math.prod(shape)}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def save_artifact(model: ReducedModel, basis: ReducedBasis, path) -> Path:
    """Write the online artifact: reduced operators, provenance, estimator factor.

    The artifact carries everything needed for online solves and error
    estimates (reduced matrices, load, the estimator's triangular factor R)
    plus the system content hash; full-order vectors are not stored.
    """
    payload = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "block_count": model.block_count,
        "basis_size": model.basis_size,
        "system_fingerprint": model.system_fingerprint,
        "provenance": [
            {
                "weights": list(origin.parameter.weights),
                "iteration": origin.iteration,
                "batch_rank": origin.batch_rank,
            }
            for origin in basis.provenance
        ],
        "reduced_components": _encode_array(model.components),
        "reduced_load": _encode_array(model.load),
        "estimator": None,
    }
    data = model.estimator_data
    if data is not None:
        payload["estimator"] = {
            "R": _encode_array(data.R),
            "mu_min": data.bounds.mu_min,
            "mu_max": data.bounds.mu_max,
        }
    path = Path(path)
    path.write_text(json.dumps(payload))
    return path


def load_artifact(
    path, system: Optional[AffineSystem] = None
) -> tuple[ReducedModel, list[BasisVectorOrigin]]:
    """Read an artifact written by :func:`save_artifact`.

    If `system` is given, its content hash must match the one stored in the
    artifact.  The returned model supports online operations (solve_rom,
    estimate); operations needing full-order data are unavailable.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ConfigurationError(f"not a {ARTIFACT_FORMAT} artifact: {path}")
    if payload.get("version") != ARTIFACT_VERSION:
        raise ConfigurationError(
            f"artifact version {payload.get('version')} unsupported "
            f"(expected {ARTIFACT_VERSION}); rebuild it with save_artifact"
        )
    if system is not None and system.fingerprint != payload["system_fingerprint"]:
        raise ConfigurationError(
            "artifact was built for a different assembled system "
            f"(hash {payload['system_fingerprint'][:12]}... vs "
            f"{system.fingerprint[:12]}...)"
        )
    est = payload.get("estimator") or {}
    p, n = int(payload["block_count"]), int(payload["basis_size"])
    shapes = {"reduced_components": (p, n, n), "reduced_load": (n,)}
    arrays = {k: _decode_array(payload[k], f"{k} of artifact {path}") for k in shapes}
    if est:
        shapes["R"] = (1 + p * n, 1 + p * n)
        arrays["R"] = _decode_array(est["R"], f"R of artifact {path}")
    for key, array in arrays.items():
        if array.shape != shapes[key]:
            raise ConfigurationError(
                f"artifact {path} holds {key} of shape {array.shape}, "
                f"expected {shapes[key]}"
            )
        if not np.isfinite(array).all():
            raise ConfigurationError(f"artifact {path} holds non-finite entries in {key}")
    model = ReducedModel(
        components=arrays["reduced_components"],
        load=arrays["reduced_load"],
        system_fingerprint=payload["system_fingerprint"],
    )
    if est:
        from .estimator import EffectivityBounds, EstimatorData

        bounds = EffectivityBounds(mu_min=est["mu_min"], mu_max=est["mu_max"])
        model.estimator_data = EstimatorData(
            Q=None,
            R=arrays["R"],
            block_count=p,
            bounds=bounds,
        )
    if len(payload["provenance"]) != n:
        raise ConfigurationError(
            f"artifact {path} holds {len(payload['provenance'])} provenance entries "
            f"for {n} basis vectors"
        )
    provenance = [
        BasisVectorOrigin(
            parameter=ParameterPoint(tuple(entry["weights"])),
            iteration=int(entry["iteration"]),
            batch_rank=int(entry["batch_rank"]),
        )
        for entry in payload["provenance"]
    ]
    return model, provenance
