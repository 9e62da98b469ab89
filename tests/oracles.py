"""Independent reference implementations used as test oracles.

These deliberately take the straightforward textbook route (plain loops,
dense factorizations, no incremental bookkeeping beyond what the algorithm
itself requires) so package results can be checked against them.
"""

from dataclasses import dataclass

import numpy as np

from batchrb import estimator, fem, rb
from batchrb.errors import ConfigurationError


def classical_weak_greedy(system, training_set, tolerance, max_basis_size=150):
    """Textbook weak greedy: argmax of the residual estimator, one snapshot
    per iteration, relative stopping rule.  Returns the selected training-set
    indices in order.
    """
    weights = np.array([mu.weights for mu in training_set])
    basis = rb.ReducedBasis.empty(system.dof_count)
    model = rb.reduce(basis, system)
    solver = estimator.RieszSolver(system)
    data = estimator.build_estimator(model, basis, system, solver=solver)
    selected = []
    delta0 = None
    while basis.size < max_basis_size:
        estimates = estimator.estimate_sweep(data, model, weights)
        current = float(estimates.max())
        if delta0 is None:
            delta0 = current
        if current <= tolerance * delta0:
            break
        pick = int(np.argmax(estimates))  # first occurrence on ties
        selected.append(pick)
        snapshot = fem.solve_fom(system, training_set[pick])
        basis, _ = rb.extend(basis, [snapshot], system)
        model = rb.extend_model(model, basis, system)
        data = estimator.build_estimator(
            model, basis, system, previous=data, solver=solver
        )
    return selected


def projection_error_dense(basis_vectors, f, gram_dense):
    """X-norm distance of f to the span of the given columns, via a dense
    Cholesky split ||g||_M = ||L^T g||_2 and least squares."""
    chol = np.linalg.cholesky(gram_dense)
    lhs = chol.T @ basis_vectors
    rhs = chol.T @ f
    if basis_vectors.shape[1] == 0:
        return float(np.linalg.norm(rhs))
    coeffs, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return float(np.linalg.norm(rhs - lhs @ coeffs))


def pod_errors_dense(snapshot_matrix, gram_dense, n_values):
    """Worst projection error onto the leading POD spaces, via a dense SVD
    of L^T S (L the Cholesky factor of the Gram matrix)."""
    chol = np.linalg.cholesky(gram_dense)
    weighted = chol.T @ snapshot_matrix
    u_mat, _, _ = np.linalg.svd(weighted, full_matrices=False)
    out = []
    for n in n_values:
        basis = u_mat[:, :n]
        residual = weighted - basis @ (basis.T @ weighted)
        out.append(float(np.linalg.norm(residual, axis=0).max()))
    return out


@dataclass(frozen=True)
class RieszDiagnostic:
    """Offline/online residual norm versus direct recomputation at one mu."""

    dual_norm_offline: float
    dual_norm_direct: float
    relative_deviation: float
    cancellation: bool


def check_riesz(data, model, basis, system, mu, solver=None):
    """The estimator's online residual norm ||R [1, -y]||_2 against a direct one.

    The direct path forms the representer of r = f - A(mu) u_rb, u_rb = V c,
    in the full-order space by linearity, z = z_f - sum_p mu_p M_X^-1 A_p
    u_rb, with `solver` (a new `estimator.RieszSolver` when None), and
    measures its X norm.  Both carry absolute round-off of a few machine
    epsilons times ||f||_{X'}, so their relative deviation grows as the
    residual shrinks.  `cancellation` is set when the online norm is below
    `estimator.CANCELLATION_RATIO` times ||f||_{X'}, where relative
    deviations of 1e-3 and more are expected.
    """
    if data.online_only:
        raise ConfigurationError("direct residual check needs full-order Riesz data")
    coeffs = rb.solve_rom(model, mu)
    u_rb = basis.vectors @ coeffs
    solver = solver or estimator.RieszSolver(system)
    z = solver.load - solver.representers(u_rb[:, None]) @ mu.as_array()
    direct = float(np.sqrt(max(z @ (system.gram @ z), 0.0)))

    y = estimator._residual_weights(mu.as_array()[None, :], coeffs[None, :])
    offline = float(estimator._dual_norms(data, y)[0])
    return RieszDiagnostic(
        dual_norm_offline=offline,
        dual_norm_direct=direct,
        relative_deviation=abs(offline - direct) / max(direct, 1e-300),
        cancellation=offline < estimator.CANCELLATION_RATIO * data.load_dual_norm,
    )
