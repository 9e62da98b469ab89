"""Convergence-rate constants, width surrogates, and empirical bound checks.

The greedy drivers record a lower triangular coefficient matrix ``A`` whose
row ``n`` holds the expansion of the ``n``-th accepted snapshot in the
orthonormal basis built so far.  Writing ``sigma_n`` for the worst projection
error over the training set after ``n`` basis vectors, ``d_n`` for the
Kolmogorov width of the solution set, ``b`` for the batch size, and ``gamma``
for the weakness constant of the selection rule, the run satisfies

* (P1)  ``gamma * sigma_{n+b-1} <= |a_{n,n}| <= sigma_n``,
* (P2)  ``sum_{j=n}^{m} a_{m,j}**2 <= sigma_n**2`` for every ``m >= n``,

together with product, square-root-width, and rate bounds derived from them.
This module evaluates those bounds numerically.  Exact widths are replaced by
the computable POD surrogate ``d_up >= d_n``, from the SVD of the snapshots'
coordinates in one X-orthonormal basis (`rb.snapshot_basis`), so every check
is a one-sided necessary condition: a failure indicates an implementation
bug, never a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, InsufficientDataError
from .fem import _tail_squares
from .rb import snapshot_basis

#: Additive slack for the coefficient-matrix properties, applied after
#: normalizing by sigma_0 so the tolerance is scale-free.
PROPERTY_SLACK = 1e-10

#: Multiplicative slack for the theorem inequalities (they are exact
#: statements, so only rounding has to be absorbed).
BOUND_SLACK = 1e-8

#: Search window for a free decay exponent.
ALPHA_RANGE = (0.2, 2.0)

#: Fitted decay rates at or below this value count as "not decaying".
DECAY_FLOOR = 1e-10

#: Largest number K of consecutive sigmas in a checked product bound.
PRODUCT_MAX_K = 6


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of ``values[n] ~ C * exp(-c * n**alpha)``.

    ``residual`` is the root-mean-square misfit of ``log(values)``;
    ``is_decaying`` is False when the fitted rate ``c`` is numerically zero
    (or negative), i.e. the data does not actually decay.
    """

    C: float
    c: float
    alpha: float
    residual: float
    is_decaying: bool


@dataclass(frozen=True)
class WidthSurrogate:
    """POD-based upper bounds on the widths of a discrete snapshot set.

    ``d_up[n]`` is the worst X-norm distance of any training snapshot to the
    span of the first ``n`` POD modes, hence an upper bound for the width of
    the discrete set.  ``rank`` is the number of modes, the size of the
    snapshot basis.
    """

    d_up: np.ndarray
    rank: int


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one empirical bound check.

    ``worst_margin`` is the smallest remaining slack (bound side minus
    quantity side) over all checked instances; the check passes when it is
    nonnegative.  ``context`` records the parameters of the worst instance.
    """

    name: str
    status: str  # "pass" | "fail" | "insufficient-data"
    worst_margin: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        """The report's JSON form; a non-finite margin (insufficient data) reads null."""
        margin = float(self.worst_margin)
        return {
            "name": self.name,
            "status": self.status,
            "worst_margin": margin if math.isfinite(margin) else None,
            "context": dict(self.context),
        }


def pod_width_upper_bound(all_snapshots, system) -> WidthSurrogate:
    """Certified width upper bounds from POD of the snapshot set.

    Takes a :class:`rb.SnapshotBasis`, or builds one inline from any form
    `fem.ColumnBlocks` takes.  With f_t = Q a_t + r_t and the SVD A = U S W^T,
    the modes QU are X-orthonormal and ``d_up[n]**2`` is the largest
    ``rho_t**2 + sum_{j >= n} (S W^T)_{jt}**2``, accumulated from the last
    mode back: the worst X-distance of a snapshot to the leading n modes, up
    to O(eps ||f||_X).  ``d_up[0]`` is the largest direct X-norm.
    """
    basis = snapshot_basis(all_snapshots, system)
    rank, count = basis.coeffs.shape
    _, singular, wt = np.linalg.svd(basis.coeffs, full_matrices=False)
    squares = _tail_squares(basis.remainders**2, singular[:, None] * wt)
    d_up = np.empty(count + 1)
    d_up[: rank + 1] = np.sqrt(squares.max(axis=1))
    d_up[0] = basis.norms.max()
    # Beyond the available modes the projection space stops growing.
    d_up[rank + 1 :] = d_up[rank]
    return WidthSurrogate(d_up=d_up, rank=rank)


def empirical_gamma(trace, sigma) -> float:
    """Largest weakness constant for which the run is a valid weak greedy.

    Returns ``min_n |a_{n,n}| / sigma_n`` over the accepted steps, skipping
    steps where ``sigma_n`` vanishes, capped at 1.
    """
    diag = np.abs(np.diag(trace.amatrix))
    sig = np.asarray(sigma, dtype=float)
    if sig.size < diag.size:
        raise DimensionError(
            f"need sigma for every accepted step: got {sig.size} values "
            f"for {diag.size} steps"
        )
    sig = sig[: diag.size]
    valid = sig > 0.0
    if diag.size == 0 or not np.any(valid):
        return 1.0
    return float(min(np.min(diag[valid] / sig[valid]), 1.0))


def _normalized(sigma) -> np.ndarray:
    sig = np.asarray(sigma, dtype=float)
    if sig.size == 0 or not sig[0] > 0.0:
        raise InsufficientDataError("sigma must start with a positive value")
    return sig / sig[0]


def check_P1(trace, sigma, gamma) -> CheckReport:
    """Verify the diagonal bounds (P1) for every accepted step.

    Checks ``gamma * sigma_{n+b-1} <= |a_{n,n}| <= sigma_n`` with an additive
    slack of ``PROPERTY_SLACK`` after normalizing everything by ``sigma_0``.
    Indices beyond the computed sigma range fall back to the last available
    value.
    """
    b = trace.batch_size
    try:
        sig = _normalized(sigma)
    except InsufficientDataError:
        return CheckReport("P1", "insufficient-data", math.nan, {"b": b})
    scale = float(np.asarray(sigma, dtype=float)[0])
    diag = np.abs(np.diag(trace.amatrix)) / scale
    last = sig.size - 1
    worst = math.inf
    worst_n = None
    for n in range(diag.size):
        upper = sig[min(n, last)] + PROPERTY_SLACK - diag[n]
        lower = diag[n] + PROPERTY_SLACK - gamma * sig[min(n + b - 1, last)]
        margin = min(upper, lower)
        if margin < worst:
            worst, worst_n = margin, n
    if worst_n is None:
        return CheckReport("P1", "insufficient-data", math.nan, {"b": b})
    status = "pass" if worst >= 0.0 else "fail"
    context = {"n": worst_n, "b": b, "gamma": float(gamma), "alpha": None}
    return CheckReport("P1", status, worst, context)


def check_P2(trace, sigma) -> CheckReport:
    """Verify the row-tail bounds (P2) for all pairs ``m >= n``.

    Checks ``sum_{j=n}^{m} a_{m,j}**2 <= sigma_n**2`` (squared form) with an
    additive slack of ``PROPERTY_SLACK`` after normalizing by ``sigma_0``.
    """
    b = trace.batch_size
    try:
        sig = _normalized(sigma)
    except InsufficientDataError:
        return CheckReport("P2", "insufficient-data", math.nan, {"b": b})
    scale = float(np.asarray(sigma, dtype=float)[0])
    matrix = trace.amatrix / scale
    last = sig.size - 1
    worst = math.inf
    worst_pair = None
    for m in range(matrix.shape[0]):
        row = matrix[m, : m + 1]
        # suffix[n] = sum_{j=n}^{m} a_{m,j}^2
        suffix = np.cumsum(row[::-1] ** 2)[::-1]
        bound = sig[np.minimum(np.arange(m + 1), last)] ** 2 + PROPERTY_SLACK
        margins = bound - suffix
        n = int(np.argmin(margins))
        if margins[n] < worst:
            worst, worst_pair = float(margins[n]), (n, m)
    if worst_pair is None:
        return CheckReport("P2", "insufficient-data", math.nan, {"b": b})
    status = "pass" if worst >= 0.0 else "fail"
    context = {
        "n": worst_pair[0],
        "m": worst_pair[1],
        "b": b,
        "gamma": None,
        "alpha": None,
    }
    return CheckReport("P2", status, worst, context)


def bound_theorem_product(N, K, m, b, gamma, sigma, d_up) -> CheckReport:
    """Check the product bound for one index combination.

    Evaluates ``prod_{i=1}^{K} sigma_{N+b-1+i}**2`` against
    ``gamma**(-2K) * (K/m)**m * (K/(K-m))**(K-m) * sigma_{N+1}**(2m)
    * d_up[m]**(2(K-m))``.  Both sides scale identically, so no
    normalization is needed; the right side gets a relative slack of
    ``BOUND_SLACK``.
    """
    if N < 0 or K < 1 or b < 1 or not 1 <= m < K:
        raise IndexError(f"invalid index combination N={N}, K={K}, m={m}, b={b}")
    sig = np.asarray(sigma, dtype=float)
    d = np.asarray(d_up, dtype=float)
    if N + b - 1 + K >= sig.size or N + 1 >= sig.size:
        raise IndexError(
            f"sigma has {sig.size} entries; need index {N + b - 1 + K}"
        )
    if m >= d.size:
        raise IndexError(f"d_up has {d.size} entries; need index {m}")
    lhs = float(np.prod(sig[N + b : N + b + K] ** 2))
    rhs = (
        gamma ** (-2 * K)
        * (K / m) ** m
        * (K / (K - m)) ** (K - m)
        * sig[N + 1] ** (2 * m)
        * d[m] ** (2 * (K - m))
    )
    margin = rhs * (1.0 + BOUND_SLACK) - lhs
    status = "pass" if margin >= 0.0 else "fail"
    context = {
        "N": int(N),
        "K": int(K),
        "m": int(m),
        "b": int(b),
        "gamma": float(gamma),
        "alpha": None,
    }
    return CheckReport("product-bound", status, float(margin), context)


def bound_sqrt_width(n, b, gamma, sigma, d_up) -> CheckReport:
    """Check the square-root width bound at one index ``n``.

    Verifies ``sigma_{2n+b-1} <= sqrt(2)/gamma * sqrt(d_up[n])`` and, for
    ``n >= 2``, the general form ``sigma_{n+b-1} <= sqrt(2)/gamma *
    min_{1<=m<n} d_up[m]**((n-m)/n)``.  Both require the normalization
    ``sigma_0 <= 1``, so sigma and d_up are rescaled by ``sigma_0`` first.
    """
    if n < 1 or b < 1:
        raise IndexError(f"invalid indices n={n}, b={b}")
    sig = _normalized(sigma)
    raw = np.asarray(sigma, dtype=float)
    d = np.asarray(d_up, dtype=float) / raw[0]
    if 2 * n + b - 1 >= sig.size:
        raise IndexError(f"sigma has {sig.size} entries; need index {2 * n + b - 1}")
    if n >= d.size:
        raise IndexError(f"d_up has {d.size} entries; need index {n}")
    factor = math.sqrt(2.0) / gamma
    particular = factor * math.sqrt(d[n]) * (1.0 + BOUND_SLACK) - sig[2 * n + b - 1]
    worst = particular
    if n >= 2:
        ms = np.arange(1, n)
        general_bound = factor * float(np.min(d[ms] ** ((n - ms) / n)))
        general = general_bound * (1.0 + BOUND_SLACK) - sig[n + b - 1]
        worst = min(worst, general)
    status = "pass" if worst >= 0.0 else "fail"
    context = {"n": int(n), "b": int(b), "gamma": float(gamma), "alpha": None}
    return CheckReport("sqrt-width-bound", status, float(worst), context)


def constant_C1_polynomial(n, b, alpha, gamma, C0) -> float:
    """Rate constant for polynomial width decay ``d_n <= C0 * n**(-alpha)``.

    Returns ``max(C0 * 2**(alpha+1) * gamma**(-2) * ceil(4+(b-1)/n)**(2*alpha),
    (b+2)**alpha)``, the prefactor in ``sigma_n <= C1(n, b) * n**(-alpha)``.
    """
    if n < 1 or b < 1:
        raise DomainError(f"n={n} and b={b} must be at least 1")
    if alpha <= 0 or gamma <= 0 or C0 <= 0:
        raise DomainError("alpha, gamma, and C0 must be positive")
    ceil_term = 4 + -(-(b - 1) // n)
    first = C0 * 2.0 ** (alpha + 1) * gamma**-2 * float(ceil_term) ** (2 * alpha)
    second = float(b + 2) ** alpha
    return max(first, second)


def constant_c1_exponential(n, b, alpha, c0, C1) -> float:
    """Rate constant for exponential width decay ``d_n <= C0 * exp(-c0 * n**alpha)``.

    Returns ``min(c0 * 2**(-(alpha+1)) * ceil(2+(b-1)/n)**(-alpha),
    log(C1) * b**(-alpha))``, the exponent coefficient in
    ``sigma_n <= C1 * exp(-c1(n, b) * n**alpha)`` with ``C1 = sqrt(2*C0)/gamma``
    supplied by the caller.  A value ``C1 <= 1`` makes the second branch
    nonpositive; the result is then nonpositive and the bound vacuous, which
    callers should flag rather than treat as an error.
    """
    if n < 1 or b < 1:
        raise DomainError(f"n={n} and b={b} must be at least 1")
    if alpha <= 0 or c0 <= 0 or C1 <= 0:
        raise DomainError("alpha, c0, and C1 must be positive")
    ceil_term = 2 + -(-(b - 1) // n)
    first = c0 * 2.0 ** (-(alpha + 1)) * float(ceil_term) ** (-alpha)
    second = math.log(C1) * float(b) ** (-alpha)
    return min(first, second)


def _log_linear_fit(log_values: np.ndarray, powers: np.ndarray):
    """Solve ``log v = logC - c * powers`` in the least-squares sense."""
    design = np.column_stack([np.ones_like(powers), -powers])
    coefficients, *_ = np.linalg.lstsq(design, log_values, rcond=None)
    misfit = log_values - design @ coefficients
    rms = float(np.sqrt(np.mean(misfit**2)))
    return coefficients[0], coefficients[1], rms


def fit_exponential(values, ns=None) -> DecayFit:
    """Fit ``values[k] ~ C * exp(-c * ns[k]**alpha)`` in log space.

    The exponent is found by a bounded scalar search over ``ALPHA_RANGE``
    minimizing the residual of the linear least-squares fit in
    ``(log C, c)``.  ``ns`` defaults to ``0, 1, ..., len(values)-1``.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise DimensionError(f"values must be one-dimensional, got shape {vals.shape}")
    if vals.size < 4:
        raise InsufficientDataError(
            f"need at least 4 values to fit a decay rate, got {vals.size}"
        )
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise DomainError("decay fitting requires positive finite values")
    if ns is None:
        points = np.arange(vals.size, dtype=float)
    else:
        points = np.asarray(ns, dtype=float)
        if points.shape != vals.shape:
            raise DimensionError(
                f"ns has shape {points.shape}, values has shape {vals.shape}"
            )
    log_values = np.log(vals)

    from scipy.optimize import minimize_scalar

    result = minimize_scalar(
        lambda a: _log_linear_fit(log_values, points**a)[2],
        bounds=ALPHA_RANGE,
        method="bounded",
        options={"xatol": 1e-10},
    )
    exponent = float(result.x)
    log_c, rate, rms = _log_linear_fit(log_values, points**exponent)
    return DecayFit(
        C=float(np.exp(log_c)),
        c=float(rate),
        alpha=exponent,
        residual=rms,
        is_decaying=bool(rate > DECAY_FLOOR),
    )


def _fit_polynomial(values: np.ndarray, ns: np.ndarray):
    """Fit ``values ~ C0 * ns**(-alpha)``; returns (C0, alpha, rms)."""
    log_c, alpha, rms = _log_linear_fit(np.log(values), np.log(ns))
    return float(np.exp(log_c)), float(alpha), rms


def check_rate_bounds(sigma, d_up, b, gamma) -> CheckReport:
    """Verify the fitted polynomial and exponential rate bounds.

    Fits the width surrogate with both decay models, evaluates the
    corresponding bounds on ``sigma_n`` for every recorded ``n >= 1``, and
    allows a fit-quality slack: each bound is multiplied by
    ``1 + 3 * (rms log misfit)``.  Everything is normalized by
    ``sigma_0`` first.  Fewer than four positive sigma values yield an
    insufficient-data report.
    """
    raw_sigma = np.asarray(sigma, dtype=float)
    if raw_sigma.size == 0 or not raw_sigma[0] > 0.0:
        return CheckReport("rate-bounds", "insufficient-data", math.nan, {"b": b})
    if np.count_nonzero(raw_sigma > 0.0) < 4:
        return CheckReport(
            "rate-bounds",
            "insufficient-data",
            math.nan,
            {"b": b, "gamma": float(gamma)},
        )
    sig = raw_sigma / raw_sigma[0]
    d = np.asarray(d_up, dtype=float) / raw_sigma[0]

    # Fit over n >= 1, dropping the numerically-zero tail past the rank.
    ns_all = np.arange(1, d.size, dtype=float)
    d_tail = d[1:]
    keep = d_tail > max(d[0], 1.0) * 1e-12
    if np.count_nonzero(keep) < 4:
        return CheckReport(
            "rate-bounds",
            "insufficient-data",
            math.nan,
            {"b": b, "gamma": float(gamma)},
        )
    ns_fit = ns_all[keep]
    d_fit = d_tail[keep]

    exp_fit = fit_exponential(d_fit, ns=ns_fit)
    C1_exp = math.sqrt(2.0 * exp_fit.C) / gamma
    exp_mult = 1.0 + 3.0 * exp_fit.residual
    C0_poly, alpha_poly, rms_poly = _fit_polynomial(d_fit, ns_fit)
    poly_mult = 1.0 + 3.0 * rms_poly
    degenerate = C1_exp <= 1.0 or not exp_fit.is_decaying

    worst = math.inf
    worst_n = None
    first_violation = None
    for n in range(1, sig.size):
        poly_bound = (
            constant_C1_polynomial(n, b, alpha_poly, gamma, C0_poly)
            * float(n) ** (-alpha_poly)
            * poly_mult
        )
        margins = [poly_bound - sig[n]]
        if not degenerate:
            c1 = constant_c1_exponential(n, b, exp_fit.alpha, exp_fit.c, C1_exp)
            if c1 > 0.0:
                exp_bound = C1_exp * math.exp(-c1 * float(n) ** exp_fit.alpha)
                margins.append(exp_bound * exp_mult - sig[n])
        margin = min(margins)
        if margin < worst:
            worst, worst_n = margin, n
        if margin < 0.0 and first_violation is None:
            first_violation = n
    status = "pass" if worst >= 0.0 else "fail"
    context = {
        "n": worst_n,
        "b": int(b),
        "gamma": float(gamma),
        "alpha": exp_fit.alpha,
        "polynomial": {
            "C0": C0_poly,
            "alpha": alpha_poly,
            "residual": rms_poly,
            "multiplier": poly_mult,
        },
        "exponential": {
            "C1": C1_exp,
            "c0": exp_fit.c,
            "alpha": exp_fit.alpha,
            "residual": exp_fit.residual,
            "multiplier": exp_mult,
            "degenerate": degenerate,
        },
    }
    if first_violation is not None:
        context["first_violation"] = first_violation
    return CheckReport("rate-bounds", status, float(worst), context)


def _aggregate(name: str, reports: Sequence[CheckReport], extra=None) -> CheckReport:
    if not reports:
        return CheckReport(name, "insufficient-data", math.nan, dict(extra or {}))
    worst = min(reports, key=lambda rep: rep.worst_margin)
    status = "pass" if all(rep.passed for rep in reports) else "fail"
    context = dict(worst.context)
    context.update(extra or {})
    return CheckReport(name, status, worst.worst_margin, context)


def run_theory_checks(trace, sigma, d_up, gamma=None) -> list[CheckReport]:
    """Run the full empirical check suite for one greedy run.

    Covers (P1), (P2), the product bound over all admissible ``(N, K, m)``
    with ``K <= PRODUCT_MAX_K``, the square-root width bound over all admissible
    ``n``, and the fitted rate bounds.  ``gamma`` defaults to the empirical
    weakness constant of the run.
    """
    b = trace.batch_size
    if gamma is None:
        gamma = empirical_gamma(trace, sigma)
    sig = np.asarray(sigma, dtype=float)
    d = np.asarray(d_up, dtype=float)
    last = sig.size - 1

    reports = [check_P1(trace, sigma, gamma), check_P2(trace, sigma)]

    product = []
    for K in range(2, PRODUCT_MAX_K + 1):
        for N in range(0, last - (b - 1) - K + 1):
            for m in range(1, min(K, d.size)):
                product.append(bound_theorem_product(N, K, m, b, gamma, sigma, d_up))
    reports.append(_aggregate("product-bound", product, {"gamma": float(gamma)}))

    width = []
    n = 1
    while 2 * n + b - 1 <= last and n < d.size:
        width.append(bound_sqrt_width(n, b, gamma, sigma, d_up))
        n += 1
    reports.append(_aggregate("sqrt-width-bound", width, {"gamma": float(gamma)}))

    reports.append(check_rate_bounds(sigma, d_up, b, gamma))
    return reports
