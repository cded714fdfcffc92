"""Shape-parameter estimators for heavy-tailed samples.

Five estimators are provided:

* :func:`estimate_pareto_ml` - closed-form maximum likelihood for Pareto
  Type I samples: ``mu_hat = min(z)`` and ``xi_hat = mean(log(z / mu_hat))``.
* :func:`estimate_pwm` - probability-weighted moments for the zero-location
  GPD, using plotting positions ``(j - offset)/n`` on the order statistics.
* :func:`estimate_zhang_stephens` - the Zhang-Stephens empirical-Bayes fit of
  the zero-location GPD, a likelihood-weighted average over a data-driven grid
  of ``theta = xi/sigma`` values; always yields a finite estimate.
* :func:`estimate_gpd_mle` - numerical maximum likelihood for the
  zero-location GPD via the one-dimensional profile over ``theta = xi/sigma``.
* :func:`estimate_hill` - mean log-ratio of the k largest observations to the
  (k+1)-th largest, i.e. Pareto maximum likelihood on the top of the sample.

All estimators are pure functions of their input sample and are safe to call
concurrently.

Each estimator has one numerical implementation, a private row kernel that
fits a 2-D array of equal-length samples, one sample per row; the public
functions above check their input, call the kernel with a single row and wrap
its result.  :func:`tailshape.pot.fit_all` and the replication engine call the
kernels on whole stacks of samples.  Every ``log1p`` temporary of a profile
likelihood (the Zhang-Stephens grid and the GPD ML scan) is evaluated in
blocks of at most :data:`ELEMENT_BUDGET` elements, over (row, grid point)
pairs, so its memory does not grow with the number of rows or the sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# elements in one log1p temporary of a profile likelihood (256 KiB of float64):
# the GPD ML scan of 200 points over k = 100 excesses stays one block
ELEMENT_BUDGET = 2**15

__all__ = [
    "EstimatorId",
    "EstimationError",
    "PwmSingularityError",
    "FitResult",
    "PlottingPosition",
    "estimate_pareto_ml",
    "estimate_pwm",
    "estimate_zhang_stephens",
    "estimate_gpd_mle",
    "estimate_hill",
]


class EstimatorId(str, Enum):
    """Stable identifiers for the estimators handled by the toolkit."""

    PARETO_ML = "pareto_ml"
    PWM = "pwm"
    ZHANG_STEPHENS = "zhang_stephens"
    GPD_MLE = "gpd_mle"
    HILL = "hill"
    TRANSFORMED_ZS = "transformed_zs"
    TRANSFORMED_PWM = "transformed_pwm"


class EstimationError(RuntimeError):
    """An estimator failed for a structural reason (degenerate input,
    singular denominator); distinct from invalid-argument errors."""


class PwmSingularityError(EstimationError):
    """The probability-weighted-moment denominator a0 - 2*a1 is not positive."""


@dataclass(frozen=True)
class PlottingPosition:
    """Empirical-CDF ordinate ``(j - offset)/n`` for the j-th order statistic."""

    offset: float = 0.35

    def __post_init__(self) -> None:
        if not (math.isfinite(self.offset) and 0.0 <= self.offset < 1.0):
            raise ValueError(f"plotting offset must lie in [0, 1), got {self.offset}")

    def positions(self, n: int) -> np.ndarray:
        return (np.arange(1, n + 1) - self.offset) / n


@dataclass
class FitResult:
    """A fitted shape parameter with optional scale/location and diagnostics.

    ``diagnostics`` maps stable names to floats.  Keys used by this package:
    ``converged`` (1.0/0.0, profile likelihood optimizers),
    ``optimizer_iterations`` (profile-score evaluations of the GPD MLE root
    refinement, one per Newton or bisection step), ``clamp_count`` (transform
    pipelines), ``alpha_transformed`` (1/xi of a transformed fit), ``theta``
    (profile maximizer xi/sigma), ``grid_size``.
    """

    xi_hat: float
    sigma_hat: float | None
    mu_hat: float | None
    estimator: EstimatorId
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.xi_hat):
            raise ValueError(f"xi_hat must be finite, got {self.xi_hat}")
        if self.sigma_hat is not None and not (
            math.isfinite(self.sigma_hat) and self.sigma_hat > 0
        ):
            raise ValueError(f"sigma_hat must be positive when present, got {self.sigma_hat}")


def _clean_sample(values, min_size: int = 2) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < min_size:
        raise ValueError(f"need at least {min_size} observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def estimate_pareto_ml(z) -> FitResult:
    """Closed-form Pareto Type I maximum likelihood fit.

    Requires strictly positive observations.  ``xi_hat`` is non-negative and
    zero exactly when all observations are equal.
    """
    arr = _clean_sample(z)
    if np.any(arr <= 0):
        raise ValueError("Pareto ML requires strictly positive observations")
    xi, mu = _pareto_ml_rows(arr[None, :])
    return FitResult(float(xi[0]), None, float(mu[0]), EstimatorId.PARETO_ML)


def _pareto_ml_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row kernel of :func:`estimate_pareto_ml`: ``(xi_hat, mu_hat)`` per row."""
    mu = z.min(axis=1)
    ratio = z / mu[:, None]
    return np.log(ratio, out=ratio).mean(axis=1), mu


def estimate_pwm(excesses, pos: PlottingPosition = PlottingPosition()) -> FitResult:
    """Probability-weighted-moment fit of the zero-location GPD.

    With sorted excesses x_(1) <= ... <= x_(n) and p_j the plotting positions,
    a0 is the sample mean and a1 = mean((1 - p_j) * x_(j)); then

        xi_hat = 2 - a0 / (a0 - 2*a1),  sigma_hat = 2*a0*a1 / (a0 - 2*a1).

    Raises :class:`PwmSingularityError` when a0 - 2*a1 <= 0 (only possible for
    an all-zero sample); callers decide how to account for such failures.
    """
    arr = _clean_sample(excesses)
    if np.any(arr < 0):
        raise ValueError("PWM requires non-negative excesses")
    xi, sigma, a0, a1, denom = (float(v[0]) for v in _pwm_rows(np.sort(arr)[None, :], pos))
    if denom <= 0:
        raise PwmSingularityError(
            f"probability-weighted-moment denominator a0 - 2*a1 = {denom} is not positive"
        )
    return FitResult(xi, sigma, None, EstimatorId.PWM, {"a0": a0, "a1": a1})


def _pwm_rows(srt: np.ndarray, pos: PlottingPosition) -> tuple[np.ndarray, ...]:
    """Row kernel of :func:`estimate_pwm` on sorted rows:
    ``(xi_hat, sigma_hat, a0, a1, a0 - 2*a1)`` per row.  Rows whose
    denominator is not positive get meaningless shape and scale values."""
    p = pos.positions(srt.shape[1])
    a0 = srt.mean(axis=1)
    a1 = ((1.0 - p) * srt).mean(axis=1)
    denom = a0 - 2.0 * a1
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 - a0 / denom, 2.0 * a0 * a1 / denom, a0, a1, denom


def _profile_xi(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inner ML solution xi(theta) = mean(log1p(theta * x)) per row and grid point.

    ``theta`` holds one row of grid points per sample row of ``x``.  The
    (row, grid point, observation) temporary is evaluated in blocks of at most
    ELEMENT_BUDGET elements: whole rows at a time while a row's grid fits the
    budget, else part of one row's grid at a time.
    """
    rows, grid = theta.shape
    n = x.shape[1]
    per_block = min(grid, max(1, ELEMENT_BUDGET // n))
    row_step = max(1, ELEMENT_BUDGET // (grid * n))
    out = np.empty((rows, grid))
    for a in range(0, rows, row_step):
        for g in range(0, grid, per_block):
            t = theta[a : a + row_step, g : g + per_block, None] * x[a : a + row_step, None, :]
            out[a : a + row_step, g : g + per_block] = np.log1p(t, out=t).mean(axis=2)
    return out


def _profile_loglik(theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-location GPD log-likelihood profiled over the scale.

    For fixed theta = xi/sigma the likelihood is maximized by
    xi(theta) = mean(log1p(theta * x)), giving

        l(theta) = n * (log(theta / xi(theta)) - xi(theta) - 1).

    ``theta`` holds grid points for one sample ``x``, or one row of grid
    points per row of a 2-D ``x``.  theta and xi(theta) always share a sign,
    so the log argument is positive; invalid points (theta = 0 or xi = 0) are
    mapped to -inf.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if x.ndim == 1:
        xi = _profile_xi(theta[None, :], x[None, :])[0]
    else:
        xi = _profile_xi(theta, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.divide(theta, xi)
        np.log(ll, out=ll)
        ll -= xi
        ll -= 1.0
        ll *= x.shape[-1]
    ll[~np.isfinite(ll)] = -np.inf
    return ll, xi


def estimate_zhang_stephens(excesses) -> FitResult:
    """Empirical-Bayes fit of the zero-location GPD.

    The profile likelihood over theta = xi/sigma is averaged with likelihood
    weights over the data-driven grid

        theta_j = -1/x_(n) + (sqrt(m/(j - 0.5)) - 1) / (3 * x*),  j = 1..m,

    with m = 20 + floor(sqrt(n)) and x* the ceil(n/4 + 0.5)-th order
    statistic.  The weighted theta_hat then gives
    xi_hat = mean(log1p(theta_hat * x)) and sigma_hat = xi_hat / theta_hat.
    Every grid point satisfies theta > -1/x_(n), so the estimate exists and is
    finite for any sample with a positive maximum, unless the grid or
    theta * x overflows, which takes x* below about 1e-308 or x_(n) / x*
    above about 1e308; the fit then fails.
    """
    y = np.sort(_clean_sample(excesses))
    if y[0] < 0:
        raise ValueError("Zhang-Stephens requires non-negative excesses")
    if y[-1] <= 0:
        raise EstimationError("Zhang-Stephens is undefined for an all-zero sample")
    xi, sigma, theta, m = _zhang_stephens_rows(y[None, :])
    if xi[0] == 0.0:
        raise EstimationError("Zhang-Stephens produced a degenerate zero estimate")
    return FitResult(
        float(xi[0]),
        float(sigma[0]),
        None,
        EstimatorId.ZHANG_STEPHENS,
        {"theta": float(theta[0]), "grid_size": float(m)},
    )


def _zhang_stephens_rows(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Row kernel of :func:`estimate_zhang_stephens` on sorted rows with at
    least two observations: ``(xi_hat, sigma_hat, theta_hat)`` per row and the
    grid size.
    Rows that are not non-negative with a positive maximum, or whose xi_hat
    is zero, get meaningless values."""
    n = y.shape[1]
    m = 20 + math.isqrt(n)
    quart = y[:, (n + 5) // 4 - 1]  # ceil(n/4 + 0.5)-th order statistic, 1-indexed
    zero_heavy = quart <= 0
    if zero_heavy.any():
        # fall back to the smallest positive value so the grid stays finite;
        # the estimate remains well defined
        quart = np.where(zero_heavy, np.where(y > 0, y, np.inf).min(axis=1), quart)
    j = np.arange(1, m + 1)
    theta_grid = -1.0 / y[:, -1:] + (np.sqrt(m / (j - 0.5)) - 1.0) / (3.0 * quart[:, None])
    ll, _ = _profile_loglik(theta_grid, y)
    w = np.exp(ll - ll.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    # one BLAS dot per row: a sum along an axis would round differently
    theta = np.matmul(w[:, None, :], theta_grid[:, :, None])[:, 0, 0]
    t = theta[:, None] * y
    xi = np.log1p(t, out=t).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return xi, xi / theta, theta, m


def _profile_score(theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivative g of the profile log-likelihood with respect to u = log(theta),
    divided by n, and its derivative dg/du, for one theta per row of ``x``.

    With t = theta*x, xi = mean(log1p(t)), d = mean(t/(1+t)) and
    d' = mean(t/(1+t)^2),

        g = 1 - d/xi - d,  dg/du = -(d'*xi - d^2)/xi^2 - d'.

    g is positive left of the interior maximum and negative right of it;
    locating its sign change is numerically far better conditioned than
    comparing near-equal log-likelihood values.  Where xi underflows to zero
    g is reported as +inf with slope 0, which sends a root search to bisect.
    """
    n = x.shape[1]
    # sum / n rounds exactly as mean does, without its Python overhead
    t = theta[:, None] * x
    q = np.log1p(t)
    xi = q.sum(axis=1) / n
    q = np.add(t, 1.0, out=q)  # 1 + t, in the buffer of log1p(t)
    r = np.divide(t, q, out=t)
    d = r.sum(axis=1) / n
    dd = np.divide(r, q, out=r).sum(axis=1) / n
    g = 1.0 - d / xi - d
    dg = -(dd * xi - d * d) / (xi * xi) - dd
    zero = xi == 0.0
    g[zero], dg[zero] = np.inf, 0.0
    return g, dg


def estimate_gpd_mle(excesses) -> FitResult:
    """Numerical maximum likelihood for the zero-location, heavy-tailed GPD.

    Following Grimshaw (1993), the fit is the root of the profile score in
    theta = xi/sigma on (0, 1e4/mean(x)].  200 log-spaced scan points pick the
    highest profile likelihood and bracket it by its neighbours.  A
    safeguarded Newton iteration in log(theta), started at the best scan point
    with the analytic derivative of the score, then refines the root: every
    step shrinks the bracket by the sign of the score, and a step that would
    leave the bracket (or meets a non-negative derivative) is replaced by the
    bracket midpoint.  It stops once the Newton step or the bracket is at most
    1e-13 in log(theta), or one float wide at extreme data scales.  When the
    profile is still rising at the upper end of the scan the maximum does not
    exist (theta diverging); the boundary fit is returned with ``converged``
    set to 0.0 in the diagnostics rather than silently reporting an interior
    optimum.  A sample whose mean is so small (below about 1e-304) that
    1e4/mean(x) overflows has no scan range and fails.

    ``optimizer_iterations`` counts the score evaluations of the refinement,
    one per Newton or bisection step; it is 0 when the scan alone decides the
    fit (divergence, a profile already falling at the lower bracket end, or
    one still rising at the upper end).
    """
    x = _clean_sample(excesses)
    if np.any(x < 0):
        raise ValueError("GPD MLE requires non-negative excesses")
    if x.max() <= 0:
        raise EstimationError("GPD MLE is undefined for an all-zero sample")
    xbar = float(x.mean())
    if xbar == 0.0:
        raise EstimationError("GPD MLE is undefined for a sample whose mean underflows to zero")
    if not math.isfinite(1e4 / xbar):
        raise EstimationError(f"GPD MLE scan range 1e4/mean(x) overflows at mean(x) = {xbar!r}")
    xi, theta, converged, iters = (v[0] for v in _gpd_mle_rows(x[None, :]))
    if converged and xi == 0.0:
        raise EstimationError("GPD MLE produced a degenerate zero estimate")
    return FitResult(
        float(xi),
        float(xi / theta),
        None,
        EstimatorId.GPD_MLE,
        {
            "converged": float(converged),
            "optimizer_iterations": float(iters),
            "theta": float(theta),
            "profile_loglik": float(_profile_loglik(theta, x)[0][0]),
        },
    )


def _gpd_mle_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row kernel of :func:`estimate_gpd_mle` on rows of non-negative finite
    excesses, in sample order, whose mean m has a finite 1e4/m:
    ``(xi_hat, theta_hat, converged, optimizer_iterations)`` per row.

    The scan and bracket choice run on every row at once, the Newton
    refinement on the rows still refining, each with its own bracket and
    stop width.  exp and log of single values use :mod:`math`, as the 1-D
    solver did: NumPy's vectorized ``exp`` rounds differently.
    """
    rows = np.arange(len(x))
    xbar = x.mean(axis=1)
    theta_lo, theta_hi = 1e-8 / xbar, 1e4 / xbar
    grid = np.geomspace(theta_lo, theta_hi, 200, axis=1)
    ll, _ = _profile_loglik(grid, x)
    i = ll.argmax(axis=1)
    last = grid.shape[1] - 1
    converged = ~((i == last) & (ll[:, -1] > ll[:, -2]))
    lo = np.where(i > 0, grid[rows, i - 1], theta_lo * 1e-6)
    hi = np.where(i < last, grid[rows, np.minimum(i + 1, last)], theta_hi)
    theta = np.where(converged, grid[rows, i], theta_hi)
    iters = np.zeros(len(x), dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        todo = rows[converged]
        falling = _profile_score(lo[todo], x if converged.all() else x[todo])[0] <= 0.0
        # falling already at the lower bracket: the maximum sits at the shape
        # zero boundary (i == 0) or, anomalously, at the scan point itself
        at_zero = todo[falling & (i[todo] == 0)]
        theta[at_zero] = lo[at_zero]
        todo = todo[~falling]
        # the rest rise at the lower end: refine those not rising at the upper end
        xs = x if len(todo) == len(x) else x[todo]
        todo = todo[~(_profile_score(hi[todo], xs)[0] >= 0.0)]
        # Newton state (log_lo, log_hi, u) and stop width of each refined row
        state = {
            r: (math.log(lo[r]), math.log(hi[r]), math.log(theta[r])) for r in todo.tolist()
        }
        # a bracket one float wide cannot shrink any further; beyond
        # |log(theta)| = 512 that width exceeds 1e-13
        tol = {r: max(1e-13, math.ulp(max(abs(a), abs(b)))) for r, (a, b, _) in state.items()}
        live = [r for r, (log_lo, log_hi, _) in state.items() if log_hi - log_lo > tol[r]]
        while live:
            xs = x if len(live) == len(x) else x[live]
            g, dg = _profile_score(np.array([math.exp(state[r][2]) for r in live]), xs)
            iters[live] += 1
            still = []
            for r, g_r, dg_r in zip(live, g.tolist(), dg.tolist()):
                log_lo, log_hi, u = state[r]
                if g_r > 0.0:
                    log_lo = u
                else:
                    log_hi = u
                step = -g_r / dg_r if dg_r < 0.0 else math.nan
                u += step
                if not abs(step) <= tol[r]:
                    if not log_lo < u < log_hi:  # also rejects a NaN step
                        u = 0.5 * (log_lo + log_hi)
                    if log_hi - log_lo > tol[r]:
                        still.append(r)
                state[r] = (log_lo, log_hi, u)
            live = still
        for r, (_, _, u) in state.items():
            theta[r] = math.exp(u)
        t = theta[:, None] * x
        xi = np.log1p(t, out=t).mean(axis=1)
    return xi, theta, converged, iters


def estimate_hill(x, k: int) -> FitResult:
    """Hill estimator: mean log-ratio of the k largest values to X_(n-k).

    Identical to Pareto maximum likelihood applied to the k largest
    observations with the threshold X_(n-k) playing the role of the scale,
    which must therefore be positive.  ``mu_hat`` reports the threshold.
    """
    arr = _clean_sample(x)
    if not _is_int(k) or not 1 <= k < arr.size:
        raise ValueError(f"k must satisfy 1 <= k < n = {arr.size}, got {k!r}")
    threshold, top = _top_k(arr, k)
    if threshold <= 0:
        raise ValueError("Hill estimator needs a positive threshold X_(n-k)")
    xi = _hill_rows(top[None, :], np.array([threshold]))[0]
    return FitResult(float(xi), None, float(threshold), EstimatorId.HILL, {"k": float(k)})


def _top_k(arr: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """X_(n-k) of a 1-D sample and its k largest values, sorted: one
    partition serves both, and sorted, the top k sum in the same order as in
    a full sort of the sample."""
    part = np.partition(arr, arr.size - k - 1)
    return float(part[arr.size - k - 1]), np.sort(part[arr.size - k :])


def _hill_rows(top: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Row kernel of :func:`estimate_hill`: the mean log-ratio of each row of
    sorted top values to its threshold."""
    ratio = top / threshold[:, None]
    return np.log(ratio, out=ratio).mean(axis=1)


def _is_int(value) -> bool:
    """An integer, but not a bool (which Python counts as one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
