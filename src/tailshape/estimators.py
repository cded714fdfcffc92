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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

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
    mu = float(arr.min())
    xi = float(np.mean(np.log(arr / mu)))
    return FitResult(xi, None, mu, EstimatorId.PARETO_ML)


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
    srt = np.sort(arr)
    p = pos.positions(srt.size)
    a0 = float(srt.mean())
    a1 = float(np.mean((1.0 - p) * srt))
    denom = a0 - 2.0 * a1
    if denom <= 0:
        raise PwmSingularityError(
            f"probability-weighted-moment denominator a0 - 2*a1 = {denom} is not positive"
        )
    xi = 2.0 - a0 / denom
    sigma = 2.0 * a0 * a1 / denom
    return FitResult(xi, sigma, None, EstimatorId.PWM, {"a0": a0, "a1": a1})


def _profile_xi(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inner ML solution xi(theta) = mean(log1p(theta * x)) for each theta.

    Evaluated in blocks to bound the temporary outer product for large samples.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty(theta.size)
    block = max(1, 4_000_000 // max(x.size, 1))
    for i in range(0, theta.size, block):
        out[i : i + block] = np.log1p(np.multiply.outer(theta[i : i + block], x)).mean(axis=1)
    return out


def _profile_loglik(theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-location GPD log-likelihood profiled over the scale.

    For fixed theta = xi/sigma the likelihood is maximized by
    xi(theta) = mean(log1p(theta * x)), giving

        l(theta) = n * (log(theta / xi(theta)) - xi(theta) - 1).

    theta and xi(theta) always share a sign, so the log argument is positive;
    invalid points (theta = 0 or xi = 0) are mapped to -inf.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    xi = _profile_xi(theta, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = x.size * (np.log(theta / xi) - xi - 1.0)
    return np.where(np.isfinite(ll), ll, -np.inf), xi


def estimate_zhang_stephens(excesses) -> FitResult:
    """Empirical-Bayes fit of the zero-location GPD.

    The profile likelihood over theta = xi/sigma is averaged with likelihood
    weights over the data-driven grid

        theta_j = -1/x_(n) + (sqrt(m/(j - 0.5)) - 1) / (3 * x*),  j = 1..m,

    with m = 20 + floor(sqrt(n)) and x* the ceil(n/4 + 0.5)-th order
    statistic.  The weighted theta_hat then gives
    xi_hat = mean(log1p(theta_hat * x)) and sigma_hat = xi_hat / theta_hat.
    Every grid point satisfies theta > -1/x_(n), so the estimate exists and is
    finite for any sample with a positive maximum.
    """
    y = np.sort(_clean_sample(excesses))
    if y[0] < 0:
        raise ValueError("Zhang-Stephens requires non-negative excesses")
    if y[-1] <= 0:
        raise EstimationError("Zhang-Stephens is undefined for an all-zero sample")
    n = y.size
    m = 20 + math.isqrt(n)
    quart = y[(n + 5) // 4 - 1]  # ceil(n/4 + 0.5)-th order statistic, 1-indexed
    if quart <= 0:
        # zero-heavy sample: fall back to the smallest positive value so the
        # grid stays finite; the estimate remains well defined
        quart = float(y[y > 0][0])
    j = np.arange(1, m + 1)
    theta_grid = -1.0 / y[-1] + (np.sqrt(m / (j - 0.5)) - 1.0) / (3.0 * quart)
    ll, _ = _profile_loglik(theta_grid, y)
    w = np.exp(ll - ll.max())
    w /= w.sum()
    theta = float(w @ theta_grid)
    xi = float(np.mean(np.log1p(theta * y)))
    if xi == 0.0:
        raise EstimationError("Zhang-Stephens produced a degenerate zero estimate")
    sigma = xi / theta
    return FitResult(
        xi, sigma, None, EstimatorId.ZHANG_STEPHENS, {"theta": theta, "grid_size": float(m)}
    )


def _profile_score(theta: float, x: np.ndarray) -> tuple[float, float]:
    """Derivative g of the profile log-likelihood with respect to u = log(theta),
    divided by n, and its derivative dg/du.

    With t = theta*x, xi = mean(log1p(t)), d = mean(t/(1+t)) and
    d' = mean(t/(1+t)^2),

        g = 1 - d/xi - d,  dg/du = -(d'*xi - d^2)/xi^2 - d'.

    g is positive left of the interior maximum and negative right of it;
    locating its sign change is numerically far better conditioned than
    comparing near-equal log-likelihood values.  Where xi underflows to zero
    g is reported as +inf with slope 0, which sends a root search to bisect.
    """
    t = theta * x
    xi = float(np.mean(np.log1p(t)))
    if xi == 0.0:
        return math.inf, 0.0
    q = 1.0 + t
    r = t / q
    d = float(np.mean(r))
    dd = float(np.mean(r / q))
    return 1.0 - d / xi - d, -(dd * xi - d * d) / (xi * xi) - dd


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
    optimum.

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
    theta_hi = 1e4 / xbar
    theta_lo = 1e-8 / xbar
    grid = np.geomspace(theta_lo, theta_hi, 200)
    ll, _ = _profile_loglik(grid, x)
    i = int(np.argmax(ll))

    if i == grid.size - 1 and ll[-1] > ll[-2]:
        xi = float(np.mean(np.log1p(theta_hi * x)))
        return FitResult(
            xi,
            xi / theta_hi,
            None,
            EstimatorId.GPD_MLE,
            {
                "converged": 0.0,
                "optimizer_iterations": 0.0,
                "theta": theta_hi,
                "profile_loglik": float(ll[-1]),
            },
        )

    lo = grid[i - 1] if i > 0 else theta_lo * 1e-6
    hi = grid[i + 1] if i < grid.size - 1 else theta_hi
    iters = 0
    if _profile_score(lo, x)[0] <= 0.0:
        # falling already at the lower bracket: the maximum sits at the shape
        # zero boundary (i == 0) or, anomalously, at the scan point itself
        theta = lo if i == 0 else float(grid[i])
    elif _profile_score(hi, x)[0] >= 0.0:
        theta = float(grid[i])
    else:
        log_lo, log_hi = math.log(lo), math.log(hi)
        # a bracket one float wide cannot shrink any further; beyond
        # |log(theta)| = 512 that width exceeds 1e-13
        tol = max(1e-13, math.ulp(max(abs(log_lo), abs(log_hi))))
        u = math.log(grid[i])
        while log_hi - log_lo > tol:
            g, dg = _profile_score(math.exp(u), x)
            iters += 1
            if g > 0.0:
                log_lo = u
            else:
                log_hi = u
            step = -g / dg if dg < 0.0 else math.nan
            u += step
            if abs(step) <= tol:
                break
            if not log_lo < u < log_hi:  # also rejects a NaN step
                u = 0.5 * (log_lo + log_hi)
        theta = math.exp(u)
    xi = float(np.mean(np.log1p(theta * x)))
    if xi == 0.0:
        raise EstimationError("GPD MLE produced a degenerate zero estimate")
    return FitResult(
        xi,
        xi / theta,
        None,
        EstimatorId.GPD_MLE,
        {
            "converged": 1.0,
            "optimizer_iterations": float(iters),
            "theta": theta,
            "profile_loglik": float(_profile_loglik(np.array([theta]), x)[0][0]),
        },
    )


def estimate_hill(x, k: int) -> FitResult:
    """Hill estimator: mean log-ratio of the k largest values to X_(n-k).

    Identical to Pareto maximum likelihood applied to the k largest
    observations with the threshold X_(n-k) playing the role of the scale,
    which must therefore be positive.  ``mu_hat`` reports the threshold.
    """
    arr = _clean_sample(x)
    if not isinstance(k, (int, np.integer)) or not 1 <= k < arr.size:
        raise ValueError(f"k must satisfy 1 <= k < n = {arr.size}, got {k!r}")
    srt = np.sort(arr)
    threshold = float(srt[arr.size - k - 1])
    if threshold <= 0:
        raise ValueError("Hill estimator needs a positive threshold X_(n-k)")
    xi = float(np.mean(np.log(srt[arr.size - k :] / threshold)))
    return FitResult(xi, None, threshold, EstimatorId.HILL, {"k": float(k)})
