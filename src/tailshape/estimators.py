"""Shape-parameter estimators for heavy-tailed samples.

Five estimators are provided:

* :func:`estimate_pareto_ml` - closed-form maximum likelihood for Pareto
  Type I samples: ``mu_hat = min(z)`` and ``xi_hat = mean(log(z / mu_hat))``.
* :func:`estimate_pwm` - probability-weighted moments for the zero-location
  GPD, using the plotting positions ``(j - 0.35)/n`` of Hosking & Wallis
  (1987) on the order statistics.
* :func:`estimate_zhang_stephens` - the Zhang-Stephens empirical-Bayes fit of
  the zero-location GPD, a likelihood-weighted average over a data-driven grid
  of ``theta = xi/sigma`` values; always yields a finite estimate.
* :func:`estimate_gpd_mle` - numerical maximum likelihood for the
  zero-location GPD via the one-dimensional profile over ``theta = xi/sigma``.
* :func:`estimate_hill` - mean log-ratio of the k largest observations to the
  (k+1)-th largest, i.e. Pareto maximum likelihood on the top of the sample.

All estimators are pure functions of their input sample and are safe to call
concurrently: a call keeps its buffers, output and helper thread
(:func:`_share`) to itself, so k concurrent callers run at most 2k threads.
A replication range draws (:func:`tailshape.montecarlo._draw_pot` shares its
draws the same way) and fits one after the other, so it too runs at most 2.

Each estimator has one numerical implementation, a private row kernel that
fits a 2-D array of equal-length samples, one sample per row, and returns
each row's :class:`Reason` next to its estimates: ``ok``, or why the row has
no estimate.  Every failure condition of an estimator is written once, in its
kernel.  A kernel returns ``(xi_hat, scale, reason, ...)`` per row.  One
table, ``_ROWS``, states each estimator's name in messages, the rows its
kernel fits, its kernel, and its output and diagnostic names.  One sample is
fitted as a stack of one row, and one function turns that row into a
:class:`FitResult` or into the exception class and message of its reason,
from one message table: the public functions above raise it, the one-sample
:func:`tailshape.pot.fit_all` returns the message.  The replication engine
and :func:`tailshape.pot.fit_all` call the kernels on whole stacks of
samples and keep the reasons.
The ``log1p`` values of a profile likelihood (the Zhang-Stephens grid and
the GPD ML scan) are evaluated in blocks of at most
:data:`ELEMENT_BUDGET` elements, over (row, grid point) pairs, written into
one buffer per thread, so their memory does not grow with the number of rows
or the sample size.  The blocks are shared with a helper thread
(:func:`_share`); each (row, grid point) sum is one reduction whichever
thread forms it, so the results do not depend on the number of cores.  The
GPD ML scan and the Zhang-Stephens grid past one block are evaluated coarse
to fine by one rule: each row leaves out its points whose chord bound is
below its best coarse value by more than a margin, 800 for Zhang-Stephens and
a rounding margin for GPD ML, so that the fits are those of the whole grid
bit for bit (:func:`_pruned_profile`).
"""

from __future__ import annotations

import _thread
import math
import os
from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

# elements in one block of a profile likelihood's log1p values (256 KiB of
# float64, one buffer per thread that evaluates blocks): a row of 200 grid
# points over k = 100 excesses fits one block
ELEMENT_BUDGET = 2**15


def _coarse(points: int) -> np.ndarray:
    """The grid points that a coarse-to-fine profile evaluates first, in
    order: every 8th of ``points`` and the last two, so that the coarse
    profile shows a rise at the end of the grid."""
    return np.array(sorted({*range(0, points, 8), points - 2, points - 1}))


__all__ = [
    "EstimatorId",
    "Reason",
    "EstimationError",
    "PwmSingularityError",
    "FitResult",
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


class Reason(IntEnum):
    """Why a row kernel gave a row no estimate, or ``ok`` where it gave one."""

    ok = 0
    too_few = 1  # fewer than 2 values, or fewer than 2 exceedances in a POT run
    non_finite = 2  # a NaN or infinite value
    negative = 3  # a negative excess
    nonpositive = 4  # an observation <= 0 where Pareto ML needs positive ones
    all_zero = 5
    mean_underflow = 6  # mean(x) == 0: GPD ML has no scan range
    no_scan_range = 7  # 1e4 / mean(x) overflows
    support_nonpositive = 8  # the transform's support estimate is not positive
    threshold_nonpositive = 9  # Hill's X_(n-k) is not positive
    initial_failed = 10  # a transformed estimator's initial fit failed
    pwm_singular = 11  # a0 - 2*a1 <= 0
    not_converged = 12  # GPD ML: the profile still rises at the end of the scan
    degenerate_zero = 13  # xi_hat == 0
    invalid_estimate = 14  # xi_hat not finite, or sigma_hat not positive and finite


# Reason.ok as a plain int for array comparisons: NumPy compares an array with
# an IntEnum member about three times slower than with an int
_OK = int(Reason.ok)


# reason -> exception class and message of a one-row fit; {name} is the
# estimator's name (a transformed estimator's is its initial estimator's) and
# {size} the size of the sample it fits.  A row with an invalid estimate
# reaches FitResult, whose checks reject it with their own message; GPD ML
# returns unconverged fits.
_ERRORS = {
    Reason.too_few: (ValueError, "need at least 2 observations, got {size}"),
    Reason.non_finite: (ValueError, "sample contains non-finite values"),
    Reason.negative: (ValueError, "{name} requires non-negative excesses"),
    Reason.nonpositive: (ValueError, "{name} requires strictly positive observations"),
    Reason.all_zero: (EstimationError, "{name} is undefined for an all-zero sample"),
    Reason.mean_underflow: (
        EstimationError, "{name} is undefined for a sample whose mean underflows to zero"
    ),
    Reason.no_scan_range: (
        EstimationError, "{name} scan range 1e4/mean(x) overflows at mean(x) = {mean!r}"
    ),
    Reason.support_nonpositive: (
        ValueError, "mu_hat must be a positive real for the three-parameter form, got {support}"
    ),
    Reason.threshold_nonpositive: (ValueError, "{name} needs a positive threshold X_(n-k)"),
    Reason.initial_failed: (EstimationError, "initial {name} fit failed: {initial}"),
    Reason.pwm_singular: (
        PwmSingularityError,
        "probability-weighted-moment denominator a0 - 2*a1 = {denom} is not positive",
    ),
    Reason.degenerate_zero: (EstimationError, "{name} produced a degenerate zero estimate"),
}

# transformed estimator -> the estimator of its initial fit
_INITIAL = {
    EstimatorId.TRANSFORMED_ZS: EstimatorId.ZHANG_STEPHENS,
    EstimatorId.TRANSFORMED_PWM: EstimatorId.PWM,
}


def _first_reason(*checks) -> np.ndarray:
    """Each row's reason from ``(mask, reason)`` checks in priority order:
    the first whose mask holds, else ``ok``."""
    reason = np.zeros(len(checks[0][0]), dtype=int)
    for mask, code in reversed(checks):
        reason[mask] = code
    return reason


def _row_mean(a: np.ndarray) -> np.ndarray:
    """The mean of each row: the row sums over n round exactly as ``mean``
    does, without its Python overhead."""
    return np.add.reduce(a, axis=1) / a.shape[1]


def _excess_checks(low: np.ndarray, high: np.ndarray) -> tuple:
    """Checks of excess rows with these minima and maxima (NaN makes both NaN)."""
    return (~(np.isfinite(low) & np.isfinite(high)), Reason.non_finite), (low < 0, Reason.negative)


def _invalid(xi: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Rows whose estimates FitResult would reject."""
    return ~(np.isfinite(xi) & (sigma > 0) & (sigma < np.inf))


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


def _outcome(estimator: EstimatorId, out: tuple, sample: np.ndarray, **values):
    """Row 0 of the kernel outputs ``out`` of ``estimator``, which fitted
    ``sample``: its :class:`FitResult`, or the exception class and message of
    its failure.

    ``out`` is ``(xi_hat, scale, reason, ...)`` with the outputs that
    ``_ROWS`` names after the reason.  ``values`` fill in the rest of a
    message or of the diagnostics: a transformed estimator's ``support``
    estimate and ``initial`` fit (or its message).  The scale of a fit of the
    sample or of a tail (Hill's threshold) is its ``mu_hat``.  The
    ``estimate_*`` functions raise the failure; the one-sample
    :func:`tailshape.pot.fit_all` keeps its message.
    """
    xi, scale, reason, *more = [v.item(0) for v in out]
    name, rows, _, outputs, diagnostics = _ROWS[estimator]
    row = dict(zip(outputs, more), **values)
    if reason in _ERRORS:
        error, message = _ERRORS[reason]
        if reason == Reason.too_few and estimator in _INITIAL and sample.size == 0:
            message = "cannot transform an empty sample"
        return error, message.format(name=name, size=sample.size, **row)
    row["converged"] = reason != Reason.not_converged
    row["alpha_transformed"] = 1.0 / xi if xi > 0 else math.inf
    if estimator is EstimatorId.GPD_MLE:
        row["profile_loglik"] = _profile_loglik(np.array([[row["theta"]]]), sample[None])[0].item()
    sigma, mu = (None, scale) if rows in ("sample", "tail") else (scale, None)
    try:
        return FitResult(xi, sigma, mu, estimator, {k: float(row[k]) for k in diagnostics})
    except ValueError as err:  # an invalid estimate
        return ValueError, str(err)


def _fitted(outcome) -> FitResult:
    """The fit of an :func:`_outcome`, or raise its failure."""
    if isinstance(outcome, FitResult):
        return outcome
    error, message = outcome
    raise error(message)


def _sample(values) -> np.ndarray:
    """The values as a 1-D float array of at least two; the kernels check them."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < 2:
        error, message = _ERRORS[Reason.too_few]
        raise error(message.format(size=arr.size))
    return arr


def _fit_one(estimator: EstimatorId, values) -> FitResult:
    """The fit of one sample by the kernel of ``estimator``, or raise its failure."""
    x = _sample(values)
    _, rows, kernel, *_ = _ROWS[estimator]
    row = np.sort(x) if rows == "sorted" else x
    return _fitted(_outcome(estimator, kernel(row[None, :]), x))


def estimate_pareto_ml(z) -> FitResult:
    """Closed-form Pareto Type I maximum likelihood fit.

    Requires strictly positive observations.  ``xi_hat`` is non-negative and
    zero exactly when all observations are equal.
    """
    return _fit_one(EstimatorId.PARETO_ML, z)


def _pareto_ml_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row kernel of :func:`estimate_pareto_ml`: ``(xi_hat, mu_hat, reason)``
    per row."""
    mu = z.min(axis=1)
    with np.errstate(all="ignore"):
        ratio = z / mu[:, None]
        xi = _row_mean(np.log(ratio, out=ratio))
    reason = _first_reason(
        (~(np.isfinite(mu) & np.isfinite(z.max(axis=1))), Reason.non_finite),
        (mu <= 0, Reason.nonpositive),
        (~np.isfinite(xi), Reason.invalid_estimate),
    )
    return xi, mu, reason


def estimate_pwm(excesses) -> FitResult:
    """Probability-weighted-moment fit of the zero-location GPD.

    With sorted excesses x_(1) <= ... <= x_(n) and the plotting positions
    p_j = (j - 0.35)/n of Hosking & Wallis (1987), a0 is the sample mean and
    a1 = mean((1 - p_j) * x_(j)); then

        xi_hat = 2 - a0 / (a0 - 2*a1),  sigma_hat = 2*a0*a1 / (a0 - 2*a1).

    Raises :class:`PwmSingularityError` when a0 - 2*a1 <= 0 (an all-zero
    sample, or one whose moments underflow to zero); callers decide how to
    account for such failures.
    """
    return _fit_one(EstimatorId.PWM, excesses)


def _pwm_rows(srt: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row kernel of :func:`estimate_pwm` on sorted rows of at least two
    values: ``(xi_hat, sigma_hat, reason, a0, a1, a0 - 2*a1)`` per row, with
    the plotting positions ``(j - 0.35)/n``.  Rows that fail get meaningless
    shape and scale values.

    Each row is divided by the power of two of its maximum before the moments
    are formed, and the scale-carrying outputs are multiplied back, so that
    ``a0 * a1`` neither overflows nor underflows at extreme data scales.  The
    power of two is exact: a row scaled by 2^j, with its values still normal,
    gets the same ``xi_hat`` and 2^j times the ``sigma_hat``.  A row whose
    maximum is subnormal is scaled up as well, so it fits unless its
    ``sigma_hat`` itself underflows to zero.
    """
    p = (np.arange(1, srt.shape[1] + 1) - 0.35) / srt.shape[1]
    top = srt[:, -1]  # NaN sorts last
    # a maximum in [2^(e-1), 2^e), subnormal ones included; frexp gives e = 0
    # for a zero, NaN or infinite maximum
    e = np.frexp(top)[1]
    y = np.ldexp(srt, -e[:, None])
    with np.errstate(all="ignore"):
        a0 = _row_mean(y)
        a1 = _row_mean(np.multiply(y, 1.0 - p, out=y))
        denom = a0 - 2.0 * a1
        xi, sigma = 2.0 - a0 / denom, 2.0 * a0 * a1 / denom
        singular = denom <= 0
        sigma, a0, a1, denom = (np.ldexp(v, e) for v in (sigma, a0, a1, denom))
    reason = _first_reason(
        *_excess_checks(srt[:, 0], top),
        (singular, Reason.pwm_singular),
        (_invalid(xi, sigma), Reason.invalid_estimate),
    )
    return xi, sigma, reason, a0, a1, denom


def _profile_xi(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inner ML solution xi(theta) = mean(log1p(theta * x)) per row and grid point.

    ``theta`` holds one row of grid points per sample row of ``x``.  The
    (row, grid point, observation) values are evaluated in blocks of at most
    ELEMENT_BUDGET elements (one grid point's n values when n exceeds it):
    whole rows at a time while a row's grid fits the budget, else part of one
    row's grid at a time.  Each (row, grid point) sum is one reduction over
    the n values, divided by n once at the end, which rounds exactly as
    ``mean`` does.

    The blocks are shared with a helper thread by :func:`_share`, NumPy's
    loops releasing the GIL; each thread evaluates its blocks in a buffer of
    its own and writes their sums into their part of the output.
    """
    rows, grid = theta.shape
    n = x.shape[1]
    per_block = min(grid, max(1, ELEMENT_BUDGET // n))
    row_step = max(1, ELEMENT_BUDGET // (grid * n))
    blocks = [
        (a, min(a + row_step, rows), g, min(g + per_block, grid))
        for a in range(0, rows, row_step)
        for g in range(0, grid, per_block)
    ]
    out = np.empty((rows, grid))
    _share(_xi_blocks, blocks, theta, x, out, min(rows, row_step) * per_block * n)
    out /= n
    return out


def _xi_blocks(todo, theta, x, out, size: int) -> None:
    """Evaluate blocks ``(a, b, g, h)`` taken from the iterator ``todo`` until
    it is empty, in one buffer of ``size`` elements (a fresh temporary per
    block costs page faults), and write the sums of each into
    ``out[a:b, g:h]``."""
    n = x.shape[1]
    buf = np.empty(size)
    for a, b, g, h in todo:
        t = buf[: (b - a) * (h - g) * n].reshape(b - a, h - g, n)
        np.multiply(theta[a:b, g:h, None], x[a:b, None, :], out=t)
        np.add.reduce(np.log1p(t, out=t), axis=2, out=out[a:b, g:h])


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _share(work, items, *args) -> None:
    """Run ``work(todo, *args)``, where ``todo = iter(items)``, on the caller
    and, for at least 4 items on more than one core, on one helper thread
    too, both taking items from ``todo`` (``next()`` runs under the GIL, so
    each item goes to one thread).  Fewer items cost less than waking a
    helper; more helpers have not been measured on a machine with more cores.
    ``work`` writes each item's result into its own slot, so the results do
    not depend on the thread that takes an item.

    The helper runs under the caller's floating-point error state (a new
    thread does not share it) and is started by ``_thread``, which does not
    wait, as ``threading.Thread.start`` does, for it to report that it has
    started.  The caller waits for the helper before it returns, also when
    its own ``work`` raised, and then raises the helper's exception, if any,
    so no thread runs between calls."""
    todo = iter(items)
    if len(items) < 4 or _cores() < 2:
        return work(todo, *args)
    err, done, failed = np.geterr(), _thread.allocate_lock(), []
    done.acquire()

    def helper():
        try:
            with np.errstate(**err):
                work(todo, *args)
        except BaseException as exc:  # raised in the caller
            failed.append(exc)
        finally:
            done.release()

    _thread.start_new_thread(helper, ())
    try:
        work(todo, *args)
    finally:
        done.acquire()
        if failed:
            raise failed[0]


def _profile_loglik(theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-location GPD log-likelihood profiled over the scale.

    For fixed theta = xi/sigma the likelihood is maximized by
    xi(theta) = mean(log1p(theta * x)), giving

        l(theta) = n * (log(theta / xi(theta)) - xi(theta) - 1).

    ``theta`` holds one row of grid points per sample row of ``x``.  theta
    and xi(theta) always share a sign, so the log argument is positive;
    invalid points (theta = 0 or xi = 0) are mapped to -inf.
    """
    xi = _profile_xi(theta, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = np.divide(theta, xi)
        np.log(ll, out=ll)
        ll -= xi
        ll -= 1.0
        ll *= x.shape[1]
    ll[~np.isfinite(ll)] = -np.inf
    return ll, xi


def _pruned_profile(theta: np.ndarray, x: np.ndarray, margin) -> np.ndarray:
    """The profile log-likelihood of each row's grid ``theta``, with -inf at
    the points whose bound is below the row's best coarse value minus
    ``margin`` (a number, or a column of one per row).

    The coarse points (:func:`_coarse`) go first.  xi(theta) is increasing
    and concave, so between two coarse neighbours it is no less than their
    chord; where theta > 0 the profile falls as xi grows, so n * (log(theta /
    chord) - chord - 1) bounds it from above wherever the chord is positive.
    Each row then evaluates only its own points whose bound is not below
    that, and all of them if it has no finite coarse value, but none whose
    theta is not finite: the profile there is -inf without evaluating it (a
    failed GPD ML row is scanned over a NaN grid).  A computed
    value or bound is within 2^-40 * n * S of the exact one, S =
    |log(theta / xi)| + xi + 1: far more than the few ulps of log1p and log
    and the rounding of a pairwise sum.  The (row, point) pairs are evaluated
    as one stack of one-point rows, one row's as its columns, so that a long
    sample is not copied once per point.
    """
    n, points = x.shape[1], theta.shape[1]
    coarse = _coarse(points)
    ll = np.full(theta.shape, -np.inf)
    tc = theta[:, coarse]
    ll[:, coarse], xi = _profile_loglik(tc, x)
    rest = np.delete(np.arange(points), coarse)
    left = np.searchsorted(coarse, rest) - 1
    t = theta[:, rest]
    with np.errstate(all="ignore"):
        slope = np.diff(xi, axis=1) / np.diff(tc, axis=1)
        chord = xi[:, left] + slope[:, left] * (t - tc[:, left])
        # an infinite chord comes from an overflowing theta * x, not from xi
        bounded = (t > 0) & (chord > 0) & (chord < np.inf)
        bound = np.where(bounded, n * (np.log(t / chord) - chord - 1.0), np.inf)
        # a NaN bound proves nothing, so only a bound below the margin skips
        keep = ~(bound < ll[:, coarse].max(axis=1, keepdims=True) - margin) & np.isfinite(t)
        rows, cols = np.nonzero(keep)
    cols = rest[cols]
    if len(x) > 1:
        ll[rows, cols] = _profile_loglik(theta[rows, cols][:, None], x[rows])[0][:, 0]
    elif cols.size:
        ll[0, cols] = _profile_loglik(theta[:, cols], x)[0][0]
    return ll


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

    Where n * m > ELEMENT_BUDGET (from n = 713 on), each row leaves out the
    points whose chord bound is more than 800 below its best coarse value
    (:func:`_pruned_profile`): exp gives exactly 0.0 below -745.13, and the
    54 left over exceed any rounding, so the fit is the whole grid's.
    """
    return _fit_one(EstimatorId.ZHANG_STEPHENS, excesses)


def _zhang_stephens_rows(y: np.ndarray) -> tuple:
    """Row kernel of :func:`estimate_zhang_stephens` on sorted rows with at
    least two observations: ``(xi_hat, sigma_hat, reason, theta_hat, grid
    size)`` per row.  Rows that fail get meaningless values."""
    n = y.shape[1]
    m = 20 + math.isqrt(n)
    with np.errstate(all="ignore"):
        quart = y[:, (n + 5) // 4 - 1]  # ceil(n/4 + 0.5)-th order statistic, 1-indexed
        zero_heavy = quart <= 0
        if zero_heavy.any():
            # fall back to the smallest positive value so the grid stays finite;
            # the estimate remains well defined
            quart = np.where(zero_heavy, np.where(y > 0, y, np.inf).min(axis=1), quart)
        j = np.arange(1, m + 1)
        theta_grid = -1.0 / y[:, -1:] + (np.sqrt(m / (j - 0.5)) - 1.0) / (3.0 * quart[:, None])
        whole = n * m <= ELEMENT_BUDGET  # a row's grid fits one block
        ll = _profile_loglik(theta_grid, y)[0] if whole else _pruned_profile(theta_grid, y, 800.0)
        w = np.exp(ll - ll.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        # one BLAS dot per row: a sum along an axis would round differently
        theta = np.matmul(w[:, None, :], theta_grid[:, :, None])[:, 0, 0]
        t = theta[:, None] * y
        xi = _row_mean(np.log1p(t, out=t))
        sigma = xi / theta
    reason = _first_reason(
        *_excess_checks(y[:, 0], y[:, -1]),  # NaN sorts last
        (y[:, -1] <= 0, Reason.all_zero),
        (xi == 0.0, Reason.degenerate_zero),
        (_invalid(xi, sigma), Reason.invalid_estimate),
    )
    return xi, sigma, reason, theta, np.full(len(y), m)


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
    highest profile likelihood and bracket it by its neighbours.  The scan is
    coarse to fine (:func:`_pruned_profile`) with the rounding margin
    1e-10 * n * (|log(mean(x))| + 64).  On the scan theta * mean(x) lies in
    [1e-8, 1e4], so xi < 9.3, and log(theta / xi) and log(theta / chord) lie
    within log(1e12 + 1e4 * n) of -log(mean(x)): S stays below
    |log(mean(x))| + 64 for n < 2^53, and the margin above twice the
    rounding, so the scan picks the point that evaluating all 200 picks, ties
    included.  A safeguarded Newton iteration in log(theta), started at the best scan point
    with the analytic derivative of the score, then refines the root: every
    step shrinks the bracket by the sign of the score, and a step that would
    leave the bracket (or meets a non-negative derivative) is replaced by the
    bracket midpoint.  It stops once the Newton step or the bracket is at most
    1e-13 in log(theta), or one float wide at extreme data scales.  When the
    profile is still rising at the upper end of the scan the maximum does not
    exist (theta diverging); the boundary fit is returned with ``converged``
    set to 0.0 in the diagnostics rather than silently reporting an interior
    optimum.  A sample whose mean is so small (below about 1e-304) that
    1e4/mean(x) overflows has no scan range and fails, as does one whose mean
    overflows.

    ``optimizer_iterations`` counts the score evaluations of the refinement,
    one per Newton or bisection step; it is 0 when the scan alone decides the
    fit (divergence, a profile already falling at the lower bracket end, or
    one still rising at the upper end).
    """
    return _fit_one(EstimatorId.GPD_MLE, excesses)


def _gpd_mle_rows(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row kernel of :func:`estimate_gpd_mle` on rows of at least two
    excesses, in sample order: ``(xi_hat, sigma_hat, reason, theta_hat,
    optimizer_iterations, mean)`` per row.

    The scan and bracket choice run on every row at once, the Newton
    refinement on the rows still refining, each with its own bracket and
    stop width.  exp and log of single values use :mod:`math`, as the 1-D
    solver did: NumPy's vectorized ``exp`` rounds differently.
    """
    rows = np.arange(len(x))
    with np.errstate(all="ignore"):
        mean, high = _row_mean(x), x.max(axis=1)
        reason = _first_reason(
            *_excess_checks(x.min(axis=1), high),
            (high <= 0, Reason.all_zero),
            (mean == 0.0, Reason.mean_underflow),
            (~(1e4 / mean < np.inf), Reason.no_scan_range),
            (mean == np.inf, Reason.invalid_estimate),  # the sum overflows
        )
    # a row without a scan range is scanned over NaN: NaN estimates, no refinement
    xbar = np.where(reason == _OK, mean, np.nan)
    theta_lo, theta_hi = 1e-8 / xbar, 1e4 / xbar
    grid = np.geomspace(theta_lo, theta_hi, 200, axis=1)
    ll = _pruned_profile(grid, x, 1e-10 * x.shape[1] * (np.abs(np.log(xbar)) + 64.0)[:, None])
    i = ll.argmax(axis=1)
    last = grid.shape[1] - 1
    converged = ~((i == last) & (ll[:, -1] > ll[:, -2]))
    lo = np.where(i > 0, grid[rows, i - 1], theta_lo * 1e-6)
    hi = np.where(i < last, grid[rows, np.minimum(i + 1, last)], theta_hi)
    theta = np.where(converged, grid[rows, i], theta_hi)
    iters = np.zeros(len(x), dtype=int)
    with np.errstate(all="ignore"):
        todo = rows[converged]
        falling = _profile_score(lo[todo], x[todo])[0] <= 0.0
        # falling already at the lower bracket: the maximum sits at the shape
        # zero boundary (i == 0) or, anomalously, at the scan point itself
        at_zero = todo[falling & (i[todo] == 0)]
        theta[at_zero] = lo[at_zero]
        todo = todo[~falling]
        # the rest rise at the lower end: refine those not rising at the upper end
        todo = todo[~(_profile_score(hi[todo], x[todo])[0] >= 0.0)]
        # Newton state (log_lo, log_hi, u) and stop width of each refined row
        state = {
            r: (math.log(lo[r]), math.log(hi[r]), math.log(theta[r])) for r in todo.tolist()
        }
        # a bracket one float wide cannot shrink any further; beyond
        # |log(theta)| = 512 that width exceeds 1e-13
        tol = {r: max(1e-13, math.ulp(max(abs(a), abs(b)))) for r, (a, b, _) in state.items()}
        live = [r for r, (log_lo, log_hi, _) in state.items() if log_hi - log_lo > tol[r]]
        while live:
            g, dg = _profile_score(np.array([math.exp(state[r][2]) for r in live]), x[live])
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
        xi = _row_mean(np.log1p(t, out=t))
        sigma = xi / theta
        fitted = _first_reason(
            (~converged, Reason.not_converged),
            (xi == 0.0, Reason.degenerate_zero),
            (_invalid(xi, sigma), Reason.invalid_estimate),
        )
    return xi, sigma, np.where(reason == _OK, fitted, reason), theta, iters, mean


def estimate_hill(x, k: int) -> FitResult:
    """Hill estimator: mean log-ratio of the k largest values to X_(n-k).

    Identical to Pareto maximum likelihood applied to the k largest
    observations with the threshold X_(n-k) playing the role of the scale,
    which must therefore be positive.  ``mu_hat`` reports the threshold.
    """
    arr = _sample(x)
    with np.errstate(over="ignore"):  # Hill reads the tail, not the excesses
        tail = _reduce_pot(arr[None, :], k)[2]
    return _fitted(_outcome(EstimatorId.HILL, _hill_rows(tail), arr))


def _reduce_pot(xs: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Each row of samples ``xs`` (folded already, if asked) reduced to its
    excesses over the threshold X_(n-k), their count, and its tail: X_(n-k)
    and then the k largest values, sorted.  Row i of the (rows, k) excesses
    holds its count[i] excesses first, in sample order: at most k values
    exceed X_(n-k), fewer when values tie with it.  A row with a NaN or an
    infinite value gets NaN as its first excess and its largest value, so
    that every fit of it fails as non-finite, Hill's too: a NaN or -inf never
    exceeds the threshold.  One partition of a row serves the threshold (its
    sign of zero kept) and the top k, which, sorted, sum in the same order as
    in a full sort of the row."""
    n = xs.shape[1]
    if not _is_int(k) or not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n = {n}, got {k!r}")
    exc, count, tail = np.empty((len(xs), k)), np.empty(len(xs), int), np.empty((len(xs), k + 1))
    for row, x in enumerate(xs):
        part = np.partition(x, n - k - 1)
        tail[row, 0], tail[row, 1:] = part[n - k - 1], np.sort(part[n - k :])
        above = x[x > tail[row, 0]]
        count[row] = above.size
        np.subtract(above, tail[row, 0], out=exc[row, : above.size])
    # a NaN makes the minimum NaN, a -inf is it, a +inf is the largest value
    non_finite = ~(np.isfinite(xs.min(axis=1)) & np.isfinite(tail[:, -1]))
    exc[non_finite, 0] = tail[non_finite, -1] = np.nan
    return exc, count, tail


def _hill_rows(tail: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row kernel of :func:`estimate_hill`: ``(xi_hat, threshold, reason, k)``
    per row, the mean log-ratio of each tail's sorted top k values to its
    threshold, the tail's first value.  The largest value of a sample with a
    NaN or an infinite value is NaN."""
    threshold = tail[:, 0]
    with np.errstate(all="ignore"):
        ratio = tail[:, 1:] / threshold[:, None]
        xi = _row_mean(np.log(ratio, out=ratio))
    reason = _first_reason(
        (~np.isfinite(tail[:, -1]), Reason.non_finite),
        (threshold <= 0, Reason.threshold_nonpositive),
        (~np.isfinite(xi), Reason.invalid_estimate),
    )
    return xi, threshold, reason, np.full(len(tail), tail.shape[1] - 1)


def _is_int(value) -> bool:
    """An integer, but not a bool (which Python counts as one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# estimator -> (its name in messages, a transformed estimator's being its
# initial one's; the rows its kernel fits, "sample", "excesses" in sample
# order, "sorted" excesses or a POT "tail" (X_(n-k), then the k largest
# values, sorted), a fit of excesses reporting sigma_hat and the others
# mu_hat; its row kernel, none for the transformed estimators (they need an
# initial fit); the names of the kernel's outputs after (xi_hat, scale,
# reason); its diagnostics)
_TRANSFORMED = (
    ("clamp_count", "refresh_rounds", "initial_xi"),
    ("clamp_count", "alpha_transformed", "initial_xi", "refresh_rounds"),
)
_ROWS = {
    EstimatorId.PARETO_ML: ("Pareto ML", "sample", _pareto_ml_rows, (), ()),
    EstimatorId.PWM: ("PWM", "sorted", _pwm_rows, ("a0", "a1", "denom"), ("a0", "a1")),
    EstimatorId.ZHANG_STEPHENS: (
        "Zhang-Stephens", "sorted", _zhang_stephens_rows, ("theta", "grid_size"),
        ("theta", "grid_size"),
    ),
    EstimatorId.GPD_MLE: (
        "GPD MLE", "excesses", _gpd_mle_rows, ("theta", "optimizer_iterations", "mean"),
        ("converged", "optimizer_iterations", "theta", "profile_loglik"),
    ),
    EstimatorId.HILL: ("Hill estimator", "tail", _hill_rows, ("k",), ("k",)),
    EstimatorId.TRANSFORMED_ZS: ("Zhang-Stephens", "sample", None, *_TRANSFORMED),
    EstimatorId.TRANSFORMED_PWM: ("PWM", "sample", None, *_TRANSFORMED),
}
