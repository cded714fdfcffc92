"""Estimator plan and peaks-over-threshold estimation pipeline.

:func:`fit_all` runs every estimator set in the package, sharing one initial
fit between a transformed estimator and its plain counterpart, on one sample
or on a stack of equal-length samples, one per row.  In the POT
pipeline the threshold is the (n-k)-th order statistic, so exactly the k
largest observations exceed it (ties at the threshold count as
non-exceedances).  The plan runs on the k strictly positive excesses with the
smallest excess as the support estimate; the Hill estimator runs on the raw
sample with the same k.  Only the upper tail is used; observations are never
folded by absolute value (symmetric sources contribute through their largest
values only) unless ``fold_absolute`` is requested explicitly.  The
replication engine runs the same pipeline on stacks of samples through the
row kernels (:mod:`tailshape.montecarlo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    EstimationError,
    EstimatorId,
    FitResult,
    PlottingPosition,
    _gpd_mle_rows,
    _is_int,
    _pareto_ml_rows,
    _pwm_rows,
    _top_k,
    _zhang_stephens_rows,
    estimate_gpd_mle,
    estimate_hill,
    estimate_pareto_ml,
    estimate_pwm,
    estimate_zhang_stephens,
)
from .transform import _iterate_transform_rows, iterate_transform

__all__ = [
    "DEFAULT_POT_ESTIMATORS",
    "PotConfig",
    "PotResult",
    "select_threshold",
    "excesses",
    "fit_all",
    "pot_estimate",
]

DEFAULT_POT_ESTIMATORS = (
    EstimatorId.ZHANG_STEPHENS,
    EstimatorId.GPD_MLE,
    EstimatorId.HILL,
    EstimatorId.TRANSFORMED_ZS,
)


@dataclass(frozen=True)
class PotConfig:
    """Number of exceedances k and the estimators to run on them."""

    k: int
    estimators: tuple[EstimatorId, ...] = DEFAULT_POT_ESTIMATORS
    fold_absolute: bool = False

    def __post_init__(self) -> None:
        if not _is_int(self.k) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not self.estimators:
            raise ValueError("estimator set must not be empty")


@dataclass
class PotResult:
    """Threshold, excess count and per-estimator fits or failure messages."""

    threshold: float
    excess_count: int
    fits: dict[EstimatorId, FitResult] = field(default_factory=dict)
    failures: dict[EstimatorId, str] = field(default_factory=dict)


def select_threshold(x, k: int) -> float:
    """The (n-k)-th order statistic (ascending, 1-indexed) of the sample."""
    arr = np.asarray(x, dtype=float).ravel()
    n = arr.size
    if not _is_int(k) or not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n = {n}, got {k!r}")
    return _top_k(arr, k)[0]


def excesses(x, threshold: float) -> np.ndarray:
    """Strictly positive excesses x - threshold for observations above it."""
    arr = np.asarray(x, dtype=float).ravel()
    exc = arr[arr > threshold] - threshold
    if exc.size < 2:
        raise ValueError(
            f"need at least 2 exceedances above threshold {threshold}, got {exc.size}"
        )
    return exc


# transformed estimator -> its initial estimator and that one's name in messages
_INITIAL = {
    EstimatorId.TRANSFORMED_ZS: (EstimatorId.ZHANG_STEPHENS, "Zhang-Stephens"),
    EstimatorId.TRANSFORMED_PWM: (EstimatorId.PWM, "PWM"),
}


def _attempt(fitter, *args) -> FitResult | str:
    """The fit, or the message of the estimation error that stopped it."""
    try:
        return fitter(*args)
    except (ValueError, EstimationError) as err:
        return str(err)


class _RowFits:
    """One estimator's fits of a stack of samples.

    ``kernel`` is ``(xi, sigma, ok)``: each row's shape and scale estimates
    from a row kernel, and the rows that keep them.  Every other row runs
    ``fit_row``, the 1-D estimator; ``outcomes`` keeps its FitResult or
    failure message, and ``xi`` and ``sigma`` take its estimates, NaN where
    the fit failed or GPD ML did not converge.  Without a kernel (a 1-D
    call) only ``outcomes`` is kept.
    """

    def __init__(self, rows: int, kernel, fit_row):
        self.xi, self.sigma, ok = kernel or (None, None, None)
        todo = range(rows) if ok is None else np.flatnonzero(~ok)
        self.outcomes: dict[int, FitResult | str] = {i: fit_row(i) for i in todo}
        if self.xi is None:
            return
        for i, outcome in self.outcomes.items():
            fitted = isinstance(outcome, FitResult) and outcome.diagnostics.get("converged", 1.0)
            self.xi[i] = outcome.xi_hat if fitted else np.nan
            self.sigma[i] = outcome.sigma_hat if fitted and outcome.sigma_hat else np.nan

    def fit(self, i: int, estimator: EstimatorId) -> FitResult | str:
        """Row i as its 1-D estimator returns it, without diagnostics where
        the kernel fitted it."""
        if i in self.outcomes:
            return self.outcomes[i]
        return FitResult(float(self.xi[i]), float(self.sigma[i]), None, estimator)


def _kernel_fits(base: EstimatorId, x: np.ndarray, exc: np.ndarray, srt: np.ndarray):
    """``(xi, sigma, ok)`` over a stack from the row kernel of ``base``, with
    ``srt`` the sorted excesses: the estimates of every row, and the rows
    whose estimates the 1-D estimator returns unchanged (the other rows hold
    meaningless values).  GPD ML estimates are NaN where the fit did not
    converge.  No row is kept where the kernel does not apply."""
    rows = len(x)
    if base is not EstimatorId.PARETO_ML and srt.shape[1] < 2:
        return np.full(rows, np.nan), np.full(rows, np.nan), np.zeros(rows, dtype=bool)
    with np.errstate(all="ignore"):
        if base is EstimatorId.PARETO_ML:
            xi, mu = _pareto_ml_rows(x)
            return xi, np.full(rows, np.nan), (mu > 0) & np.isfinite(xi)
        ok = (srt[:, 0] >= 0) & (srt[:, -1] < np.inf)  # non-negative and finite; NaN sorts last
        if base is EstimatorId.GPD_MLE:
            return _gpd_mle_fits(exc, ok)
        if base is EstimatorId.ZHANG_STEPHENS:
            xi, sigma, _, _ = _zhang_stephens_rows(srt)
            ok &= srt[:, -1] > 0  # a zero xi_hat fails through sigma_hat = 0
        else:
            xi, sigma, _, _, denom = _pwm_rows(srt, PlottingPosition())
            ok &= denom > 0
    return xi, sigma, ok & np.isfinite(xi) & np.isfinite(sigma) & (sigma > 0)


def _gpd_mle_fits(exc: np.ndarray, ok: np.ndarray):
    """:func:`_kernel_fits` of GPD ML on the excesses in sample order, with
    ``ok`` the rows that are non-negative and finite.  Only rows with a scan
    range (a positive mean m with a finite 1e4/m) enter the kernel; a
    converged fit stands where its shape is non-zero and its scale positive."""
    xi, sigma = np.full(len(exc), np.nan), np.full(len(exc), np.nan)
    xbar = exc.mean(axis=1)
    ok &= (xbar < np.inf) & (1e4 / xbar < np.inf)
    fit, theta, converged, _ = _gpd_mle_rows(exc if ok.all() else exc[ok])
    fit[~converged] = np.nan
    xi[ok], sigma[ok] = fit, fit / theta
    ok[ok] = ~converged | ((fit != 0.0) & (sigma[ok] > 0) & (sigma[ok] < np.inf))
    return xi, sigma, ok


def fit_all(
    x, support, exc, wanted, rounds: int = 0
) -> dict[EstimatorId, FitResult | str] | dict[EstimatorId, np.ndarray]:
    """Fit each wanted estimator once; failures map to their messages.

    Zhang-Stephens, PWM and GPD ML fit the excesses ``exc`` (GPD ML even when
    not converged), Pareto ML fits ``x``.  A transformed estimator runs
    :func:`iterate_transform` on ``x`` with the support estimate ``support``,
    reusing the one Zhang-Stephens or PWM fit of the call.  Hill needs
    :func:`pot_estimate`.  Returns ``{EstimatorId: FitResult | message}``.

    Stack form: ``x`` of shape (r, n), ``exc`` of shape (r, w) and
    ``support`` of shape (r,) hold r samples, one per row.  The result maps
    each estimator to the r shape estimates, NaN where that row's fit failed
    or GPD ML did not converge, so a failure fails only its row.  Each row
    gets exactly the estimate of a 1-D call on it: the row kernels (GPD ML's
    on the excesses in their given order, which its averages follow) fit the
    whole stack, and a row whose kernel fit would not stand unchanged runs
    the 1-D estimator, which is the same kernel on one row.  So does the one
    row of a 1-D call.
    """
    if EstimatorId.HILL in wanted:
        raise ValueError("the Hill estimator needs the raw sample and k; use pot_estimate")
    single = np.ndim(x) == 1
    if single:
        x, support, exc = [x], [support], [exc]
    else:
        x, support, exc = (np.asarray(a, dtype=float) for a in (x, support, exc))
    rows = len(x)
    # built per call, so the estimators are looked up by their module-level names
    one_row = {
        EstimatorId.ZHANG_STEPHENS: (estimate_zhang_stephens, exc),
        EstimatorId.PWM: (estimate_pwm, exc),
        EstimatorId.GPD_MLE: (estimate_gpd_mle, exc),
        EstimatorId.PARETO_ML: (estimate_pareto_ml, x),
    }
    fits: dict[EstimatorId, _RowFits] = {}
    srt = None if single else np.sort(exc, axis=1)
    for estimator in dict.fromkeys(wanted):
        base, name = _INITIAL.get(estimator, (estimator, ""))
        if base not in fits:
            fitter, data = one_row[base]
            kernel = None if single else _kernel_fits(base, x, exc, srt)
            fits[base] = _RowFits(rows, kernel, lambda i: _attempt(fitter, data[i]))
        if base is estimator:
            continue
        initial = fits[base]

        def transformed(i):
            fit = initial.fit(i, base)
            if isinstance(fit, str):
                return f"initial {name} fit failed: {fit}"
            return _attempt(iterate_transform, x[i], fit, support[i], rounds)

        kernel = None
        if not single:
            xi = _iterate_transform_rows(x, support, initial.sigma, initial.xi, rounds)
            ok = np.isfinite(initial.xi) & (support > 0) & (support < np.inf)
            kernel = xi, np.full(rows, np.nan), ok & np.isfinite(xi) & np.isfinite(x).all(axis=1)
        fits[estimator] = _RowFits(rows, kernel, transformed)
    if single:
        return {estimator: fits[estimator].fit(0, estimator) for estimator in wanted}
    return {estimator: fits[estimator].xi for estimator in wanted}


def pot_estimate(x, cfg: PotConfig) -> PotResult:
    """Run the configured estimator set above the k-largest threshold.

    Hill runs here and the rest through :func:`fit_all`, with no refresh
    rounds; failures are recorded per estimator in ``failures``.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if cfg.fold_absolute:
        arr = np.abs(arr)
    threshold = select_threshold(arr, cfg.k)
    exc = excesses(arr, threshold)
    result = PotResult(threshold=threshold, excess_count=int(exc.size))

    wanted = tuple(dict.fromkeys(cfg.estimators))
    plan = [e for e in wanted if e is not EstimatorId.HILL]
    outcomes = fit_all(exc, float(exc.min()), exc, plan)
    if EstimatorId.HILL in wanted:
        outcomes[EstimatorId.HILL] = _attempt(estimate_hill, arr, cfg.k)
    for estimator in wanted:
        outcome = outcomes[estimator]
        if isinstance(outcome, str):
            result.failures[estimator] = outcome
        else:
            result.fits[estimator] = outcome
    return result
