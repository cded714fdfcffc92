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

A failure has one path: the row kernel of an estimator finds it and names
its :class:`~tailshape.estimators.Reason`.  A stack keeps the reason of each
row; a 1-D estimator runs its kernel on one row and raises the exception of
that reason.  Only the transforms keep a 1-D path of their own
(:func:`iterate_transform`, which their kernel matches row for row).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    _OK,
    EstimationError,
    EstimatorId,
    FitResult,
    PlottingPosition,
    Reason,
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
    return _top_k(np.asarray(x, dtype=float).ravel(), k)[0]


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


def _one_fit(estimator: EstimatorId, x, support, exc, rounds: int, fits) -> FitResult | str:
    """The 1-D fit of ``estimator``, or the message of its failure; a
    transformed estimator transforms ``x`` with its initial fit in ``fits``."""
    if estimator in _INITIAL:
        base, name = _INITIAL[estimator]
        if isinstance(fits[base], str):
            return f"initial {name} fit failed: {fits[base]}"
        return _attempt(iterate_transform, x, fits[base], support, rounds)
    # built per call, so the estimators are looked up by their module-level names
    fitter = {
        EstimatorId.ZHANG_STEPHENS: estimate_zhang_stephens,
        EstimatorId.PWM: estimate_pwm,
        EstimatorId.GPD_MLE: estimate_gpd_mle,
        EstimatorId.PARETO_ML: estimate_pareto_ml,
    }[estimator]
    return _attempt(fitter, x if estimator is EstimatorId.PARETO_ML else exc)


def _kernel_fits(estimator: EstimatorId, x, support, exc, srt, rounds: int, fits):
    """``(xi, scale, reason)`` of each row of a stack from the row kernel of
    ``estimator``, with ``srt`` the sorted excesses.  A transformed estimator
    transforms ``x`` with its initial fit in ``fits``.  Rows of fewer than 2
    values fail as too few."""
    nan = np.full(len(x), np.nan)
    on_x = estimator is EstimatorId.PARETO_ML or estimator in _INITIAL
    if (x if on_x else exc).shape[1] < 2:
        return nan, nan, np.full(len(x), Reason.too_few)
    if estimator in _INITIAL:
        xi, sigma, initial = fits[_INITIAL[estimator][0]]
        xi, reason = _iterate_transform_rows(x, support, sigma, xi, rounds, initial)
        return xi, nan, reason
    kernel = {
        EstimatorId.PARETO_ML: lambda: _pareto_ml_rows(x),
        EstimatorId.PWM: lambda: _pwm_rows(srt, PlottingPosition()),
        EstimatorId.ZHANG_STEPHENS: lambda: _zhang_stephens_rows(srt),
        EstimatorId.GPD_MLE: lambda: _gpd_mle_rows(exc),
    }[estimator]
    return kernel()[:3]


def fit_all(
    x, support, exc, wanted, rounds: int = 0
) -> dict[EstimatorId, FitResult | str] | dict[EstimatorId, tuple[np.ndarray, np.ndarray]]:
    """Fit each wanted estimator once; failures map to their messages.

    Zhang-Stephens, PWM and GPD ML fit the excesses ``exc`` (GPD ML even when
    not converged), Pareto ML fits ``x``.  A transformed estimator runs
    :func:`iterate_transform` on ``x`` with the support estimate ``support``,
    reusing the one Zhang-Stephens or PWM fit of the call.  Hill needs
    :func:`pot_estimate`.  Returns ``{EstimatorId: FitResult | message}``.

    Stack form: ``x`` of shape (r, n), ``exc`` of shape (r, w) and
    ``support`` of shape (r,) hold r samples, one per row.  The row kernels
    fit the whole stack (GPD ML's on the excesses in their given order, which
    its averages follow), and the result maps each estimator to
    ``(xi, reason)``: the r shape estimates and each row's
    :class:`~tailshape.estimators.Reason`, with xi NaN wherever the reason is
    not ``ok`` (including GPD ML fits that did not converge).  So a failure
    fails only its row, and each row gets exactly the estimate of a 1-D call
    on it, whose failure message is that of the row's reason.
    """
    if EstimatorId.HILL in wanted:
        raise ValueError("the Hill estimator needs the raw sample and k; use pot_estimate")
    single = np.ndim(x) == 1
    if not single:
        x, support, exc = (np.asarray(a, dtype=float) for a in (x, support, exc))
        srt = np.sort(exc, axis=1)
    fits = {}
    for estimator in dict.fromkeys(wanted):
        for e in (_INITIAL.get(estimator, (estimator,))[0], estimator):
            if e not in fits:
                fits[e] = (
                    _one_fit(e, x, support, exc, rounds, fits)
                    if single
                    else _kernel_fits(e, x, support, exc, srt, rounds, fits)
                )
    if single:
        return {estimator: fits[estimator] for estimator in wanted}
    return {e: (np.where(fits[e][2] == _OK, fits[e][0], np.nan), fits[e][2]) for e in wanted}


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
