"""Estimator plan and peaks-over-threshold estimation pipeline.

:func:`fit_all` runs every estimator set in the package, sharing one initial
fit between a transformed estimator and its plain counterpart.  In the POT
pipeline the threshold is the (n-k)-th order statistic, so exactly the k
largest observations exceed it (ties at the threshold count as
non-exceedances).  The plan runs on the k strictly positive excesses with the
smallest excess as the support estimate; the Hill estimator runs on the raw
sample with the same k.  Only the upper tail is used; observations are never
folded by absolute value (symmetric sources contribute through their largest
values only) unless ``fold_absolute`` is requested explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    EstimationError,
    EstimatorId,
    FitResult,
    estimate_gpd_mle,
    estimate_hill,
    estimate_pareto_ml,
    estimate_pwm,
    estimate_zhang_stephens,
)
from .transform import iterate_transform

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
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
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
    if not isinstance(k, (int, np.integer)) or not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n = {n}, got {k!r}")
    return float(np.partition(arr, n - k - 1)[n - k - 1])


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


def fit_all(x, support: float, exc, wanted, rounds: int = 0) -> dict[EstimatorId, FitResult | str]:
    """Fit each wanted estimator once; failures map to their messages.

    Zhang-Stephens, PWM and GPD ML fit the excesses ``exc`` (GPD ML even when
    not converged), Pareto ML fits ``x``.  A transformed estimator runs
    :func:`iterate_transform` on ``x`` with the support estimate ``support``,
    reusing the one Zhang-Stephens or PWM fit of the call.  Hill needs
    :func:`pot_estimate`.
    """
    if EstimatorId.HILL in wanted:
        raise ValueError("the Hill estimator needs the raw sample and k; use pot_estimate")
    # built per call, so the estimators are looked up by their module-level names
    direct = {
        EstimatorId.ZHANG_STEPHENS: (estimate_zhang_stephens, exc),
        EstimatorId.PWM: (estimate_pwm, exc),
        EstimatorId.GPD_MLE: (estimate_gpd_mle, exc),
        EstimatorId.PARETO_ML: (estimate_pareto_ml, x),
    }
    fits: dict[EstimatorId, FitResult | str] = {}
    for estimator in dict.fromkeys(wanted):
        base, name = _INITIAL.get(estimator, (estimator, ""))
        if base not in fits:
            fits[base] = _attempt(*direct[base])
        if base is estimator:
            continue
        if isinstance(fits[base], str):
            fits[estimator] = f"initial {name} fit failed: {fits[base]}"
        else:
            fits[estimator] = _attempt(iterate_transform, x, fits[base], support, rounds)
    return {estimator: fits[estimator] for estimator in wanted}


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
