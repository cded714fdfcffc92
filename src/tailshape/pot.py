"""Estimator plan and peaks-over-threshold estimation pipeline.

:func:`fit_all` runs every estimator set in the package, sharing one initial
fit between a transformed estimator and its plain counterpart, on one sample
or on a stack of equal-length samples, one per row.  In the POT pipeline the
threshold is the (n-k)-th order statistic, so exactly the k largest
observations exceed it (ties at the threshold count as non-exceedances).  The
plan runs on the k strictly positive excesses with the smallest excess as the
support estimate, and the Hill estimator on the tail: the threshold and the k
largest observations.  Only the upper tail is used; observations are never
folded by absolute value (symmetric sources contribute through their largest
values only) unless ``fold_absolute`` is requested explicitly.  The
replication engine runs the same pipeline on stacks of samples through the row
kernels (:mod:`tailshape.montecarlo`).

There is one fit path and one failure path.  The row kernel of an estimator
fits a stack of rows and names each failed row's
:class:`~tailshape.estimators.Reason`; one sample is fitted as a stack of one
row, whose fit or failure message comes from the one mapping of a row to a
:class:`~tailshape.estimators.FitResult` or a message.  Which kernel an
estimator runs, and on which rows, is looked up in the one estimator table of
:mod:`tailshape.estimators`, Hill's too.  One reduction of samples to their
excesses and tail serves :func:`pot_estimate` and the replication engine; a
sample with a NaN or an infinite value fails every estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    _INITIAL,
    _OK,
    _ROWS,
    EstimatorId,
    FitResult,
    Reason,
    _is_int,
    _outcome,
    _reduce_pot,
)
from .transform import _iterate_transform_rows

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


def _check_estimators(estimators) -> None:
    """Raise ValueError naming each entry that is not an EstimatorId."""
    unknown = [e for e in estimators if not isinstance(e, EstimatorId)]
    if unknown:
        raise ValueError(f"unknown estimators {unknown!r}; expected EstimatorId members")


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
        _check_estimators(self.estimators)


@dataclass
class PotResult:
    """Threshold, excess count and per-estimator fits or failure messages."""

    threshold: float
    excess_count: int
    fits: dict[EstimatorId, FitResult] = field(default_factory=dict)
    failures: dict[EstimatorId, str] = field(default_factory=dict)


def select_threshold(x, k: int) -> float:
    """The (n-k)-th order statistic (ascending, 1-indexed) of the sample."""
    return float(_reduce_pot(np.asarray(x, dtype=float).ravel()[None, :], k)[2][0, 0])


def _check_exceedances(count: int, threshold: float) -> None:
    if count < 2:
        raise ValueError(f"need at least 2 exceedances above threshold {threshold}, got {count}")


def excesses(x, threshold: float) -> np.ndarray:
    """Strictly positive excesses x - threshold for observations above it."""
    arr = np.asarray(x, dtype=float).ravel()
    exc = arr[arr > threshold] - threshold
    _check_exceedances(exc.size, threshold)
    return exc


def _kernel_fits(e: EstimatorId, rows: dict, support, rounds: int, fits):
    """The outputs ``(xi, scale, reason, ...)`` of the row kernel of estimator
    ``e`` on ``rows[kind]``, the stack of the kind of rows it fits.  A
    transformed estimator transforms the sample with its initial fit in
    ``fits``; its kernel checks the rows.  Rows of fewer than 2 values fail as
    too few (a transformed estimator's after its initial fit and checks)."""
    if e in _INITIAL:
        return _iterate_transform_rows(rows["sample"], support, fits[_INITIAL[e]], rounds)
    _, kind, kernel, *_ = _ROWS[e]
    if rows[kind].shape[1] < 2:
        nan = np.full(len(support), np.nan)
        return nan, nan, np.full(len(support), Reason.too_few)
    return kernel(rows[kind])


def fit_all(
    x, support, exc, wanted, rounds: int = 0, tail=None
) -> dict[EstimatorId, FitResult | str] | dict[EstimatorId, tuple[np.ndarray, np.ndarray]]:
    """Fit each wanted estimator once; failures map to their messages.

    Zhang-Stephens, PWM and GPD ML fit the excesses ``exc`` (GPD ML even when
    not converged), Pareto ML fits ``x``, Hill the ``tail`` (X_(n-k), then the
    k largest values, sorted).  A transformed estimator transforms ``x`` with
    the support estimate ``support`` and the one Zhang-Stephens or PWM fit of
    the call, refreshed ``rounds`` times as by
    :func:`~tailshape.transform.iterate_transform`.  Returns ``{EstimatorId:
    FitResult | message}``.

    Stack form: ``x`` of shape (r, n), ``exc`` of shape (r, w), ``tail`` of
    shape (r, k + 1) and ``support`` of shape (r,) hold r samples, one per
    row.  The row kernels fit the whole stack (GPD ML's on the excesses in
    their given order, which its averages follow), and the result maps each
    estimator to ``(xi, reason)``: the r shape estimates and each row's
    :class:`~tailshape.estimators.Reason`, with xi NaN wherever the reason is
    not ``ok`` (including GPD ML fits that did not converge).  So a failure
    fails only its row.  One sample is fitted as a stack of one row, so each
    row of a stack gets exactly the estimate of the one-sample call on it,
    whose failure message is that of the row's reason.
    """
    _check_estimators(wanted)
    if EstimatorId.HILL in wanted and tail is None:
        raise ValueError("the Hill estimator needs the raw sample and k; use pot_estimate")
    transformed = set(wanted) & _INITIAL.keys()
    if transformed and (not _is_int(rounds) or rounds < 0):
        raise ValueError(f"rounds must be a non-negative integer, got {rounds!r}")
    single = np.ndim(x) == 1
    xs, supports, excs, tails = (np.asarray(a, dtype=float) for a in (x, support, exc, tail))
    if single:
        xs, supports, excs, tails = xs[None, :], supports.reshape(1), excs.reshape(1, -1), tails[None]
    rows = {"sample": xs, "excesses": excs, "tail": tails}
    if any(_ROWS[_INITIAL.get(e, e)][1] == "sorted" for e in wanted):  # one sort for all
        rows["sorted"] = np.sort(excs, axis=1)
    fits = {}
    for estimator in dict.fromkeys(wanted):
        for e in (_INITIAL.get(estimator, estimator), estimator):
            if e not in fits:
                fits[e] = _kernel_fits(e, rows, supports, rounds, fits)
    if not single:
        return {e: (np.where(fits[e][2] == _OK, fits[e][0], np.nan), fits[e][2]) for e in wanted}
    outcomes = {}
    for e, out in fits.items():  # an initial fit before its transformed one
        sample = xs[0] if _ROWS[e][1] == "sample" else excs[0]
        outcome = _outcome(e, out, sample, support=support, initial=outcomes.get(_INITIAL.get(e)))
        outcomes[e] = outcome if isinstance(outcome, FitResult) else outcome[1]
    return {e: outcomes[e] for e in wanted}


def pot_estimate(x, cfg: PotConfig) -> PotResult:
    """Run the configured estimator set above the k-largest threshold.

    Every estimator runs through one :func:`fit_all` call, with no refresh
    rounds; failures are recorded per estimator in ``failures``.  The sample
    is reduced to its excesses and tail once, by the reduction the
    replication engine uses.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if cfg.fold_absolute:
        arr = np.abs(arr)
    with np.errstate(over="ignore"):  # an infinite excess fails as non-finite
        exc, count, tail = _reduce_pot(arr[None, :], cfg.k)
    result = PotResult(threshold=float(tail[0, 0]), excess_count=int(count[0]))
    _check_exceedances(result.excess_count, result.threshold)
    exc = exc[0, : count[0]]
    outcomes = fit_all(exc, float(exc.min()), exc, cfg.estimators, tail=tail[0])
    for estimator in cfg.estimators:  # an estimator named twice is fitted once
        outcome = outcomes[estimator]
        (result.failures if isinstance(outcome, str) else result.fits)[estimator] = outcome
    return result
