"""Transformation of GPD observations to Pareto observations and back.

A heavy-tailed GPD variable x maps to a Pareto Type I variable through the
affine map ``z = (xi*mu/sigma) * x + mu * (1 - xi*mu/sigma)`` (three-parameter
form, lower bound mu) or ``z = sigma + xi * x`` for zero-location excesses
(two-parameter form, lower bound sigma).  In practice the map is built from
estimated parameters, so transformed values may fall below the Pareto support
bound; those are clamped to the bound and counted instead of rejected, which
also makes the pipeline well defined when the initial shape estimate is not
positive (then every interior point clamps and the fitted shape collapses
to zero).

Applying Pareto maximum likelihood to the transformed sample yields the
transformed shape estimate; quantiles of the original GPD are recovered from
Pareto quantiles by inverting the affine map.  The three-parameter map, the
clamp and Pareto ML are each written once; :func:`iterate_transform` composes
them for one sample and its private row kernel for a stack of equal-length
samples, one per row, each with its own initial fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .estimators import (
    _OK,
    EstimatorId,
    FitResult,
    Reason,
    _first_reason,
    _is_int,
    _pareto_ml_rows,
    estimate_pareto_ml,
)

__all__ = [
    "TransformForm",
    "TransformSpec",
    "TransformOutcome",
    "to_pareto",
    "transformed_shape_estimate",
    "iterate_transform",
    "gpd_quantile_via_transform",
    "gpd_cdf_via_transform",
]


class TransformForm(Enum):
    THREE_PARAMETER = "three_parameter"
    TWO_PARAMETER = "two_parameter"


_TRANSFORMED_ID = {
    EstimatorId.ZHANG_STEPHENS: EstimatorId.TRANSFORMED_ZS,
    EstimatorId.PWM: EstimatorId.TRANSFORMED_PWM,
}


@dataclass(frozen=True)
class TransformSpec:
    """Estimated parameters driving the GPD-to-Pareto map.

    ``sigma_hat`` must be positive and ``mu_hat`` positive for the
    three-parameter form.  ``xi_hat`` may be any finite value: non-positive
    initial estimates occur in small samples and are absorbed by the clamp
    rule in :func:`to_pareto`.
    """

    mu_hat: float
    sigma_hat: float
    xi_hat: float
    form: TransformForm = TransformForm.THREE_PARAMETER

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_hat) and self.sigma_hat > 0):
            raise ValueError(f"sigma_hat must be a positive real, got {self.sigma_hat}")
        if not math.isfinite(self.xi_hat):
            raise ValueError(f"xi_hat must be finite, got {self.xi_hat}")
        if self.form is TransformForm.THREE_PARAMETER:
            if not (math.isfinite(self.mu_hat) and self.mu_hat > 0):
                raise ValueError(
                    f"mu_hat must be a positive real for the three-parameter form, got {self.mu_hat}"
                )
        elif not math.isfinite(self.mu_hat):
            raise ValueError(f"mu_hat must be finite, got {self.mu_hat}")

    @property
    def lower_bound(self) -> float:
        """Pareto support bound: mu_hat (three-parameter) or sigma_hat."""
        if self.form is TransformForm.THREE_PARAMETER:
            return self.mu_hat
        return self.sigma_hat

    @property
    def slope(self) -> float:
        if self.form is TransformForm.THREE_PARAMETER:
            return _three_parameter_map(self.mu_hat, self.sigma_hat, self.xi_hat)[0]
        return self.xi_hat

    @property
    def intercept(self) -> float:
        if self.form is TransformForm.THREE_PARAMETER:
            return _three_parameter_map(self.mu_hat, self.sigma_hat, self.xi_hat)[1]
        return self.sigma_hat


def _three_parameter_map(mu_hat, sigma_hat, xi_hat):
    """Slope and intercept of the three-parameter map, for scalars or arrays."""
    return xi_hat * mu_hat / sigma_hat, mu_hat * (1.0 - xi_hat * mu_hat / sigma_hat)


def _clamped_map(x, slope, intercept, bound) -> tuple[np.ndarray, np.ndarray]:
    """``slope * x + intercept`` with values below ``bound`` set to it, and the
    mask of those values; per-row parameters broadcast as columns."""
    z = slope * x
    z += intercept
    below = z < bound
    np.copyto(z, bound, where=below)
    return z, below


@dataclass
class TransformOutcome:
    """Transformed sample plus the count of values clamped to the bound."""

    z: np.ndarray
    clamp_count: int
    lower_bound: float


def to_pareto(x, spec: TransformSpec) -> TransformOutcome:
    """Apply the affine GPD-to-Pareto map and clamp below the support bound.

    The map preserves ranks whenever the slope is positive; values landing
    below the bound (possible only with estimated parameters) are set equal to
    the bound and counted in ``clamp_count``.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot transform an empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    bound = spec.lower_bound
    z, below = _clamped_map(arr, spec.slope, spec.intercept, bound)
    return TransformOutcome(z, int(np.count_nonzero(below)), bound)


def transformed_shape_estimate(x, initial: FitResult, mu_hat: float) -> FitResult:
    """Pareto ML shape estimate on observations transformed with an initial fit.

    Builds a three-parameter :class:`TransformSpec` from ``mu_hat`` (the
    support estimate, normally the sample minimum) and the initial fit's
    ``sigma_hat`` and ``xi_hat``, transforms, then applies
    :func:`estimate_pareto_ml` with the transformed minimum as the Pareto
    scale.  With no clamping this equals the direct expression
    ``mean(log1p((xi_hat/sigma_hat) * (x - mu_hat)))``.

    The result carries the transformed tail index ``alpha_transformed``
    (infinite when the fitted shape collapses to zero) and ``clamp_count``.
    """
    if initial.sigma_hat is None:
        raise ValueError("initial fit must carry a scale estimate")
    try:
        estimator = _TRANSFORMED_ID[initial.estimator]
    except KeyError:
        raise ValueError(
            f"no transformed estimator is defined for initial fits from {initial.estimator!r}"
        ) from None
    spec = TransformSpec(mu_hat, initial.sigma_hat, initial.xi_hat)
    outcome = to_pareto(x, spec)
    pareto = estimate_pareto_ml(outcome.z)
    xi = pareto.xi_hat
    return FitResult(
        xi,
        None,
        pareto.mu_hat,
        estimator,
        {
            "clamp_count": float(outcome.clamp_count),
            "alpha_transformed": 1.0 / xi if xi > 0 else math.inf,
            "initial_xi": initial.xi_hat,
        },
    )


def iterate_transform(x, initial: FitResult, mu_hat: float, rounds: int) -> FitResult:
    """Optionally refresh the transform with its own shape estimate.

    ``rounds = 0`` reproduces :func:`transformed_shape_estimate` exactly.
    Each further round rebuilds the transform keeping the initial scale and
    support estimates and replacing only the shape with the previous round's
    estimate.  Iteration stops early at a non-positive shape (the transform
    would clamp wholesale and sit at the same fixed point).  The default used
    by the replication harness is zero rounds.
    """
    if not _is_int(rounds) or rounds < 0:
        raise ValueError(f"rounds must be a non-negative integer, got {rounds!r}")
    fit = transformed_shape_estimate(x, initial, mu_hat)
    done = 0
    current = initial
    for _ in range(rounds):
        if fit.xi_hat <= 0:
            break
        current = replace(current, xi_hat=fit.xi_hat)
        fit = transformed_shape_estimate(x, current, mu_hat)
        done += 1
    fit.diagnostics["refresh_rounds"] = float(done)
    return fit


def _transform_row_checks(x, mu_hat) -> np.ndarray:
    """Reason of each row of ``x`` that no three-parameter map with support
    estimate ``mu_hat`` may transform, else ``ok``; it does not depend on the
    initial fit, so every transformed estimator of a stack shares it."""
    return _first_reason(
        (~((mu_hat > 0) & (mu_hat < np.inf)), Reason.support_nonpositive),
        (~np.isfinite(x).all(axis=1), Reason.non_finite),
    )


def _iterate_transform_rows(
    x, mu_hat, sigma_hat, xi_hat, rounds: int, initial: np.ndarray, checked: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row kernel of :func:`iterate_transform` with three-parameter maps.

    Row i of ``x`` is transformed with ``mu_hat[i]``, ``sigma_hat[i]`` and
    ``xi_hat[i]``, the initial fit whose reason is ``initial[i]``;
    ``checked`` is :func:`_transform_row_checks` of ``x`` and ``mu_hat``.
    The result is each row's shape estimate after ``rounds`` refresh rounds
    and its reason.  A refreshed estimate is a Pareto ML fit, so a
    non-positive one is zero, which maps every value to the bound and fits
    zero again: the early stop of :func:`iterate_transform` would not change
    it.
    """
    reason = np.where(initial != _OK, int(Reason.initial_failed), checked)
    xi = xi_hat
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(rounds + 1):
            slope, intercept = _three_parameter_map(mu_hat, sigma_hat, xi)
            z, _ = _clamped_map(x, slope[:, None], intercept[:, None], mu_hat[:, None])
            xi, _, fit = _pareto_ml_rows(z)
            # a row keeps the reason of its first failure
            reason = np.where(reason == _OK, fit, reason)
    return xi, reason


def gpd_quantile_via_transform(spec: TransformSpec, alpha_transformed: float, prob):
    """GPD quantile recovered through the Pareto transform.

    Computes the Pareto quantile ``z_p = bound * (1 - p)**(-1/alpha)`` and
    inverts the affine map, which requires a positive fitted shape.
    """
    if not (math.isfinite(alpha_transformed) and alpha_transformed > 0):
        raise ValueError(f"alpha_transformed must be a positive real, got {alpha_transformed}")
    if spec.xi_hat <= 0:
        raise ValueError("quantile back-transformation requires a positive xi_hat")
    p = np.asarray(prob, dtype=float)
    if np.any((p < 0.0) | (p >= 1.0)):
        raise ValueError("probabilities must lie in [0, 1)")
    z_p = spec.lower_bound * (1.0 - p) ** (-1.0 / alpha_transformed)
    if spec.form is TransformForm.THREE_PARAMETER:
        x_p = (z_p - spec.mu_hat) * spec.sigma_hat / (spec.xi_hat * spec.mu_hat) + spec.mu_hat
    else:
        x_p = (z_p - spec.sigma_hat) / spec.xi_hat
    return float(x_p) if np.ndim(prob) == 0 else x_p


def gpd_cdf_via_transform(spec: TransformSpec, alpha_transformed: float, x):
    """Probability level recovered through the transform: 1 - (bound/z(x))**alpha."""
    if not (math.isfinite(alpha_transformed) and alpha_transformed > 0):
        raise ValueError(f"alpha_transformed must be a positive real, got {alpha_transformed}")
    arr = np.asarray(x, dtype=float)
    z = spec.slope * arr + spec.intercept
    if np.any(z < spec.lower_bound):
        raise ValueError("x maps below the Pareto support bound")
    p = 1.0 - (spec.lower_bound / z) ** alpha_transformed
    return float(p) if np.ndim(x) == 0 else p
