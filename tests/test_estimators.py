"""Tests for the five shape-parameter estimators."""

import inspect
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailshape import (
    EstimationError,
    EstimatorId,
    FitResult,
    GpdParams,
    ParetoParams,
    PwmSingularityError,
    Reason,
    RngStream,
    estimate_gpd_mle,
    estimate_hill,
    estimate_pareto_ml,
    estimate_pwm,
    estimate_zhang_stephens,
    sample_gpd,
    sample_pareto,
    sample_student_t,
    sample_symmetric_stable,
)
from tailshape import estimators, fit_all, run_experiments, table_specs
from tailshape.estimators import (
    _OK,
    ELEMENT_BUDGET,
    _coarse,
    _excess_checks,
    _first_reason,
    _gpd_mle_rows,
    _invalid,
    _profile_loglik,
    _profile_score,
    _profile_xi,
    _pwm_rows,
    _zhang_stephens_rows,
)
from tailshape.pot import excesses, select_threshold


def gpd_excesses(sigma, xi, n, seed, stream=0):
    return sample_gpd(GpdParams(0.0, sigma, xi), n, RngStream(seed, stream))


class TestFitResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitResult(math.nan, None, None, EstimatorId.PWM)
        with pytest.raises(ValueError):
            FitResult(0.5, -1.0, None, EstimatorId.PWM)


class TestParetoMl:
    def test_hand_case(self):
        fit = estimate_pareto_ml([1.0, math.e, math.e**2])
        assert fit.xi_hat == pytest.approx(1.0, abs=1e-12)
        assert fit.mu_hat == 1.0
        assert fit.estimator is EstimatorId.PARETO_ML

    def test_degenerate_sample_gives_zero(self):
        assert estimate_pareto_ml([3.0, 3.0, 3.0]).xi_hat == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_pareto_ml([1.0])
        with pytest.raises(ValueError):
            estimate_pareto_ml([1.0, 0.0])
        with pytest.raises(ValueError):
            estimate_pareto_ml([1.0, -2.0])

    def test_consistency(self):
        z = sample_pareto(ParetoParams(1.0, 2.0), 100_000, RngStream(21, 0))
        assert estimate_pareto_ml(z).xi_hat == pytest.approx(0.5, abs=0.02)

    def test_scale_equivariance_exact(self):
        z = sample_pareto(ParetoParams(1.0, 1.5), 500, RngStream(22, 0))
        assert estimate_pareto_ml(4.0 * z).xi_hat == estimate_pareto_ml(z).xi_hat


class TestPwm:
    def test_all_equal_sample_stays_finite(self):
        # a0 - 2*a1 = 0.3*c/n > 0, so the degenerate sample does not trip the
        # singularity error; it just yields a strongly negative shape
        fit = estimate_pwm([2.0, 2.0, 2.0, 2.0])
        assert math.isfinite(fit.xi_hat)
        assert fit.sigma_hat > 0

    def test_all_zero_sample_raises_singularity(self):
        with pytest.raises(PwmSingularityError):
            estimate_pwm([0.0, 0.0, 0.0])

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            estimate_pwm([1.0, -0.5])

    def test_consistency(self):
        z = gpd_excesses(1.0, 0.25, 100_000, 23)
        fit = estimate_pwm(z)
        assert fit.xi_hat == pytest.approx(0.25, abs=0.02)
        assert fit.sigma_hat == pytest.approx(1.0, abs=0.05)

    def test_scale_equivariance(self):
        z = gpd_excesses(1.0, 0.3, 400, 24)
        base = estimate_pwm(z)
        scaled = estimate_pwm(7.0 * z)
        assert scaled.xi_hat == pytest.approx(base.xi_hat, abs=1e-9)
        assert scaled.sigma_hat == pytest.approx(7.0 * base.sigma_hat, rel=1e-9)


_TINY = np.finfo(float).tiny


def _normal_shifts(x, sigma):
    """The j in [-1000, 1000] for which x * 2^j and the fitted scale sigma * 2^j
    are all normal."""
    values = np.abs(np.append(x, sigma))
    low, high = values.min(), values.max()
    return [j for j in range(-1000, 1001) if math.ldexp(low, j) >= _TINY
            and math.isfinite(math.ldexp(high, j))]


def _assert_power_of_two_equivariant(x, shifts):
    """estimate_pwm and the stacked kernel on x * 2^j: the shape of x bit for
    bit and 2^j times its scale, for each j of ``shifts``."""
    base = estimate_pwm(x)
    for j in shifts:
        fit = estimate_pwm(np.ldexp(x, j))
        assert fit.xi_hat == base.xi_hat
        assert fit.sigma_hat == math.ldexp(base.sigma_hat, j)
    stack = np.sort(np.ldexp(x, np.array(shifts)[:, None]), axis=1)
    xi, sigma, reason, *_ = _pwm_rows(stack)
    assert (reason == Reason.ok).all()
    assert (xi == base.xi_hat).all()
    assert (sigma == np.ldexp(base.sigma_hat, shifts)).all()


class TestPwmExtremeScales:
    """PWM forms its moments on each row divided by the power of two of its
    maximum: a0 * a1 used to overflow or underflow far from unit scale."""

    SAMPLE = sample_gpd(GpdParams(0.0, 1.0, 0.3), 200, RngStream(5, 0))

    def test_power_of_two_scaling_is_exact(self):
        shifts = _normal_shifts(self.SAMPLE, estimate_pwm(self.SAMPLE).sigma_hat)
        assert shifts[0] < -900 and shifts[-1] > 900
        _assert_power_of_two_equivariant(self.SAMPLE, shifts)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=50),
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=8),
    )
    def test_power_of_two_scaling_property(self, values, shifts):
        x = np.array(values)
        try:
            sigma = estimate_pwm(x).sigma_hat
        except (ValueError, EstimationError):
            return
        shifts = sorted(set(shifts) & set(_normal_shifts(x, sigma)))
        if shifts:
            _assert_power_of_two_equivariant(x, shifts)

    @pytest.mark.parametrize("scale", [1e155, 1e-300])
    def test_decimal_extremes_fit(self, scale):
        # these raised "sigma_hat must be positive when present, got inf / 0.0"
        base = estimate_pwm(self.SAMPLE)
        fit = estimate_pwm(self.SAMPLE * scale)
        assert fit.xi_hat == pytest.approx(base.xi_hat, rel=1e-12)
        assert fit.sigma_hat == pytest.approx(base.sigma_hat * scale, rel=1e-12)
        x = self.SAMPLE * scale
        support = float(x.min())
        out = fit_all(x, support, x[x > support] - support, (EstimatorId.TRANSFORMED_PWM,))
        assert isinstance(out[EstimatorId.TRANSFORMED_PWM], FitResult)

    def test_huge_values_fit(self):
        # a0 * a1 overflowed for [1.7e308, 1e-3]; the fit is that of the
        # sample scaled down by 2^1000, scaled back
        huge = np.array([1.7e308, 1e-3])
        fit = estimate_pwm(huge)
        small = estimate_pwm(np.ldexp(huge, -1000))
        assert fit.xi_hat == small.xi_hat
        assert fit.sigma_hat == math.ldexp(small.sigma_hat, 1000)

    @pytest.mark.parametrize(
        "values", [[0.0, 1e-310, 2e-310], [0.0, 1e-310, 0.0]], ids=["tiny", "scan range overflows"]
    )
    def test_subnormal_maximum_fits(self, values):
        # a row whose maximum is subnormal was left unscaled, so a0 * a1
        # underflowed: "sigma_hat must be positive when present, got 0.0"
        tiny = np.array(values)
        fit = estimate_pwm(tiny)
        normal = estimate_pwm(np.ldexp(tiny, 1000))
        assert fit.xi_hat == normal.xi_hat
        assert fit.sigma_hat == math.ldexp(normal.sigma_hat, -1000) > 0


class TestZhangStephens:
    def test_consistency(self):
        z = gpd_excesses(2.0, 0.5, 100_000, 26)
        fit = estimate_zhang_stephens(z)
        assert fit.xi_hat == pytest.approx(0.5, abs=0.02)
        assert fit.sigma_hat == pytest.approx(2.0, abs=0.05)

    def test_zero_heavy_sample_is_finite(self):
        fit = estimate_zhang_stephens([0.0, 0.0, 1.0])
        assert math.isfinite(fit.xi_hat)

    def test_all_zero_raises(self):
        with pytest.raises(EstimationError):
            estimate_zhang_stephens([0.0, 0.0])

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            estimate_zhang_stephens([-1.0, 1.0])

    def test_scale_equivariance(self):
        z = gpd_excesses(1.0, 0.4, 300, 27)
        base = estimate_zhang_stephens(z)
        scaled = estimate_zhang_stephens(0.125 * z)
        assert scaled.xi_hat == pytest.approx(base.xi_hat, abs=1e-9)
        assert scaled.sigma_hat == pytest.approx(0.125 * base.sigma_hat, rel=1e-9)

    def test_permutation_invariance(self):
        z = gpd_excesses(1.0, 0.4, 300, 28)
        shuffled = z[RngStream(28, 1).generator.permutation(z.size)]
        assert estimate_zhang_stephens(shuffled).xi_hat == pytest.approx(
            estimate_zhang_stephens(z).xi_hat, abs=1e-12
        )


# zeros and positive values within 300 decades: with a quartile below about
# 1e-308, or about 308 decades between it and the largest value, the grid or
# theta * x overflows (see the strict xfail below)
nonnegative_samples = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-150, max_value=1e150)),
    min_size=2,
    max_size=80,
).filter(lambda values: max(values) > 0)


class TestZhangStephensFinite:
    @settings(max_examples=300, deadline=None)
    @given(nonnegative_samples)
    def test_finite_on_any_nonnegative_sample(self, values):
        fit = estimate_zhang_stephens(values)
        assert math.isfinite(fit.xi_hat)
        assert math.isfinite(fit.sigma_hat) and fit.sigma_hat > 0

    @pytest.mark.xfail(
        strict=True, raises=ValueError, reason="the theta grid times x overflows past 1.8e308"
    )
    @pytest.mark.parametrize("values", [[990.0, 2.2250738585072014e-308], [1.7e308, 1e-3]])
    def test_finite_beyond_308_decades(self, values):
        assert math.isfinite(estimate_zhang_stephens(values).xi_hat)


class TestGpdMle:
    def test_consistency(self):
        z = gpd_excesses(1.0, 0.75, 100_000, 29)
        fit = estimate_gpd_mle(z)
        assert fit.xi_hat == pytest.approx(0.75, abs=0.02)
        assert fit.sigma_hat == pytest.approx(1.0, abs=0.05)
        assert fit.diagnostics["converged"] == 1.0
        assert fit.diagnostics["optimizer_iterations"] > 0

    def test_profile_beats_random_probes(self):
        z = gpd_excesses(1.0, 0.5, 200, 30)
        fit = estimate_gpd_mle(z)
        returned = fit.diagnostics["profile_loglik"]
        gen = RngStream(30, 1).generator
        probes = np.exp(gen.uniform(math.log(1e-8 / z.mean()), math.log(1e4 / z.mean()), 1000))
        values, _ = _profile_loglik(probes[None, :], z[None, :])
        assert returned >= values.max() - 1e-9

    def test_divergence_reported_not_hidden(self):
        # zero-inflated samples push the profile maximum to the boundary
        fit = estimate_gpd_mle([0.0, 0.0, 1.0, 2.0])
        assert fit.diagnostics["converged"] == 0.0
        assert math.isfinite(fit.xi_hat)

    def test_scale_equivariance(self):
        z = gpd_excesses(1.0, 0.6, 400, 31)
        base = estimate_gpd_mle(z)
        scaled = estimate_gpd_mle(3.0 * z)
        assert scaled.xi_hat == pytest.approx(base.xi_hat, abs=1e-9)
        assert scaled.sigma_hat == pytest.approx(3.0 * base.sigma_hat, rel=1e-9)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            estimate_gpd_mle([-0.1, 1.0])

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a fit at the xi -> 0 end of the scan is reported as converged",
    )
    def test_boundary_fit_not_reported_converged(self):
        # GPD excesses with xi = -0.3, sigma = 1: the profile has its maximum
        # on the negative branch, outside the scan, which stops at its lower
        # end with xi_hat = 1e-14 and theta = 1.4e-14
        u = RngStream(11, 0).generator.random(1000)
        fit = estimate_gpd_mle((1.0 - (1.0 - u) ** 0.3) / 0.3)
        assert abs(fit.xi_hat) >= 1e-6 or fit.diagnostics["converged"] != 1.0


def _score(theta, x):
    """Profile score in log(theta), divided by n: 1 - d/xi - d."""
    t = theta * x
    xi = float(np.mean(np.log1p(t)))
    d = float(np.mean(t / (1.0 + t)))
    if xi == 0.0:
        return math.inf
    return 1.0 - d / xi - d


def _bisection_gpd_mle(x):
    """Oracle: the GPD MLE as solved before the Newton refinement.

    Same scan, bracket and divergence rule as ``estimate_gpd_mle``, then
    bisection on the sign of the score down to a 1e-13 bracket in log(theta).
    Returns ``(xi_hat, converged)``.
    """
    x = np.asarray(x, dtype=float)
    xbar = float(x.mean())
    theta_hi, theta_lo = 1e4 / xbar, 1e-8 / xbar
    grid = np.geomspace(theta_lo, theta_hi, 200)
    ll = _profile_loglik(grid[None, :], x[None, :])[0][0]
    i = int(np.argmax(ll))
    if i == grid.size - 1 and ll[-1] > ll[-2]:
        return float(np.mean(np.log1p(theta_hi * x))), 0.0
    lo = grid[i - 1] if i > 0 else theta_lo * 1e-6
    hi = grid[i + 1] if i < grid.size - 1 else theta_hi
    if _score(lo, x) <= 0.0:
        theta = lo if i == 0 else float(grid[i])
    elif _score(hi, x) >= 0.0:
        theta = float(grid[i])
    else:
        log_lo, log_hi = math.log(lo), math.log(hi)
        while log_hi - log_lo > 1e-13:
            mid = 0.5 * (log_lo + log_hi)
            if _score(math.exp(mid), x) > 0.0:
                log_lo = mid
            else:
                log_hi = mid
        theta = math.exp(0.5 * (log_lo + log_hi))
    return float(np.mean(np.log1p(theta * x))), 1.0


def _check_against_bisection(x):
    fit = estimate_gpd_mle(x)
    xi_ref, converged_ref = _bisection_gpd_mle(x)
    assert fit.diagnostics["converged"] == converged_ref
    # absolute gate: near the xi -> 0 boundary both solvers return xi ~ 1e-14
    assert abs(fit.xi_hat - xi_ref) <= 1e-10
    if fit.diagnostics["converged"]:
        assert abs(_score(fit.diagnostics["theta"], x)) <= 1e-8
    return fit


positive_samples = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=60,
)


class TestGpdMleNewton:
    """The safeguarded Newton refinement against the bisection it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(positive_samples)
    def test_matches_bisection_on_random_samples(self, values):
        _check_against_bisection(np.array(values))

    def test_matches_bisection_on_pot_excesses(self):
        iterations = []
        for r in range(600):
            stream = RngStream(37, r)
            if r % 2:
                x = np.abs(sample_student_t(float(1 + r % 5), 1000, stream))
            else:
                x = np.abs(sample_symmetric_stable(1.1 + 0.2 * (r % 5), 1000, stream))
            fit = _check_against_bisection(excesses(x, select_threshold(x, 100)))
            iterations.append(fit.diagnostics["optimizer_iterations"])
        # bisection needed about 41 steps per fit
        assert np.mean(iterations) < 10

    @settings(max_examples=100, deadline=None)
    @given(positive_samples, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a, b = estimate_gpd_mle(values), estimate_gpd_mle(shuffled)
        assert a.diagnostics["converged"] == b.diagnostics["converged"]
        assert b.xi_hat == pytest.approx(a.xi_hat, abs=1e-10)

    def test_terminates_at_extreme_scale(self):
        # |log(theta)| > 512 here, where one float step in log(theta) exceeds
        # 1e-13; a fixed 1e-13 tolerance would never be met
        x = np.array([4.972205330952911e-268, 3.8477897514601318e-267, 2.1657830536678223e-265])
        fit = estimate_gpd_mle(x)
        assert fit.diagnostics["converged"] == 1.0
        assert fit.xi_hat == pytest.approx(estimate_gpd_mle(x * 1e266).xi_hat, abs=1e-9)


def _scalar_profile_score(theta, x):
    """The profile score and its slope as the 1-D solver computed them."""
    t = theta * x
    xi = float(np.mean(np.log1p(t)))
    if xi == 0.0:
        return math.inf, 0.0
    q = 1.0 + t
    r = t / q
    d = float(np.mean(r))
    dd = float(np.mean(r / q))
    return 1.0 - d / xi - d, -(dd * xi - d * d) / (xi * xi) - dd


def _scalar_profile_loglik(theta, x):
    """The profile log-likelihood at the points ``theta`` as the 1-D solver
    computed it, invalid points mapped to -inf."""
    xi = np.log1p(np.multiply.outer(theta, x)).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = x.size * (np.log(theta / xi) - xi - 1.0)
    return np.where(np.isfinite(ll), ll, -np.inf)


def _scalar_gpd_mle(excesses):
    """Oracle: estimate_gpd_mle as written before its row kernel (one sample,
    Python floats), for samples whose mean has a finite 1e4/mean."""
    x = np.asarray(excesses, dtype=float)
    xbar = float(x.mean())
    theta_hi = 1e4 / xbar
    theta_lo = 1e-8 / xbar
    grid = np.geomspace(theta_lo, theta_hi, 200)
    ll = _scalar_profile_loglik(grid, x)
    i = int(np.argmax(ll))
    if i == grid.size - 1 and ll[-1] > ll[-2]:
        xi = float(np.mean(np.log1p(theta_hi * x)))
        return FitResult(xi, xi / theta_hi, None, EstimatorId.GPD_MLE, {
            "converged": 0.0,
            "optimizer_iterations": 0.0,
            "theta": theta_hi,
            "profile_loglik": float(ll[-1]),
        })
    lo = grid[i - 1] if i > 0 else theta_lo * 1e-6
    hi = grid[i + 1] if i < grid.size - 1 else theta_hi
    iters = 0
    if _scalar_profile_score(lo, x)[0] <= 0.0:
        theta = lo if i == 0 else float(grid[i])
    elif _scalar_profile_score(hi, x)[0] >= 0.0:
        theta = float(grid[i])
    else:
        log_lo, log_hi = math.log(lo), math.log(hi)
        tol = max(1e-13, math.ulp(max(abs(log_lo), abs(log_hi))))
        u = math.log(grid[i])
        while log_hi - log_lo > tol:
            g, dg = _scalar_profile_score(math.exp(u), x)
            iters += 1
            if g > 0.0:
                log_lo = u
            else:
                log_hi = u
            step = -g / dg if dg < 0.0 else math.nan
            u += step
            if abs(step) <= tol:
                break
            if not log_lo < u < log_hi:
                u = 0.5 * (log_lo + log_hi)
        theta = math.exp(u)
    xi = float(np.mean(np.log1p(theta * x)))
    if xi == 0.0:
        raise EstimationError("GPD MLE produced a degenerate zero estimate")
    return FitResult(xi, xi / theta, None, EstimatorId.GPD_MLE, {
        "converged": 1.0,
        "optimizer_iterations": float(iters),
        "theta": theta,
        "profile_loglik": float(_scalar_profile_loglik(np.array([theta]), x)[0]),
    })


def _outcome(fitter, x):
    """A fit as comparable text: every FitResult field in full precision, or
    the error it raised."""
    try:
        fit = fitter(x)
    except (ValueError, EstimationError) as err:
        return f"{type(err).__name__}: {err}"
    return repr((fit.xi_hat, fit.sigma_hat, sorted(fit.diagnostics.items())))


@st.composite
def gpd_stacks(draw):
    """Equal-length rows of non-negative excesses: spread; zero-inflated, whose
    profile can rise to the end of the scan (divergence); short-tailed, whose
    maximum sits at the xi -> 0 end of the scan; or nearly constant; each at
    scale 1, 1e-266 or 1e250."""
    width = draw(st.integers(min_value=2, max_value=40))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["spread", "zeros", "short", "flat"]))
        if kind == "spread":
            row = draw(st.lists(st.floats(1e-3, 1e3), min_size=width, max_size=width))
        elif kind == "zeros":
            values = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0])
            row = draw(st.lists(values, min_size=width - 1, max_size=width - 1))
            row.append(draw(st.floats(0.5, 5.0)))
        elif kind == "short":
            start = draw(st.floats(0.0, 10.0))
            row = np.linspace(start, start + draw(st.floats(0.1, 10.0)), width).tolist()
        else:
            base = draw(st.floats(1e-3, 1e3))
            row = [base * (1.0 + draw(st.floats(0.0, 1e-6))) for _ in range(width)]
        rows.append(np.array(row) * draw(st.sampled_from([1.0, 1e-266, 1e250])))
    return np.stack(rows)


class TestGpdMleRowKernel:
    """The GPD ML row kernel against the 1-D solver it replaced."""

    def _check(self, stack):
        xi, _, reason, theta, iterations, _ = _gpd_mle_rows(stack)
        converged = reason != Reason.not_converged
        for i, row in enumerate(stack):
            expected = _outcome(_scalar_gpd_mle, row)
            assert _outcome(estimate_gpd_mle, row) == expected
            try:
                fit = _scalar_gpd_mle(row)
            except (ValueError, EstimationError):
                continue  # the kernel row is that of the failing 1-D fit above
            assert reason[i] in (Reason.ok, Reason.not_converged)
            d = fit.diagnostics
            row_fit = (xi[i], xi[i] / theta[i], theta[i], converged[i], iterations[i])
            assert repr(tuple(float(v) for v in row_fit)) == repr(
                (fit.xi_hat, fit.sigma_hat, d["theta"], d["converged"], d["optimizer_iterations"])
            )
        return converged, theta * stack.mean(axis=1), iterations

    @settings(max_examples=300, deadline=None)
    @given(gpd_stacks())
    def test_stack_equals_one_sample_fits(self, stack):
        self._check(stack)

    def test_each_branch_at_every_scale(self):
        rows = [
            sample_gpd(GpdParams(0.0, 1.0, 0.5), 20, RngStream(40, 0)),  # interior root
            np.array([0.0, 0.0, 1.0, 2.0] * 5),  # still rising at the end of the scan
            np.linspace(1.0, 2.0, 20),  # short-tailed: maximum at the xi -> 0 end
        ]
        stack = np.concatenate([np.stack(rows) * scale for scale in (1.0, 1e-266, 1e250)])
        converged, theta_times_mean, iterations = self._check(stack)
        assert converged.tolist() == [True, False, True] * 3
        assert (iterations[::3] > 0).all()
        # the xi -> 0 end of the scan is theta = 1e-14 / mean(x)
        assert theta_times_mean[2::3] == pytest.approx([1e-14] * 3, rel=1e-12)

    def test_scan_maximum_anywhere(self):
        # rows whose full-scan maximum sits at the first scan points, midway
        # between two coarse points or at the last two: exponential quantiles
        # whose largest value makes m2 = 2 (1 + eps) m1^2 (at eps = 0 the
        # profile is flat to second order at theta = 0) and GPD quantiles of
        # growing shape
        n = 200
        p = (np.arange(1, n + 1) - 0.35) / n
        expo = -np.log1p(-p)
        s1, s2 = expo[:-1].sum(), expo[:-1] @ expo[:-1]
        c = 2.0 * (1.0 + np.geomspace(1e-10, 1e-3, 150))
        a, b, q = n - c, -2.0 * c * s1, n * s2 - c * s1 * s1
        low = np.tile(expo, (c.size, 1))
        low[:, -1] = (-b + np.sqrt(b * b - 4.0 * a * q)) / (2.0 * a)
        shape = np.linspace(0.02, 2.3, 150)[:, None]
        stack = np.concatenate([low, np.expm1(-shape * np.log1p(-p)) / shape])
        xbar = stack.mean(axis=1)
        grid = np.geomspace(1e-8 / xbar, 1e4 / xbar, 200, axis=1)
        reached = set(_profile_loglik(grid, stack)[0].argmax(axis=1).tolist())
        assert {0, 1, 4, 12, 124, 132, 195, 198, 199} <= reached
        self._check(stack)

    def test_profile_with_two_peaks(self):
        # the higher of two near-equal peaks lies between coarse points that
        # rank it below the other (found by the hypothesis test above)
        row = [1.0, 2.0, 2.0, 4.0, 39.0, 64.0, 147.0, 190.0, 198.0, 209.0, 300.0, 305.0, 307.0,
               332.0, 336.0, 343.0, 374.0, 388.0, 485.0, 525.0, 640.0, 649.0, 734.0, 925.0,
               930.0, 939.0, 946.0, 1.875, 0.5, 0.5, 0.5, 0.5, 0.0078125]
        converged, theta_times_mean, _ = self._check(np.array([row]))
        assert converged[0] and theta_times_mean[0] > 1.0

    def test_table_rows_equal_full_scan(self, monkeypatch):
        # every excess stack of one table7 + table8 pass
        stacks = []

        def recording(exc):
            stacks.append(exc.copy())
            return _gpd_mle_rows(exc)

        name, rows, _, *names = estimators._ROWS[EstimatorId.GPD_MLE]
        monkeypatch.setitem(estimators._ROWS, EstimatorId.GPD_MLE, (name, rows, recording, *names))
        run_experiments([*table_specs("table7", m=20), *table_specs("table8", m=20)])
        assert sum(len(stack) for stack in stacks) == 600
        for stack in stacks:
            fit, expected = _gpd_mle_rows(stack), _full_scan_gpd_mle_rows(stack)
            assert [v.tobytes() for v in fit] == [v.tobytes() for v in expected]


def _full_scan_gpd_mle_rows(x):
    """Oracle: the GPD ML row kernel as written before its coarse-to-fine scan,
    with the profile evaluated at all 200 scan points of every row."""
    rows = np.arange(len(x))
    with np.errstate(all="ignore"):
        mean, high = x.mean(axis=1), x.max(axis=1)
        reason = _first_reason(
            *_excess_checks(x.min(axis=1), high),
            (high <= 0, Reason.all_zero),
            (mean == 0.0, Reason.mean_underflow),
            (~(1e4 / mean < np.inf), Reason.no_scan_range),
            (mean == np.inf, Reason.invalid_estimate),
        )
    xbar = np.where(reason == _OK, mean, np.nan)
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
    with np.errstate(all="ignore"):
        todo = rows[converged]
        falling = _profile_score(lo[todo], x if converged.all() else x[todo])[0] <= 0.0
        at_zero = todo[falling & (i[todo] == 0)]
        theta[at_zero] = lo[at_zero]
        todo = todo[~falling]
        xs = x if len(todo) == len(x) else x[todo]
        todo = todo[~(_profile_score(hi[todo], xs)[0] >= 0.0)]
        state = {
            r: (math.log(lo[r]), math.log(hi[r]), math.log(theta[r])) for r in todo.tolist()
        }
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
                    if not log_lo < u < log_hi:
                        u = 0.5 * (log_lo + log_hi)
                    if log_hi - log_lo > tol[r]:
                        still.append(r)
                state[r] = (log_lo, log_hi, u)
            live = still
        for r, (_, _, u) in state.items():
            theta[r] = math.exp(u)
        t = theta[:, None] * x
        xi = np.log1p(t, out=t).mean(axis=1)
        sigma = xi / theta
        fitted = _first_reason(
            (~converged, Reason.not_converged),
            (xi == 0.0, Reason.degenerate_zero),
            (_invalid(xi, sigma), Reason.invalid_estimate),
        )
    return xi, sigma, np.where(reason == _OK, fitted, reason), theta, iters, mean


def _allocating_profile_xi(theta, x):
    """Oracle: the profile's inner solution as written before its block
    buffer, with a fresh theta * x temporary and a mean per block."""
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


def _block_count(rows, grid, n):
    """The blocks of a _profile_xi call, counted as _allocating_profile_xi forms them."""
    per_block = min(grid, max(1, ELEMENT_BUDGET // n))
    row_step = max(1, ELEMENT_BUDGET // (grid * n))
    return -(-rows // row_step) * -(-grid // per_block)


def _os_threads():
    """This process's OS threads: ``threading.active_count()`` does not count
    threads started by ``_thread.start_new_thread``."""
    try:
        return len(os.listdir("/proc/self/task"))
    except FileNotFoundError:  # no /proc
        return threading.active_count()


def _os_threads_down_to(count, timeout=1.0):
    """``_os_threads()`` once it is at most ``count``, or after ``timeout``
    seconds: a thread that has ended can stay listed for a moment."""
    deadline = time.monotonic() + timeout
    while _os_threads() > count and time.monotonic() < deadline:
        time.sleep(0.001)
    return _os_threads()


class TestProfileXi:
    # (rows, grid points, n): several rows per block (the last block partial),
    # part of one row's grid per block, and n > ELEMENT_BUDGET, one grid point
    # per block; each of the three with 3 blocks, below the 4 blocks that
    # share the work with a helper thread, and with 4 or more
    SHAPES = [
        (30, 27, 100),
        (2, 200, 1000),
        (2, 3, ELEMENT_BUDGET + 7000),
        (50, 27, 100),
        (1, 96, 1000),
        (1, 100, 1000),
        (1, 3, ELEMENT_BUDGET + 7000),
    ]

    @staticmethod
    def _inputs(rows, grid, n):
        rng = RngStream(41, n).generator
        x = rng.pareto(2.0, size=(rows, n))
        # theta > -1/max(x), as on the Zhang-Stephens grid, and up to 50/max(x)
        theta = rng.uniform(-0.9, 50.0, size=(rows, grid)) / x.max(axis=1, keepdims=True)
        return theta, x

    @pytest.mark.parametrize("shape", SHAPES)
    def test_equal_to_allocating_loop(self, shape):
        theta, x = self._inputs(*shape)
        assert _profile_xi(theta, x).tobytes() == _allocating_profile_xi(theta, x).tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_threaded_equal_to_allocating_loop(self, shape, monkeypatch):
        monkeypatch.setattr(estimators, "_cores", lambda: 2)
        started = []
        start_helper = estimators._start_helper
        monkeypatch.setattr(
            estimators, "_start_helper", lambda *args: started.append(1) or start_helper(*args)
        )
        theta, x = self._inputs(*shape)
        assert _profile_xi(theta, x).tobytes() == _allocating_profile_xi(theta, x).tobytes()
        blocks = _block_count(*shape)
        assert len(started) == (0 if blocks < 4 else 1)

    def test_concurrent_callers(self, monkeypatch):
        # more callers and helpers than cores, switching threads often: a
        # block taken twice or never, or written into another call's output,
        # changes some caller's result
        monkeypatch.setattr(estimators, "_cores", lambda: 2)
        inputs = [self._inputs(*shape) for shape in self.SHAPES[:3]] * 2
        expected = [_allocating_profile_xi(theta, x).tobytes() for theta, x in inputs]
        results = [None] * len(inputs)

        def call(i):
            results[i] = [_profile_xi(*inputs[i]).tobytes() for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [[e] * 5 for e in expected]

    @pytest.mark.parametrize("cores, helpers", [(1, [0, 0, 0, 0, 0]), (2, [0, 0, 1, 1, 1])])
    def test_helpers_per_block_count(self, cores, helpers, monkeypatch):
        monkeypatch.setattr(estimators, "_cores", lambda: cores)
        assert [estimators._helpers(blocks) for blocks in (1, 3, 4, 8, 467)] == helpers

    @pytest.mark.parametrize("shape", SHAPES)
    def test_peak_memory_is_one_block(self, shape, monkeypatch):
        # per thread taking part, one block of log1p values and the buffers
        # NumPy's ufunc iterator allocates for the two broadcast operands of
        # the product, plus the output; a temporary per block would hold two
        # blocks at once.  The traced call starts its own helper thread, as
        # every call does, so no earlier call is needed
        monkeypatch.setattr(estimators, "_cores", lambda: 2)
        theta, x = self._inputs(*shape)
        tracemalloc.start()
        try:
            out = _profile_xi(theta, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        threads = 1 + estimators._helpers(_block_count(*shape))
        iterator = 2 * 8 * np.getbufsize()
        block = 8 * max(ELEMENT_BUDGET, shape[2])
        assert peak <= out.nbytes + threads * (block + iterator) + 4096

    def test_helper_keeps_the_callers_error_state(self, monkeypatch):
        # every product is -1, so every block's log1p warns unless the
        # thread that evaluates it ignores floating-point errors as the
        # caller does: a new thread does not share the caller's error state
        monkeypatch.setattr(estimators, "_cores", lambda: 2)
        x = np.full((8, ELEMENT_BUDGET + 7000), 2.0)
        theta = np.full((8, 3), -0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                xi = _profile_xi(theta, x)
        assert (xi == -np.inf).all()

    def test_helper_raises_under_the_callers_error_state(self, monkeypatch):
        # every product is -1, so every block's log1p divides by zero: the
        # error reaches the caller, and the helper does not outlive the call
        monkeypatch.setattr(estimators, "_cores", lambda: 2)
        x = np.full((8, ELEMENT_BUDGET + 7000), 2.0)
        theta = np.full((8, 3), -0.5)
        before = _os_threads()
        with pytest.raises(FloatingPointError), np.errstate(all="raise"):
            _profile_xi(theta, x)
        assert _os_threads_down_to(before) <= before

    def test_helpers_exception_raised_in_the_caller(self, monkeypatch):
        # the helper fails before taking a block, so the caller evaluates
        # them all and then raises the helper's exception
        monkeypatch.setattr(estimators, "_cores", lambda: 2)
        caller, xi_blocks = threading.get_ident(), estimators._xi_blocks

        def failing_off_the_caller(*args):
            if threading.get_ident() != caller:
                raise KeyError("helper")
            xi_blocks(*args)

        monkeypatch.setattr(estimators, "_xi_blocks", failing_off_the_caller)
        theta, x = self._inputs(1, 100, 1000)
        with pytest.raises(KeyError, match="helper"):
            _profile_xi(theta, x)

    def test_import_registers_no_fork_hook(self):
        # no state of the package outlives a call, so nothing needs mending
        # at a fork
        code = (
            "import os, sys\n"
            "callers = []\n"
            "os.register_at_fork = lambda **hooks: callers.append(sys._getframe(1).f_globals)\n"
            "import tailshape, tailshape.cli\n"
            "assert not callers, [g.get('__name__') for g in callers]\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(estimators.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr

    def test_forked_workers_after_a_threaded_call(self):
        # Python 3.12 and later warn at a fork with live threads (a warning
        # that an 'error' filter does not turn into an exception).  So no
        # helper thread may be left after a threaded call or alive at a fork
        # (counted as OS threads in the parent just after each one), no
        # warning may be issued, and the workers' results must equal the
        # serial run's.  At m = 200, a
        # worker's stacks of n = 250 ZS rows have more than 4 blocks.  BLAS
        # runs on one thread, so that its threads raise no warning of their own
        specs = table_specs("table1", m=200)
        code = (
            "import os, threading, time, warnings\n"
            "import numpy as np\n"
            "from tailshape import estimators, run_experiments, table_specs\n"
            + inspect.getsource(_os_threads)
            + inspect.getsource(_os_threads_down_to)
            + "estimators._cores = lambda: 2\n"
            "estimators._profile_xi(np.ones((2, 3)), np.ones((2, estimators.ELEMENT_BUDGET + 1)))\n"
            "assert _os_threads_down_to(1) == 1\n"
            "alive = []\n"
            "os.register_at_fork(after_in_parent=lambda: alive.append(_os_threads()))\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    results = run_experiments(table_specs('table1', m=200), workers=2)\n"
            "assert alive == [1, 1], alive\n"
            "assert not caught, [str(w.message) for w in caught]\n"
            "print(repr([r.summaries for r in results]))\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(estimators.__file__).parents[1]),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
        }
        proc = subprocess.Popen(
            [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the workers too
            proc.communicate()
            pytest.fail("run_experiments(workers=2) hung after a threaded _profile_xi call")
        assert proc.returncode == 0, err
        assert out.strip() == repr([r.summaries for r in run_experiments(specs, workers=1)])


class TestHill:
    def test_hand_case(self):
        fit = estimate_hill([1.0, 2.0, 4.0, 8.0], 3)
        assert fit.xi_hat == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert fit.mu_hat == 1.0

    def test_top_values_equal_to_threshold(self):
        assert estimate_hill([1.0, 2.0, 3.0, 3.0, 3.0], 2).xi_hat == 0.0

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            estimate_hill([1.0, 2.0, 3.0], 0)
        with pytest.raises(ValueError):
            estimate_hill([1.0, 2.0, 3.0], 3)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            estimate_hill([-1.0, 0.0, 1.0, 2.0], 2)

    def test_consistency_on_exact_pareto(self):
        x = sample_pareto(ParetoParams(1.0, 2.0), 10_000, RngStream(32, 0))
        assert estimate_hill(x, 1000).xi_hat == pytest.approx(0.5, abs=0.05)

    def test_equals_pareto_ml_on_top_k(self):
        x = sample_pareto(ParetoParams(1.0, 1.0), 2000, RngStream(33, 0))
        k = 300
        srt = np.sort(x)
        threshold = srt[x.size - k - 1]
        oracle = float(np.mean(np.log(srt[x.size - k :] / threshold)))
        assert estimate_hill(x, k).xi_hat == pytest.approx(oracle, abs=1e-12)

    def test_scale_equivariance_exact(self):
        x = sample_pareto(ParetoParams(1.0, 1.0), 500, RngStream(34, 0))
        assert estimate_hill(2.0 * x, 100).xi_hat == estimate_hill(x, 100).xi_hat


class TestPermutationInvariance:
    @pytest.mark.parametrize(
        "fitter",
        [estimate_pareto_ml, estimate_pwm, estimate_zhang_stephens, estimate_gpd_mle],
    )
    def test_shuffling_does_not_change_fit(self, fitter):
        z = 0.5 + gpd_excesses(1.0, 0.5, 250, 35)  # strictly positive for all fitters
        shuffled = z[RngStream(35, 1).generator.permutation(z.size)]
        assert fitter(shuffled).xi_hat == pytest.approx(fitter(z).xi_hat, abs=1e-12)

    def test_hill_shuffling(self):
        x = sample_pareto(ParetoParams(1.0, 1.0), 400, RngStream(36, 0))
        shuffled = x[RngStream(36, 1).generator.permutation(x.size)]
        assert estimate_hill(shuffled, 50).xi_hat == estimate_hill(x, 50).xi_hat


def _reference_zhang_stephens(values):
    """Oracle: the 1-D Zhang-Stephens fit as written before the row kernel.
    Returns ``(xi_hat, sigma_hat)``."""
    y = np.sort(np.asarray(values, dtype=float))
    n = y.size
    m = 20 + math.isqrt(n)
    quart = y[(n + 5) // 4 - 1]
    if quart <= 0:
        quart = float(y[y > 0][0])
    j = np.arange(1, m + 1)
    theta_grid = -1.0 / y[-1] + (np.sqrt(m / (j - 0.5)) - 1.0) / (3.0 * quart)
    xi_grid = np.log1p(np.multiply.outer(theta_grid, y)).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = n * (np.log(theta_grid / xi_grid) - xi_grid - 1.0)
    ll = np.where(np.isfinite(ll), ll, -np.inf)
    w = np.exp(ll - ll.max())
    w /= w.sum()
    theta = float(w @ theta_grid)
    xi = float(np.mean(np.log1p(theta * y)))
    return xi, xi / theta


class TestRowKernelsMatchOneSampleCode:
    @settings(max_examples=200, deadline=None)
    @given(nonnegative_samples)
    def test_zhang_stephens_bit_for_bit(self, values):
        fit = estimate_zhang_stephens(values)
        assert (fit.xi_hat, fit.sigma_hat) == _reference_zhang_stephens(values)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(2, 3000), st.data())
    def test_hill_partition_equals_full_sort(self, seed, n, data):
        x = np.abs(sample_student_t(2.0, n, RngStream(seed, 0)))
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        srt = np.sort(x)
        threshold = srt[x.size - k - 1]
        fit = estimate_hill(x, k)
        assert fit.mu_hat == threshold
        assert fit.xi_hat == float(np.mean(np.log(srt[x.size - k :] / threshold)))


@st.composite
def long_samples(draw, n=None):
    """A sample long enough that its Zhang-Stephens grid does not fit one
    block (n * m > ELEMENT_BUDGET from n = 713 on), so the grid is evaluated
    coarse to fine: Pareto, uniform, exponential, exponential rounded to one
    decimal (ties), or exponential with more than a quarter zeros (the grid
    falls back to the smallest positive value), at scale 1, 1e-300 or 1e300.
    n stops at 20 000: the oracle holds all m * n log1p values at once."""
    if n is None:
        n = draw(st.integers(min_value=720, max_value=20_000))
    rng = RngStream(draw(st.integers(min_value=0, max_value=2**32)), n).generator
    kind = draw(st.sampled_from(["pareto", "uniform", "exponential", "rounded", "zeros"]))
    if kind == "pareto":
        x = rng.pareto(draw(st.sampled_from([1.0, 2.0, 4.0])), n)
    elif kind == "uniform":
        x = rng.uniform(size=n)
    else:
        x = rng.exponential(size=n)
    if kind == "rounded":
        x = np.round(x, 1)
    elif kind == "zeros":
        x[rng.uniform(size=n) < 0.4] = 0.0
    x *= draw(st.sampled_from([1.0, 1e-300, 1e300]))
    assume(np.isfinite(x).all())  # a Pareto maximum above 1.8e8 overflows at 1e300
    return x


class TestZhangStephensCoarseToFine:
    """Past one block, the Zhang-Stephens grid leaves out the points whose
    weight is exactly 0.0, and every output stays bit for bit the same."""

    @settings(max_examples=60, deadline=None)
    @given(long_samples())
    def test_bit_for_bit_against_the_full_grid(self, values):
        fit = estimate_zhang_stephens(values)
        assert (fit.xi_hat, fit.sigma_hat) == _reference_zhang_stephens(values)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=720, max_value=5000), st.data())
    def test_stacked_rows_equal_one_row_fits(self, n, data):
        # the points evaluated are the union over the rows of a stack, so a
        # row must not depend on the rows beside it, a row with a NaN included
        rows = [data.draw(long_samples(n)) for _ in range(data.draw(st.integers(2, 3)))]
        fits = [estimate_zhang_stephens(row) for row in rows]
        nan_row = data.draw(st.integers(0, len(rows) - 1))
        with_nan = [row.copy() for row in rows]
        with_nan[nan_row][data.draw(st.integers(0, n - 1))] = np.nan
        for stack, skip in ((rows, None), (with_nan, nan_row)):
            xi, sigma, reason, theta, _ = _zhang_stephens_rows(np.sort(stack, axis=1))
            for i, fit in enumerate(fits):
                if i == skip:
                    assert reason[i] == Reason.non_finite
                else:
                    assert (xi[i], sigma[i], theta[i]) == (
                        fit.xi_hat, fit.sigma_hat, fit.diagnostics["theta"]
                    )

    @staticmethod
    def _columns(monkeypatch, y):
        """The number of grid points of each _profile_loglik call of the
        Zhang-Stephens kernel on the sorted rows ``y``."""
        columns = []

        def counting(theta, x):
            columns.append(theta.shape[1])
            return _profile_loglik(theta, x)

        monkeypatch.setattr(estimators, "_profile_loglik", counting)
        _zhang_stephens_rows(y)
        return columns

    # a row of 250 values (m = 35), of k = 100 excesses (m = 30), and the
    # longest row whose grid fits one block (712 * 46 = 32 752)
    @pytest.mark.parametrize("rows, n", [(1, 250), (40, 250), (1, 100), (300, 100), (1, 712)])
    def test_one_call_over_the_grid_when_a_row_fits_a_block(self, monkeypatch, rows, n):
        m = 20 + math.isqrt(n)
        assert n * m <= ELEMENT_BUDGET
        y = np.sort(gpd_excesses(1.0, 0.5, rows * n, 42).reshape(rows, n), axis=1)
        assert self._columns(monkeypatch, y) == [m]

    def test_coarse_points_first_past_one_block(self, monkeypatch):
        y = np.sort(gpd_excesses(1.0, 0.5, 713, 43))[None, :]
        assert self._columns(monkeypatch, y)[0] == len(_coarse(46))

    def test_long_sample_evaluates_under_half_its_grid(self, monkeypatch):
        y = np.sort(sample_gpd(GpdParams(0.0, 1.0, 0.25), 200_000, RngStream(44, 0)))[None, :]
        columns = self._columns(monkeypatch, y)
        assert len(columns) == 2 and columns[0] == len(_coarse(467))
        assert sum(columns) < 467 / 2


class TestGpdMleUnderflow:
    def test_mean_underflowing_to_zero_is_an_estimation_error(self):
        # the mean of [0, 5e-324] rounds to 0, so the scan range 1e4 / mean
        # does not exist; this raised ZeroDivisionError past fit_all
        with pytest.raises(EstimationError):
            estimate_gpd_mle([0.0, 5e-324])
        x = np.array([0.0, 5e-324])
        assert isinstance(fit_all(x, 0.0, x, (EstimatorId.GPD_MLE,))[EstimatorId.GPD_MLE], str)

    def test_mean_without_a_scan_range_is_an_estimation_error(self):
        # 1e4 / mean(x) overflows: the scan had no range and reported a
        # converged fit with profile_loglik = -inf
        with pytest.raises(EstimationError, match="overflows"):
            estimate_gpd_mle([0.0, 1e-310])

    @pytest.mark.xfail(
        strict=True, raises=EstimationError,
        reason="the scan range 1e4/mean(x) overflows below a mean of about 1e-304",
    )
    def test_normal_values_below_1e_304_fit_as_scaled_up(self):
        # every value is normal, so the fit exists and is the scaled-up
        # sample's (xi_hat = 1.07726...); the scan range overflows instead
        values = np.array([1.0, 2.0, 3.0, 50.0])
        expected = estimate_gpd_mle(values * 1e-300).xi_hat
        assert estimate_gpd_mle(values * 1e-306).xi_hat == pytest.approx(expected, rel=1e-12)


_ONE_ROW_ESTIMATORS = (estimate_pareto_ml, estimate_pwm, estimate_zhang_stephens, estimate_gpd_mle)
# samples that every estimator rejects with the same ValueError
_REJECTED_ALIKE = {
    "one value": ([1.0], "need at least 2 observations, got 1"),
    "nan": ([1.0, math.nan, 2.0], "sample contains non-finite values"),
    "inf": ([1.0, math.inf], "sample contains non-finite values"),
    "-inf": ([-math.inf, 1.0], "sample contains non-finite values"),
}
_NEGATIVE = [-1.0, 2.0, 3.0]
_ZEROS = [0.0, 0.0, 0.0]
_MEAN_UNDERFLOWS = [0.0, 0.0, 5e-324]
_SCAN_RANGE_OVERFLOWS = [0.0, 1e-310, 0.0]  # 1e4 / mean(x) overflows
_BEYOND_308_DECADES = [990.0, 2.2250738585072014e-308]
FAILURES = [
    (name, fitter, values, ValueError, message)
    for name, (values, message) in _REJECTED_ALIKE.items()
    for fitter in _ONE_ROW_ESTIMATORS
] + [
    ("negative", estimate_pareto_ml, _NEGATIVE, ValueError,
     "Pareto ML requires strictly positive observations"),
    ("negative", estimate_pwm, _NEGATIVE, ValueError, "PWM requires non-negative excesses"),
    ("negative", estimate_zhang_stephens, _NEGATIVE, ValueError,
     "Zhang-Stephens requires non-negative excesses"),
    ("negative", estimate_gpd_mle, _NEGATIVE, ValueError, "GPD MLE requires non-negative excesses"),
    ("zeros", estimate_pareto_ml, _ZEROS, ValueError,
     "Pareto ML requires strictly positive observations"),
    ("zeros", estimate_pwm, _ZEROS, PwmSingularityError,
     "probability-weighted-moment denominator a0 - 2*a1 = 0.0 is not positive"),
    ("zeros", estimate_zhang_stephens, _ZEROS, EstimationError,
     "Zhang-Stephens is undefined for an all-zero sample"),
    ("zeros", estimate_gpd_mle, _ZEROS, EstimationError,
     "GPD MLE is undefined for an all-zero sample"),
    # the scale of this sample is below the smallest subnormal
    ("mean underflows", estimate_pwm, _MEAN_UNDERFLOWS, ValueError,
     "sigma_hat must be positive when present, got 0.0"),
    ("mean underflows", estimate_zhang_stephens, _MEAN_UNDERFLOWS, ValueError,
     "xi_hat must be finite, got nan"),
    ("mean underflows", estimate_gpd_mle, _MEAN_UNDERFLOWS, EstimationError,
     "GPD MLE is undefined for a sample whose mean underflows to zero"),
    ("scan range overflows", estimate_zhang_stephens, _SCAN_RANGE_OVERFLOWS, ValueError,
     "xi_hat must be finite, got nan"),
    ("scan range overflows", estimate_gpd_mle, _SCAN_RANGE_OVERFLOWS, EstimationError,
     "GPD MLE scan range 1e4/mean(x) overflows at mean(x) = 3.333333333333e-311"),
    ("308 decades", estimate_pareto_ml, _BEYOND_308_DECADES, ValueError,
     "xi_hat must be finite, got inf"),
    ("308 decades", estimate_zhang_stephens, _BEYOND_308_DECADES, ValueError,
     "xi_hat must be finite, got nan"),
    ("non-positive threshold", partial(estimate_hill, k=3), [-3.0, -2.0, -1.0, 0.5, 1.0, 2.0],
     ValueError, "Hill estimator needs a positive threshold X_(n-k)"),
    ("nan", partial(estimate_hill, k=1), [1.0, math.nan, 2.0, 3.0], ValueError,
     "sample contains non-finite values"),
    ("inf", partial(estimate_hill, k=1), [1.0, 2.0, math.inf], ValueError,
     "sample contains non-finite values"),
    ("-inf below the threshold", partial(estimate_hill, k=1), [-math.inf, 1.0, 2.0, 3.0],
     ValueError, "sample contains non-finite values"),
    ("one value", partial(estimate_hill, k=1), [1.0], ValueError,
     "need at least 2 observations, got 1"),
]


class TestFailureMessages:
    """Each estimator's exception class and message on degenerate samples."""

    @pytest.mark.parametrize(
        "fitter, values, error, message",
        [case[1:] for case in FAILURES],
        ids=[f"{case[0]}-{getattr(case[1], '__name__', 'estimate_hill')}" for case in FAILURES],
    )
    def test_exact_error(self, fitter, values, error, message):
        with pytest.raises(error) as info:
            fitter(values)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_zhang_stephens_degenerate_zero(self, monkeypatch):
        # no sample found gives a weighted theta of exactly zero, so the
        # weighted average over the grid is forced to zero
        monkeypatch.setattr(np, "matmul", lambda a, b: np.zeros((len(a), 1, 1)))
        with pytest.raises(EstimationError) as info:
            estimate_zhang_stephens([1.0, 2.0, 4.0])
        assert type(info.value) is EstimationError
        assert str(info.value) == "Zhang-Stephens produced a degenerate zero estimate"

    def test_gpd_mle_mean_overflow_has_no_estimate(self):
        # the excesses' sum overflows, so the scan range 1e4 / mean(x) is empty:
        # the fit has no finite estimate (this used to escape as NumPy's
        # "Geometric sequence cannot include zero")
        with pytest.raises(ValueError) as info:
            estimate_gpd_mle([1.7e308, 1.7e308, 1.0])
        assert type(info.value) is ValueError
        assert str(info.value) == "xi_hat must be finite, got nan"

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1.0, math.nan, 2.0], ["non_finite"] * 4),
            ([-math.inf, 1.0], ["non_finite"] * 4),
            (_NEGATIVE, ["nonpositive", "negative", "negative", "negative"]),
            (_ZEROS, ["nonpositive", "pwm_singular", "all_zero", "all_zero"]),
            (_MEAN_UNDERFLOWS,
             ["nonpositive", "invalid_estimate", "invalid_estimate", "mean_underflow"]),
            (_SCAN_RANGE_OVERFLOWS, ["nonpositive", "ok", "invalid_estimate", "no_scan_range"]),
            (_BEYOND_308_DECADES, ["invalid_estimate", "ok", "invalid_estimate", "not_converged"]),
            # PWM scales the row by the power of two of its maximum, so it fits
            ([1.7e308, 1.7e308, 1.0], ["ok", "ok", "invalid_estimate", "invalid_estimate"]),
            ([0.5, 1.0, 4.0], ["ok"] * 4),
        ],
    )
    def test_stacked_reasons(self, values, expected):
        # the reason of each one-row kernel fit, in _ONE_ROW_ESTIMATORS order
        x = np.array([values])
        plan = (EstimatorId.PARETO_ML, EstimatorId.PWM, EstimatorId.ZHANG_STEPHENS, EstimatorId.GPD_MLE)
        fits = fit_all(x, x.min(axis=1), x, plan)
        assert [Reason(fits[e][1][0]).name for e in plan] == expected
