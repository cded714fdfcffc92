"""Tests for the five shape-parameter estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailshape import (
    EstimationError,
    EstimatorId,
    FitResult,
    GpdParams,
    ParetoParams,
    PlottingPosition,
    PwmSingularityError,
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
from tailshape.estimators import _profile_loglik
from tailshape.pot import excesses, select_threshold


def gpd_excesses(sigma, xi, n, seed, stream=0):
    return sample_gpd(GpdParams(0.0, sigma, xi), n, RngStream(seed, stream))


class TestFitResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitResult(math.nan, None, None, EstimatorId.PWM)
        with pytest.raises(ValueError):
            FitResult(0.5, -1.0, None, EstimatorId.PWM)

    def test_plotting_position_validation(self):
        with pytest.raises(ValueError):
            PlottingPosition(1.0)
        with pytest.raises(ValueError):
            PlottingPosition(-0.1)
        assert np.allclose(PlottingPosition(0.35).positions(2), [0.325, 0.825])


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

    def test_custom_plotting_position(self):
        z = gpd_excesses(1.0, 0.3, 400, 25)
        a = estimate_pwm(z, PlottingPosition(0.35))
        b = estimate_pwm(z, PlottingPosition(0.0))
        assert a.xi_hat != b.xi_hat


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
        values, _ = _profile_loglik(probes, z)
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
    ll, _ = _profile_loglik(grid, x)
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
