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
from tailshape import fit_all
from tailshape.estimators import _gpd_mle_rows, _profile_loglik
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
        xi, theta, converged, iterations = _gpd_mle_rows(stack)
        for i, row in enumerate(stack):
            expected = _outcome(_scalar_gpd_mle, row)
            assert _outcome(estimate_gpd_mle, row) == expected
            try:
                fit = _scalar_gpd_mle(row)
            except (ValueError, EstimationError):
                continue  # the kernel row is that of the failing 1-D fit above
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
