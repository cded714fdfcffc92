"""Tests for the peaks-over-threshold pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailshape.pot
from tailshape import (
    EstimatorId,
    FitResult,
    GpdParams,
    ParetoParams,
    PotConfig,
    RngStream,
    estimate_pareto_ml,
    excesses,
    fit_all,
    pot_estimate,
    sample_gpd,
    sample_pareto,
    sample_student_t,
    select_threshold,
)


class TestSelectThreshold:
    def test_order_statistic_lookup(self):
        assert select_threshold([1.0, 2.0, 3.0, 4.0, 5.0], 2) == 3.0

    def test_k_equal_n_minus_one_gives_min(self):
        assert select_threshold([5.0, 1.0, 3.0], 2) == 1.0

    def test_bounds(self):
        with pytest.raises(ValueError):
            select_threshold([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            select_threshold([1.0, 2.0], 2)

    def test_exactly_k_strict_exceedances(self):
        x = sample_student_t(3.0, 1000, RngStream(50, 0))
        for k in (10, 100, 500):
            u = select_threshold(x, k)
            assert int(np.sum(x > u)) == k


class TestExcesses:
    def test_basic(self):
        assert np.array_equal(excesses([1.0, 2.0, 3.0, 4.0, 5.0], 3.0), [1.0, 2.0])

    def test_threshold_at_max_fails(self):
        with pytest.raises(ValueError):
            excesses([1.0, 2.0, 3.0], 3.0)

    def test_threshold_below_min_shifts_everything(self):
        out = excesses([1.0, 2.0, 3.0], 0.5)
        assert np.array_equal(out, [0.5, 1.5, 2.5])

    def test_strictly_positive(self):
        x = sample_gpd(GpdParams(0.0, 1.0, 0.5), 500, RngStream(51, 0))
        u = select_threshold(x, 100)
        assert excesses(x, u).min() > 0


class TestPotEstimate:
    def test_pareto_oracle_hill_equals_pareto_ml_on_top(self):
        x = sample_pareto(ParetoParams(1.0, 2.0), 10_000, RngStream(52, 0))
        res = pot_estimate(x, PotConfig(1000))
        u = res.threshold
        top = np.sort(x)[-1000:]
        oracle = float(np.mean(np.log(top / u)))
        hill = res.fits[EstimatorId.HILL]
        assert hill.xi_hat == pytest.approx(oracle, abs=1e-12)
        # three Monte Carlo standard errors: 3 * (1 + xi) / sqrt(k)
        assert hill.xi_hat == pytest.approx(0.5, abs=0.15)
        assert res.fits[EstimatorId.TRANSFORMED_ZS].xi_hat == pytest.approx(0.5, abs=0.15)

    def test_result_structure(self):
        x = sample_student_t(2.0, 1000, RngStream(53, 0))
        cfg = PotConfig(100)
        res = pot_estimate(x, cfg)
        assert res.excess_count == 100
        assert res.threshold == select_threshold(x, 100)
        assert set(res.fits) == set(cfg.estimators)
        assert res.failures == {}
        assert res.fits[EstimatorId.HILL].mu_hat == res.threshold

    def test_deterministic(self):
        x = sample_student_t(3.0, 2000, RngStream(54, 0))
        a = pot_estimate(x, PotConfig(150))
        b = pot_estimate(x, PotConfig(150))
        assert {e: f.xi_hat for e, f in a.fits.items()} == {
            e: f.xi_hat for e, f in b.fits.items()
        }

    def test_nonpositive_threshold_fails_only_hill(self):
        gen = RngStream(55, 0).generator
        x = gen.standard_normal(500) - 10.0  # almost surely negative threshold
        res = pot_estimate(x, PotConfig(50))
        assert EstimatorId.HILL in res.failures
        assert "positive" in res.failures[EstimatorId.HILL]
        assert EstimatorId.ZHANG_STEPHENS in res.fits
        assert EstimatorId.GPD_MLE in res.fits
        assert EstimatorId.TRANSFORMED_ZS in res.fits

    def test_transformed_alone_computes_its_initial(self):
        x = sample_student_t(3.0, 1000, RngStream(56, 0))
        res = pot_estimate(x, PotConfig(100, (EstimatorId.TRANSFORMED_ZS,)))
        assert set(res.fits) == {EstimatorId.TRANSFORMED_ZS}

    def test_transformed_uses_smallest_excess_as_support(self):
        x = sample_student_t(3.0, 1000, RngStream(57, 0))
        res = pot_estimate(x, PotConfig(100))
        exc = excesses(x, res.threshold)
        zs = res.fits[EstimatorId.ZHANG_STEPHENS]
        direct = float(
            np.mean(np.log1p((zs.xi_hat / zs.sigma_hat) * (exc - exc.min())))
        )
        assert res.fits[EstimatorId.TRANSFORMED_ZS].xi_hat == pytest.approx(direct, abs=1e-12)

    def test_fold_absolute_matches_manual_fold(self):
        x = sample_student_t(2.0, 2000, RngStream(58, 0))
        folded = pot_estimate(x, PotConfig(100, fold_absolute=True))
        manual = pot_estimate(np.abs(x), PotConfig(100))
        assert folded.threshold == manual.threshold
        assert {e: f.xi_hat for e, f in folded.fits.items()} == {
            e: f.xi_hat for e, f in manual.fits.items()
        }

    def test_pwm_and_pareto_ml_supported(self):
        x = sample_gpd(GpdParams(0.0, 1.0, 0.25), 2000, RngStream(59, 0))
        cfg = PotConfig(
            400, (EstimatorId.PWM, EstimatorId.TRANSFORMED_PWM, EstimatorId.PARETO_ML)
        )
        res = pot_estimate(x, cfg)
        assert set(res.fits) == set(cfg.estimators)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PotConfig(0)
        with pytest.raises(ValueError):
            PotConfig(10, ())


positive_samples = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=60,
)
# distinct values at least 1e-3 apart: near ties (excesses a few ulps wide)
# make the transformed fits ill-conditioned, so no float tolerance holds there
separated_samples = st.lists(
    st.integers(min_value=1, max_value=10**6), min_size=3, max_size=60, unique=True
).map(lambda values: np.array(values, dtype=float) / 1000.0)
PLAN_ESTIMATORS = (
    EstimatorId.ZHANG_STEPHENS,
    EstimatorId.PWM,
    EstimatorId.GPD_MLE,
    EstimatorId.PARETO_ML,
    EstimatorId.TRANSFORMED_ZS,
    EstimatorId.TRANSFORMED_PWM,
)
# the estimators that are invariant to the sample's order and scale
INVARIANT_ESTIMATORS = (
    EstimatorId.ZHANG_STEPHENS,
    EstimatorId.PWM,
    EstimatorId.PARETO_ML,
    EstimatorId.TRANSFORMED_ZS,
    EstimatorId.TRANSFORMED_PWM,
)


def _over_minimum(values):
    """fit_all arguments of the excess-over-minimum recipe."""
    x = np.asarray(values, dtype=float)
    support = float(x.min())
    return x, support, x[x > support] - support


def _xi_or_message(outcome):
    return outcome.xi_hat if isinstance(outcome, FitResult) else outcome


def _assert_same_shapes(a, b):
    """Both plans fail or fit each estimator, fitted shapes agreeing to 1e-9."""
    for estimator in INVARIANT_ESTIMATORS:
        assert isinstance(a[estimator], FitResult) == isinstance(b[estimator], FitResult)
        if isinstance(a[estimator], FitResult):
            assert b[estimator].xi_hat == pytest.approx(a[estimator].xi_hat, rel=1e-9)


class TestFitAll:
    @settings(max_examples=150, deadline=None)
    @given(
        positive_samples,
        st.lists(st.sampled_from(PLAN_ESTIMATORS), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2),
    )
    def test_subset_equals_estimators_alone(self, values, wanted, rounds):
        # sharing one initial fit between estimators must not change any of them
        x, support, exc = _over_minimum(values)
        together = fit_all(x, support, exc, wanted, rounds)
        assert set(together) == set(wanted)
        for estimator in wanted:
            alone = fit_all(x, support, exc, (estimator,), rounds)[estimator]
            assert _xi_or_message(together[estimator]) == _xi_or_message(alone)

    @settings(max_examples=150, deadline=None)
    @given(positive_samples, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        _assert_same_shapes(
            fit_all(*_over_minimum(values), INVARIANT_ESTIMATORS),
            fit_all(*_over_minimum(shuffled), INVARIANT_ESTIMATORS),
        )

    @settings(max_examples=150, deadline=None)
    @given(separated_samples, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance(self, values, scale):
        # the arguments are scaled after the excesses are formed, since
        # subtracting the scaled minimum adds a rounding error of its own
        x, support, exc = _over_minimum(values)
        _assert_same_shapes(
            fit_all(x, support, exc, INVARIANT_ESTIMATORS),
            fit_all(x * scale, support * scale, exc * scale, INVARIANT_ESTIMATORS),
        )

    def test_initial_fit_computed_once(self, monkeypatch):
        calls = []
        original = tailshape.pot.estimate_zhang_stephens
        monkeypatch.setattr(
            tailshape.pot,
            "estimate_zhang_stephens",
            lambda exc: calls.append(exc) or original(exc),
        )
        x, support, exc = _over_minimum(sample_gpd(GpdParams(1.0, 1.0, 0.5), 200, RngStream(60, 0)))
        out = fit_all(x, support, exc, (EstimatorId.TRANSFORMED_ZS, EstimatorId.ZHANG_STEPHENS))
        assert len(calls) == 1
        assert out[EstimatorId.TRANSFORMED_ZS].diagnostics["initial_xi"] == (
            out[EstimatorId.ZHANG_STEPHENS].xi_hat
        )

    def test_failures_are_messages(self):
        # all-zero excesses defeat both initial fits
        x = np.array([1.0, 2.0, 3.0])
        out = fit_all(x, 1.0, np.zeros(3), PLAN_ESTIMATORS)
        assert out[EstimatorId.TRANSFORMED_ZS].startswith("initial Zhang-Stephens fit failed: ")
        assert out[EstimatorId.TRANSFORMED_PWM].startswith("initial PWM fit failed: ")
        assert isinstance(out[EstimatorId.PARETO_ML], FitResult)

    def test_hill_needs_pot_estimate(self):
        with pytest.raises(ValueError, match="pot_estimate"):
            fit_all(np.array([1.0, 2.0, 3.0]), 1.0, np.array([1.0, 2.0]), (EstimatorId.HILL,))
