"""Tests for the peaks-over-threshold pipeline."""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailshape.pot
from tailshape import (
    EstimatorId,
    ExperimentSpec,
    FitResult,
    GpdParams,
    GpdSource,
    ParetoParams,
    PotConfig,
    Reason,
    RngStream,
    StudentTSource,
    estimate_hill,
    estimate_pareto_ml,
    estimate_zhang_stephens,
    excesses,
    fit_all,
    iterate_transform,
    pot_estimate,
    sample_gpd,
    sample_pareto,
    sample_student_t,
    select_threshold,
)
from tailshape import montecarlo
from tailshape.estimators import _ROWS

import sampler_oracle


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

    def test_overflowing_excesses_do_not_warn(self):
        # the excesses over -1.7e308 overflow; a warning fails under the
        # suite's error::RuntimeWarning:tailshape filter
        x = [1.7e308, -1.7e308, 1.0]
        assert select_threshold(x, 2) == -1.7e308
        with pytest.raises(ValueError, match="positive threshold"):
            estimate_hill(x, 2)


class TestBoolIsNotAnInteger:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: PotConfig(True),
            lambda: select_threshold([1.0, 2.0, 3.0], True),
            lambda: estimate_hill([1.0, 2.0, 3.0], True),
        ],
        ids=["PotConfig", "select_threshold", "estimate_hill"],
    )
    def test_rejected(self, call):
        # bool subclasses int, so True would pass for k = 1
        with pytest.raises(ValueError):
            call()


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

    @pytest.mark.parametrize("entry", ["bogus", "pwm"])
    def test_estimators_must_be_estimator_ids(self, entry):
        # a str equal to a member's value is not a member either
        with pytest.raises(ValueError, match=repr(entry)):
            PotConfig(10, (EstimatorId.PWM, entry))


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

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="near ties: the three-parameter map's slope and intercept cancel",
    )
    def test_scale_equivariance_on_near_ties(self):
        # Zhang-Stephens' sigma_hat is about 1e-17 on excesses a few ulps
        # wide, so the map's slope xi * mu / sigma is about 3e15: transformed
        # Z&S reads 14.4293 at scale 1 and 14.5252 at scale 0.5, although its
        # Zhang-Stephens fit scales exactly
        x, support, exc = _over_minimum([1.5, 0.001, 0.0010000000000000002])
        _assert_same_shapes(
            fit_all(x, support, exc, INVARIANT_ESTIMATORS),
            fit_all(x * 0.5, support * 0.5, exc * 0.5, INVARIANT_ESTIMATORS),
        )

    def test_initial_fit_computed_once(self, monkeypatch):
        calls = []
        name, rows, original, *names = _ROWS[EstimatorId.ZHANG_STEPHENS]
        monkeypatch.setitem(
            _ROWS,
            EstimatorId.ZHANG_STEPHENS,
            (name, rows, lambda srt: calls.append(srt) or original(srt), *names),
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

    @pytest.mark.parametrize(
        "x, support, exc, expected",
        [
            (  # all-zero excesses defeat both initial fits
                [1.0, 2.0, 3.0], 1.0, [0.0, 0.0, 0.0],
                {
                    EstimatorId.ZHANG_STEPHENS: "Zhang-Stephens is undefined for an all-zero sample",
                    EstimatorId.PWM: "probability-weighted-moment denominator a0 - 2*a1 = 0.0 "
                    "is not positive",
                    EstimatorId.GPD_MLE: "GPD MLE is undefined for an all-zero sample",
                    EstimatorId.TRANSFORMED_ZS: "initial Zhang-Stephens fit failed: "
                    "Zhang-Stephens is undefined for an all-zero sample",
                    EstimatorId.TRANSFORMED_PWM: "initial PWM fit failed: "
                    "probability-weighted-moment denominator a0 - 2*a1 = 0.0 is not positive",
                },
            ),
            (  # a negative support estimate
                [-1.0, 0.5, 2.0, 3.0], -1.0, [1.5, 3.0, 4.0],
                {
                    EstimatorId.PARETO_ML: "Pareto ML requires strictly positive observations",
                    EstimatorId.TRANSFORMED_ZS: "mu_hat must be a positive real for the "
                    "three-parameter form, got -1.0",
                    EstimatorId.TRANSFORMED_PWM: "mu_hat must be a positive real for the "
                    "three-parameter form, got -1.0",
                },
            ),
            (  # a zero support estimate
                [0.0, 0.5, 2.0, 3.0], 0.0, [0.5, 2.0, 3.0],
                {
                    EstimatorId.PARETO_ML: "Pareto ML requires strictly positive observations",
                    EstimatorId.TRANSFORMED_ZS: "mu_hat must be a positive real for the "
                    "three-parameter form, got 0.0",
                    EstimatorId.TRANSFORMED_PWM: "mu_hat must be a positive real for the "
                    "three-parameter form, got 0.0",
                },
            ),
            (  # an infinite observation, finite excesses
                [1.0, 2.0, np.inf], 1.0, [1.0, 2.0],
                {
                    EstimatorId.PARETO_ML: "sample contains non-finite values",
                    EstimatorId.TRANSFORMED_ZS: "sample contains non-finite values",
                    EstimatorId.TRANSFORMED_PWM: "sample contains non-finite values",
                },
            ),
            (  # one observation, two excesses
                [2.0], 1.0, [1.0, 2.0],
                {
                    EstimatorId.PARETO_ML: "need at least 2 observations, got 1",
                    EstimatorId.TRANSFORMED_ZS: "need at least 2 observations, got 1",
                    EstimatorId.TRANSFORMED_PWM: "need at least 2 observations, got 1",
                },
            ),
            (  # 1e4 / mean(excesses) overflows; Zhang-Stephens is not finite
                [0.0, 1e-310, 2e-310], 0.0, [1e-310, 2e-310],
                {
                    EstimatorId.ZHANG_STEPHENS: "xi_hat must be finite, got nan",
                    EstimatorId.GPD_MLE: "GPD MLE scan range 1e4/mean(x) overflows at "
                    "mean(x) = 1.49999999999997e-310",
                    EstimatorId.PARETO_ML: "Pareto ML requires strictly positive observations",
                    EstimatorId.TRANSFORMED_ZS: "initial Zhang-Stephens fit failed: "
                    "xi_hat must be finite, got nan",
                    EstimatorId.TRANSFORMED_PWM: "mu_hat must be a positive real for the "
                    "three-parameter form, got 0.0",
                },
            ),
        ],
        ids=["zero excesses", "negative support", "zero support", "inf", "one value", "tiny"],
    )
    def test_exact_failure_messages(self, x, support, exc, expected):
        # every estimator not named fits its row
        out = fit_all(np.array(x), support, np.array(exc), PLAN_ESTIMATORS)
        assert {e: o for e, o in out.items() if isinstance(o, str)} == expected

    def test_hill_failure_message(self):
        res = pot_estimate([-3.0, -2.0, -1.0, 0.5, 1.0, 2.0], PotConfig(3))
        assert res.failures == {
            EstimatorId.HILL: "Hill estimator needs a positive threshold X_(n-k)"
        }

    @pytest.mark.parametrize("entry", ["bogus", "pwm"])
    def test_estimators_must_be_estimator_ids(self, entry):
        x, support, exc = _over_minimum([1.0, 2.0, 3.0, 5.0])
        with pytest.raises(ValueError, match=repr(entry)):
            fit_all(x, support, exc, (EstimatorId.PWM, entry))

    def test_negative_rounds_rejected(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="^rounds must be a non-negative integer, got -1$"):
            fit_all(x, 1.0, x[1:] - 1.0, (EstimatorId.TRANSFORMED_ZS,), rounds=-1)

    def test_hill_needs_pot_estimate(self):
        # without a tail, one sample or a stack
        message = "^the Hill estimator needs the raw sample and k; use pot_estimate$"
        with pytest.raises(ValueError, match=message):
            fit_all(np.array([1.0, 2.0, 3.0]), 1.0, np.array([1.0, 2.0]), (EstimatorId.HILL,))
        with pytest.raises(ValueError, match=message):
            fit_all(np.ones((2, 3)), np.ones(2), np.ones((2, 2)), (EstimatorId.HILL,))

    @pytest.mark.parametrize("k", [2, 20, 199])
    def test_hill_fits_the_tail(self, k):
        # the threshold X_(n-k), then the k largest values, sorted
        x = sample_gpd(GpdParams(0.0, 1.0, 0.5), 200, RngStream(61, 0))
        tail = np.concatenate([[select_threshold(x, k)], np.sort(x)[-k:]])
        exc = excesses(x, tail[0])
        fit = fit_all(exc, float(exc.min()), exc, (EstimatorId.HILL,), tail=tail)[EstimatorId.HILL]
        assert fit == estimate_hill(x, k)
        assert fit.mu_hat == tail[0] and fit.sigma_hat is None
        assert fit.diagnostics == {"k": float(k)}


def _row(draw, n):
    """One sample row: spread, with ties at the minimum, all equal, or with a
    non-finite value."""
    kind = draw(st.sampled_from(["spread", "tied", "equal", "non-finite"]))
    if kind == "equal":
        return [draw(st.floats(min_value=-5.0, max_value=50.0))] * n
    values = draw(st.lists(st.floats(min_value=-5.0, max_value=50.0), min_size=n, max_size=n))
    if kind == "tied":
        values[-1] = min(values)
    if kind == "non-finite":
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return values


@st.composite
def stacks(draw):
    """Equal-length rows, some with a non-positive minimum, ties or no spread,
    and the support estimates: each row's minimum, or that shifted."""
    n = draw(st.integers(min_value=2, max_value=12))
    r = draw(st.integers(min_value=1, max_value=5))
    x = np.array([_row(draw, n) for _ in range(r)])
    shifts = draw(st.lists(st.sampled_from([0.0, 0.0, -1.5, 2.0]), min_size=r, max_size=r))
    return x, x.min(axis=1) + np.array(shifts)


def _bits(value) -> str:
    return repr(float(value))


class TestFitAllStack:
    """fit_all on a stack of rows equals the 1-D fit_all on each row."""

    @settings(max_examples=200, deadline=None)
    @given(
        stacks(),
        st.sets(st.sampled_from(PLAN_ESTIMATORS), min_size=1).map(tuple),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["shifted", "strict", "independent"]),
        st.data(),
    )
    def test_stack_equals_rows(self, stack, wanted, rounds, exc_mode, data):
        x, support = stack
        with np.errstate(invalid="ignore"):  # inf - inf
            exc = x - support[:, None]  # negative or non-finite where support is off
        counts = {int(np.sum(row > 0)) for row in exc}
        if exc_mode == "strict" and len(counts) == 1:  # as many positive excesses per row
            exc = exc[exc > 0].reshape(len(x), counts.pop())
        if exc_mode == "independent":  # finite excesses whatever x holds
            width = data.draw(st.integers(min_value=0, max_value=12))
            cells = st.floats(min_value=0.0, max_value=20.0)
            exc = np.array(data.draw(st.lists(
                st.lists(cells, min_size=width, max_size=width), min_size=len(x), max_size=len(x)
            ))).reshape(len(x), width)
        stacked = fit_all(x, support, exc, wanted, rounds)
        assert set(stacked) == set(wanted)
        for i in range(len(x)):
            one = fit_all(x[i], float(support[i]), exc[i], wanted, rounds)
            for estimator in wanted:
                fit = one[estimator]
                fitted = isinstance(fit, FitResult) and fit.diagnostics.get("converged", 1.0)
                xi, reason = stacked[estimator]
                assert _bits(xi[i]) == _bits(fit.xi_hat if fitted else np.nan)
                assert (reason[i] == Reason.ok) == bool(fitted)

    def test_row_failure_fails_only_its_row(self):
        good = sample_gpd(GpdParams(1.0, 1.0, 0.5), 30, RngStream(62, 0))
        with_inf = good.copy()
        with_inf[3] = np.inf
        x = np.stack([good, np.full(30, 2.0), good - 5.0, with_inf])
        support = x.min(axis=1)
        exc = x - support[:, None]
        exc[3] = np.linspace(0.0, 1.0, 30)  # finite and short-tailed
        fits = fit_all(x, support, exc, PLAN_ESTIMATORS)
        stacked = {estimator: xi for estimator, (xi, _) in fits.items()}
        reasons = {estimator: [Reason(r).name for r in fits[estimator][1]] for estimator in fits}
        for estimator in PLAN_ESTIMATORS:
            assert np.isfinite(stacked[estimator][0])
        # all-equal: zero excesses; shifted below zero: no Pareto ML or transform
        assert np.isnan(stacked[EstimatorId.ZHANG_STEPHENS][1])
        assert np.isnan(stacked[EstimatorId.TRANSFORMED_PWM][1])
        assert np.isnan(stacked[EstimatorId.PARETO_ML][2])
        assert np.isnan(stacked[EstimatorId.TRANSFORMED_ZS][2])
        assert stacked[EstimatorId.ZHANG_STEPHENS][2] == stacked[EstimatorId.ZHANG_STEPHENS][0]
        # a negative initial slope would clamp the infinite value to the bound;
        # the 1-D transform rejects the sample all the same
        assert stacked[EstimatorId.PWM][3] < 0
        assert np.isnan(stacked[EstimatorId.TRANSFORMED_PWM][3])
        assert np.isnan(stacked[EstimatorId.TRANSFORMED_ZS][3])
        assert reasons[EstimatorId.ZHANG_STEPHENS] == ["ok", "all_zero", "ok", "ok"]
        assert reasons[EstimatorId.PARETO_ML] == ["ok", "ok", "nonpositive", "non_finite"]
        assert reasons[EstimatorId.TRANSFORMED_PWM] == [
            "ok", "initial_failed", "support_nonpositive", "non_finite"
        ]

    def test_no_one_row_fallback(self, monkeypatch):
        # a stack is fitted by the row kernels alone, failing rows included
        def refuse(*args):
            raise AssertionError("a 1-D estimator ran on a row of a stack")

        for module, name in (
            (tailshape.estimators, "estimate_zhang_stephens"),
            (tailshape.estimators, "estimate_pwm"),
            (tailshape.estimators, "estimate_gpd_mle"),
            (tailshape.estimators, "estimate_pareto_ml"),
            (tailshape.transform, "iterate_transform"),
        ):
            monkeypatch.setattr(module, name, refuse)
        x = np.array([[1.0, 2.0, 4.0], [2.0, 2.0, 2.0], [-1.0, 0.5, 3.0], [1.0, 2.0, np.inf]])
        support = x.min(axis=1)
        stacked = fit_all(x, support, x - support[:, None], PLAN_ESTIMATORS)
        initial = ["ok", "initial_failed", "support_nonpositive", "initial_failed"]
        assert {e: [Reason(r).name for r in reason] for e, (_, reason) in stacked.items()} == {
            EstimatorId.ZHANG_STEPHENS: ["ok", "all_zero", "ok", "non_finite"],
            EstimatorId.PWM: ["ok", "pwm_singular", "ok", "non_finite"],
            EstimatorId.GPD_MLE: ["not_converged", "all_zero", "not_converged", "non_finite"],
            EstimatorId.PARETO_ML: ["ok", "ok", "nonpositive", "non_finite"],
            EstimatorId.TRANSFORMED_ZS: initial,
            EstimatorId.TRANSFORMED_PWM: initial,
        }
        for xi, reason in stacked.values():
            assert ((reason == Reason.ok) == np.isfinite(xi)).all()

    def test_gpd_rows_without_a_fit_fail_alone(self):
        exc = np.array([
            [0.5, 1.0, 4.0],
            [0.0, 0.0, 5e-324],  # the mean underflows to zero
            [0.0, 0.0, 0.0],
            [0.0, 1e-310, 0.0],  # 1e4 / mean overflows
            [1.7e308, 1.7e308, 1.0],  # the sum overflows
            [-1.0, 2.0, 3.0],
            [2.0, 0.25, 7.0],
        ])
        stacked, reasons = fit_all(exc, exc.min(axis=1), exc, (EstimatorId.GPD_MLE,))[
            EstimatorId.GPD_MLE
        ]
        assert np.isfinite(stacked[[0, 6]]).all() and np.isnan(stacked[1:6]).all()
        assert [Reason(r).name for r in reasons] == [
            "ok", "mean_underflow", "all_zero", "no_scan_range", "invalid_estimate", "negative", "ok"
        ]
        for i, row in enumerate(exc):
            one = fit_all(row, float(row.min()), row, (EstimatorId.GPD_MLE,))[EstimatorId.GPD_MLE]
            assert isinstance(one, FitResult) == (i in (0, 6))
            if i in (0, 6):
                assert _bits(stacked[i]) == _bits(one.xi_hat)


def _rows_of(source, n, streams):
    """A test source's rows: its one-row sample, drawn by the oracle's
    samplers, on each stream of the block."""
    return streams.draw(n, lambda g, n: (source.sample(n, SimpleNamespace(generator=g)),))[0]


@dataclass(frozen=True)
class _RoundedGpd:
    """GPD source rounded to one decimal, so samples tie at their minimum."""

    param_name: ClassVar[str] = "xi"
    xi: float

    @property
    def true_xi(self) -> float:
        return self.xi

    def sample(self, n, rng):
        return np.round(sampler_oracle.sample_gpd(GpdParams(1.0, 1.0, self.xi), n, rng), 1)

    sample_rows = _rows_of


@dataclass(frozen=True)
class _RoundedT:
    """Student t source rounded to whole numbers, so samples tie at their
    threshold and leave fewer than k, or fewer than 2, excesses."""

    param_name: ClassVar[str] = "df"
    df: float

    @property
    def true_xi(self) -> float:
        return 1.0 / self.df

    def sample(self, n, rng):
        return np.round(sampler_oracle.sample_student_t(self.df, n, rng))

    sample_rows = _rows_of


@dataclass(frozen=True)
class _SpikedT:
    """Student t source with one value, at a random place, replaced by inf,
    -inf or nan, so Hill fails on the whole sample."""

    param_name: ClassVar[str] = "df"
    df: float

    @property
    def true_xi(self) -> float:
        return 1.0 / self.df

    def sample(self, n, rng):
        x = sampler_oracle.sample_student_t(self.df, n, rng)
        x[rng.generator.integers(n)] = rng.generator.choice([np.inf, -np.inf, np.nan])
        return x

    sample_rows = _rows_of


POT_ESTIMATORS = PLAN_ESTIMATORS + (EstimatorId.HILL,)


def _pot_slots(spec):
    """Each replication's converged-filtered pot_estimate, NaN where it failed."""
    expected = {e: np.full(spec.m, np.nan) for e in spec.estimator_set}
    cfg = PotConfig(spec.k, spec.estimator_set, fold_absolute=spec.fold_absolute)
    for r in range(spec.m):
        try:
            x = sampler_oracle.sample(spec.source, spec.n, sampler_oracle.stream(spec.seed, r))
            fits = pot_estimate(x, cfg).fits
        except ValueError:  # fewer than 2 exceedances
            continue
        for estimator, fit in fits.items():
            if fit.diagnostics.get("converged", 1.0):
                expected[estimator][r] = fit.xi_hat
    return expected


def _slots_equal(a, b):
    assert a.keys() == b.keys()
    for estimator in a:
        assert [_bits(v) for v in a[estimator]] == [_bits(v) for v in b[estimator]]


@dataclass(frozen=True)
class _RoundedNanT(_RoundedT):
    """Rounded Student t source (see :class:`_RoundedT`) that puts a NaN in
    about one sample in five."""

    def sample(self, n, rng):
        x = super().sample(n, rng)
        if rng.generator.random() < 0.2:
            x[rng.generator.integers(n)] = np.nan
        return x

    sample_rows = _rows_of


class TestHillSlots:
    """Each Hill slot that the replication engine fills is
    :func:`estimate_hill` on its replication's sample, folded if asked, bit
    for bit; a row with fewer than 2 excesses fails as too few and a row with
    a NaN as non-finite."""

    REASONS = {
        "sample contains non-finite values": Reason.non_finite,
        "Hill estimator needs a positive threshold X_(n-k)": Reason.threshold_nonpositive,
    }

    @pytest.mark.parametrize("fold", [True, False])
    def test_slots_equal_estimate_hill(self, fold):
        spec = ExperimentSpec(
            _RoundedNanT(30.0), n=30, m=60, k=5, estimators=(EstimatorId.HILL,), seed=7,
            fold_absolute=fold,
        )
        assert spec.m * spec.k <= montecarlo.ELEMENT_BUDGET  # one chunk
        slots, reasons = montecarlo._replicate_range(spec, 0, spec.m)
        counts, nans = [], []
        for r in range(spec.m):
            x = sampler_oracle.sample(spec.source, spec.n, sampler_oracle.stream(spec.seed, r))
            x = np.abs(x) if fold else x
            counts.append(int(np.sum(x > select_threshold(x, spec.k))))
            nans.append(bool(np.isnan(x).any()))
            if counts[-1] < 2:
                want, reason = np.nan, Reason.too_few
            else:
                try:
                    want, reason = estimate_hill(x, spec.k).xi_hat, Reason.ok
                except ValueError as err:  # X_(n-k) <= 0 only in a sample not folded
                    want, reason = np.nan, self.REASONS[str(err)]
            assert _bits(slots[EstimatorId.HILL][r]) == _bits(want)
            assert reasons[EstimatorId.HILL][r] == reason
        # rows with k, with 2 to k - 1 and with fewer than 2 excesses, and NaN
        # rows with at least 2
        assert spec.k in counts and any(2 <= c < spec.k for c in counts)
        assert any(c < 2 for c in counts)
        assert any(nan and c >= 2 for nan, c in zip(nans, counts))


class TestBatchedReplication:
    """The excess-over-minimum replications, fitted a chunk of rows at a time."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([GpdSource(GpdParams(1.0, 1.0, 0.5)), _RoundedGpd(0.5)]),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=25),
        st.lists(st.integers(min_value=1, max_value=24), max_size=4),
        st.sampled_from([None, 24, 60]),
        st.integers(min_value=0, max_value=2),
    )
    def test_any_split_of_the_range_gives_the_same_slots(
        self, source, n, m, cuts, budget, rounds
    ):
        # criterion 09: workers fit sub-ranges; a small budget forces several
        # chunks
        spec = ExperimentSpec(
            source, n=n, m=m, estimators=PLAN_ESTIMATORS, seed=7, rounds=rounds
        )
        bounds = sorted({0, m, *(c for c in cuts if c < m)})
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(montecarlo, "ELEMENT_BUDGET", budget)
            whole, whole_reasons = montecarlo._replicate_range(spec, 0, m)
            parts = [montecarlo._replicate_range(spec, a, b) for a, b in zip(bounds, bounds[1:])]
        _slots_equal(whole, {e: np.concatenate([p[0][e] for p in parts]) for e in whole})
        for e in whole:
            assert (np.concatenate([p[1][e] for p in parts]) == whole_reasons[e]).all()
            assert ((whole_reasons[e] == Reason.ok) == np.isfinite(whole[e])).all()
        # each slot is the 1-D fit_all of its own replication
        expected = {e: np.full(m, np.nan) for e in PLAN_ESTIMATORS}
        for r in range(m):
            x = sampler_oracle.sample(spec.source, n, sampler_oracle.stream(spec.seed, r))
            support = float(x.min())
            fits = fit_all(x, support, x[x > support] - support, PLAN_ESTIMATORS, rounds)
            for estimator, fit in fits.items():
                if isinstance(fit, FitResult) and fit.diagnostics.get("converged", 1.0):
                    expected[estimator][r] = fit.xi_hat
        _slots_equal(whole, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([StudentTSource(3.0), _RoundedT(30.0), _RoundedT(2.0), _SpikedT(3.0)]),
        st.integers(min_value=3, max_value=60),
        st.integers(min_value=1, max_value=25),
        st.lists(st.integers(min_value=1, max_value=24), max_size=4),
        st.sampled_from([None, 24, 60, 2000]),
        st.booleans(),
        st.data(),
    )
    def test_pot_any_split_gives_the_same_slots(self, source, n, m, cuts, budget, fold, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        spec = ExperimentSpec(
            source, n=n, m=m, k=k, estimators=POT_ESTIMATORS, seed=7, fold_absolute=fold
        )
        bounds = sorted({0, m, *(c for c in cuts if c < m)})
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(montecarlo, "ELEMENT_BUDGET", budget)
            whole, whole_reasons = montecarlo._replicate_range(spec, 0, m)
            parts = [montecarlo._replicate_range(spec, a, b) for a, b in zip(bounds, bounds[1:])]
        _slots_equal(whole, {e: np.concatenate([p[0][e] for p in parts]) for e in whole})
        for e in whole:
            assert (np.concatenate([p[1][e] for p in parts]) == whole_reasons[e]).all()
            assert ((whole_reasons[e] == Reason.ok) == np.isfinite(whole[e])).all()
        _slots_equal(whole, _pot_slots(spec))

    @pytest.mark.parametrize("fold", [True, False])
    def test_pot_ties_at_the_threshold(self, fold):
        spec = ExperimentSpec(
            _RoundedT(30.0), n=30, m=30, k=5, estimators=POT_ESTIMATORS, seed=7, fold_absolute=fold
        )
        counts = []
        for r in range(spec.m):
            x = sampler_oracle.sample(spec.source, spec.n, sampler_oracle.stream(spec.seed, r))
            x = np.abs(x) if fold else x
            counts.append(int(np.sum(x > select_threshold(x, spec.k))))
        # rows with k, with 2 to k - 1 and with fewer than 2 excesses
        assert spec.k in counts
        assert any(2 <= c < spec.k for c in counts) and any(c < 2 for c in counts)
        slots, reasons = montecarlo._replicate_range(spec, 0, spec.m)
        _slots_equal(slots, _pot_slots(spec))
        failed = np.array(counts) < 2
        for estimator in POT_ESTIMATORS:
            assert np.isnan(slots[estimator][failed]).all()
            assert (reasons[estimator][failed] == Reason.too_few).all()


    def test_pot_rounds_refresh_the_transform(self):
        # each transformed_zs slot is the transform of the replication's folded
        # excesses refreshed once, as a lone iterate_transform call fits it
        spec = ExperimentSpec(
            StudentTSource(3.0), n=1000, m=30, k=100, seed=4, rounds=1, fold_absolute=True
        )
        slots, _ = montecarlo._replicate_range(spec, 0, spec.m)
        expected = []
        for r in range(spec.m):
            x = sampler_oracle.sample(spec.source, spec.n, sampler_oracle.stream(spec.seed, r))
            exc = excesses(np.abs(x), select_threshold(np.abs(x), spec.k))
            expected.append(iterate_transform(exc, estimate_zhang_stephens(exc), exc.min(), 1))
        assert [_bits(v) for v in slots[EstimatorId.TRANSFORMED_ZS]] == [
            _bits(fit.xi_hat) for fit in expected
        ]


class TestNonFiniteValues:
    """A NaN or an infinite value anywhere in a sample fails every POT fit as
    non-finite, although a NaN or -inf never exceeds the threshold and so
    never shows among the excesses."""

    FAILED = "sample contains non-finite values"
    MESSAGES = {
        **dict.fromkeys(POT_ESTIMATORS, FAILED),
        EstimatorId.TRANSFORMED_ZS: f"initial Zhang-Stephens fit failed: {FAILED}",
        EstimatorId.TRANSFORMED_PWM: f"initial PWM fit failed: {FAILED}",
    }

    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
    def test_pot_estimate(self, value):
        x = sample_gpd(GpdParams(0.0, 1.0, 0.5), 200, RngStream(61, 0))
        x[17] = value
        res = pot_estimate(x, PotConfig(20, POT_ESTIMATORS))
        assert res.fits == {}
        assert res.failures == self.MESSAGES

    def test_stacked(self):
        spec = ExperimentSpec(
            _SpikedT(3.0), n=200, m=12, k=20, estimators=POT_ESTIMATORS, seed=7
        )
        slots, reasons = montecarlo._replicate_range(spec, 0, spec.m)
        for estimator in POT_ESTIMATORS:
            transformed = estimator in (EstimatorId.TRANSFORMED_ZS, EstimatorId.TRANSFORMED_PWM)
            expected = Reason.initial_failed if transformed else Reason.non_finite
            assert (reasons[estimator] == expected).all()
            assert np.isnan(slots[estimator]).all()
