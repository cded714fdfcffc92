"""The one fit path against copies of the one-sample code it replaced.

A one-sample ``fit_all`` used to dispatch to the ``estimate_*`` functions and
to a one-sample refresh loop of the transform, turning their exceptions into
messages; ``pot_estimate`` reduced its sample on its own.  Those versions are
copied here as references.  ``fit_all`` now fits one sample as a stack of one
row through the row kernels, so every fit and every message must equal the
reference's, bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tailshape import (
    EstimationError,
    EstimatorId,
    FitResult,
    GpdParams,
    PotConfig,
    Reason,
    RngStream,
    TransformSpec,
    estimate_gpd_mle,
    estimate_hill,
    estimate_pareto_ml,
    estimate_pwm,
    estimate_zhang_stephens,
    fit_all,
    iterate_transform,
    pot_estimate,
    sample_gpd,
    to_pareto,
    transformed_shape_estimate,
)

E = EstimatorId
PLAN = (E.ZHANG_STEPHENS, E.PWM, E.GPD_MLE, E.PARETO_ML, E.TRANSFORMED_ZS, E.TRANSFORMED_PWM)


# --- references: the one-sample code before the one fit path -------------

_REFERENCE_INITIAL = {
    E.TRANSFORMED_ZS: (E.ZHANG_STEPHENS, "Zhang-Stephens"),
    E.TRANSFORMED_PWM: (E.PWM, "PWM"),
}
_REFERENCE_TRANSFORMED_ID = {E.ZHANG_STEPHENS: E.TRANSFORMED_ZS, E.PWM: E.TRANSFORMED_PWM}


def _attempt(fitter, *args):
    try:
        return fitter(*args)
    except (ValueError, EstimationError) as err:
        return str(err)


def _reference_transformed_shape_estimate(x, initial, mu_hat):
    if initial.sigma_hat is None:
        raise ValueError("initial fit must carry a scale estimate")
    try:
        estimator = _REFERENCE_TRANSFORMED_ID[initial.estimator]
    except KeyError:
        raise ValueError(
            f"no transformed estimator is defined for initial fits from {initial.estimator!r}"
        ) from None
    spec = TransformSpec(mu_hat, initial.sigma_hat, initial.xi_hat)
    with np.errstate(all="ignore"):
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


def _reference_iterate_transform(x, initial, mu_hat, rounds):
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 0:
        raise ValueError(f"rounds must be a non-negative integer, got {rounds!r}")
    fit = _reference_transformed_shape_estimate(x, initial, mu_hat)
    done = 0
    current = initial
    for _ in range(rounds):
        if fit.xi_hat <= 0:
            break
        current = replace(current, xi_hat=fit.xi_hat)
        fit = _reference_transformed_shape_estimate(x, current, mu_hat)
        done += 1
    fit.diagnostics["refresh_rounds"] = float(done)
    return fit


def _reference_one_fit(estimator, x, support, exc, rounds, fits):
    if estimator in _REFERENCE_INITIAL:
        base, name = _REFERENCE_INITIAL[estimator]
        if isinstance(fits[base], str):
            return f"initial {name} fit failed: {fits[base]}"
        return _attempt(_reference_iterate_transform, x, fits[base], support, rounds)
    fitter = {
        E.ZHANG_STEPHENS: estimate_zhang_stephens,
        E.PWM: estimate_pwm,
        E.GPD_MLE: estimate_gpd_mle,
        E.PARETO_ML: estimate_pareto_ml,
    }[estimator]
    return _attempt(fitter, x if estimator is E.PARETO_ML else exc)


def _reference_fit_all(x, support, exc, wanted, rounds=0):
    fits = {}
    for estimator in dict.fromkeys(wanted):
        for e in (_REFERENCE_INITIAL.get(estimator, (estimator,))[0], estimator):
            if e not in fits:
                fits[e] = _reference_one_fit(e, x, support, exc, rounds, fits)
    return {estimator: fits[estimator] for estimator in wanted}


def _reference_top_k(arr, k):
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k < arr.size:
        raise ValueError(f"k must satisfy 1 <= k < n = {arr.size}, got {k!r}")
    part = np.partition(arr, arr.size - k - 1)
    return float(part[arr.size - k - 1]), np.sort(part[arr.size - k :])


def _reference_pot_estimate(x, cfg):
    arr = np.asarray(x, dtype=float).ravel()
    if cfg.fold_absolute:
        arr = np.abs(arr)
    threshold = _reference_top_k(arr, cfg.k)[0]
    exc = arr[arr > threshold] - threshold
    if exc.size < 2:
        raise ValueError(
            f"need at least 2 exceedances above threshold {threshold}, got {exc.size}"
        )
    wanted = tuple(dict.fromkeys(cfg.estimators))
    outcomes = _reference_fit_all(
        exc, float(exc.min()), exc, [e for e in wanted if e is not E.HILL]
    )
    if E.HILL in wanted:
        outcomes[E.HILL] = _attempt(estimate_hill, arr, cfg.k)
    return threshold, exc.size, outcomes


# --- comparison -------------------------------------------------------------

def _key(outcome):
    """Everything a fit or a failure shows, floats by repr (bit for bit)."""
    if isinstance(outcome, str):
        return ("message", outcome)
    if isinstance(outcome, BaseException):
        return ("raised", type(outcome), str(outcome))
    return (
        "fit",
        repr(outcome.xi_hat),
        repr(outcome.sigma_hat),
        repr(outcome.mu_hat),
        outcome.estimator,
        [(name, repr(value)) for name, value in outcome.diagnostics.items()],
    )


def _call(fitter, *args):
    try:
        return fitter(*args)
    except (ValueError, EstimationError) as err:
        return err


# ties, zeros, signs, non-finite values, subnormals and values near the ends
# of the float range
_SPECIAL = [0.0, -0.0, -1.0, 1.0, 2.5, 2.5, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1.7e308]
values = st.one_of(
    st.floats(min_value=-5.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=20.0).map(lambda v: round(v, 1)),
    st.sampled_from(_SPECIAL),
    st.builds(math.ldexp, st.floats(min_value=0.5, max_value=1.0), st.integers(-1070, 1023)),
)
samples = st.one_of(
    st.lists(values, max_size=6),
    st.lists(values, min_size=50, max_size=50),
    st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=50, max_size=50),
)


def _support(x, mode):
    finite = x[np.isfinite(x)]
    low = float(finite.min()) if finite.size else 1.0
    supports = {"minimum": low, "nan": math.nan, "zero": 0.0, "negative": -1.0, "below": low - 0.5}
    return supports[mode]


class TestOneSampleFitAll:
    @settings(max_examples=400, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        samples,
        st.sets(st.sampled_from(PLAN), min_size=1).map(tuple),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["minimum", "minimum", "nan", "zero", "negative", "below"]),
        st.sampled_from(["over", "raw", "independent"]),
        samples,
    )
    def test_equals_the_one_sample_dispatch(self, values, wanted, rounds, mode, exc_mode, other):
        x = np.array(values, dtype=float)
        support = _support(x, mode)
        with np.errstate(invalid="ignore"):
            exc = {
                "over": x[x > support] - support,
                "raw": x,
                "independent": np.array(other, dtype=float),
            }[exc_mode]
        got = fit_all(x, support, exc, wanted, rounds)
        want = _reference_fit_all(x, support, exc, wanted, rounds)
        assert list(got) == list(want)
        for estimator in wanted:
            assert _key(got[estimator]) == _key(want[estimator])

    @settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        samples,
        st.sampled_from(["minimum", "nan", "zero", "negative", "below"]),
        st.sampled_from([(0.5, 1.0), (-0.3, 0.7), (2.0, 1e-300), (1e-3, 1e300)]),
        st.sampled_from([E.ZHANG_STEPHENS, E.PWM]),
        st.integers(min_value=0, max_value=2),
    )
    def test_transforms_equal_the_refresh_loop(self, values, mode, start, estimator, rounds):
        x = np.array(values, dtype=float)
        support = _support(x, mode)
        initial = FitResult(*start, None, estimator)
        assert _key(_call(iterate_transform, x, initial, support, rounds)) == _key(
            _call(_reference_iterate_transform, x, initial, support, rounds)
        )
        assert _key(_call(transformed_shape_estimate, x, initial, support)) == _key(
            _call(_reference_transformed_shape_estimate, x, initial, support)
        )

    @pytest.mark.parametrize(
        "initial",
        [
            FitResult(0.5, None, 1.0, E.ZHANG_STEPHENS),
            FitResult(0.5, 1.0, None, E.HILL),
        ],
    )
    def test_transform_argument_checks(self, initial):
        x = np.array([1.0, 2.0, 3.0])
        got = _call(iterate_transform, x, initial, 1.0, 0)
        assert _key(got) == _key(_call(_reference_iterate_transform, x, initial, 1.0, 0))
        assert isinstance(got, ValueError)


def _pot_key(outcome):
    if isinstance(outcome, BaseException):
        return _key(outcome)
    outcomes = {**outcome.fits, **outcome.failures}
    return repr(outcome.threshold), outcome.excess_count, {e: _key(o) for e, o in outcomes.items()}


def _reference_pot_key(x, cfg):
    try:
        threshold, count, outcomes = _reference_pot_estimate(x, cfg)
    except ValueError as err:
        return _key(err)
    return repr(threshold), count, {e: _key(o) for e, o in outcomes.items()}


class TestPotEstimate:
    @settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        samples,
        st.integers(min_value=1, max_value=8),
        st.sets(st.sampled_from((*PLAN, E.HILL)), min_size=1).map(tuple),
        st.booleans(),
    )
    def test_equals_the_one_sample_version(self, values, k, wanted, fold):
        x = np.array(values, dtype=float)
        cfg = PotConfig(k, wanted, fold)
        assert _pot_key(_call(pot_estimate, x, cfg)) == _reference_pot_key(x, cfg)

    @pytest.mark.parametrize("fold", [False, True])
    def test_ties_at_the_threshold(self, fold):
        # values rounded to integers tie at X_(n-k); a sign flip on every other
        # value makes the folded and the raw samples differ
        x = np.round(sample_gpd(GpdParams(0.0, 1.0, 0.5), 400, RngStream(3, 0)))
        x[::2] *= -1.0
        arr = np.abs(x) if fold else x
        ks = (5, 20, 60, 150)
        assert all(np.sum(arr == _reference_top_k(arr, k)[0]) > 1 for k in ks)
        for k in ks:
            cfg = PotConfig(k, (*PLAN, E.HILL), fold)
            assert _pot_key(_call(pot_estimate, x, cfg)) == _reference_pot_key(x, cfg)


# one sample per reason: (estimator, x, support, exc); the row's reason in a
# stack, then the one-sample outcome
_ZEROS = [0.0, 0.0, 0.0]
REASON_CASES = {
    Reason.too_few: (E.PARETO_ML, [2.0], 1.0, [1.0, 2.0]),
    Reason.non_finite: (E.PWM, [1.0, 2.0], 1.0, [1.0, np.nan]),
    Reason.negative: (E.ZHANG_STEPHENS, [1.0, 2.0], 1.0, [-1.0, 2.0, 3.0]),
    Reason.nonpositive: (E.PARETO_ML, [0.0, 1.0], 0.0, [1.0, 2.0]),
    Reason.all_zero: (E.GPD_MLE, [1.0, 2.0], 1.0, _ZEROS),
    Reason.mean_underflow: (E.GPD_MLE, [1.0, 2.0], 1.0, [0.0, 0.0, 5e-324]),
    Reason.no_scan_range: (E.GPD_MLE, [1.0, 2.0], 1.0, [0.0, 1e-310, 0.0]),
    Reason.support_nonpositive: (E.TRANSFORMED_ZS, [1.0, 2.0, 4.0], -1.0, [1.0, 3.0, 4.0]),
    Reason.initial_failed: (E.TRANSFORMED_PWM, [1.0, 2.0, 3.0], 1.0, _ZEROS),
    Reason.pwm_singular: (E.PWM, [1.0, 2.0], 1.0, _ZEROS),
    Reason.not_converged: (E.GPD_MLE, [1.0, 2.0], 1.0, [0.0, 1.0, 3.0]),
    Reason.invalid_estimate: (E.ZHANG_STEPHENS, [1.0, 2.0], 1.0, [990.0, 2.2250738585072014e-308]),
}


class TestEveryReason:
    def test_every_failure_reason_has_a_case(self):
        # threshold_nonpositive is Hill's, degenerate_zero takes a forced
        # zero: both are covered below
        covered = set(REASON_CASES) | {Reason.threshold_nonpositive, Reason.degenerate_zero}
        assert covered == set(Reason) - {Reason.ok}

    @pytest.mark.parametrize("reason", list(REASON_CASES), ids=lambda r: r.name)
    def test_reason_gives_a_message_or_a_documented_fit(self, reason):
        estimator, x, support, exc = (np.asarray(v, dtype=float) if isinstance(v, list) else v
                                      for v in REASON_CASES[reason])
        stacked = fit_all(x[None, :], np.array([support]), exc[None, :], (estimator,))
        assert stacked[estimator][1][0] == reason
        outcome = fit_all(x, support, exc, (estimator,))[estimator]
        if reason is Reason.not_converged:
            assert isinstance(outcome, FitResult) and outcome.diagnostics["converged"] == 0.0
        else:
            assert isinstance(outcome, str) and outcome

    def test_hill_threshold_message(self):
        res = pot_estimate([-3.0, -2.0, -1.0, 0.5, 1.0, 2.0], PotConfig(3, (E.HILL,)))
        assert res.failures == {E.HILL: "Hill estimator needs a positive threshold X_(n-k)"}

    def test_degenerate_zero_message(self, monkeypatch):
        # a weighted theta of exactly zero forces the zero estimate
        monkeypatch.setattr(np, "matmul", lambda a, b: np.zeros((len(a), 1, 1)))
        x = np.array([1.0, 2.0, 4.0])
        stacked = fit_all(x[None, :], x.min(keepdims=True), x[None, :], (E.ZHANG_STEPHENS,))
        assert stacked[E.ZHANG_STEPHENS][1][0] == Reason.degenerate_zero
        assert fit_all(x, 1.0, x, (E.ZHANG_STEPHENS,))[E.ZHANG_STEPHENS] == (
            "Zhang-Stephens produced a degenerate zero estimate"
        )
