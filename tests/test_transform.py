"""Tests for the GPD-to-Pareto transformation and back-transformations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tailshape import (
    EstimatorId,
    FitResult,
    GpdParams,
    ParetoParams,
    RngStream,
    TransformForm,
    TransformSpec,
    estimate_pareto_ml,
    estimate_zhang_stephens,
    gpd_cdf_via_transform,
    gpd_quantile,
    gpd_quantile_via_transform,
    iterate_transform,
    pareto_cdf,
    sample_gpd,
    sample_pareto,
    to_pareto,
    transformed_shape_estimate,
)

KS_CRITICAL_1PCT = 1.6276


def zs_like(xi, sigma):
    return FitResult(xi, sigma, None, EstimatorId.ZHANG_STEPHENS)


class TestTransformSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransformSpec(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            TransformSpec(1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            TransformSpec(0.0, 1.0, 0.5)  # three-parameter form needs mu > 0
        with pytest.raises(ValueError):
            TransformSpec(1.0, 1.0, math.nan)

    def test_two_parameter_needs_finite_mu(self):
        with pytest.raises(ValueError, match="^mu_hat must be finite, got nan$"):
            TransformSpec(math.nan, 2.0, 0.5, TransformForm.TWO_PARAMETER)

    def test_two_parameter_allows_zero_mu(self):
        spec = TransformSpec(0.0, 2.0, 0.5, TransformForm.TWO_PARAMETER)
        assert spec.lower_bound == 2.0
        assert spec.slope == 0.5
        assert spec.intercept == 2.0

    def test_negative_shape_is_accepted(self):
        # estimated shapes can be negative in small samples; the clamp rule
        # handles them downstream
        spec = TransformSpec(1.0, 1.0, -0.3)
        assert spec.slope == -0.3


class TestToPareto:
    def test_identity_when_scale_is_xi_mu(self):
        x = sample_gpd(GpdParams(2.0, 2.0 * 0.5, 0.5), 500, RngStream(40, 0))
        out = to_pareto(x, TransformSpec(2.0, 2.0 * 0.5, 0.5))
        assert out.clamp_count == 0
        assert np.array_equal(out.z, x)

    def test_lower_bound_maps_to_itself(self):
        spec = TransformSpec(1.5, 2.0, 0.5)
        out = to_pareto([1.5, 2.0, 3.0], spec)
        assert out.z[0] == 1.5

    def test_true_parameters_give_pareto_distributed_values(self):
        params = GpdParams(1.0, 2.0, 0.5)
        x = sample_gpd(params, 10_000, RngStream(41, 0))
        out = to_pareto(x, TransformSpec(1.0, 2.0, 0.5))
        assert out.clamp_count == 0
        target = ParetoParams(1.0, 2.0)
        ks = stats.kstest(out.z, lambda v: pareto_cdf(target, v)).statistic
        assert ks < KS_CRITICAL_1PCT / math.sqrt(10_000)

    def test_support_law_under_adversarial_parameters(self):
        x = sample_gpd(GpdParams(1.0, 1.0, 0.5), 300, RngStream(42, 0))
        for xi_hat in (-0.8, -0.1, 0.05, 2.5):
            out = to_pareto(x, TransformSpec(1.0, 0.7, xi_hat))
            assert out.z.min() >= out.lower_bound
            assert 0 <= out.clamp_count <= x.size

    def test_wholesale_clamp_for_negative_shape(self):
        x = np.array([1.0, 2.0, 3.0])
        out = to_pareto(x, TransformSpec(1.0, 1.0, -0.5))
        assert out.clamp_count == 2  # every point above the support estimate
        assert np.all(out.z == 1.0)

    def test_rank_preservation_without_clamping(self):
        x = sample_gpd(GpdParams(1.0, 2.0, 0.3), 500, RngStream(43, 0))
        out = to_pareto(x, TransformSpec(1.0, 1.5, 0.4))
        assert out.clamp_count == 0
        assert np.array_equal(np.argsort(out.z), np.argsort(x))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            to_pareto([], TransformSpec(1.0, 1.0, 0.5))


finite_samples = st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50)
positive_reals = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def transform_specs(draw, xi=st.floats(min_value=-5.0, max_value=5.0)):
    form = draw(st.sampled_from(TransformForm))
    mu = draw(positive_reals if form is TransformForm.THREE_PARAMETER else st.floats(-1e3, 1e3))
    return TransformSpec(mu, draw(positive_reals), draw(xi), form)


class TestToParetoRules:
    @settings(max_examples=300, deadline=None)
    @given(finite_samples, transform_specs())
    def test_clamp_rule(self, values, spec):
        # values mapped below the bound are set to it and counted; the rest
        # are the affine map itself
        x = np.array(values)
        out = to_pareto(x, spec)
        raw = spec.slope * x + spec.intercept
        below = raw < spec.lower_bound
        assert out.clamp_count == np.count_nonzero(below)
        assert out.lower_bound == spec.lower_bound
        assert np.all(out.z[below] == spec.lower_bound)
        assert np.array_equal(out.z[~below], raw[~below])

    @settings(max_examples=300, deadline=None)
    @given(finite_samples, transform_specs(xi=positive_reals))
    def test_rank_rule(self, values, spec):
        # a positive slope never reverses the order of two values, clamped or not
        x = np.array(values)
        z = to_pareto(x, spec).z
        assert np.all(np.diff(z[np.argsort(x, kind="stable")]) >= 0)


class TestTransformedShapeEstimate:
    def test_identity_transform_reduces_to_pareto_ml(self):
        x = sample_pareto(ParetoParams(1.0, 2.0), 400, RngStream(44, 0))
        mu_hat = float(x.min())
        direct = estimate_pareto_ml(x)
        fit = transformed_shape_estimate(x, zs_like(0.7, 0.7 * mu_hat), mu_hat)
        assert fit.xi_hat == pytest.approx(direct.xi_hat, abs=1e-15)
        assert fit.diagnostics["clamp_count"] == 0
        assert fit.estimator is EstimatorId.TRANSFORMED_ZS

    def test_matches_direct_expression_without_clamping(self):
        x = sample_gpd(GpdParams(1.0, 1.0, 0.5), 300, RngStream(45, 0))
        mu_hat = float(x.min())
        xi0, sigma0 = 0.45, 1.1
        fit = transformed_shape_estimate(x, zs_like(xi0, sigma0), mu_hat)
        direct = float(np.mean(np.log1p((xi0 / sigma0) * (x - mu_hat))))
        assert fit.diagnostics["clamp_count"] == 0
        assert fit.xi_hat == pytest.approx(direct, abs=1e-12)

    def test_negative_initial_collapses_to_zero(self):
        x = sample_gpd(GpdParams(1.0, 1.0, 0.3), 200, RngStream(46, 0))
        fit = transformed_shape_estimate(x, zs_like(-0.2, 0.9), float(x.min()))
        assert fit.xi_hat == 0.0
        # every point above the support estimate clamps; the support point
        # itself may round an ulp to either side of the bound
        assert fit.diagnostics["clamp_count"] >= x.size - 1
        assert fit.diagnostics["alpha_transformed"] == math.inf

    def test_alpha_diagnostic(self):
        x = sample_pareto(ParetoParams(1.0, 2.0), 400, RngStream(47, 0))
        fit = transformed_shape_estimate(x, zs_like(0.5, 0.5 * x.min()), float(x.min()))
        assert fit.diagnostics["alpha_transformed"] == pytest.approx(1.0 / fit.xi_hat)

    def test_requires_scale_and_known_initial_estimator(self):
        x = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            transformed_shape_estimate(x, FitResult(0.5, None, 1.0, EstimatorId.PARETO_ML), 1.0)
        with pytest.raises(ValueError):
            transformed_shape_estimate(x, FitResult(0.5, 1.0, None, EstimatorId.HILL), 1.0)


class TestIterateTransform:
    def test_zero_rounds_matches_single_shot(self):
        x = sample_gpd(GpdParams(1.0, 2.0, 0.5), 250, RngStream(48, 0))
        mu_hat = float(x.min())
        initial = zs_like(0.4, 1.8)
        once = transformed_shape_estimate(x, initial, mu_hat)
        iterated = iterate_transform(x, initial, mu_hat, rounds=0)
        assert iterated.xi_hat == once.xi_hat
        assert iterated.diagnostics["refresh_rounds"] == 0.0

    def test_identity_fixed_point(self):
        x = sample_pareto(ParetoParams(1.0, 1.5), 400, RngStream(49, 0))
        mu_hat = float(x.min())
        xi0 = estimate_pareto_ml(x).xi_hat
        initial = zs_like(xi0, xi0 * mu_hat)  # identity transform at the ML shape
        r0 = iterate_transform(x, initial, mu_hat, rounds=0)
        r1 = iterate_transform(x, initial, mu_hat, rounds=1)
        assert r1.xi_hat == pytest.approx(r0.xi_hat, abs=1e-14)
        assert r1.diagnostics["refresh_rounds"] == 1.0

    def test_negative_round_count_rejected(self):
        with pytest.raises(ValueError):
            iterate_transform([1.0, 2.0], zs_like(0.5, 1.0), 1.0, rounds=-1)

    def test_zero_shape_stops_refreshing(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = iterate_transform(x, zs_like(-0.5, 1.0), 1.0, rounds=3)
        assert fit.xi_hat == 0.0
        assert fit.diagnostics["refresh_rounds"] == 0.0


class TestQuantileBackTransform:
    def test_prob_zero_returns_support_estimate(self):
        spec = TransformSpec(1.5, 2.0, 0.5)
        assert gpd_quantile_via_transform(spec, 2.0, 0.0) == pytest.approx(1.5, rel=1e-14)

    def test_identity_transform_pareto_median(self):
        spec = TransformSpec(1.0, 1.0, 1.0)  # sigma = xi * mu: identity map
        assert gpd_quantile_via_transform(spec, 1.0, 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_agrees_with_closed_form_quantile(self):
        # alpha = 1/xi makes the transform path an exact GPD quantile
        spec = TransformSpec(1.0, 2.0, 0.5)
        params = GpdParams(1.0, 2.0, 0.5)
        for prob in (0.1, 0.5, 0.9, 0.99):
            via = gpd_quantile_via_transform(spec, 2.0, prob)
            assert via == pytest.approx(float(gpd_quantile(params, prob)), rel=1e-9)

    def test_two_parameter_form(self):
        spec = TransformSpec(0.0, 2.0, 0.5, TransformForm.TWO_PARAMETER)
        params = GpdParams(0.0, 2.0, 0.5)
        for prob in (0.25, 0.5, 0.9):
            via = gpd_quantile_via_transform(spec, 2.0, prob)
            assert via == pytest.approx(float(gpd_quantile(params, prob)), rel=1e-12)

    def test_round_trip_with_probability_expression(self):
        spec = TransformSpec(1.0, 2.0, 0.5)
        probs = np.arange(0.01, 1.0, 0.01)
        x_p = gpd_quantile_via_transform(spec, 2.0, probs)
        back = gpd_cdf_via_transform(spec, 2.0, x_p)
        assert np.allclose(back, probs, atol=1e-12)

    def test_validation(self):
        spec = TransformSpec(1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            gpd_quantile_via_transform(spec, -1.0, 0.5)
        with pytest.raises(ValueError):
            gpd_quantile_via_transform(spec, 2.0, 1.0)
        with pytest.raises(ValueError):
            gpd_quantile_via_transform(TransformSpec(1.0, 2.0, -0.5), 2.0, 0.5)

    def test_cdf_validation(self):
        spec = TransformSpec(1.0, 2.0, 0.5)
        with pytest.raises(ValueError) as err:
            gpd_cdf_via_transform(spec, 0.0, 2.0)
        assert str(err.value) == "alpha_transformed must be a positive real, got 0.0"
        # the map sends x = 0.5 to 0.875, below the support bound mu_hat = 1
        with pytest.raises(ValueError, match="^x maps below the Pareto support bound$"):
            gpd_cdf_via_transform(spec, 2.0, 0.5)
