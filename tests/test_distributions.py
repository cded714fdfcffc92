"""Tests for the distribution functions and seeded samplers."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from tailshape import (
    GpdParams,
    ParetoParams,
    RngStream,
    gpd_cdf,
    gpd_pdf,
    gpd_quantile,
    gpd_sf,
    pareto_cdf,
    pareto_pdf,
    pareto_quantile,
    pareto_sf,
    sample_gpd,
    sample_pareto,
    sample_student_t,
    sample_symmetric_stable,
)

KS_CRITICAL_1PCT = 1.6276  # asymptotic c(alpha) for alpha = 0.01


def ks_stat(sample, cdf):
    return stats.kstest(sample, cdf).statistic


class TestParams:
    def test_gpd_valid(self):
        p = GpdParams(mu=1.0, sigma=2.0, xi=0.5)
        assert p.alpha == 2.0

    @pytest.mark.parametrize(
        "mu,sigma,xi",
        [
            (0.0, 0.0, 0.5),
            (0.0, -1.0, 0.5),
            (0.0, 1.0, 0.0),
            (0.0, 1.0, -0.2),
            (math.nan, 1.0, 0.5),
            (0.0, 1.0, math.inf),
        ],
    )
    def test_gpd_invalid(self, mu, sigma, xi):
        with pytest.raises(ValueError):
            GpdParams(mu, sigma, xi)

    @pytest.mark.parametrize("mu,alpha", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_pareto_invalid(self, mu, alpha):
        with pytest.raises(ValueError):
            ParetoParams(mu, alpha)

    def test_pareto_from_gpd_keeps_support_and_tail_index(self):
        pareto = ParetoParams.from_gpd(GpdParams(2.0, 1.0, 0.25))
        assert pareto.mu == 2.0
        assert pareto.alpha == 4.0


class TestGpdFunctions:
    def test_pdf_at_lower_bound_is_inverse_scale(self):
        assert gpd_pdf(GpdParams(1.0, 1.0, 1.0), 1.0) == 1.0
        assert gpd_pdf(GpdParams(0.0, 2.0, 0.5), 0.0) == 0.5

    def test_pdf_known_values(self):
        assert gpd_pdf(GpdParams(0.0, 1.0, 1.0), 1.0) == 0.25
        assert gpd_pdf(GpdParams(1.0, 2.0, 0.5), 3.0) == pytest.approx(4.0 / 27.0, rel=1e-14)

    def test_pdf_integrates_to_one(self):
        p = GpdParams(1.0, 2.0, 0.5)
        total, err = integrate.quad(lambda x: gpd_pdf(p, x), 1.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_domain_error(self):
        with pytest.raises(ValueError):
            gpd_pdf(GpdParams(1.0, 1.0, 0.5), 0.999)

    def test_sf_values(self):
        assert gpd_sf(GpdParams(1.0, 1.0, 1.0), 1.0) == 1.0
        assert gpd_sf(GpdParams(0.0, 1.0, 1.0), 1.0) == 0.5
        # sigma = xi * mu makes the GPD a pure Pareto survival (x/mu)^(-1/xi)
        assert gpd_sf(GpdParams(1.0, 0.5, 0.5), 4.0) == pytest.approx(0.0625, rel=1e-14)

    def test_sf_monotone_and_cdf_complement(self):
        p = GpdParams(0.5, 1.5, 0.75)
        x = np.linspace(0.5, 40.0, 200)
        sf = gpd_sf(p, x)
        assert np.all(np.diff(sf) <= 0)
        assert np.allclose(sf + gpd_cdf(p, x), 1.0, atol=1e-15)

    def test_quantile_values(self):
        assert gpd_quantile(GpdParams(0.0, 1.0, 1.0), 0.5) == pytest.approx(1.0, rel=1e-14)
        assert gpd_quantile(GpdParams(3.0, 2.0, 0.5), 0.0) == 3.0

    def test_quantile_matches_bisection_root(self):
        p = GpdParams(1.0, 2.0, 0.25)
        # independent root-finding oracle on the survival function
        lo, hi = 1.0, 1e9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gpd_sf(p, mid) > 0.1:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        q = gpd_quantile(p, 0.9)
        assert q == pytest.approx(root, rel=1e-9)
        assert q == pytest.approx(7.226235280311383, rel=1e-12)

    def test_quantile_domain_error(self):
        p = GpdParams(0.0, 1.0, 0.5)
        for prob in (-0.01, 1.0, 1.5):
            with pytest.raises(ValueError):
                gpd_quantile(p, prob)

    def test_quantile_sf_round_trip(self):
        for mu, sigma, xi in [(0.0, 1.0, 0.1), (1.0, 2.0, 0.5), (5.0, 0.5, 1.0)]:
            p = GpdParams(mu, sigma, xi)
            # cap where the survival drops below 1e-6: beyond that 1 - sf
            # loses the round trip to double rounding, not to the formulas
            top = min(mu + 50.0 * sigma / xi, float(gpd_quantile(p, 1.0 - 1e-6)))
            x = np.linspace(mu, top, 101)
            back = gpd_quantile(p, 1.0 - gpd_sf(p, x))
            assert np.allclose(back, x, rtol=1e-9)

    def test_sf_pdf_finite_difference(self):
        for mu, sigma, xi in [(0.0, 1.0, 0.25), (1.0, 2.0, 0.5), (2.0, 0.5, 1.0)]:
            p = GpdParams(mu, sigma, xi)
            x = np.linspace(mu + 0.5, mu + 20.0, 50)
            h = 1e-6
            fd = (gpd_sf(p, x - h) - gpd_sf(p, x + h)) / (2.0 * h)
            assert np.allclose(fd, gpd_pdf(p, x), atol=1e-6)


class TestParetoFunctions:
    def test_known_values(self):
        assert pareto_sf(ParetoParams(1.0, 2.0), 2.0) == 0.25
        assert pareto_quantile(ParetoParams(1.0, 1.0), 0.5) == pytest.approx(2.0, rel=1e-14)
        assert pareto_pdf(ParetoParams(1.0, 1.0), 1.0) == 1.0

    def test_cdf_quantile_inverse(self):
        p = ParetoParams(2.0, 2.5)
        probs = np.linspace(0.0, 0.999, 50)
        assert np.allclose(pareto_cdf(p, pareto_quantile(p, probs)), probs, atol=1e-12)

    def test_domain_errors(self):
        p = ParetoParams(1.0, 1.0)
        with pytest.raises(ValueError):
            pareto_pdf(p, 0.5)
        with pytest.raises(ValueError):
            pareto_quantile(p, 1.0)

    def test_matches_gpd_with_tied_scale(self):
        # sigma = xi * mu: the GPD survival reduces to the Pareto one exactly
        for mu, xi in [(1.0, 0.5), (2.0, 0.25), (0.5, 1.0)]:
            gpd = GpdParams(mu, xi * mu, xi)
            pareto = ParetoParams.from_gpd(gpd)
            z = np.linspace(mu, mu * 50, 200)
            assert np.allclose(gpd_sf(gpd, z), pareto_sf(pareto, z), atol=1e-12)


class _ZeroUniformStream:
    """Stand-in stream whose uniform draws are all zero."""

    class _Gen:
        def random(self, n):
            return np.zeros(n)

    generator = _Gen()


class TestRngStream:
    def test_same_key_reproduces_bit_for_bit(self):
        p = GpdParams(1.0, 1.0, 0.5)
        a = sample_gpd(p, 1000, RngStream(7, 3))
        b = sample_gpd(p, 1000, RngStream(7, 3))
        assert np.array_equal(a, b)

    def test_different_stream_ids_differ(self):
        p = GpdParams(1.0, 1.0, 0.5)
        a = sample_gpd(p, 1000, RngStream(7, 0))
        b = sample_gpd(p, 7, RngStream(7, 1))
        assert not np.array_equal(a[:7], b)

    # bool subclasses int, so True would pass for 1
    @pytest.mark.parametrize(
        "seed,stream", [(-1, 0), (0, -2), (2**64, 0), (1.5, 0), (True, 0), (0, True)]
    )
    def test_key_validation(self, seed, stream):
        with pytest.raises(ValueError):
            RngStream(seed, stream)


class TestSamplers:
    def test_gpd_sample_above_support_bound(self):
        p = GpdParams(1.0, 1.0, 0.5)
        x = sample_gpd(p, 10_000, RngStream(1, 0))
        assert x.min() >= 1.0

    def test_gpd_zero_uniform_maps_to_mu(self):
        x = sample_gpd(GpdParams(3.0, 2.0, 0.5), 1, _ZeroUniformStream())
        assert x[0] == 3.0

    def test_gpd_sample_ks(self):
        p = GpdParams(1.0, 1.0, 0.5)
        x = sample_gpd(p, 10_000, RngStream(2, 0))
        assert ks_stat(x, lambda v: gpd_cdf(p, v)) < KS_CRITICAL_1PCT / math.sqrt(10_000)

    def test_gpd_sample_ks_across_seeds(self):
        p = GpdParams(1.0, 1.0, 0.5)
        crit = KS_CRITICAL_1PCT / math.sqrt(10_000)
        passes = sum(
            ks_stat(sample_gpd(p, 10_000, RngStream(100, s)), lambda v: gpd_cdf(p, v)) < crit
            for s in range(100)
        )
        assert passes >= 95

    def test_pareto_sample_ks_and_support(self):
        p = ParetoParams(1.0, 2.0)
        z = sample_pareto(p, 10_000, RngStream(3, 0))
        assert z.min() >= 1.0
        assert ks_stat(z, lambda v: pareto_cdf(p, v)) < KS_CRITICAL_1PCT / math.sqrt(10_000)

    def test_invalid_sample_sizes(self):
        with pytest.raises(ValueError):
            sample_gpd(GpdParams(0.0, 1.0, 0.5), 0, RngStream(1, 0))
        with pytest.raises(ValueError):
            sample_student_t(2.0, -5, RngStream(1, 0))

    @pytest.mark.parametrize(
        "sampler",
        [
            lambda n, rng: sample_gpd(GpdParams(0.0, 1.0, 0.5), n, rng),
            lambda n, rng: sample_pareto(ParetoParams(1.0, 2.0), n, rng),
            lambda n, rng: sample_student_t(2.0, n, rng),
            lambda n, rng: sample_symmetric_stable(1.5, n, rng),
        ],
        ids=["gpd", "pareto", "student-t", "stable"],
    )
    def test_bool_sample_size_rejected(self, sampler):
        with pytest.raises(ValueError):
            sampler(True, RngStream(1, 0))

    def test_student_t_cauchy_case(self):
        x = sample_student_t(1.0, 100_000, RngStream(4, 0))
        q25, q50, q75 = np.percentile(x, [25, 50, 75])
        assert abs(q50) < 0.05
        assert (q75 - q25) == pytest.approx(2.0, abs=0.1)

    def test_student_t_variance(self):
        x = sample_student_t(5.0, 100_000, RngStream(5, 0))
        assert x.var() == pytest.approx(5.0 / 3.0, rel=0.1)

    def test_student_t_ks(self):
        x = sample_student_t(3.0, 10_000, RngStream(6, 0))
        assert ks_stat(x, stats.t(df=3).cdf) < KS_CRITICAL_1PCT / math.sqrt(10_000)

    def test_student_t_determinism_and_validation(self):
        a = sample_student_t(2.5, 100, RngStream(7, 9))
        b = sample_student_t(2.5, 100, RngStream(7, 9))
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            sample_student_t(0.0, 10, RngStream(1, 0))

    def test_stable_gaussian_case(self):
        # index 2 is N(0, 2)
        x = sample_symmetric_stable(2.0, 100_000, RngStream(8, 0))
        assert x.var() == pytest.approx(2.0, rel=0.1)
        assert ks_stat(
            sample_symmetric_stable(2.0, 10_000, RngStream(8, 1)),
            stats.norm(scale=math.sqrt(2.0)).cdf,
        ) < KS_CRITICAL_1PCT / math.sqrt(10_000)

    def test_stable_cauchy_case(self):
        x = sample_symmetric_stable(1.0, 100_000, RngStream(9, 0))
        q25, q75 = np.percentile(x, [25, 75])
        assert q25 == pytest.approx(-1.0, abs=0.05)
        assert q75 == pytest.approx(1.0, abs=0.05)
        assert ks_stat(
            sample_symmetric_stable(1.0, 10_000, RngStream(9, 1)), stats.cauchy.cdf
        ) < KS_CRITICAL_1PCT / math.sqrt(10_000)

    @pytest.mark.parametrize("index", [0.8, 1.3, 1.5, 1.9])
    def test_stable_symmetry(self, index):
        x = sample_symmetric_stable(index, 100_000, RngStream(10, int(index * 10)))
        assert abs(np.median(x)) < 0.05

    def test_stable_determinism_and_validation(self):
        a = sample_symmetric_stable(1.5, 100, RngStream(11, 2))
        b = sample_symmetric_stable(1.5, 100, RngStream(11, 2))
        assert np.array_equal(a, b)
        for bad in (0.0, -0.5, 2.1):
            with pytest.raises(ValueError):
                sample_symmetric_stable(bad, 10, RngStream(1, 0))
