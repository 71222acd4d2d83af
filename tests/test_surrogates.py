"""Gamma and generalized-gamma surrogate fits, priced through the fitted null and ``ggd_sf``."""

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import gengamma

from gfisher.methods import fit_null
from gfisher.statistic import GFisherDef, transform
from gfisher.surrogates import (
    GGDSurrogate,
    MomentSummary,
    NoSolutionError,
    fit_gb,
    fit_ggd,
    fit_mr,
    ggd_sf,
)


def ggd_moment(k: int, shape: float, scale: float, power: float) -> float:
    """Raw moment E X^k = theta^k Gamma((a+k)/p) / Gamma(a/p)."""
    return scale**k * np.exp(gammaln((shape + k) / power) - gammaln(shape / power))


def chi2_moments(k: float) -> MomentSummary:
    return MomentSummary(mu=k, var=2 * k, skew=np.sqrt(8 / k), exkurt=12 / k)


def gamma_null(method: str, m: MomentSummary):
    """The gb or mr null fitted on the given moments (sigma is not read)."""
    return fit_null(GFisherDef.fisher(1), np.eye(1), method, moments=m)


def ggd_pvalue(sur: GGDSurrogate, t):
    return float(ggd_sf(t, sur.shape, sur.scale, sur.power, sur.loc))


class TestFitGB:
    def test_fisher_independent_recovers_chi2(self):
        m = MomentSummary(mu=20.0, var=40.0)
        assert fit_gb(m).shape == pytest.approx(10.0, rel=1e-14)

    def test_mean_equals_variance(self):
        m = MomentSummary(mu=7.0, var=7.0)
        assert fit_gb(m).shape == pytest.approx(7.0)

    def test_arithmetic(self):
        m = MomentSummary(mu=20.0, var=58.6)
        assert fit_gb(m).shape == pytest.approx(6.826, abs=1e-3)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            fit_gb(MomentSummary(mu=-1.0, var=2.0))


class TestFitMR:
    def test_chi2_20_recovers_gb_shape(self):
        assert fit_mr(chi2_moments(20.0)).shape == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("k", [1.0, 2.0, 5.0, 20.0, 100.0])
    def test_chi2_family_shape(self, k):
        # 9 * (8/k) / (144/k^2) = k/2
        assert fit_mr(chi2_moments(k)).shape == pytest.approx(k / 2.0, rel=1e-12)

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu, var = rng.uniform(5, 50), rng.uniform(1, 100)
            skew, exkurt = rng.uniform(0.1, 3), rng.uniform(0.1, 10)
            m = MomentSummary(mu, var, skew, exkurt)
            b, c = rng.uniform(0.5, 4), rng.uniform(-10, 10)
            shifted = MomentSummary(b * mu + c, b * b * var, skew, exkurt)
            assert fit_mr(m).shape == fit_mr(shifted).shape

    def test_degenerate_falls_back_to_gb(self):
        m = MomentSummary(mu=10.0, var=5.0, skew=0.5, exkurt=0.0)
        sur = fit_mr(m)
        assert sur.degenerate_fallback
        assert sur.shape == pytest.approx(20.0)

    def test_missing_moments_rejected(self):
        with pytest.raises(ValueError):
            fit_mr(MomentSummary(mu=10.0, var=5.0))


class TestPvalueGamma:
    def test_at_the_mean(self):
        # survival of Gamma(10, 1) at its own mean, frozen from gammaincc(10, 10)
        m = MomentSummary(mu=20.0, var=40.0)
        res = gamma_null("gb", m).pvalue(20.0)
        assert res.pvalue == pytest.approx(0.4579297144718523, rel=1e-12)

    def test_chi2_20_upper_quantile(self):
        # frozen from chi2.ppf(0.95, 20)
        m = chi2_moments(20.0)
        res = gamma_null("mr", m).pvalue(31.410432844230918)
        assert res.pvalue == pytest.approx(0.05, abs=1e-4)

    def test_support_clamp(self):
        m = MomentSummary(mu=20.0, var=40.0)
        res = gamma_null("gb", m).pvalue(0.0)
        assert res.pvalue == 1.0

    def test_strictly_decreasing(self):
        m = chi2_moments(6.0)
        null = gamma_null("mr", m)
        grid = np.linspace(0.5, 40.0, 1000)
        pv = np.array([null.pvalue(t).pvalue for t in grid])
        assert np.all(np.diff(pv) < 0)


class TestFitGGD:
    def test_recovers_plain_gamma(self):
        # moments of Gamma(shape 5, scale 2) fed to the three-raw-moment fit
        a0, th0 = 5.0, 2.0
        m1 = a0 * th0
        var = a0 * th0**2
        skew = 2.0 / np.sqrt(a0)
        sur = fit_ggd(MomentSummary(m1, var, skew, 6.0 / a0), "ggd123")
        assert sur.shape == pytest.approx(5.0, abs=1e-6)
        assert sur.scale == pytest.approx(2.0, abs=1e-6)
        assert sur.power == pytest.approx(1.0, abs=1e-6)

    def test_recovers_chi2_4(self):
        sur = fit_ggd(chi2_moments(4.0), "ggd123")
        assert sur.shape == pytest.approx(2.0, abs=1e-6)
        assert sur.scale == pytest.approx(2.0, abs=1e-6)
        assert sur.power == pytest.approx(1.0, abs=1e-6)

    def test_recovers_true_ggd_triple(self):
        a0, th0, p0 = 2.0, 2.0, 2.0
        m1, m2, m3, m4 = (ggd_moment(k, a0, th0, p0) for k in (1, 2, 3, 4))
        var = m2 - m1**2
        skew = (m3 - 3 * m1 * m2 + 2 * m1**3) / var**1.5
        exk = (m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4) / var**2 - 3
        for variant in ("ggd123", "ggd234", "ggdmr"):
            sur = fit_ggd(MomentSummary(m1, var, skew, exk), variant)
            assert sur.shape == pytest.approx(a0, abs=1e-5), variant
            assert sur.power == pytest.approx(p0, abs=1e-5), variant
            assert sur.scale == pytest.approx(th0, abs=1e-5), variant
            if variant == "ggd234":
                assert sur.loc == pytest.approx(0.0, abs=1e-6)

    def test_heavy_tail_target_has_no_solution(self):
        # skewness/kurtosis pair far outside the family (very heavy tail at
        # modest skewness) cannot be matched within the power bracket
        m = MomentSummary(mu=23.0, var=300.0, skew=3.8, exkurt=36.7)
        with pytest.raises(NoSolutionError) as info:
            fit_ggd(m, "ggd234")
        assert info.value.residual is not None and info.value.residual > 1e-8


class TestIndependenceDeepTail:
    def test_gb_and_mr_match_exact_chi2_to_deep_tail(self):
        # equal-weight d = 2 under independence: both gamma fits recover the
        # exact chi-square, checked down to p = 1e-8
        n = 10
        mu, var = 2.0 * n, 4.0 * n
        m = MomentSummary(mu, var, skew=16.0 * n / var**1.5, exkurt=96.0 * n / var**2)
        p_targets = np.array([1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9, 1.0 - 1e-9])
        t_grid = transform(GFisherDef([2.0 * n]), p_targets[:, None])[:, 0]
        for method in ("gb", "mr"):
            null = gamma_null(method, m)
            got = np.array([null.pvalue(t).pvalue for t in t_grid])
            np.testing.assert_allclose(got, p_targets, atol=1e-6)


class TestPvalueGGD:
    def test_power_one_matches_gamma_survival(self):
        from scipy.stats import gamma as gamma_dist

        sur = GGDSurrogate(shape=10.0, scale=2.0, power=1.0)
        p = ggd_pvalue(sur, 31.41)
        assert p == pytest.approx(float(gamma_dist.sf(31.41, 10.0, scale=2.0)), rel=1e-10)

    def test_location_clamp(self):
        sur = GGDSurrogate(shape=2.0, scale=1.0, power=1.0, loc=5.0)
        assert ggd_pvalue(sur, 4.0) == 1.0

    def test_inversion_round_trip(self):
        # frozen: the 0.99 quantile of GGD(2, 2, 2) is 2 sqrt(-log 0.01)
        sur = GGDSurrogate(shape=2.0, scale=2.0, power=2.0)
        p = ggd_pvalue(sur, 4.2919320525786935)
        assert p == pytest.approx(0.01, abs=1e-8)

    def test_monotone_in_t(self):
        sur = GGDSurrogate(shape=2.0, scale=2.0, power=1.5)
        grid = np.linspace(0.1, 30, 1000)
        pv = np.asarray([ggd_pvalue(sur, t) for t in grid])
        assert np.all(np.diff(pv) < 0)

    def test_cdf_sf_complement(self):
        sur = GGDSurrogate(shape=3.0, scale=1.5, power=0.8)
        x = np.linspace(0.01, 20, 50)
        # GGD(a, theta, p) is scipy's gengamma(a / p, p, scale=theta)
        cdf = gengamma.cdf(x, sur.shape / sur.power, sur.power, scale=sur.scale)
        total = cdf + np.array([ggd_pvalue(sur, t) for t in x])
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
