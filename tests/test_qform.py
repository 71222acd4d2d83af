"""Quadratic-form surrogate: M matrix, eigen spectrum, CDF inversion, hybrid."""

import numpy as np
import pytest
from scipy.stats import chi2, gamma

from gfisher import dependence
from gfisher.methods import fit_null
from gfisher.qform import (
    QuadFormSpec,
    build_m,
    eigen_spec,
    hybrid_moments,
    hybrid_shape,
    qform_sf,
    qform_spec,
    _imhof_survival,
)
from gfisher.statistic import GFisherDef


def fisher_two_sided(n):
    return GFisherDef.fisher(n, side="two")


def q_cdf(spec, x, acc=1e-9):
    """P(Q <= x) as the complement of the certified survival."""
    return 1.0 - qform_sf(spec, x, acc).value


class TestBuildM:
    def test_d1_recovers_sigma(self):
        s = dependence.gen_structure("equal", "III", 4, 0.5).values
        g = GFisherDef(degrees=[1, 1, 1, 1], side="two")
        cov = dependence.cov_matrix(g, s)
        sc = build_m(g, s, cov)
        np.testing.assert_allclose(sc.m, s, atol=1e-8)

    def test_identity_sigma(self):
        g = fisher_two_sided(3)
        cov = dependence.cov_matrix(g, np.eye(3))
        sc = build_m(g, np.eye(3), cov)
        np.testing.assert_allclose(sc.m, np.eye(3), atol=1e-12)
        assert sc.clamp_count == 0 and not sc.repair_applied

    def test_fisher_pair_value(self):
        # sqrt(0.9802 / 4) for the d = 2 pair at correlation 0.5
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        g = fisher_two_sided(2)
        cov = dependence.cov_matrix(g, s, kstar=10)
        sc = build_m(g, s, cov)
        assert sc.m[0, 1] == pytest.approx(0.4950, abs=5e-3)

    def test_sign_carries_over(self):
        s = np.array([[1.0, -0.6], [-0.6, 1.0]])
        g = GFisherDef(degrees=[1, 1], side="two")
        cov = dependence.cov_matrix(g, s)
        sc = build_m(g, s, cov)
        assert sc.m[0, 1] == pytest.approx(-0.6, abs=1e-8)

    def test_one_sided_rejected(self):
        g = GFisherDef(degrees=[2, 2], side="one")
        with pytest.raises(ValueError):
            build_m(g, np.eye(2), np.full((2, 2), 0.1))

    def test_non_integer_rejected(self):
        g = GFisherDef(degrees=[2.5, 2.5], side="two")
        with pytest.raises(ValueError):
            build_m(g, np.eye(2), np.full((2, 2), 0.1))

    def test_negative_covariance_rejected(self):
        g = fisher_two_sided(2)
        bad = np.array([[4.0, -0.5], [-0.5, 4.0]])
        with pytest.raises(ValueError):
            build_m(g, np.eye(2), bad)


class TestEigenSpec:
    def test_identity_fisher(self):
        g = fisher_two_sided(2)
        sc = build_m(g, np.eye(2), dependence.cov_matrix(g, np.eye(2)))
        spec = eigen_spec(g, sc)
        np.testing.assert_allclose(np.sort(spec.lambdas), np.ones(4), atol=1e-12)

    def test_single_summand(self):
        # one statistic with d = 3: in the one-statistic case the raw weight
        # normalizes to 1, so the spectrum is three unit eigenvalues
        g = GFisherDef(degrees=[3], weights=[2.0], side="two")
        sc = build_m(g, np.eye(1), dependence.cov_matrix(g, np.eye(1)))
        spec = eigen_spec(g, sc)
        np.testing.assert_allclose(spec.lambdas, [1.0, 1.0, 1.0], atol=1e-12)

    def test_pair_closed_form(self):
        rho = 0.35
        s = np.array([[1.0, rho], [rho, 1.0]])
        g = GFisherDef(degrees=[1, 1], side="two")
        spec = qform_spec(g, s)
        np.testing.assert_allclose(np.sort(spec.lambdas), [1 - rho, 1 + rho], atol=1e-8)

    def test_trace_identity(self):
        s = dependence.gen_structure("poly", "III", 6, 1.0).values
        g = GFisherDef(degrees=[1, 2, 3, 1, 2, 3], weights=[1, 2, 1, 0.5, 1, 0.5], side="two")
        cov = dependence.cov_matrix(g, s)
        sc = build_m(g, s, cov)
        spec = eigen_spec(g, sc)
        if not sc.repair_applied:
            assert spec.trace == pytest.approx(g.mean, abs=1e-8)

    def test_nonzero_count_per_level(self):
        s = dependence.gen_structure("equal", "III", 3, 0.4).values
        g = GFisherDef(degrees=[1, 2, 3], side="two")
        sc = build_m(g, s, dependence.cov_matrix(g, s))
        d = g.degrees.astype(int)
        for k in range(1, 4):
            active = d >= k
            r = np.sqrt(g.weights * active)
            vals = np.linalg.eigvalsh(np.outer(r, r) * sc.m)
            assert np.count_nonzero(vals > 1e-10) == active.sum()

    def test_variance_matches_series(self):
        # no clamping/repair: 2 sum(lambda^2) equals the series variance
        s = dependence.gen_structure("equal", "III", 4, 0.5).values
        g = GFisherDef(degrees=[1, 2, 3, 2], weights=[0.5, 1.5, 1.0, 1.0], side="two")
        spec = qform_spec(g, s, kstar=10)
        assert not spec.repair_applied and spec.clamp_count == 0
        var_q = 2.0 * float(np.sum(spec.lambdas**2))
        assert var_q == pytest.approx(dependence.var_T(g, s, kstar=10), rel=1e-10)


class TestSurrogateDistribution:
    def test_sampled_surrogate_matches_cdf(self):
        # draw the surrogate directly from its construction (correlated
        # normal levels squared and weighted) and compare the empirical CDF
        # with the characteristic-function inversion
        rng = np.random.default_rng(77)
        s = dependence.gen_structure("equal", "III", 4, 0.6).values
        g = GFisherDef(degrees=[1, 2, 3, 2], weights=[0.5, 1.5, 1.0, 1.0], side="two")
        sc = build_m(g, s, dependence.cov_matrix(g, s))
        spec = eigen_spec(g, sc)
        nreps = 400_000
        d = g.degrees.astype(int)
        factor = np.linalg.cholesky(sc.m + 1e-14 * np.eye(4))
        q = np.zeros(nreps)
        for k in range(1, int(d.max()) + 1):
            z = rng.standard_normal((nreps, 4)) @ factor.T
            active = (d >= k).astype(float)
            q += (z**2) @ (g.weights * active)
        for prob in (0.5, 0.9, 0.99, 0.999):
            x = np.quantile(q, prob)
            got = q_cdf(spec, float(x))
            se = np.sqrt(prob * (1 - prob) / nreps)
            assert abs(got - prob) < 4 * se, (prob, got)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadFormSpec(lambdas=np.array([1.0, -0.5]), trace=0.5)
        spec = QuadFormSpec(lambdas=np.array([1.0, -1e-12]), trace=1.0)
        assert spec.lambdas.min() >= 0.0


class TestQformCdf:
    def test_single_chi2_quantile(self):
        # frozen from chi2.ppf(0.95, 1)
        assert q_cdf(np.array([1.0]), 3.841458820694124) == pytest.approx(0.95, abs=1e-6)

    def test_matches_chi2_sum(self):
        assert q_cdf(np.ones(6), 10.0) == pytest.approx(float(chi2.cdf(10.0, 6)), abs=1e-8)

    def test_zero_and_negative_x(self):
        assert q_cdf(np.array([2.0, 1.0]), 0.0) == 0.0
        assert q_cdf(np.array([2.0, 1.0]), -3.0) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 6, 20])
    def test_equal_lambdas_match_gamma(self, k):
        lam = np.full(k, 0.7)
        for x in (0.2 * k, 0.7 * k, 1.4 * k, 3.0 * k):
            expected = float(gamma.cdf(x, k / 2.0, scale=2.0 * 0.7))
            assert q_cdf(lam, x) == pytest.approx(expected, abs=1e-8)

    def test_monotone_in_x(self):
        lam = np.array([2.0, 1.0, 0.5])
        grid = np.linspace(0.1, 30, 60)
        vals = [q_cdf(lam, x) for x in grid]
        assert np.all(np.diff(vals) > -1e-12)

    def test_certified_error_bound(self):
        out = qform_sf(np.array([1.5, 0.5, 0.25]), 5.0, acc=1e-9)
        assert out.converged and out.error_bound <= 1e-9

    def test_agrees_with_imhof(self):
        # the lattice and adaptive-quadrature integrators are independent paths
        lam = np.array([2.0, 1.0, 0.5, 0.5, 0.2])
        for x in (1.0, 5.0, 12.0, 25.0):
            davies = qform_sf(lam, x, acc=1e-10).value
            imhof = _imhof_survival(lam, x, 1e-9)
            assert davies == pytest.approx(imhof.value, abs=2e-8)

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError):
            q_cdf(np.zeros(3), 1.0)


class TestHybridMoments:
    def test_unit_lambdas_give_chi2_moments(self):
        spec = QuadFormSpec(lambdas=np.ones(5), trace=5.0)
        m = hybrid_moments(spec)
        assert m.mu == pytest.approx(5.0)
        assert m.var == pytest.approx(10.0)
        assert m.skew == pytest.approx(np.sqrt(8.0 / 5.0), rel=1e-12)
        assert m.exkurt == pytest.approx(12.0 / 5.0, rel=1e-12)

    def test_single_scaled_lambda(self):
        # 2 chi2_1 has mean 2, var 8, skew 2 sqrt 2, excess kurtosis 12
        m = hybrid_moments(QuadFormSpec(lambdas=np.array([2.0]), trace=2.0))
        assert (m.mu, m.var) == (2.0, 8.0)
        assert m.skew == pytest.approx(2.0 * np.sqrt(2.0))
        assert m.exkurt == pytest.approx(12.0)

    def test_pair_variance_arithmetic(self):
        m = hybrid_moments(QuadFormSpec(lambdas=np.array([1.5, 0.5]), trace=2.0))
        assert m.var == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hybrid_moments(QuadFormSpec(lambdas=np.zeros(0), trace=0.0))


class TestHybridShape:
    def test_unit_lambdas(self):
        # 2n unit eigenvalues give shape n, the exact chi-square recovery
        for n in (1, 5, 10):
            spec = QuadFormSpec(lambdas=np.ones(2 * n), trace=2.0 * n)
            assert hybrid_shape(spec) == pytest.approx(float(n), rel=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    def test_scaled_equal_lambdas_reduce_to_half_count(self, c):
        for k in (2, 7, 12):
            spec = QuadFormSpec(lambdas=np.full(k, c), trace=c * k)
            assert hybrid_shape(spec) == pytest.approx(k / 2.0, rel=1e-12)


class TestPvalueQ:
    def test_independent_fisher_exact(self):
        # frozen from chi2.ppf(0.99, 10)
        g = fisher_two_sided(5)
        res = fit_null(g, np.eye(5), "q").pvalue(23.209251158954356)
        assert res.pvalue == pytest.approx(0.01, abs=1e-6)

    def test_one_sided_rejected(self):
        g = GFisherDef.fisher(5, side="one")
        with pytest.raises(ValueError):
            fit_null(g, np.eye(5), "q").pvalue(10.0)

    def test_d1_exactness_any_sigma(self):
        # with all d = 1 the surrogate equals the statistic itself: its
        # spectrum is that of the weighted input correlation matrix
        s = dependence.gen_structure("equal", "III", 6, 0.7).values
        w = np.array([1.0, 2.0, 0.5, 1.5, 0.5, 0.5])
        g = GFisherDef(degrees=np.ones(6), weights=w, side="two")
        spec = qform_spec(g, s)
        wn = w / w.mean()
        direct = np.linalg.eigvalsh(np.sqrt(np.outer(wn, wn)) * s)
        np.testing.assert_allclose(
            np.sort(spec.lambdas), np.sort(direct[direct > 1e-10]), atol=1e-7
        )

    def test_diagnostics_present(self):
        g = fisher_two_sided(3)
        res = fit_null(g, np.eye(3), "q").pvalue(5.0)
        assert res.diagnostics["qf_converged"]
        assert res.diagnostics["m_clamp_count"] == 0

    def test_single_input_is_exact(self):
        # n = 1: the surrogate is the statistic itself
        g = fisher_two_sided(1)
        null = fit_null(g, np.eye(1), "q")
        for t in (0.5, 3.0, 12.0):
            res = null.pvalue(t)
            assert res.pvalue == pytest.approx(float(chi2.sf(t, 2)), abs=1e-9)


class TestPvalueHyb:
    def test_independent_fisher_exact(self):
        g = fisher_two_sided(5)
        res = fit_null(g, np.eye(5), "hyb").pvalue(23.209251158954356)
        assert res.pvalue == pytest.approx(float(chi2.sf(23.209251158954356, 10)), abs=1e-9)

    def test_single_fisher_summand(self):
        g = fisher_two_sided(1)
        res = fit_null(g, np.eye(1), "hyb").pvalue(4.0)
        assert res.diagnostics["shape"] == pytest.approx(1.0, rel=1e-10)
        assert res.pvalue == pytest.approx(float(chi2.sf(4.0, 2)), rel=1e-9)

    def test_agrees_with_q_on_correlated_settings(self):
        # both approximate the same surrogate: |log10 p| gap stays below 0.2
        # down to p ~ 1e-6 across the twelve block structures at n = 10
        g = fisher_two_sided(10)
        for kind in ("equal", "poly", "invequal", "invpoly"):
            par = 0.5 if "equal" in kind else 1.0
            for block in ("I", "II", "III"):
                s = dependence.gen_structure(kind, block, 10, par).values
                if np.linalg.eigvalsh(s)[0] < -1e-10:
                    s = dependence.nearest_correlation(s)  # the simulated target
                var = dependence.var_T(g, s)
                q, hyb = fit_null(g, s, "q"), fit_null(g, s, "hyb")
                for z in (1.0, 3.0, 6.0, 10.0):
                    t = g.mean + z * np.sqrt(var)
                    pq = q.pvalue(t).pvalue
                    ph = hyb.pvalue(t).pvalue
                    if min(pq, ph) >= 1e-6:
                        assert abs(np.log10(pq) - np.log10(ph)) <= 0.2, (kind, block, z)
