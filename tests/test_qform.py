"""Quadratic-form surrogate: M matrix, eigen spectrum, CDF inversion, hybrid."""

import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import chi2, gamma, norm

from gfisher import dependence, qform
from gfisher.kernels import gamma_sf
from gfisher.methods import compute_pvalue, fit_null
from gfisher.qform import (
    CdfOutcome,
    QuadFormSpec,
    build_m,
    eigen_spec,
    hybrid_moments,
    qform_sf,
)
from gfisher.statistic import GFisherDef
from gfisher.surrogates import MomentSummary, fit_mr


def fisher_two_sided(n):
    return GFisherDef.fisher(n, side="two")


def q_cdf(spec, x, acc=1e-9):
    """P(Q <= x) as the complement of the certified survival."""
    return 1.0 - qform_sf(spec, x, acc).value


def _imhof_survival(lams: np.ndarray, x: float, acc: float) -> CdfOutcome:
    """Adaptive quadrature of the Imhof integrand; oracle.

    P(Q > x) = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du with
    theta(u) = (sum arctan(lam u) - x u) / 2, rho(u) = prod (1 + lam^2 u^2)^{1/4}.
    The truncation point comes from the absolute tail bound, so this path is
    only efficient when several eigenvalues are present.
    """
    k = lams.size
    log_prod = float(np.sum(np.log(lams)))
    # absolute tail: int_U^inf du / (pi u^{1+k/2} sqrt(prod lam)) <= acc/2
    log_u = (np.log(4.0 / (np.pi * k * acc)) - 0.5 * log_prod) * (2.0 / k)
    u_max = float(np.exp(min(log_u, 50.0)))
    trunc = 2.0 / (np.pi * k * np.exp(0.5 * log_prod) * u_max ** (k / 2.0))

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.5 * (float(lams.sum()) - x) / np.pi
        theta = 0.5 * (float(np.sum(np.arctan(lams * u))) - x * u)
        log_rho = 0.25 * float(np.sum(np.log1p(lams**2 * u * u)))
        return np.sin(theta) / (u * np.exp(log_rho)) / np.pi

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, quad_err = quad(integrand, 0.0, u_max, limit=2000, epsabs=acc / 2.0, epsrel=0.0)
    surv = 0.5 + val
    err = quad_err + trunc
    return CdfOutcome(
        value=min(max(surv, 0.0), 1.0),
        error_bound=float(err),
        converged=bool(err <= acc),
        n_terms=0,
        method="imhof",
    )


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
        spec = eigen_spec(g, build_m(g, s, dependence.cov_matrix(g, s)))
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
        cov = dependence.cov_matrix(g, s, kstar=10)
        sc = build_m(g, s, cov)
        spec = eigen_spec(g, sc)
        assert not sc.repair_applied and sc.clamp_count == 0
        var_q = 2.0 * float(np.sum(spec.lambdas**2))
        assert var_q == pytest.approx(float(g.weights @ cov @ g.weights), rel=1e-10)


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

    def test_bound_covers_last_bit_changes_of_the_spectrum(self):
        # 80 eigenvalues decay the characteristic function fast enough that the
        # aliasing and truncation bounds fall below 1e-17; the rounding floor
        # must still cover how far p moves when the eigenvalues change in their last bits
        lams = np.linspace(0.5, 1.5, 80)
        rng = np.random.default_rng(7)
        eps = np.finfo(float).eps
        for x in (0.8, 1.0, 1.3, 2.0):
            ref = qform_sf(lams, x * lams.sum())
            for _ in range(20):
                bits = rng.integers(-2, 3, lams.size)
                moved = qform_sf(lams * (1.0 + bits * eps), x * lams.sum())
                assert abs(moved.value - ref.value) <= ref.error_bound

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError):
            q_cdf(np.zeros(3), 1.0)

    @pytest.mark.parametrize(
        "lams, x",
        [([1.0], 1e-4), ([1.0, 1.0], 1e-6), ([5.0, 0.01], 1e-6)],
    )
    def test_uncertified_point_bound_holds(self, lams, x):
        # few eigenvalues at small x: the lattice cannot certify 1e-9 within its
        # term budget, and its reported bound must still cover the error
        out = qform_sf(np.array(lams), x)
        assert out.method == "davies" and not out.converged
        assert abs(out.value - _two_lambda_sf(lams, x)) <= out.error_bound


def _two_lambda_sf(lams, x):
    """P(l1 X1 + l2 X2 > x) for X ~ chi2_1 by a 1-D convolution quadrature in
    v = sqrt(X1); chi2.sf for one or two equal eigenvalues (oracle)."""
    if len(set(lams)) == 1:
        return float(chi2.sf(x / lams[0], len(lams)))
    l1, l2 = lams

    def f(v):
        return 2.0 * norm.pdf(v) * chi2.cdf((x - l1 * v * v) / l2, 1)

    cdf, _ = quad(f, 0.0, np.sqrt(x / l1), epsabs=1e-15, epsrel=1e-12)
    return 1.0 - cdf


def _oracle_chernoff(lams, t):
    """The saddlepoint s and Chernoff bound by 100 bisection steps on K'(s) = t (oracle)."""
    if t <= lams.sum():
        return 0.0, 1.0
    hi = 0.5 / lams.max() * (1.0 - 1e-12)

    def slope(s):
        return float(np.sum(lams / (1.0 - 2.0 * s * lams))) - t

    lo = 0.0
    if slope(hi) < 0:
        s = hi
    else:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0:
                hi = mid
            else:
                lo = mid
        s = 0.5 * (lo + hi)
    log_bound = -s * t - 0.5 * float(np.sum(np.log1p(-2.0 * s * lams)))
    return s, float(np.exp(min(log_bound, 0.0)))


def _random_spectrum(rng, i):
    k = int(rng.integers(1, 60))
    if i % 3 == 0:
        return rng.exponential(1.0, k)
    if i % 3 == 1:
        return rng.uniform(0.01, 1.0, k) ** 3
    return np.concatenate([[rng.uniform(5.0, 50.0)], rng.uniform(0.0, 0.2, k)])


class TestSaddlepointAgainstOracle:
    MAX_SLOPES = 12

    @pytest.fixture
    def slope_calls(self, monkeypatch):
        calls = []
        inner = qform._cgf_slopes

        def counted(lams, s):
            calls.append(s)
            return inner(lams, s)

        monkeypatch.setattr(qform, "_cgf_slopes", counted)
        return calls

    def check(self, lams, t, slope_calls):
        lams = np.asarray(lams, dtype=float)
        s_ref, ref = _oracle_chernoff(lams, t)
        slope_calls.clear()
        got = qform._chernoff_tail(lams, t)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0), (lams, t)
        assert len(slope_calls) <= self.MAX_SLOPES, (lams, t, len(slope_calls))
        assert np.all(np.diff(slope_calls) < 0)  # the iterates fall monotonically
        return s_ref

    def test_random_spectra(self, slope_calls):
        rng = np.random.default_rng(8)
        for i in range(300):
            lams = _random_spectrum(rng, i)
            self.check(lams, float(lams.sum() * np.exp(rng.uniform(0.01, 4.0))), slope_calls)

    def test_one_dominant_eigenvalue(self, slope_calls):
        lams = np.array([40.0, 0.3, 0.1, 0.05, 0.01])
        for f in (1.01, 1.5, 3.0, 20.0):
            self.check(lams, f * lams.sum(), slope_calls)

    @pytest.mark.parametrize("k", [2, 20, 59])
    def test_all_equal(self, k, slope_calls):
        lams = np.full(k, 0.7)
        for f in (1.01, 1.5, 3.0, 20.0):
            self.check(lams, f * lams.sum(), slope_calls)

    def test_single_eigenvalue(self, slope_calls):
        for t in (1.01, 2.0, 30.0):
            self.check([1.3], t, slope_calls)
            # the start is already the root of one term's K'(s) = t
            assert len(slope_calls) <= 2

    def test_t_just_above_trace(self, slope_calls):
        lams = np.array([2.0, 1.0, 0.5, 0.5, 0.2])
        for f in (1.0 + 1e-10, 1.0 + 1e-6, 1.001):
            self.check(lams, f * lams.sum(), slope_calls)

    def test_far_tail(self, slope_calls):
        # the bound underflows to 0 there; the saddlepoint itself is compared
        for lams in (np.array([2.0, 1.0, 0.5]), np.full(59, 0.7), np.array([40.0, 0.3, 0.1])):
            t = 1e4 * lams.sum()
            s_ref = self.check(lams, t, slope_calls)
            s = qform._saddlepoint(lams, t, 0.5 / lams.max() * (1.0 - 1e-12))
            assert s == pytest.approx(s_ref, rel=1e-13)

    def test_root_beyond_the_pole_guard(self, slope_calls):
        # K'(hi) < t: both stop at hi, one slope evaluation
        lams = np.array([1.0])
        t = 2e12
        hi = 0.5 * (1.0 - 1e-12)
        assert _oracle_chernoff(lams, t)[0] == hi
        assert qform._saddlepoint(lams, t, hi) == hi
        assert len(slope_calls) == 1

    def test_qform_sf_matches_oracle_path(self, monkeypatch):
        spectra = [
            np.array([1.0]),
            np.array([2.0, 1.0, 0.5, 0.5, 0.2]),
            np.full(12, 0.7),
            np.array([40.0, 0.3, 0.1, 0.05, 0.01]),
            np.random.default_rng(3).exponential(1.0, 30),
        ]
        grid = [(lams, f * lams.sum()) for lams in spectra for f in (0.3, 1.0, 2.0, 4.0, 8.0)]
        newton = [qform_sf(lams, x) for lams, x in grid]
        monkeypatch.setattr(qform, "_chernoff_tail", lambda lams, t: _oracle_chernoff(lams, t)[1])
        for (lams, x), got in zip(grid, newton):
            ref = qform_sf(lams, x)
            assert (got.value, got.n_terms, got.method, got.converged) == (
                ref.value, ref.n_terms, ref.method, ref.converged
            ), (lams, x)
            assert got.error_bound == pytest.approx(ref.error_bound, rel=1e-13)


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
            assert fit_mr(hybrid_moments(spec)).shape == pytest.approx(float(n), rel=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    def test_scaled_equal_lambdas_reduce_to_half_count(self, c):
        for k in (2, 7, 12):
            spec = QuadFormSpec(lambdas=np.full(k, c), trace=c * k)
            assert fit_mr(hybrid_moments(spec)).shape == pytest.approx(k / 2.0, rel=1e-12)


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

    def test_uncertified_pvalue_within_its_bound(self):
        # z = 0.01 gives T = 1e-4, a point the lattice cannot certify at 1e-9
        res = compute_pvalue(GFisherDef(degrees=[1]), np.eye(1), [0.01], method="q")
        assert not res.diagnostics["qf_converged"]
        assert res.diagnostics["qf_method"] == "davies"
        assert abs(res.pvalue - float(chi2.sf(1e-4, 1))) <= res.diagnostics["qf_error_bound"]

    def test_budget_split_certifies_acc(self):
        # eigenvalues (3, 0.5, 0.5, 0.5, 0.5): the aliasing bound takes at most
        # acc / 6 and the truncated tail the rest, so the reported bound
        # 3 * alias + tail stays within acc (it reached 1.13e-9 with acc / 3 each)
        g, s = GFisherDef(degrees=np.ones(5)), dependence.gen_structure("equal", "III", 5, 0.5).values
        spec = eigen_spec(g, build_m(g, s, dependence.cov_matrix(g, s)))
        np.testing.assert_allclose(np.sort(spec.lambdas), [0.5, 0.5, 0.5, 0.5, 3.0], rtol=1e-12)
        res = fit_null(g, s, "q").pvalue(31.25)
        assert res.diagnostics["qf_converged"] and res.diagnostics["qf_error_bound"] <= 1e-9

        def f(v):  # 3 X1 + 0.5 Y with X1 ~ chi2_1, Y ~ chi2_4, in v = sqrt(X1)
            return 2.0 * norm.pdf(v) * chi2.cdf((31.25 - 3.0 * v * v) / 0.5, 4)

        cdf, _ = quad(f, 0.0, np.sqrt(31.25 / 3.0), epsabs=1e-15, epsrel=1e-13)
        assert abs(res.pvalue - (1.0 - cdf)) <= res.diagnostics["qf_error_bound"]

    def test_d1_exactness_any_sigma(self):
        # with all d = 1 the surrogate equals the statistic itself: its
        # spectrum is that of the weighted input correlation matrix
        s = dependence.gen_structure("equal", "III", 6, 0.7).values
        w = np.array([1.0, 2.0, 0.5, 1.5, 0.5, 0.5])
        g = GFisherDef(degrees=np.ones(6), weights=w, side="two")
        spec = eigen_spec(g, build_m(g, s, dependence.cov_matrix(g, s)))
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
                var = float(g.weights @ dependence.cov_matrix(g, s) @ g.weights)
                q, hyb = fit_null(g, s, "q"), fit_null(g, s, "hyb")
                for z in (1.0, 3.0, 6.0, 10.0):
                    t = g.mean + z * np.sqrt(var)
                    pq = q.pvalue(t).pvalue
                    ph = hyb.pvalue(t).pvalue
                    if min(pq, ph) >= 1e-6:
                        assert abs(np.log10(pq) - np.log10(ph)) <= 0.2, (kind, block, z)


def _block_panel(perm_seed):
    """A repaired poly:1.0 block (n = 12), an equal:0.5 block (n = 8) and 5 singletons, shuffled.

    Returns sigma, the statistic (degrees cycling 1, 2, 3, unequal weights)
    and the index arrays of the components in shuffled coordinates.
    """
    n = 25
    s = np.eye(n)
    s[:12, :12] = dependence._poly_block(12, 1.0)
    s[12:20, 12:20] = dependence._equal_block(8, 0.5)
    comps = [np.arange(12), np.arange(12, 20)] + [np.array([i]) for i in range(20, 25)]
    degrees = np.resize([1, 2, 3], n)
    weights = np.linspace(0.5, 3.0, n)
    perm = np.random.default_rng(perm_seed).permutation(n)
    where = np.argsort(perm)  # shuffled position of each original index
    g = GFisherDef(degrees[perm], weights[perm])
    return s[np.ix_(perm, perm)], g, [np.sort(where[c]) for c in comps]


@pytest.fixture()
def eigvalsh_shapes(monkeypatch):
    """Shapes of the matrices ``qform`` hands to ``np.linalg.eigvalsh``."""
    shapes = []
    inner = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == qform.__name__:
            shapes.append(np.shape(a))
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


class TestBlockSeparable:
    """Under a block-diagonal sigma, T is a sum of independent block statistics."""

    def test_sum_of_independent_blocks(self):
        sigma, g, comps = _block_panel(7)
        cov = dependence.cov_matrix(g, sigma)
        var = float(g.weights @ cov @ g.weights)
        t = g.mean + 3.0 * np.sqrt(var)

        # each block alone: GFisherDef rescales the block's weights to mean 1, so scale its spectrum back
        lams = []
        for c in comps:
            gc = GFisherDef(g.degrees[c], g.weights[c])
            sc_c = build_m(gc, sigma[np.ix_(c, c)], cov[np.ix_(c, c)])
            lams.append(eigen_spec(gc, sc_c).lambdas * g.weights[c].mean())
        pooled = QuadFormSpec(np.sort(np.concatenate(lams))[::-1], trace=float(np.concatenate(lams).sum()))
        assert pooled.trace == pytest.approx(g.mean, rel=1e-12)

        gb = fit_null(g, sigma, "gb").pvalue(t)
        shape = g.mean**2 / var
        assert gb.pvalue == float(gamma_sf((t - g.mean) / np.sqrt(var) * np.sqrt(shape) + shape, shape))

        hyb = fit_null(g, sigma, "hyb").pvalue(t)
        qm = hybrid_moments(pooled)
        ref = fit_null(g, sigma, "mr", moments=MomentSummary(g.mean, var, qm.skew, qm.exkurt)).pvalue(t)
        assert hyb.pvalue == pytest.approx(ref.pvalue, rel=1e-12, abs=0.0)
        assert hyb.diagnostics["m_repaired"]

        q = fit_null(g, sigma, "q").pvalue(t)
        assert abs(q.pvalue - qform_sf(pooled, t).value) <= q.diagnostics["qf_error_bound"]

        sc = build_m(g, sigma, cov)
        assert sc.repair_applied
        label = np.zeros(25, dtype=int)
        for i, c in enumerate(comps):
            label[c] = i
        assert np.all(sc.m[label[:, None] != label[None, :]] == 0.0)

        # a second shuffle of the same blocks prices the same
        sigma2, g2, _ = _block_panel(8)
        for method, res in (("gb", gb), ("hyb", hyb), ("q", q)):
            assert fit_null(g2, sigma2, method).pvalue(t).pvalue == pytest.approx(res.pvalue, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "structure, expect",
        [
            (("equal", "II", 0.5), lambda shapes: set(shapes) == {(20, 20)}),
            (("invequal", "I", 0.5), lambda shapes: max(shapes) == (20, 20) and (1, 1) not in shapes),
            (("poly", "III", 1.0), lambda shapes: set(shapes) == {(40, 40)}),
        ],
        ids=["equal:0.5:II", "invequal:0.5:I", "poly:1.0:III"],
    )
    def test_eigensolves_per_block(self, eigvalsh_shapes, structure, expect):
        kind, block, param = structure
        s = dependence.gen_structure(kind, block, 40, param)
        g = fisher_two_sided(40)
        pvals = {m: fit_null(g, s, m).pvalue(100.0).pvalue for m in ("hyb", "q")}
        assert eigvalsh_shapes and expect(eigvalsh_shapes), eigvalsh_shapes
        if kind == "poly":  # one dense block: the same arithmetic as a whole-matrix fit
            assert pvals == {"hyb": 0.19186701552984753, "q": 0.18480616267065192}
