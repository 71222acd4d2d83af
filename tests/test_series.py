"""One covariance-series pass per fit: the fit paths agree exactly with the public pieces."""

import numpy as np
import pytest

from gfisher import dependence, methods, omnibus, qform
from gfisher.dependence import cov_matrix, cov_series, cov_summands, gen_structure
from gfisher.statistic import GFisherDef
from gfisher.kernels import gamma_sf
from gfisher.surrogates import MomentSummary, fit_gb, fit_mr

CASES = {
    "equal_mixed": (
        gen_structure("equal", "III", 6, 0.5),
        GFisherDef(degrees=[1, 2, 3, 2, 1, 3], weights=[1.0, 0.5, 2.0, 1.5, 1.0, 0.7], side="two"),
        np.array([1.2, -0.4, 2.1, 0.3, -1.7, 0.9]),
    ),
    "poly_repaired": (
        gen_structure("poly", "III", 12, 1.0),  # not PSD: M is repaired
        GFisherDef.fisher(12),
        np.linspace(-2.0, 2.5, 12),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def _last_term(g, sigma, kstar=dependence.DEFAULT_KSTAR):
    return cov_series([g], sigma, kstar).last_terms[0]


def _pieces(g, sigma):
    cov = cov_matrix(g, sigma)
    sc = qform.build_m(g, sigma, cov)
    spec = qform.eigen_spec(g, sc)
    return sc, spec, float(g.weights @ cov @ g.weights), _last_term(g, sigma)


def _spectrum_diagnostics(sc, spec, g):
    return {
        "m_clamp_count": sc.clamp_count,
        "m_repaired": sc.repair_applied,
        "eigen_count": int(spec.lambdas.size),
        "trace": spec.trace,
        "trace_target": g.mean,
        "dropped_eigen_mass": spec.dropped_mass,
    }


class TestComputePvalueMatchesPieces:
    def test_gb(self, case):
        sigma, g, z = case
        res = methods.compute_pvalue(g, sigma, z, method="gb")
        _, _, var, last = _pieces(g, sigma)
        m = MomentSummary(mu=g.mean, var=var)
        assert res.pvalue == methods.fit_null(g, sigma, "gb", moments=m).pvalue(res.statistic).pvalue
        assert res.diagnostics["shape"] == fit_gb(m).shape
        assert res.diagnostics["cov_last_term"] == last

    def test_hyb(self, case):
        sigma, g, z = case
        res = methods.compute_pvalue(g, sigma, z, method="hyb")
        sc, spec, var, last = _pieces(g, sigma)
        shape = fit_mr(qform.hybrid_moments(spec)).shape
        m = MomentSummary(mu=g.mean, var=var)
        # the standardized gamma survival at sqrt(a) z + a
        assert res.pvalue == float(gamma_sf((res.statistic - m.mu) / m.sd * np.sqrt(shape) + shape, shape))
        assert res.diagnostics["shape"] == shape
        for key, val in _spectrum_diagnostics(sc, spec, g).items():
            assert res.diagnostics[key] == val, key
        assert res.diagnostics["cov_last_term"] == last

    def test_q(self, case):
        sigma, g, z = case
        res = methods.compute_pvalue(g, sigma, z, method="q")
        sc, spec, _, last = _pieces(g, sigma)
        out = qform.qform_sf(spec, res.statistic)
        assert res.pvalue == out.value
        assert res.diagnostics["qf_error_bound"] == out.error_bound
        assert res.diagnostics["qf_method"] == out.method
        for key, val in _spectrum_diagnostics(sc, spec, g).items():
            assert res.diagnostics[key] == val, key
        assert res.diagnostics["cov_last_term"] == last


class TestPanelSeries:
    def test_omega_equals_cross_cov(self, case):
        sigma, g, z = case
        defs = [GFisherDef(degrees=np.full(g.n, d), side="two") for d in (1, 2, 3)] + [g]
        panel = omnibus.build_panel(defs, sigma)
        assert np.array_equal(panel.omega, cov_series(defs, sigma, cross=True).omega)
        for gd, null in zip(defs, panel.fitted):
            t = 1.5 * gd.mean
            assert null.pvalue(t).pvalue == methods.fit_null(gd, sigma, "hyb").pvalue(t).pvalue

    def test_one_sided_omega_equals_cross_cov(self):
        sigma = gen_structure("equal", "III", 5, 0.4)
        defs = [GFisherDef(degrees=np.full(5, d), side="one") for d in (1.0, 2.0, 3.5)]
        panel = omnibus.build_panel(defs, sigma, method="gb")
        assert np.array_equal(panel.omega, cov_series(defs, sigma, cross=True).omega)


class TestOddOrdersSkipped:
    @pytest.mark.parametrize("kstar", [5, 8])
    def test_two_sided_cov_matches_all_order_sum(self, kstar):
        # cov_summands sums every order, odd ones included; the arithmetic
        # order differs from the matrix pass, so agreement is to rounding
        sigma = gen_structure("invequal", "III", 5, 0.5).values
        degrees = [1.0, 2.0, 3.0, 2.5, 4.0]
        cov = cov_matrix(GFisherDef(degrees=degrees, side="two"), sigma, kstar)
        for i in range(5):
            for j in range(5):
                if i != j:
                    ref = cov_summands(degrees[i], degrees[j], sigma[i, j], "two", kstar)
                    assert cov[i, j] == pytest.approx(ref, rel=1e-13, abs=1e-300)

    def test_two_sided_odd_kstar_last_term_is_zero(self):
        sigma = gen_structure("equal", "III", 4, 0.5)
        assert _last_term(GFisherDef.fisher(4), sigma, kstar=7) == 0.0
        assert _last_term(GFisherDef(degrees=[2] * 4, side="one"), sigma, kstar=7) > 0.0


class TestTruncationOrder:
    @pytest.mark.parametrize("kstar", [0, -3])
    def test_order_below_one_rejected(self, kstar):
        # an empty series would price every fit as if sigma were the identity
        g = GFisherDef.fisher(5)
        sigma = gen_structure("equal", "III", 5, 0.8)
        with pytest.raises(ValueError, match="kstar"):
            cov_series([g], sigma, kstar)
        with pytest.raises(ValueError, match="kstar"):
            methods.compute_pvalue(g, sigma, np.full(5, 2.0), method="gb", kstar=kstar)


class TestOnePassPerFit:
    @pytest.fixture()
    def passes(self, monkeypatch):
        calls = []
        inner = dependence._coeff_table

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(dependence, "_coeff_table", counting)
        return calls

    @pytest.mark.parametrize("method", ["gb", "hyb", "q", "mr"])
    def test_one_pass_per_compute_pvalue(self, case, passes, method):
        sigma, g, z = case
        mom = MomentSummary(mu=g.mean, var=3.0 * g.mean, skew=1.0, exkurt=2.0)
        methods.compute_pvalue(g, sigma, z, method=method, moments=mom if method == "mr" else None)
        assert len(passes) == 1

    def test_one_pass_per_panel(self, case, passes):
        sigma, g, _ = case
        defs = [GFisherDef(degrees=np.full(g.n, d), side="two") for d in (1, 2, 3)]
        omnibus.build_panel(defs, sigma)
        assert len(passes) == 1


class TestEigenSpec:
    @pytest.mark.parametrize("degrees,solves", [([2, 2, 2, 2], 1), ([2, 2, 3, 3], 2), ([1, 2, 2, 3], 3)])
    def test_one_solve_per_distinct_active_set(self, monkeypatch, degrees, solves):
        g = GFisherDef(degrees=degrees, weights=[1.0, 2.0, 0.5, 1.5], side="two")
        sigma = gen_structure("equal", "III", 4, 0.5)
        sc = qform.build_m(g, sigma, cov_matrix(g, sigma))
        inner = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or inner(a))
        spec = qform.eigen_spec(g, sc)
        assert len(calls) == solves
        monkeypatch.undo()
        # every level, solved afresh
        d, w = np.asarray(degrees), g.weights
        ref = []
        for k in range(1, d.max() + 1):
            r = np.sqrt(w * (d >= k))
            vals = np.linalg.eigvalsh(np.outer(r, r) * sc.m)
            ref.append(vals[vals > 1e-14])
        assert np.array_equal(spec.lambdas, np.sort(np.concatenate(ref))[::-1])


class TestGeneralizedGammaMethods:
    @pytest.mark.parametrize("method", ["ggd123", "ggd234", "ggdmr"])
    def test_chi2_moments_recover_chi2(self, method):
        # under independence Fisher's T is chi2_4; its exact moments make
        # every generalized-gamma fit collapse onto that gamma
        from scipy.stats import chi2

        mom = MomentSummary(mu=4.0, var=8.0, skew=np.sqrt(2.0), exkurt=3.0)
        res = methods.compute_pvalue(GFisherDef.fisher(2), np.eye(2), [1.1, -2.0], method=method, moments=mom)
        assert res.pvalue == pytest.approx(chi2.sf(res.statistic, 4), rel=1e-5)
