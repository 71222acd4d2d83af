"""One pricing path per fitted method: ``fit_null`` -> ``NullApprox`` turns a fit into p-values."""

import numpy as np
import pytest

from gfisher import harness, methods, omnibus, qform
from gfisher.dependence import gen_structure
from gfisher.statistic import GFisherDef
from gfisher.surrogates import MomentSummary

SIGMA = gen_structure("equal", "III", 5, 0.5)
Z = np.array([1.2, -0.4, 2.1, 0.3, -1.7])


@pytest.fixture()
def sf_calls(monkeypatch):
    calls = []
    inner = qform.qform_sf

    def counting(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(qform, "qform_sf", counting)
    return calls


class TestQPricing:
    def test_compute_pvalue_equals_fitted_null(self, sf_calls):
        g = GFisherDef.fisher(5)
        res = methods.compute_pvalue(g, SIGMA, Z, method="q")
        assert sf_calls == [res.statistic]
        ref = methods.fit_null(g, SIGMA, "q").pvalue(res.statistic)
        assert len(sf_calls) == 2
        assert res.pvalue == ref.pvalue
        for key, val in ref.diagnostics.items():
            assert res.diagnostics[key] == val, key
        assert {"qf_acc", "qf_error_bound", "qf_converged", "qf_method"} <= set(ref.diagnostics)

    def test_survival_prices_each_point_once(self, sf_calls):
        g = GFisherDef.fisher(5)
        null = methods.fit_null(g, SIGMA, "q")
        grid = g.mean * np.array([0.5, 1.0, 2.0])
        surv = null.survival(grid)
        assert sf_calls == list(grid)
        assert [null.pvalue(t).pvalue for t in grid] == list(surv)


class TestClampedInputs:
    def test_z_beyond_the_clamp_is_counted(self):
        # 2 Phi(-37.5) = 9.2e-308 lies below the transform's 1e-300 clamp
        g = GFisherDef.fisher(3)
        res = methods.compute_pvalue(g, np.eye(3), [37.5, 0.5, -1.0], method="gb")
        ref = methods.compute_pvalue(g, np.eye(3), [38.0, 0.5, -1.0], method="gb")
        assert res.statistic == ref.statistic
        assert res.diagnostics["clamped_inputs"] == 1

    def test_p_below_the_clamp_is_counted(self):
        # 1e-300 is the clamp itself and p = 1 is never counted
        g = GFisherDef.fisher(3)
        res = methods.compute_pvalue(g, np.eye(3), [1e-310, 1e-300, 1.0], kind="p", method="gb")
        assert res.diagnostics["clamped_inputs"] == 1


class TestNanStatistic:
    @pytest.mark.parametrize("method", methods.METHODS)
    def test_nan_prices_as_nan(self, method):
        # Fisher at n = 3 under independence is exactly chi2_6, whose moments every fit solves
        g = GFisherDef.fisher(3)
        m = MomentSummary(mu=6.0, var=12.0, skew=np.sqrt(8.0 / 6.0), exkurt=2.0)
        null = methods.fit_null(g, np.eye(3), method, moments=m)
        p = np.asarray(null.survival(np.array([np.nan, 0.0, 6.0])))
        assert np.isnan(p[0])
        assert np.all((p[1:] > 0.0) & (p[1:] <= 1.0))


class TestDefaultMethod:
    def test_rule_reads_side_and_degrees(self):
        assert methods.default_method(GFisherDef.fisher(3)) == "hyb"
        assert methods.default_method(GFisherDef.fisher(3, side="one")) == "mr"
        assert methods.default_method(GFisherDef(degrees=[2.0, 3.5, 2.0], side="two")) == "mr"

    def test_none_fits_the_default(self):
        g = GFisherDef.fisher(5)
        assert methods.fit_null(g, SIGMA).method == "hyb"
        assert methods.compute_pvalue(g, SIGMA, Z).pvalue == methods.compute_pvalue(g, SIGMA, Z, method="hyb").pvalue

    @pytest.mark.parametrize("method", ["q", "hyb"])
    def test_qform_pairing_fails_before_the_series(self, monkeypatch, method):
        # a two-sided d = 3.5 definition has no quadratic-form surrogate: the
        # check comes before the covariance-series pass, not after it
        def no_series(*args, **kwargs):
            raise AssertionError("cov_series ran")

        monkeypatch.setattr(methods.dependence, "cov_series", no_series)
        g = GFisherDef(degrees=[3.5] * 5, side="two")
        with pytest.raises(ValueError, match="integer degrees"):
            methods.fit_null(g, SIGMA, method)


def cauchy_sf_scalar(x: float) -> float:
    """The scalar three-branch Cauchy survival, the reference for the vectorized one."""
    if x > 1.0:
        return float(np.arctan(1.0 / x) / np.pi)
    if x < -1.0:
        return float(1.0 - np.arctan(-1.0 / x) / np.pi)
    return float(0.5 - np.arctan(x) / np.pi)


class TestCauchyVectorized:
    def test_cauchy_sf_elementwise_equals_scalar(self):
        x = np.array([-1e12, -30.0, -1.0 - 1e-12, -1.0, -0.3, 0.0, 0.7, 1.0, 1.0 + 1e-12, 5.0, 3.4e8, 1e300])
        vec = omnibus.cauchy_sf(x)
        assert vec.shape == x.shape
        assert list(vec) == [cauchy_sf_scalar(float(v)) for v in x]
        assert np.all(np.diff(vec) <= 0.0)

    def test_cc_statistic_per_row(self):
        pj = np.array([[0.01, 0.5, 0.2], [1e-9, 0.9, 0.3]])
        assert list(omnibus.cc_statistic(pj)) == [float(np.mean(1.0 / np.tan(np.pi * row))) for row in pj]

    def test_tie_counter_matches_pvalue_cc(self):
        n = 4
        defs = [GFisherDef(degrees=[float(d)] * n, side="two") for d in (1, 2)]
        sigma = gen_structure("equal", "III", n, 0.5)
        panel = omnibus.build_panel(defs, sigma)
        config = harness.SimConfig(sigma=sigma, nreps=2000, seed=17, batch_size=500)
        alphas = np.array([0.2, 0.05])
        report = harness.empirical_tie(panel, "cc", config, alphas)
        p = np.array(
            [
                omnibus.pvalue_cc(omnibus.component_pvalues(panel, z)).pvalue
                for b, size in config.batches()
                for z in config.draw(b, size)
            ]
        )
        assert list(report.counts) == [int(np.count_nonzero(p < a)) for a in alphas]
