"""Omnibus tests: Cauchy combination, minimum-p, and the rectangle probability."""

import numpy as np
import pytest
from scipy.special import ndtr as _ndtr, ndtri

from gfisher import dependence
from gfisher.omnibus import (
    build_panel,
    component_pvalues,
    minp_from_components,
    mvn_rect_prob,
    omnibus_pvalues,
    pvalue_cc,
)
from gfisher.statistic import GFisherDef


@pytest.fixture(scope="module")
def small_panel():
    defs = [GFisherDef(degrees=[float(d)] * 4, side="two") for d in (1, 2, 3)]
    sigma = dependence.gen_structure("equal", "III", 4, 0.5)
    return build_panel(defs, sigma)


class TestPvalueCC:
    def test_single_component_half(self):
        res = pvalue_cc([0.5])
        assert res.statistic == pytest.approx(0.0, abs=1e-15)
        assert res.pvalue == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("q", [1e-8, 1e-4, 0.03, 0.2, 0.5, 0.77, 0.99])
    def test_single_component_round_trip(self, q):
        assert pvalue_cc([q]).pvalue == pytest.approx(q, abs=1e-12)

    def test_three_components_frozen(self):
        # frozen: mean of cot(pi p) at (0.01, 0.5, 0.9) and its Cauchy tail
        res = pvalue_cc([0.01, 0.5, 0.9])
        assert res.statistic == pytest.approx(9.580944138866199, rel=1e-10)
        assert res.pvalue == pytest.approx(0.033103366413410995, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.001, 0.999, size=6)
        base = pvalue_cc(p).pvalue
        for _ in range(5):
            assert pvalue_cc(rng.permutation(p)).pvalue == pytest.approx(base, rel=1e-14)

    def test_strictly_increasing_in_each_component(self):
        base = np.array([0.2, 0.5, 0.8])
        p0 = pvalue_cc(base).pvalue
        for j in range(3):
            hi = base.copy()
            hi[j] += 0.1
            assert pvalue_cc(hi).pvalue > p0

    def test_boundary_clamped(self):
        res = pvalue_cc([1.0, 0.5])
        assert np.isfinite(res.pvalue)
        assert res.diagnostics["clamped_components"] == 1

    def test_tiny_component_accuracy(self):
        # the cot identity keeps the transform accurate for tiny p
        res = pvalue_cc([1e-300, 0.5])
        assert 0.0 < res.pvalue < 1e-299 * 3


class TestMvnRect:
    def test_univariate_exact(self):
        p, err = mvn_rect_prob([1.3], np.eye(1))
        from scipy.special import ndtr

        assert p == pytest.approx(float(ndtr(1.3)), abs=1e-15)
        assert err == 0.0

    def test_bivariate_independence(self):
        z = ndtri(0.99)
        p, err = mvn_rect_prob([z, z], np.eye(2), seed=7)
        assert p == pytest.approx(0.9801, abs=2e-5)

    def test_perfect_dependence(self):
        z = ndtri(0.99)
        r = np.array([[1.0, 1.0], [1.0, 1.0]])
        p, _ = mvn_rect_prob([z, z], r, seed=7)
        assert p == pytest.approx(0.99, abs=1e-4)

    def test_seed_determinism(self):
        r = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.1], [0.2, 0.1, 1.0]])
        b = np.array([0.5, 1.0, 1.5])
        p1, _ = mvn_rect_prob(b, r, seed=123)
        p2, _ = mvn_rect_prob(b, r, seed=123)
        assert p1 == p2

    def test_against_scipy(self):
        from scipy.stats import multivariate_normal

        r = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
        b = np.array([1.2, 0.3, 2.0])
        p, err = mvn_rect_prob(b, r, seed=3)
        ref = float(multivariate_normal.cdf(b, mean=np.zeros(3), cov=r, abseps=1e-7))
        assert p == pytest.approx(ref, abs=5e-5)


class TestPvalueMinp:
    def test_single_def_reduces_to_component(self):
        g = GFisherDef.fisher(4, side="two")
        panel = build_panel([g], np.eye(4))
        res = minp_from_components(panel, [0.037])
        assert res.pvalue == pytest.approx(0.037, abs=1e-6)

    def test_two_independent_closed_form(self):
        defs = [GFisherDef(degrees=[1.0], side="two"), GFisherDef(degrees=[2.0], side="two")]

        class Indep:
            m = 2
            corr = np.eye(2)

        res = minp_from_components(Indep(), [0.01, 0.8], abs_tol=5e-5, seed=5)
        assert res.pvalue == pytest.approx(1.0 - 0.99**2, abs=2e-4)

    def test_perfectly_dependent_components(self):
        class Dep:
            m = 2
            corr = np.array([[1.0, 1.0], [1.0, 1.0]])

        res = minp_from_components(Dep(), [0.01, 0.02], seed=5)
        assert res.pvalue == pytest.approx(0.01, abs=2e-4)

    def test_nonincreasing_in_cross_correlation(self):
        minp_o = 0.02
        prev = np.inf

        for rho in (0.0, 0.5, 0.9, 0.99):
            class P:
                m = 2
                corr = np.array([[1.0, rho], [rho, 1.0]])

            val = minp_from_components(P(), [minp_o, 0.5], abs_tol=2e-5, seed=11).pvalue
            assert val <= prev + 5e-5
            prev = val


class TestPanel:
    def test_component_pvalues_identical_defs(self, small_panel):
        g = small_panel.defs[1]
        panel = build_panel([g, g], small_panel.sigma)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(4)
        pj = component_pvalues(panel, z)
        assert pj[0] == pytest.approx(pj[1], rel=1e-12)

    def test_m1_equivalence_of_both_omnibus(self):
        g = GFisherDef.fisher(4, side="two")
        sigma = dependence.gen_structure("equal", "III", 4, 0.3)
        panel = build_panel([g], sigma)
        z = np.array([1.0, -0.5, 2.0, 0.3])
        pj = component_pvalues(panel, z)
        out = omnibus_pvalues(panel, z)
        assert out["minp"].pvalue == pytest.approx(pj[0], abs=1e-6)
        assert out["cc"].pvalue == pytest.approx(pj[0], abs=1e-6)

    def test_component_ranks_match_empirical(self, small_panel):
        # stronger overall signal should push every component p-value down
        weak = np.full(4, 0.5)
        strong = np.full(4, 2.5)
        p_weak = component_pvalues(small_panel, weak)
        p_strong = component_pvalues(small_panel, strong)
        assert np.all(p_strong < p_weak)

    def test_component_ordering_matches_simulated_ranks(self):
        # the ordering of component p-values for one observed panel matches
        # the ordering of empirical exceedance ranks from null simulation
        from gfisher import harness
        from gfisher.statistic import evaluate, to_pvalues, InputPanel

        n = 10
        defs = [GFisherDef(degrees=[float(d)] * n, side="two") for d in (1, 2, 3)]
        sigma = dependence.gen_structure("equal", "III", n, 0.5)
        panel = build_panel(defs, sigma)
        rng = np.random.default_rng(23)
        z_obs = rng.standard_normal(n) + 0.8
        pj = component_pvalues(panel, z_obs)

        config = harness.SimConfig(sigma=sigma, nreps=100_000, seed=77)
        p_obs = to_pvalues(InputPanel(z_obs), "two")
        ranks = np.empty(3)
        for j, g in enumerate(defs):
            t_obs = float(evaluate(g, p_obs[None, :])[0])
            exceed = 0
            for b, size in config.batches():
                pv = 2.0 * _ndtr(-np.abs(config.draw(b, size)))
                exceed += int(np.count_nonzero(evaluate(g, pv) > t_obs))
            ranks[j] = exceed / config.nreps
        assert np.array_equal(np.argsort(pj), np.argsort(ranks))

    def test_minp_pipeline(self, small_panel):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(4)
        res = omnibus_pvalues(small_panel, z, seed=2)["minp"]
        assert 0.0 <= res.pvalue <= 1.0
        assert "rect_error" in res.diagnostics

    @pytest.mark.parametrize("kind", ["z", "p"])
    def test_batch_matches_single_panels(self, small_panel, kind):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((25, 4)) * 2.0 if kind == "z" else rng.uniform(1e-9, 1.0, (25, 4))
        batch = component_pvalues(small_panel, rows, kind)
        assert batch.shape == (25, small_panel.m)
        single = np.array([component_pvalues(small_panel, row, kind) for row in rows])
        assert np.array_equal(batch, single)

    def test_mixed_sidedness_rejected(self):
        a = GFisherDef.fisher(4, side="two")
        b = GFisherDef.fisher(4, side="one")
        with pytest.raises(ValueError):
            build_panel([a, b], np.eye(4))

    def test_cross_corr_psd(self, small_panel):
        assert np.linalg.eigvalsh(small_panel.corr)[0] > -1e-10
        np.testing.assert_allclose(np.diag(small_panel.corr), 1.0, atol=1e-12)


def test_one_sided_panel_with_empirical_moments():
    from gfisher import harness

    defs = [GFisherDef.fisher(4, side="one"), GFisherDef(degrees=[3.0] * 4, side="one")]
    sigma = dependence.gen_structure("equal", "III", 4, 0.3)
    config = harness.SimConfig(sigma=sigma, nreps=50_000, seed=19)
    moments = [harness.empirical_moments(g, config) for g in defs]
    panel = build_panel(defs, sigma, moments=moments)  # one-sided defaults to mr
    assert panel.method_tags == ["mr", "mr"]
    pj = component_pvalues(panel, np.array([0.5, 1.0, -0.2, 2.0]))
    assert np.all((pj > 0) & (pj < 1))
    out = omnibus_pvalues(panel, np.array([0.5, 1.0, -0.2, 2.0]))
    assert 0.0 <= out["minp"].pvalue <= 1.0


@pytest.mark.slow
def test_cc_type_i_control_desk_scale():
    """Cauchy-combination omnibus with moment-ratio components stays in band.

    Adapting over degrees 1, 2, 3 at n = 10 under dense correlation 0.5,
    two million replicates, level 1e-3: empirical/nominal within [0.5, 1.5].
    """
    from gfisher import harness

    n = 10
    defs = [GFisherDef(degrees=[float(d)] * n, side="two") for d in (1, 2, 3)]
    sigma = dependence.gen_structure("equal", "III", n, 0.5)
    config = harness.SimConfig(sigma=sigma, nreps=2_000_000, seed=606)
    moments = [harness.empirical_moments(g, config, 100_000) for g in defs]
    panel = build_panel(defs, sigma, method="mr", moments=moments)
    report = harness.empirical_tie(panel, "cc", config, [1e-3], threads=4)
    assert 0.5 <= report.ratios[0] <= 1.5, report.ratios
