"""Omnibus tests: Cauchy combination, minimum-p, and the rectangle probability."""

import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr as _ndtr, ndtri
from scipy.stats import qmc

from gfisher import dependence, omnibus
from gfisher.omnibus import (
    build_panel,
    component_pvalues,
    minp_from_components,
    mvn_rect_prob,
    omnibus_pvalues,
    pvalue_cc,
)
from gfisher.statistic import GFisherDef
from gfisher.surrogates import MomentSummary


SMALL_SIGMA = dependence.gen_structure("equal", "III", 4, 0.5)


@pytest.fixture(scope="module")
def small_panel():
    defs = [GFisherDef(degrees=[float(d)] * 4, side="two") for d in (1, 2, 3)]
    return build_panel(defs, SMALL_SIGMA)


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

    R3 = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]])
    B3 = np.array([2.0, 2.2, 2.5])

    @staticmethod
    def _counting_sobol(monkeypatch):
        """Replace qmc.Sobol with a subclass that logs constructions and the
        cumulative point count of every engine after each draw."""
        log = {"built": 0, "counts": []}

        class Counting(qmc.Sobol):
            def __init__(self, *args, **kwargs):
                log["built"] += 1
                super().__init__(*args, **kwargs)

            def random(self, n=1, **kwargs):
                out = super().random(n, **kwargs)
                log["counts"].append(self.num_generated)
                return out

        monkeypatch.setattr(omnibus.qmc, "Sobol", Counting)
        return log

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_reference_after_k_doublings(self, monkeypatch, k):
        # a budget of exactly 24 * 1024 * 2^k points and abs_tol = 0 force k doublings
        n = 1024 << k
        monkeypatch.setattr(omnibus, "MINP_MAX_POINTS", omnibus.MINP_BATCHES * n)
        est, err = mvn_rect_prob(self.B3, self.R3, abs_tol=0.0, seed=9)
        # the reference: each engine's first n points in one draw, conditioned by hand
        rng = np.random.default_rng(9)
        engines = [qmc.Sobol(d=2, scramble=True, seed=rng) for _ in range(omnibus.MINP_BATCHES)]
        chol = np.linalg.cholesky(self.R3)
        means = np.empty(omnibus.MINP_BATCHES)
        for b, sob in enumerate(engines):
            u = sob.random(n)
            f = np.full(n, _ndtr(self.B3[0] / chol[0, 0]))
            e = f.copy()
            y = np.zeros((n, 2))
            for i in (1, 2):
                y[:, i - 1] = ndtri(np.clip(u[:, i - 1] * e, 1e-16, 1.0 - 1e-16))
                e = _ndtr((self.B3[i] - y[:, :i] @ chol[i, :i]) / chol[i, i])
                f *= e
            means[b] = f.mean()
        assert est == float(means.mean())
        assert err == float(3.5 * means.std(ddof=1) / np.sqrt(omnibus.MINP_BATCHES))

    def test_engines_built_once_per_call(self, monkeypatch):
        log = self._counting_sobol(monkeypatch)
        for tol, rounds in ((1e-4, 1), (2e-6, 3)):
            log["built"], log["counts"] = 0, []
            mvn_rect_prob(self.B3, self.R3, abs_tol=tol, seed=4)
            assert log["built"] == omnibus.MINP_BATCHES
            # every engine stays at a power-of-two count: 1024, 2048, 4096, ...
            assert log["counts"] == [1024 << r for r in range(rounds) for _ in range(omnibus.MINP_BATCHES)]

    def test_budget_stops_hard_call(self, monkeypatch):
        log = self._counting_sobol(monkeypatch)
        budget = omnibus.MINP_BATCHES * 4096
        monkeypatch.setattr(omnibus, "MINP_MAX_POINTS", budget)
        est, err = mvn_rect_prob(self.B3, self.R3, abs_tol=1e-12, seed=2)
        assert err > 1e-12
        assert 0.0 < est < 1.0
        assert log["built"] == omnibus.MINP_BATCHES
        assert len(log["counts"]) == 3 * omnibus.MINP_BATCHES  # 1024 + 1024 + 2048 per engine
        assert log["counts"][-1] * omnibus.MINP_BATCHES == budget

    def test_error_covers_scipy_reference(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(20)
        for m in (3, 4, 5):
            for _ in range(3):
                g = rng.standard_normal((m, m + 2))
                cov = g @ g.T
                s = 1.0 / np.sqrt(np.diag(cov))
                r = cov * np.outer(s, s)
                b = rng.uniform(0.0, 2.5, m)
                est, err = mvn_rect_prob(b, r, seed=int(rng.integers(1000)))
                ref = float(multivariate_normal.cdf(b, mean=np.zeros(m), cov=r, abseps=1e-8, releps=0.0))
                assert abs(est - ref) <= err

    def test_round_one_frozen(self, monkeypatch):
        # a call that stops after its first 1024 points per batch, frozen at the
        # value and error of the code that built new engines every round
        log = self._counting_sobol(monkeypatch)
        r = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.1], [0.2, 0.1, 1.0]])
        assert mvn_rect_prob([0.5, 1.0, 1.5], r, seed=123) == (0.5875983262157304, 1.5797682128800825e-06)
        assert log["counts"] == [1024] * omnibus.MINP_BATCHES


class TestPvalueMinp:
    def test_single_def_reduces_to_component(self):
        g = GFisherDef.fisher(4, side="two")
        panel = build_panel([g], np.eye(4))
        res = minp_from_components(panel, [0.037])
        assert res.pvalue == pytest.approx(0.037, abs=1e-6)

    def test_two_independent_closed_form(self):
        class Indep:
            m = 2
            corr = np.eye(2)

        res = minp_from_components(Indep(), [0.01, 0.8])
        assert res.pvalue == pytest.approx(1.0 - 0.99**2, rel=1e-13)

    def test_perfectly_dependent_components(self):
        class Dep:
            m = 2
            corr = np.array([[1.0, 1.0], [1.0, 1.0]])

        res = minp_from_components(Dep(), [0.01, 0.02])
        assert res.pvalue == pytest.approx(0.01, rel=1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minp_from_components(_panel(np.ones((3, 3))), [1e-14, 0.5, 0.5])
        assert res.pvalue == pytest.approx(1e-14, rel=1e-13)

    def test_refuses_wrong_length(self):
        class P:
            m = 3
            corr = np.eye(3)

        for pj in ([0.01], [0.01, 0.5], [0.01, 0.5, 0.7, 0.2]):
            with pytest.raises(ValueError, match="one p-value per component"):
                minp_from_components(P(), pj)

    def test_nonincreasing_in_cross_correlation(self):
        minp_o = 0.02
        prev = np.inf

        for rho in (0.0, 0.5, 0.9, 0.99):
            class P:
                m = 2
                corr = np.array([[1.0, rho], [rho, 1.0]])

            val = minp_from_components(P(), [minp_o, 0.5]).pvalue
            assert val <= prev * (1.0 + 1e-13)
            prev = val


def _panel(corr):
    class P:
        m = len(corr)

    P.corr = np.asarray(corr, dtype=float)
    return P()


def _corr(r):
    """A 2 x 2 or 3 x 3 correlation matrix from its upper triangle (r12,) or (r12, r13, r23)."""
    if len(r) == 1:
        return np.array([[1.0, r[0]], [r[0], 1.0]])
    return np.array([[1.0, r[0], r[1]], [r[0], 1.0, r[2]], [r[1], r[2], 1.0]])


def _upper_orthant2(q: float, rho: float) -> float:
    """P(Z1 > h, Z2 > h), h = Q^{-1}(q), by Plackett's identity in theta = asin r and adaptive quadrature."""
    h = -float(ndtri(q))
    val, _ = integrate.quad(lambda th: np.exp(-h * h / (1.0 + np.sin(th))), 0.0, np.arcsin(rho),
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return q * q + val / (2.0 * np.pi)


# (smallest component p, upper triangle of the component correlation, the union
# probability P(max_j Z_j > Q^{-1}(p))), the last from mpmath at 30 digits by
# inclusion-exclusion: pairs by Plackett's identity in theta = asin r, the triple
# by the path tR, and checked at 40 digits. The first two are the three-coordinate
# signals z = 8 and z = 10 on build_panel over d = 1, 2, 3 with n = 20 and
# equal:0.5:III (det R = 3e-7), where quasi-Monte Carlo reported 3.36e-5 and 1.53e-7.
MINP_ORACLE = [
    (3.2373955317425755e-05, (0.9964782587641368, 0.9923328926995357, 0.9991872950186031), 3.9123858478203287e-5),
    (1.526147745282527e-07, (0.9964782587641368, 0.9923328926995357, 0.9991872950186031), 1.9250522061467587e-7),
    (0.01, (0.3,), 0.019443671511136873),
    (1e-05, (0.9,), 1.6952754970250856e-5),
    (1e-09, (0.999,), 1.1095174112160529e-9),
    (1e-14, (0.5,), 1.9999925517755538e-14),
    (0.003, (-0.25,), 0.0059995528281733967),
    (0.01, (0.2, 0.1, 0.4), 0.028635950254211454),
    (0.002, (0.6, 0.5, 0.7), 0.005322098987138817),
    (0.0001, (0.95, 0.9, 0.85), 0.0002068727778486385),
    (5e-05, (0.1, 0.8, 0.3), 0.00014132694507663473),
    (1e-06, (0.99, 0.98, 0.97), 1.6072442543862818e-6),
    (3e-07, (0.7, 0.2, 0.5), 8.9010423306237138e-7),
    (1e-08, (0.5, 0.5, 0.5), 2.9973608189400314e-8),
    (1e-09, (0.999, 0.99, 0.995), 1.3508980963189141e-9),
    (1e-10, (0.3, 0.6, 0.9), 2.8634075222891346e-10),
    (1e-11, (0.9, 0.4, 0.6), 2.8830688911729499e-11),
    (1e-12, (0.8, 0.8, 0.65), 2.9656416393526306e-12),
    (1e-13, (0.05, 0.95, 0.1), 2.7689047861174903e-13),
    (1e-14, (0.999, 0.998, 0.9995), 1.2213961565237497e-14),
    (1e-14, (0.4, 0.3, 0.2), 2.9999996052686815e-14),
    (0.001, (-0.2, 0.3, 0.1), 0.002982205368112921),
]


class TestMinpPlackett:
    @pytest.mark.parametrize("q, upper, ref", MINP_ORACLE)
    def test_matches_frozen_oracle(self, q, upper, ref):
        corr = _corr(upper)
        res = minp_from_components(_panel(corr), [q] + [0.5] * (len(corr) - 1))
        assert res.pvalue == pytest.approx(ref, rel=1e-13)
        assert res.diagnostics["rect_error"] <= 1e-13 * ref
        # the union lies between its largest pairwise union and the Hunter-Worsley bound
        m = len(corr)
        pairs = sorted(_upper_orthant2(q, corr[i, j]) for i in range(m) for j in range(i + 1, m))
        lower = 2.0 * q - pairs[0]
        upper_hw = m * q - sum(pairs[1 - m:])  # the m - 1 largest intersections span the tree
        assert q <= lower * (1.0 - 1e-12) <= res.pvalue <= upper_hw * (1.0 + 1e-12)

    def test_no_rectangle_below_four_components(self, monkeypatch):
        calls = []
        real = omnibus.mvn_rect_prob
        monkeypatch.setattr(omnibus, "mvn_rect_prob", lambda *a, **k: calls.append(1) or real(*a, **k))
        for m in (2, 3):
            minp_from_components(_panel(np.full((m, m), 0.5) + 0.5 * np.eye(m)), [1e-3] * m)
        assert calls == []
        minp_from_components(_panel(np.full((4, 4), 0.5) + 0.5 * np.eye(4)), [1e-3] * 4)
        assert calls == [1]

    def test_duplicate_definition_reduces_to_two_components(self):
        defs = [GFisherDef(degrees=[float(d)] * 4, side="two") for d in (1, 2, 3)]
        sigma = dependence.gen_structure("equal", "III", 4, 0.3)
        full = build_panel([defs[0], defs[0], defs[2]], sigma)
        reduced = build_panel([defs[0], defs[2]], sigma)
        assert full.corr[0, 1] >= 1.0 - 1e-15
        z = np.array([3.0, 2.5, -1.0, 2.0])
        for scale in (1.0, 1.5, 2.5):
            pj = component_pvalues(reduced, scale * z)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = minp_from_components(full, [pj[0], pj[0], pj[1]]).pvalue
            assert np.isfinite(got)
            assert got == pytest.approx(minp_from_components(reduced, pj).pvalue, rel=1e-13)

    def test_negative_correlation_matches_rectangle(self):
        corr = _corr((-0.2, 0.3, 0.1))
        for q in (1e-2, 1e-4):
            p = minp_from_components(_panel(corr), [q, 0.5, 0.5]).pvalue
            rect, err = mvn_rect_prob(np.full(3, -ndtri(q)), corr, abs_tol=1e-6, seed=4)
            assert abs(p - (1.0 - rect)) <= err


class TestPanel:
    def test_component_pvalues_identical_defs(self, small_panel):
        g = small_panel.defs[1]
        panel = build_panel([g, g], SMALL_SIGMA)
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


def test_default_method_per_definition():
    # hyb where the quadratic-form surrogate covers the definition, mr elsewhere
    defs = [GFisherDef(degrees=[d] * 4, side="two") for d in (1.0, 2.0, 3.5)]
    sigma = dependence.gen_structure("equal", "III", 4, 0.3)
    mom = MomentSummary(mu=14.0, var=30.0, skew=1.0, exkurt=1.5)
    panel = build_panel(defs, sigma, moments=[None, None, mom])
    assert panel.method_tags == ["hyb", "hyb", "mr"]
    assert [null.method for null in panel.fitted] == panel.method_tags


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
