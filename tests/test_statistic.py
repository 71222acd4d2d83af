"""Statistic definitions, input transforms, and evaluation."""

import numpy as np
import pytest

from gfisher.statistic import (
    GFisherDef,
    InputPanel,
    evaluate,
    to_pvalues,
    transform,
)


class TestGFisherDef:
    def test_weight_normalization(self):
        g = GFisherDef(degrees=[1, 2, 3], weights=[1, 2, 3])
        np.testing.assert_allclose(g.weights, [0.5, 1.0, 1.5])
        np.testing.assert_array_equal(g.weights_raw, [1, 2, 3])

    def test_default_weights(self):
        g = GFisherDef(degrees=[2, 2])
        np.testing.assert_array_equal(g.weights, [1.0, 1.0])

    def test_mean(self):
        g = GFisherDef(degrees=[1, 2, 3], weights=[1, 2, 3])
        assert g.mean == pytest.approx(0.5 * 1 + 1.0 * 2 + 1.5 * 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            GFisherDef(degrees=[1, -1])
        with pytest.raises(ValueError):
            GFisherDef(degrees=[1, 2], weights=[1])
        with pytest.raises(ValueError):
            GFisherDef(degrees=[1, 2], weights=[0, 0])
        with pytest.raises(ValueError):
            GFisherDef(degrees=[1, 2], weights=[1, -2])
        with pytest.raises(ValueError):
            GFisherDef(degrees=[2, 2], side="both")

    def test_fisher_constructor(self):
        g = GFisherDef.fisher(4, side="one")
        np.testing.assert_array_equal(g.degrees, [2, 2, 2, 2])
        assert g.side == "one"


class TestToPValues:
    def test_zero_z_two_sided(self):
        p = to_pvalues(InputPanel([0.0]), "two")
        assert p[0] == pytest.approx(1.0)

    def test_zero_z_one_sided(self):
        p = to_pvalues(InputPanel([0.0]), "one")
        assert p[0] == pytest.approx(0.5)

    def test_two_sided_quantile(self):
        # frozen: 2 * Phi(-1.959964) = 0.05 to 1e-6
        p = to_pvalues(InputPanel([1.959964]), "two")
        assert p[0] == pytest.approx(0.05, abs=1e-6)

    def test_pvalue_panel_passthrough(self):
        p = to_pvalues(InputPanel([0.2, 0.9], kind="p"), "two")
        np.testing.assert_array_equal(p, [0.2, 0.9])

    def test_nonfinite_z_rejected(self):
        with pytest.raises(ValueError):
            InputPanel([np.nan])
        with pytest.raises(ValueError):
            InputPanel([np.inf, 0.0])

    def test_pvalue_range_enforced(self):
        with pytest.raises(ValueError):
            InputPanel([0.0], kind="p")
        with pytest.raises(ValueError):
            InputPanel([1.2], kind="p")


class TestTransform:
    def test_exponential_identity(self):
        g = GFisherDef(degrees=[2.0])
        t = transform(g, [np.exp(-1.0)])
        assert t[0] == pytest.approx(2.0, rel=1e-12)

    def test_squared_z_identity(self):
        # d = 1, two-sided p from z = 1.3 transforms back to z^2
        g = GFisherDef(degrees=[1.0], side="two")
        p = to_pvalues(InputPanel([1.3]), "two")
        t = transform(g, p)
        assert t[0] == pytest.approx(1.69, abs=1e-9)

    def test_chi2_3_median(self):
        # frozen from chi2.ppf(0.5, 3)
        g = GFisherDef(degrees=[3.0])
        t = transform(g, [0.5])
        assert t[0] == pytest.approx(2.3659738843753377, abs=1e-4)

    def test_zero_pvalue_clamped(self):
        g = GFisherDef(degrees=[2.0])
        t = transform(g, [0.0])
        assert np.isfinite(t[0]) and t[0] > 1000.0

    @pytest.mark.parametrize("d", [1.0, 2.0, 3.0, 3.5, 8.0])
    def test_unit_pvalue_gives_zero(self, d):
        t = transform(GFisherDef(degrees=[d, d]), [1.0, 1.0])
        assert t[0] == 0.0 and t[1] == 0.0
        assert not np.any(np.signbit(t))

    def test_strictly_decreasing(self):
        g = GFisherDef(degrees=[1.0, 2.0, 3.5])
        grid = np.linspace(1e-6, 1.0, 200)
        for j in range(3):
            cols = np.full((200, 3), 0.5)
            cols[:, j] = grid
            t = transform(g, cols)[:, j]
            assert np.all(np.diff(t) < 0)

    def test_matches_generic_inverse(self):
        # fast paths for d = 1, 2 agree with the incomplete-gamma inverse
        from scipy.special import gammainccinv

        p = np.array([1e-12, 1e-6, 0.01, 0.3, 0.9, 1.0 - 1e-12])
        for d in (1.0, 2.0):
            g = GFisherDef(degrees=[d] * p.size)
            got = transform(g, p)
            ref = 2.0 * gammainccinv(d / 2.0, p)
            np.testing.assert_allclose(got, ref, rtol=1e-10)


class TestEvaluate:
    def test_all_ones_give_zero(self):
        g = GFisherDef(degrees=[2.0, 2.0, 2.0])
        assert evaluate(g, [1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_fisher_log_sum(self):
        g = GFisherDef(degrees=[2.0, 2.0])
        assert evaluate(g, [np.exp(-1.0), np.exp(-2.0)]) == pytest.approx(6.0, rel=1e-12)

    def test_weighted_medians(self):
        # frozen: normalized weights (0.5, 1, 1.5) against chi-square medians
        g = GFisherDef(degrees=[1, 2, 3], weights=[1, 2, 3])
        assert evaluate(g, [0.5, 0.5, 0.5]) == pytest.approx(5.162723399242683, rel=1e-9)

    def test_fisher_identity_invariant(self):
        rng = np.random.default_rng(11)
        g = GFisherDef.fisher(6)
        for _ in range(25):
            p = rng.uniform(1e-6, 1.0, size=6)
            assert evaluate(g, p) == pytest.approx(float(-2.0 * np.log(p).sum()), rel=1e-10)

    def test_nonincreasing_in_each_pvalue(self):
        g = GFisherDef(degrees=[1, 2, 3], weights=[1, 0, 2])
        base = np.full(3, 0.4)
        t0 = evaluate(g, base)
        for j, strict in zip(range(3), [True, False, True]):
            hi = base.copy()
            hi[j] = 0.8
            t1 = evaluate(g, hi)
            if strict:
                assert t1 < t0
            else:
                assert t1 == pytest.approx(t0)

    def test_length_mismatch(self):
        g = GFisherDef(degrees=[2.0, 2.0])
        with pytest.raises(ValueError):
            evaluate(g, [0.5])

    def test_evaluate_many_matches_scalar(self):
        # a (reps, n) batch evaluates row by row
        rng = np.random.default_rng(5)
        g = GFisherDef(degrees=[1, 2, 4], weights=[2, 1, 1])
        p = rng.uniform(0.01, 1.0, size=(50, 3))
        vec = evaluate(g, p)
        ref = np.array([evaluate(g, row) for row in p])
        assert vec.shape == (50,)
        assert np.array_equal(vec, ref)

    def test_rejects_higher_rank(self):
        g = GFisherDef(degrees=[2.0, 2.0])
        with pytest.raises(ValueError):
            evaluate(g, np.full((2, 3, 2), 0.5))
