"""Special functions, Hermite polynomials, and the Gaussian-weight quadrature rule."""

import warnings

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chi2

from gfisher import kernels
from gfisher.statistic import GFisherDef, transform


def gauss_integral(f) -> float:
    """E[f(Z)] through the half-line rule, the mirrored half included."""
    z = kernels.GAUSS_NODES
    return float(kernels.GAUSS_WEIGHTS @ (f(z) + f(-z)))


class TestNormCdf:
    """The normal CDF is scipy's ``ndtr``; these pin the behavior the package relies on."""

    def test_symmetry_at_zero(self):
        assert ndtr(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_saturates_in_far_tail(self):
        assert ndtr(40.0) == pytest.approx(1.0, abs=1e-15)
        assert ndtr(-40.0) == pytest.approx(0.0, abs=1e-15)

    def test_standard_quantile(self):
        # 0.975 quantile of the standard normal, frozen from norm.ppf
        assert ndtr(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 1.0])
        out = ndtr(x)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)


class TestChiSquare:
    def test_cdf_at_zero(self):
        # chi2_d is gamma(d/2, scale 2)
        for d in (0.5, 1.0, 2.0, 7.3):
            assert 1.0 - kernels.gamma_sf(0.0, d / 2.0, 2.0) == 0.0

    def test_quantile_chi2_1(self):
        # frozen from chi2.ppf(0.95, 1)
        assert transform(GFisherDef([1.0]), [0.05])[0] == pytest.approx(3.841459, abs=1e-5)

    def test_exponential_identity(self):
        # F2^{-1}(1 - p) = -2 log p, checked at p = 0.01
        t = transform(GFisherDef([2.0]), [0.01])[0]
        assert t == pytest.approx(-2.0 * np.log(0.01), rel=1e-12)
        assert t == pytest.approx(9.210340371976182, rel=1e-12)

    @pytest.mark.parametrize("d", [1.0, 2.0, 3.0, 10.0])
    def test_round_trip(self, d):
        x = np.array([0.01, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0])
        p = chi2.cdf(x, d)
        keep = (p > 1e-12) & (p < 1.0 - 1e-12)
        back = chi2.ppf(p[keep], d)
        np.testing.assert_allclose(back, x[keep], rtol=1e-9)


class TestGeneralDegreeMap:
    """T = F_d^{-1}(1 - p) for d other than 1 and 2: a start from a per-degree table, one Newton step.

    These call the map itself, ``kernels._chisq_isf``: ``statistic.transform``
    clamps p up to ``PROB_CLAMP_LO`` and returns at least one dimension, so it
    reaches neither the subnormal p nor the 0-d shapes pinned here.
    """

    P = (1e-320, 1e-300, 1e-100, 1e-12, 1e-3, 0.3, 0.5, 0.9, 1.0 - 2.0**-52, 1.0 - 2.0**-53)
    # T at each p of P, by 50-digit mpmath Newton on the regularized incomplete
    # gamma function at the exact double p (mpmath is not a dependency)
    ORACLE = {
        0.5: (
            1461.1856030629888, 1369.1795943036543, 449.8108244902125, 47.86375393011639,
            8.752888515773375, 0.37469645674039437, 0.08734760470574682, 0.0001350012477126792,
            3.2815213367016763e-63, 2.0509508354385477e-64,
        ),
        3.0: (
            1480.5043867121371, 1388.3367738546858, 466.2143575712914, 58.919755683202155,
            16.266236196238133, 3.6648707831703176, 2.365973884375338, 0.5843743741551831,
            8.86640596652811e-11, 5.585485757034481e-11,
        ),
        3.5: (
            1483.7390643345445, 1391.5395402137833, 468.8779952398014, 60.59598880312847,
            17.389858670332334, 4.275829514749905, 2.8605894030665504, 0.8137784378134473,
            2.9790095844836496e-09, 2.004724786449967e-09,
        ),
        8.0: (
            1509.838581024385, 1417.356418628198, 489.9651634526147, 73.4660190661635,
            26.124481558376143, 9.524458193071833, 7.344121497701792, 3.4895391256498223,
            0.0005404012335324232, 0.00045441755284231846,
        ),
        30.0: (
            1610.6621662188195, 1516.8812320054697, 568.42757044912, 120.05203472501219,
            59.70306430442993, 33.53023292655934, 29.336031516661585, 20.599234614585345,
            1.2066570392357692, 1.150137677607397,
        ),
        200.0: (
            2136.3768268819385, 2034.6208577094278, 966.4390604451238, 374.4959107271329,
            267.5405278227572, 209.98541535773035, 199.33372983863097, 174.8352729991873,
            77.81720637410473, 76.95092780684202,
        ),
    }

    # the same oracle for d just above the table's cut-off, where x reaches 1e-304 at p -> 1
    SMALL_D_ORACLE = {
        0.105: (
            1455.326440755286, 1363.3465602795775, 444.4309362793753, 43.50633277047844,
            5.5561801003317814, 0.0013133944338615082, 2.161391946428331e-06, 1.0495876566456632e-19,
            8.046266967799577e-299, 1.4848745326677632e-304,
        ),
        0.11: (
            1455.454731028734, 1363.4745138332382, 444.552960874638, 43.61300412370318,
            5.636183936988308, 0.001792486877567105, 3.946522251075243e-06, 7.720905022518124e-19,
            2.879444242170188e-285, 9.683581783851178e-291,
        ),
        0.12: (
            1455.6992155460634, 1363.7183261363234, 444.78495509856083, 43.814809210622975,
            5.78749997339871, 0.0030910887572224693, 1.1324356435657835e-05, 2.5381140796171686e-17,
            1.5083943470346987e-261, 1.4499342265101993e-266,
        ),
    }
    CUTOFF = 0.1038  # the smallest d, in steps of 1e-4, that the table path takes

    @pytest.fixture(autouse=True)
    def cold(self):
        kernels._isf_table.cache_clear()

    def test_matches_oracle(self):
        for d, expected in self.ORACLE.items():
            got = kernels._chisq_isf(np.array(self.P), d)
            np.testing.assert_allclose(got, expected, rtol=2e-14, atol=0.0, err_msg=f"d = {d}")

    def test_small_degrees_match_oracle(self):
        for d, expected in self.SMALL_D_ORACLE.items():
            got = kernels._chisq_isf(np.array(self.P), d)
            np.testing.assert_allclose(got, expected, rtol=5e-14, atol=0.0, err_msg=f"d = {d}")

    def test_table_nodes_normal_down_to_the_cutoff(self):
        tiny = np.finfo(float).tiny
        table = kernels._isf_table(self.CUTOFF / 2.0)
        assert np.all(np.isfinite(table))
        assert np.exp(table[:, 0]).min() >= tiny  # every node x, the p -> 1 end included
        # one step below the cut-off the p -> 1 node would be subnormal
        assert np.exp(kernels._isf_table((self.CUTOFF - 1e-4) / 2.0)[:, 0]).min() < tiny
        p = np.array(self.P)
        assert np.array_equal(kernels._chisq_isf(p, self.CUTOFF), 2.0 * kernels._gamma_isf(self.CUTOFF / 2.0, p))

    @pytest.mark.parametrize("d", [0.1038, 0.11, 0.5, 3.0, 3.5, 8.0, 30.0, 200.0])
    def test_non_increasing_across_nodes_and_branches(self, d):
        # 16 points per table step in log(-log p) crosses every node, and the
        # linear stretch crosses the switch of Newton residual at p = 1/2
        y = np.arange(np.log(2.0**-53), np.log(744.0), 1.0 / 256)
        p = np.sort(np.concatenate([np.exp(-np.exp(y)), np.linspace(0.49, 0.51, 4001)]))
        t = kernels._chisq_isf(p, d)
        assert np.all(np.diff(t) <= 0.0)

    def test_p_one_is_positive_zero(self):
        for d in (0.5, 3.5, 8.0):
            t = kernels._chisq_isf(np.array([0.5, 1.0]), d)
            assert t[1] == 0.0 and not np.signbit(t[1])

    def test_scalar_and_0d_input(self):
        t = kernels._chisq_isf(0.05, 3.0)
        assert np.ndim(t) == 0 and t == pytest.approx(float(chi2.isf(0.05, 3.0)), rel=1e-14)
        assert kernels._chisq_isf(np.array(0.05), 3.0) == t
        assert kernels._chisq_isf(np.array([[0.05]]), 3.0).shape == (1, 1)

    def test_no_runtime_warnings(self):
        p = np.array([5e-324, 1e-320, 1e-300, 1e-30, 0.3, 0.5, 0.9, 1.0 - 2.0**-53, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (0.1038, 0.11, 0.5, 3.0, 3.5, 8.0, 30.0, 200.0):
                assert np.all(np.isfinite(kernels._chisq_isf(p, d)))


class TestGamma:
    def test_chi_square_consistency(self):
        # gamma(d/2, scale 2) is chi-square with d degrees of freedom
        x, d = 3.0, 4.0
        assert kernels.gamma_sf(x, d / 2.0, 2.0) == pytest.approx(float(chi2.sf(x, d)), rel=1e-14)

    def test_consistency_on_grid(self):
        for x in (0.01, 0.5, 2.0, 15.0):
            for d in (1.0, 2.0, 3.0, 10.0):
                assert kernels.gamma_sf(x, d / 2.0, 2.0) == pytest.approx(float(chi2.sf(x, d)), rel=1e-13)

    def test_cdf_at_zero(self):
        assert 1.0 - kernels.gamma_sf(0.0, 2.5, 1.3) == 0.0

    def test_far_tail_saturation(self):
        # x = 100 * mean with shape 2, scale 1; the complementary incomplete
        # gamma is ~ 1e-83 there (exactly 201 e^-200), far below 1e-12
        a, theta = 2.0, 1.0
        assert 1.0 - kernels.gamma_sf(100.0 * a * theta, a, theta) == pytest.approx(1.0, abs=1e-12)
        assert kernels.gamma_sf(100.0 * a * theta, a, theta) == pytest.approx(201.0 * np.exp(-200.0), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernels.gamma_sf(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            kernels.gamma_sf(1.0, 1.0, 0.0)


class TestHermite:
    def test_closed_form_order2(self):
        # He_2(z) = z^2 - 1
        assert kernels.hermite(2, 2.0) == pytest.approx(3.0)

    def test_closed_form_order3(self):
        # He_3(z) = z^3 - 3z
        assert kernels.hermite(3, 1.0) == pytest.approx(-2.0)

    def test_recurrence(self):
        z = np.linspace(-3, 3, 21)
        for k in range(1, 12):
            lhs = kernels.hermite(k + 1, z)
            rhs = z * kernels.hermite(k, z) - k * kernels.hermite(k - 1, z)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-9)

    def test_order_overflow(self):
        with pytest.raises(ValueError):
            kernels.hermite(kernels.MAX_HERMITE_ORDER + 1, 0.0)

    def test_orthogonality_order3(self):
        assert gauss_integral(lambda z: kernels.hermite(3, z) ** 2) == pytest.approx(6.0, abs=1e-10)

    @pytest.mark.parametrize("j", range(0, 13, 3))
    def test_orthogonality_table(self, j):
        # k! reaches 4.8e8 at k = 12, so the tolerance is 1e-8 in the
        # relative sense there and absolute near zero
        import math

        for k in range(0, 13, 4):
            val = gauss_integral(lambda z: kernels.hermite(j, z) * kernels.hermite(k, z))
            expected = math.factorial(k) if j == k else 0.0
            assert val == pytest.approx(expected, rel=1e-8, abs=1e-8)


class TestQuadrature:
    def test_normalization(self):
        assert gauss_integral(lambda z: np.ones_like(z)) == pytest.approx(1.0, abs=1e-12)

    def test_second_moment(self):
        assert gauss_integral(lambda z: z**2) == pytest.approx(1.0, abs=1e-12)

    def test_fourth_moment(self):
        assert gauss_integral(lambda z: z**4) == pytest.approx(3.0, abs=1e-10)

    def test_sixth_moment(self):
        assert gauss_integral(lambda z: z**6) == pytest.approx(15.0, rel=1e-10)

    def test_halving_weights_give_the_2h_rule(self):
        z2, w2, _ = kernels._exp_sinh_rule(h=1.0 / 128)
        z, w, halving = kernels.GAUSS_NODES, kernels.GAUSS_WEIGHTS, kernels.GAUSS_HALVING

        def f(x):
            return np.cos(x) + x**3

        assert w @ f(z) - halving @ f(z) == pytest.approx(w2 @ f(z2), rel=1e-14)
        assert np.all(w > 0) and np.all(np.diff(z) > 0) and np.array_equal(np.abs(halving), w)


    def test_unit_rule_keeps_complements_and_halves(self):
        t, s, w, halving = kernels.UNIT_NODES, kernels.UNIT_COMPLEMENTS, kernels.UNIT_WEIGHTS, kernels.UNIT_HALVING
        _, _, w2, _ = kernels._tanh_sinh_rule(h=1.0 / 16)
        assert np.all(s > 0) and s.min() < 1e-37 and np.allclose(t + s, 1.0, rtol=0, atol=2.3e-16)
        # an endpoint singularity at t = 1, written in the complement, integrates to full accuracy
        assert w @ (1.0 / np.sqrt(s)) == pytest.approx(2.0, rel=1e-14)
        assert abs(halving @ (1.0 / np.sqrt(s))) < 1e-13
        f = np.cos(3.0 * t) + t**5
        assert w @ f - halving @ f == pytest.approx(w2 @ np.cos(3.0 * t[::2]) + w2 @ t[::2] ** 5, rel=1e-14)
        assert w @ f == pytest.approx(np.sin(3.0) / 3.0 + 1.0 / 6.0, rel=1e-15)


class TestClamp:
    """The transform clamps p from below only: p = 0 prices as PROB_CLAMP_LO, p = 1 gives T = 0."""

    def test_clamp_counts(self):
        g = GFisherDef(degrees=[1.0, 2.0, 3.5])
        t = transform(g, [0.0, 0.5, 1.0])
        ref = transform(g, [kernels.PROB_CLAMP_LO, 0.5, 0.5])
        assert np.isfinite(t[0]) and t[0] == ref[0]
        assert t[1] == ref[1]
        assert t[2] == 0.0

    def test_no_clamp(self):
        g = GFisherDef(degrees=[2.0, 2.0])
        np.testing.assert_array_equal(transform(g, [0.2, 0.8]), -2.0 * np.log([0.2, 0.8]))
