"""Special functions, Hermite polynomials, and the Gaussian-weight quadrature rule."""

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
        assert kernels.chisq_inv_sf(0.05, 1.0) == pytest.approx(3.841459, abs=1e-5)

    def test_exponential_identity(self):
        # F2^{-1}(1 - p) = -2 log p, checked at p = 0.01
        assert kernels.chisq_inv_sf(0.01, 2.0) == pytest.approx(-2.0 * np.log(0.01), rel=1e-12)
        assert kernels.chisq_inv_sf(0.01, 2.0) == pytest.approx(9.210340371976182, rel=1e-12)

    @pytest.mark.parametrize("d", [1.0, 2.0, 3.0, 10.0])
    def test_round_trip(self, d):
        x = np.array([0.01, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0])
        p = chi2.cdf(x, d)
        keep = (p > 1e-12) & (p < 1.0 - 1e-12)
        back = chi2.ppf(p[keep], d)
        np.testing.assert_allclose(back, x[keep], rtol=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernels.chisq_inv_sf(0.0, 2.0)
        with pytest.raises(ValueError):
            kernels.chisq_inv_sf(1.5, 2.0)
        with pytest.raises(ValueError):
            kernels.chisq_inv_sf(0.5, -1.0)
        with pytest.raises(ValueError):
            kernels.chisq_inv_sf(0.5, 0.0)


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
