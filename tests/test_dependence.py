"""Covariance series, correlation structures, and matrix plumbing."""

import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from gfisher import dependence
from gfisher.dependence import (
    CorrMatrix,
    cov_matrix,
    cov_summands,
    cross_cov,
    gen_structure,
    hermite_coeff,
    nearest_correlation,
    transform_product_moment,
    var_T,
)
from gfisher.statistic import GFisherDef


class TestHermiteCoeff:
    def test_two_sided_d1_k2(self):
        # T = Z^2 = He_2 + 1 exactly, so I(2) = E[Z^2 He_2] = 2
        assert hermite_coeff(1.0, 2, "two") == pytest.approx(2.0, abs=1e-8)

    def test_two_sided_odd_orders_vanish(self):
        for k in (1, 3, 5, 7):
            assert hermite_coeff(2.0, k, "two") == 0.0

    def test_one_sided_d2_k1(self):
        # first coefficient of the cubic covariance formula: 3.263 = I(1)^2
        assert hermite_coeff(2.0, 1, "one") == pytest.approx(1.8064, abs=2e-3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            hermite_coeff(2.0, 0, "two")
        with pytest.raises(ValueError):
            hermite_coeff(-1.0, 2, "two")


class TestCoefficientQuadrature:
    """Coefficients and product moments come from one quadrature grid per (d, side),
    which warns where its halving estimate cannot certify the tolerance."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        dependence._grid.cache_clear()

    def test_warns_where_tolerance_is_missed(self):
        # the transform loses accuracy at p -> 1 on the mirrored half (see README)
        with pytest.warns(RuntimeWarning, match="gauss-weight quadrature"):
            hermite_coeff(8.0, 12, "one")

    @pytest.mark.parametrize("side", ["one", "two"])
    def test_silent_up_to_default_order(self, side):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (0.5, 1.0, 2.0, 3.0, 4.5, 8.0):
                for k in range(1, dependence.DEFAULT_KSTAR + 1):
                    hermite_coeff(d, k, side)
                for d2 in (1.0, 2.0, 3.5):
                    transform_product_moment(d, d2, side)


class TestCovSummands:
    def test_zero_correlation(self):
        assert cov_summands(2.0, 2.0, 0.0, "one", 5) == 0.0

    def test_one_sided_cubic_value(self):
        # 3.263 * 0.5 + 0.710 * 0.25 + 0.027 * 0.125 = 1.8124
        val = cov_summands(2.0, 2.0, 0.5, "one", kstar=3)
        assert val == pytest.approx(1.8124, abs=5e-3)

    def test_two_sided_five_term_value(self):
        # even-power polynomial evaluated at 0.5: 0.9802
        val = cov_summands(2.0, 2.0, 0.5, "two", kstar=10)
        assert val == pytest.approx(0.9802, abs=5e-3)

    def test_two_sided_nonnegative_and_even(self):
        # nonnegativity holds for mixed degree pairs as well
        for d1 in (1.0, 2.0, 3.0, 4.5):
            for d2 in (1.0, 2.0, 4.5):
                for s in np.linspace(-1, 1, 11):
                    v = cov_summands(d1, d2, s, "two", kstar=8)
                    assert v >= 0.0
                    assert v == pytest.approx(
                        cov_summands(d1, d2, -s, "two", kstar=8), abs=1e-12
                    )

    def test_one_sided_sign_agreement(self):
        for s in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
            v = cov_summands(2.0, 2.0, s, "one", kstar=8)
            assert np.sign(v) == np.sign(s)

    def test_series_monotone_toward_variance_one_sided(self):
        # at sigma = 1 the series climbs to Var(chi2_d) = 2d; one-sided
        # coefficients decay fast enough to land within 1e-3 by kstar = 12
        for d in (1.0, 2.0, 3.0, 4.0):
            partial = [cov_summands(d, d, 1.0, "one", kstar=k) for k in range(1, 13)]
            assert np.all(np.diff(partial) >= -1e-12)
            assert partial[-1] == pytest.approx(2.0 * d, abs=1e-3)

    def test_series_exact_two_sided_d1(self):
        assert cov_summands(1.0, 1.0, 1.0, "two", kstar=2) == pytest.approx(2.0, abs=1e-8)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            cov_summands(2.0, 2.0, 1.5, "two")


class TestCovMatrix:
    def test_identity_sigma(self):
        g = GFisherDef(degrees=[1, 2, 3])
        c = cov_matrix(g, np.eye(3))
        off = c[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.0, atol=1e-15)
        np.testing.assert_allclose(np.diag(c), [2, 4, 6])

    def test_two_sided_d1_closed_form(self):
        # with d_i = 1 only the k = 2 term survives: Cov = 2 sigma^2
        s = np.array([[1.0, 0.3, -0.6], [0.3, 1.0, 0.2], [-0.6, 0.2, 1.0]])
        g = GFisherDef(degrees=[1, 1, 1], side="two")
        c = cov_matrix(g, s, kstar=4)
        expected = 2.0 * s**2
        np.fill_diagonal(expected, 2.0)
        np.testing.assert_allclose(c, expected, atol=1e-8)

    def test_diagonal_is_exact_variance(self):
        g = GFisherDef(degrees=[2, 2], side="two")
        c = cov_matrix(g, np.eye(2), kstar=12)
        np.testing.assert_allclose(np.diag(c), 4.0, atol=1e-3)

    def test_symmetry(self):
        s = gen_structure("equal", "III", 4, 0.4).values
        g = GFisherDef(degrees=[1, 2, 3, 4], side="one")
        c = cov_matrix(g, s)
        np.testing.assert_allclose(c, c.T, atol=1e-14)

    def test_dimension_mismatch(self):
        g = GFisherDef(degrees=[2, 2])
        with pytest.raises(ValueError):
            cov_matrix(g, np.eye(3))


class TestVarT:
    def test_fisher_independent(self):
        g = GFisherDef.fisher(10)
        assert var_T(g, np.eye(10)) == pytest.approx(40.0, abs=1e-3)

    def test_two_sided_d1_pair(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        g = GFisherDef(degrees=[1, 1], side="two")
        # 2 + 2 + 2 * Cov with Cov = 2 * 0.25
        assert var_T(g, s) == pytest.approx(5.0, abs=1e-6)

    def test_single_active_weight(self):
        s = gen_structure("equal", "III", 3, 0.7).values
        g = GFisherDef(degrees=[2, 2, 2], weights=[1, 0, 0], side="two")
        # normalized weights are (3, 0, 0): Var = 9 * Var(chi2_2)
        assert var_T(g, s) == pytest.approx(9.0 * 4.0, abs=1e-6)


class TestCrossCov:
    def test_single_def_matches_var(self):
        s = gen_structure("equal", "III", 4, 0.5).values
        g = GFisherDef(degrees=[2, 2, 2, 2], side="two")
        omega = cross_cov([g], s)
        assert omega.shape == (1, 1)
        assert omega[0, 0] == pytest.approx(var_T(g, s), rel=1e-9)

    def test_identical_defs_rank_one(self):
        s = gen_structure("equal", "III", 4, 0.5).values
        g = GFisherDef(degrees=[1, 1, 1, 1], side="two")
        omega = cross_cov([g, g], s)
        assert omega[0, 1] == pytest.approx(omega[0, 0], rel=1e-10)
        assert omega[1, 1] == pytest.approx(omega[0, 0], rel=1e-10)

    def test_mixed_sidedness_rejected(self):
        a = GFisherDef(degrees=[2, 2], side="two")
        b = GFisherDef(degrees=[2, 2], side="one")
        with pytest.raises(ValueError):
            cross_cov([a, b], np.eye(2))

    def test_independent_inputs_monte_carlo(self):
        # defs d in {1, 2} on n = 2 under Sigma = I: the cross covariance is
        # sum_i w_i1 w_i2 Cov(T_i(1), T_i(2)); checked against 1e6 simulations
        defs = [
            GFisherDef(degrees=[1, 1], side="two"),
            GFisherDef(degrees=[2, 2], side="two"),
        ]
        omega = cross_cov(defs, np.eye(2))
        rng = np.random.default_rng(42)
        z = rng.standard_normal((1_000_000, 2))
        p = 2.0 * ndtr(-np.abs(z))
        t1 = (z**2).sum(axis=1)
        t2 = (-2.0 * np.log(p)).sum(axis=1)
        prod = (t1 - t1.mean()) * (t2 - t2.mean())
        mc = prod.mean()
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(omega[0, 1] - mc) < 3.0 * se

    def test_same_index_cov_diagonal(self):
        # J(d, d) - d^2 = Var(chi2_d) exactly
        for side in ("one", "two"):
            for d in (1.0, 2.0, 3.0):
                assert transform_product_moment(d, d, side) - d * d == pytest.approx(2.0 * d, abs=1e-7)


class TestGenStructure:
    def test_equal_zero_is_identity(self):
        s = gen_structure("equal", "III", 4, 0.0)
        np.testing.assert_array_equal(s.values, np.eye(4))

    def test_poly_entries(self):
        s = gen_structure("poly", "III", 3, 1.0)
        assert s.values[0, 1] == pytest.approx(0.99)  # capped raw 1.0
        assert s.values[1, 2] == pytest.approx(0.99)
        assert s.values[0, 2] == pytest.approx(0.5)

    def test_inv_equal_closed_form(self):
        s = gen_structure("invequal", "III", 2, 0.5)
        np.testing.assert_allclose(s.values, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12)

    def test_block_layouts(self):
        s1 = gen_structure("equal", "I", 6, 0.5).values
        assert s1[0, 1] == 0.5 and s1[3, 4] == 0.0 and s1[0, 3] == 0.0
        s2 = gen_structure("equal", "II", 6, 0.5).values
        assert s2[0, 1] == 0.5 and s2[3, 4] == 0.5 and s2[0, 3] == 0.0
        s3 = gen_structure("equal", "III", 6, 0.5).values
        assert s3[0, 3] == 0.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_structure("equal", "III", 4, 1.0)
        with pytest.raises(ValueError):
            gen_structure("poly", "III", 4, -1.0)
        with pytest.raises(ValueError):
            gen_structure("equal", "I", 5, 0.5)
        with pytest.raises(ValueError):
            gen_structure("ar1", "III", 4, 0.5)

    def test_inv_variants_are_psd(self):
        for kind in ("invequal", "invpoly"):
            s = gen_structure(kind, "III", 6, 0.5)
            assert s.is_psd(tol=1e-8)


class TestCorrMatrixIO:
    def test_csv_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.uniform(-0.4, 0.4, size=(5, 5))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 1.0)
        m = CorrMatrix(a)
        path = tmp_path / "sigma.csv"
        m.to_csv(path)
        back = CorrMatrix.from_csv(path)
        assert np.array_equal(back.values, m.values)

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValueError):
            CorrMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            CorrMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))


class TestNearestCorrelation:
    def test_fixed_point_on_psd(self):
        s = gen_structure("equal", "III", 4, 0.5).values
        out = nearest_correlation(s)
        np.testing.assert_allclose(out, s, atol=1e-8)

    def test_repairs_indefinite(self):
        a = gen_structure("poly", "III", 8, 0.2).values
        assert np.linalg.eigvalsh(a)[0] < 0
        out = nearest_correlation(a)
        assert np.linalg.eigvalsh(out)[0] >= -1e-9
        np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-12)
        # repaired matrix stays close in Frobenius norm
        assert np.linalg.norm(out - a, "fro") < 0.5


def _oracle_nearest_correlation(a, eig_floor=0.0, tol=1e-10, max_iter=500):
    """Higham's alternating projections with a Dykstra correction (linear convergence).

    The reference the Newton solver is checked against: alternate the PSD
    projection (eigenvalues clipped at ``eig_floor``) with the unit-diagonal
    projection until successive iterates move less than ``tol``, then polish.
    """
    y = np.asarray(a, dtype=float).copy()
    ds = np.zeros_like(y)
    prev = y.copy()
    for _ in range(max_iter):
        r = y - ds
        vals, vecs = np.linalg.eigh(0.5 * (r + r.T))
        x = (vecs * np.maximum(vals, eig_floor)) @ vecs.T
        ds = x - r
        y = 0.5 * (x + x.T)
        np.fill_diagonal(y, 1.0)
        np.clip(y, -1.0, 1.0, out=y)
        if np.linalg.norm(y - prev, "fro") <= tol * max(1.0, np.linalg.norm(y, "fro")):
            break
        prev = y.copy()
    vals, vecs = np.linalg.eigh(0.5 * (y + y.T))
    x = (vecs * np.maximum(vals, eig_floor)) @ vecs.T
    d = np.sqrt(np.clip(np.diag(x), 1e-12, None))
    x = x / np.outer(d, d)
    x = 0.5 * (x + x.T)
    np.fill_diagonal(x, 1.0)
    np.clip(x, -1.0, 1.0, out=x)
    return x


# (matrix, eig_floor): the paper's capped polynomial-decay patterns, which are
# indefinite, and the strictly positive definite repair used by the inv* structures
_REPAIR_CASES = {
    "poly:1.0:III n=8": (lambda: gen_structure("poly", "III", 8, 1.0).values, 0.0),
    "poly:1.0:III n=12": (lambda: gen_structure("poly", "III", 12, 1.0).values, 0.0),
    "poly:1.0:III n=240": (lambda: gen_structure("poly", "III", 240, 1.0).values, 0.0),
    "poly:0.2:III n=8": (lambda: gen_structure("poly", "III", 8, 0.2).values, 0.0),
    "floor poly 1.0 n=8": (lambda: dependence._poly_block(8, 1.0), 1e-8),
    "floor poly 1.0 n=50": (lambda: dependence._poly_block(50, 1.0), 1e-8),
}


class TestNewtonAgainstOracle:
    """The semismooth Newton repair reaches the alternating-projection answer
    in a handful of eigendecompositions."""

    @pytest.fixture(params=list(_REPAIR_CASES), ids=list(_REPAIR_CASES))
    def case(self, request, monkeypatch):
        make, floor = _REPAIR_CASES[request.param]
        a = make()
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        out = nearest_correlation(a, eig_floor=floor)
        newton_calls = len(calls)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        return a, floor, out, newton_calls

    def test_matches_oracle(self, case):
        a, floor, out, _ = case
        oracle = _oracle_nearest_correlation(a, eig_floor=floor)
        assert np.linalg.norm(out - oracle, "fro") <= 1e-8

    def test_no_farther_than_oracle(self, case):
        a, floor, out, _ = case
        oracle = _oracle_nearest_correlation(a, eig_floor=floor)
        assert np.linalg.norm(out - a, "fro") <= np.linalg.norm(oracle - a, "fro") * (1 + 1e-12)

    def test_is_correlation_matrix(self, case):
        a, floor, out, _ = case
        assert np.array_equal(out, out.T)
        assert np.all(np.diag(out) == 1.0)
        assert np.max(np.abs(out)) <= 1.0
        assert np.linalg.eigvalsh(out)[0] >= (0.99e-8 if floor else -1e-10)

    def test_few_eigendecompositions(self, case):
        assert case[3] <= 10

    def test_warns_at_step_cap(self, monkeypatch):
        monkeypatch.setattr(dependence, "NC_MAX_ITER", 1)
        a = gen_structure("poly", "III", 12, 1.0).values
        with pytest.warns(RuntimeWarning, match="nearest correlation did not converge.*diagonal residual"):
            out = nearest_correlation(a)
        assert np.array_equal(out, out.T)
