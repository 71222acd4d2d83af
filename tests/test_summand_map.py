"""One p -> T map on one quadrature grid: the statistic and the covariance-series
integrals share ``kernels._chisq_isf``, and every Hermite order of one d comes
from one evaluation of it on the grid.

The oracle values come from a 95-digit mpmath integration over T ~ chi2_d
with z(T) from erfinv (two-sided |z| = sqrt(2) erfinv(1 - Q), one-sided
z = sqrt(2) erfinv(2P - 1), with P, Q the regularized incomplete gamma
functions at T/2); mpmath is not a dependency, so they are frozen here. The
grid tables pin the grid's own values bit for bit.
"""

import numpy as np
import pytest

from gfisher import dependence, kernels
from gfisher.dependence import cross_cov, hermite_coeff, transform_product_moment
from gfisher.statistic import GFisherDef, transform

# I(k), k = 1..12 one-sided and k = 2, 4, ..., 12 two-sided, from a 95-digit mpmath integration over T ~ chi2_d
ORACLE_COEFFS = {
    ("one", 0.5): (
        0.7366522684761351, 0.8672576262500573, 0.6864051526900736, 0.10833403759538422,
        -0.48051751614261945, -0.20779537439577084, 1.0286618771937157, 0.6510239672211854,
        -3.7713373568862467, -2.8578796330967156, 19.78531477417817, 16.132434428817188,
    ),
    ("one", 1.0): (
        1.1772396063328625, 1.0586752319093282, 0.5622517997079296, -0.07300608517221244,
        -0.29059757072796294, 0.17161155114924023, 0.44930782540255293, -0.6028906709204487,
        -1.1042488457388462, 2.8277291553594557, 3.409024729278409, -16.56993038227268,
    ),
    ("one", 2.0): (
        1.8063945711372507, 1.1912711936947156, 0.40054164399334413, -0.11355781665708368,
        -0.09010018857985509, 0.14482547710483482, 0.011167479926139371, -0.26949379776712395,
        0.21100036272026843, 0.5882026973159249, -1.328113919836238, -1.035283280363594,
    ),
    ("one", 3.0): (
        2.2833776754478676, 1.240163625243548, 0.31726262966147006, -0.09674703643620142,
        -0.03152111257351314, 0.07960481447000503, -0.03532431559663755, -0.07951677008242822,
        0.14979229512692863, 0.02003368331220392, -0.45754194318642877, 0.5097027261510846,
    ),
    ("one", 3.5): (
        2.4898108157023304, 1.254211664945302, 0.2897190991093672, -0.08774107726094305,
        -0.019177108257048943, 0.05986114733058838, -0.03442666763755687, -0.04281471555732812,
        0.1054792412158369, -0.03135266572836947, -0.24058971039014193, 0.41858572844710346,
    ),
    ("one", 8.0): (
        3.892169284783993, 1.3004474968718975, 0.1792780839041869, -0.04367318887879228,
        0.0016151903867221147, 0.009733066506255442, -0.008494413582611236, 0.0017769652645673168,
        0.005674705304318698, -0.008960007715258624, 0.0035360495232451103, 0.011016072732755905,
    ),
    ("two", 0.5): (
        1.391487294483454, 0.750403664316849, -1.993032874934476, 8.352336745896615,
        -48.3889001100626, 360.1113041679929,
    ),
    ("two", 1.0): (
        2.0, -1.807951684957514e-85, -7.46675416047322e-83, -3.053613351961997e-80,
        -1.2364297425140573e-77, -4.956007104772506e-75,
    ),
    ("two", 2.0): (
        2.7952809849588385, -1.1021752368387259, 3.5343304617655105, -18.139881665389627,
        128.69614402522734, -1167.6038102213195,
    ),
    ("two", 3.0): (
        3.3746652780679938, -1.9260122795110373, 6.326995640318354, -33.23015903859181,
        240.60779178570385, -2222.3649745306407,
    ),
    ("two", 3.5): (
        3.6224792941209474, -2.2792375635865065, 7.5421891676118795, -39.88353751541509,
        290.49412287656344, -2696.913316142404,
    ),
    ("two", 8.0): (
        5.287321969195021, -4.644139235480904, 15.8008844191825, -85.68265619187332,
        637.4578754967142, -6025.953523110593,
    ),
}
# the grid's own I(k), k = 1..8 (two-sided: k = 2, 4, 6, 8), frozen bit for bit
FROZEN_COEFFS = {
    ("one", 0.5): (
        0.7366522684761352, 0.8672576262500575, 0.6864051526900737, 0.10833403759538407,
        -0.4805175161426197, -0.2077953743957721, 1.0286618771937122, 0.651023967221192,
    ),
    ("one", 1.0): (
        1.1772396063328623, 1.0586752319093282, 0.5622517997079298, -0.0730060851722128,
        -0.29059757072796294, 0.17161155114923843, 0.44930782540255176, -0.6028906709204405,
    ),
    ("one", 2.0): (
        1.8063945711372507, 1.1912711936947151, 0.4005416439933446, -0.1135578166570842,
        -0.0901001885798558, 0.14482547710483096, 0.011167479926136537, -0.2694937977671188,
    ),
    ("one", 3.0): (
        2.2833776754478667, 1.2401636252435484, 0.3172626296614707, -0.09674703643620175,
        -0.03152111257351553, 0.07960481447000278, -0.035324315596628963, -0.0795167700824404,
    ),
    ("one", 3.5): (
        2.48981081570233, 1.2542116649453026, 0.2897190991093671, -0.08774107726094404,
        -0.019177108257051323, 0.05986114733058745, -0.034426667637559305, -0.0428147155573555,
    ),
    ("one", 8.0): (
        3.8921692847839937, 1.3004474968718978, 0.17927808390418853, -0.04367318887879268,
        0.0016151903867118733, 0.009733066506243837, -0.008494413582560867, 0.0017769652643764289,
    ),
    ("two", 0.5): (
        1.391487294483454, 0.7504036643168492, -1.993032874934477, 8.352336745896627,
    ),
    ("two", 1.0): (
        2.0000000000000004, -7.224859014111208e-17, -7.797775165748949e-16, 5.355383038078729e-15,
    ),
    ("two", 2.0): (
        2.7952809849588394, -1.1021752368387272, 3.534330461765508, -18.139881665389627,
    ),
    ("two", 3.0): (
        3.3746652780679938, -1.9260122795110386, 6.3269956403183585, -33.230159038591836,
    ),
    ("two", 3.5): (
        3.622479294120948, -2.279237563586507, 7.542189167611873, -39.88353751541511,
    ),
    ("two", 8.0): (
        5.287321969195023, -4.644139235480905, 15.800884419182513, -85.68265619187332,
    ),
}
# E[T(d1) T(d2)] for d1 <= d2, frozen bit for bit
FROZEN_PRODUCT_MOMENTS = {
    ("one", 0.5, 0.5): 1.2500000000000004,
    ("one", 0.5, 1.0): 1.8914872944834547,
    ("one", 0.5, 2.0): 2.89287726204501,
    ("one", 0.5, 3.0): 3.755777387070066,
    ("one", 0.5, 3.5): 4.160785778611556,
    ("one", 0.5, 8.0): 7.451388236090192,
    ("one", 1.0, 1.0): 3.000000000000001,
    ("one", 1.0, 2.0): 4.79528098495884,
    ("one", 1.0, 3.0): 6.374665278067994,
    ("one", 1.0, 3.5): 7.122479294120948,
    ("one", 1.0, 8.0): 13.287321969195023,
    ("one", 2.0, 2.0): 8.0,
    ("one", 2.0, 3.0): 10.885044124993932,
    ("one", 2.0, 3.5): 12.264416481849047,
    ("one", 2.0, 8.0): 23.81756170236426,
    ("one", 3.0, 3.0): 15.0,
    ("one", 3.0, 3.5): 16.9785775060761,
    ("one", 3.0, 8.0): 33.703332763354084,
    ("one", 3.5, 3.5): 19.25,
    ("one", 3.5, 8.0): 38.51510037887121,
    ("one", 8.0, 8.0): 80.00000000000001,
    ("two", 0.5, 0.5): 1.2500000000000009,
    ("two", 0.5, 1.0): 1.8914872944834547,
    ("two", 0.5, 2.0): 2.89287726204501,
    ("two", 0.5, 3.0): 3.755777387070067,
    ("two", 0.5, 3.5): 4.160785778611556,
    ("two", 0.5, 8.0): 7.451388236090192,
    ("two", 1.0, 1.0): 3.000000000000001,
    ("two", 1.0, 2.0): 4.79528098495884,
    ("two", 1.0, 3.0): 6.3746652780679955,
    ("two", 1.0, 3.5): 7.12247929412095,
    ("two", 1.0, 8.0): 13.287321969195023,
    ("two", 2.0, 2.0): 8.000000000000004,
    ("two", 2.0, 3.0): 10.885044124993932,
    ("two", 2.0, 3.5): 12.26441648184905,
    ("two", 2.0, 8.0): 23.817561702364262,
    ("two", 3.0, 3.0): 15.000000000000004,
    ("two", 3.0, 3.5): 16.9785775060761,
    ("two", 3.0, 8.0): 33.70333276335409,
    ("two", 3.5, 3.5): 19.25,
    ("two", 3.5, 8.0): 38.51510037887121,
    ("two", 8.0, 8.0): 80.00000000000001,
}


DEGREES = (0.5, 1.0, 2.0, 3.0, 3.5, 8.0)


@pytest.fixture()
def cold():
    dependence._grid.cache_clear()


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("side", ["one", "two"])
def test_cold_coefficients_frozen(cold, side):
    for (s, d), frozen in FROZEN_COEFFS.items():
        if s != side:
            continue
        got = [hermite_coeff(d, k, side) for k in range(1, 9)]
        if side == "two":
            assert got[0::2] == [0.0] * 4
            got = got[1::2]
        assert tuple(got) == frozen, d


@pytest.mark.parametrize("side", ["one", "two"])
def test_cold_product_moments_frozen(cold, side):
    for (s, a, b), frozen in FROZEN_PRODUCT_MOMENTS.items():
        if s == side:
            assert transform_product_moment(a, b, side) == frozen, (a, b)
            assert transform_product_moment(b, a, side) == frozen, (b, a)


def _oracle(side, d, k):
    if side == "two":
        return 0.0 if k % 2 else ORACLE_COEFFS[side, d][k // 2 - 1]
    return ORACLE_COEFFS[side, d][k - 1]


@pytest.mark.parametrize("side", ["one", "two"])
def test_coefficients_match_oracle(cold, side):
    for d in DEGREES:
        for k in range(1, 13):
            if side == "one" and d == 8.0 and k >= 10:
                continue  # the p -> 1 floor, below
            err = abs(hermite_coeff(d, k, side) - _oracle(side, d, k))
            assert err <= (1e-12 if k <= 8 else 1e-11), (d, k, err)


def test_p_to_one_floor_warns(cold):
    # one-sided d = 8: T on the mirrored half (p -> 1) carries the error of
    # gammainccinv near 1, 1e-11 to 6e-10 at k = 10..12; the halving estimate
    # flags k = 11 and 12 (k = 10 misses 1e-11 by 4% and reads 7e-12)
    assert abs(hermite_coeff(8.0, 10, "one") - _oracle("one", 8.0, 10)) <= 2e-11
    for k in (11, 12):
        with pytest.warns(RuntimeWarning, match="gauss-weight quadrature"):
            got = hermite_coeff(8.0, k, "one")
        assert abs(got - _oracle("one", 8.0, k)) <= 1e-9


@pytest.mark.parametrize("side", ["one", "two"])
def test_second_moment_is_exact(cold, side):
    # E[T_d^2] = Var + mean^2 = 2d + d^2
    for d in DEGREES + (4.5, 10.0):
        assert transform_product_moment(d, d, side) == pytest.approx(d * (d + 2.0), rel=1e-14, abs=0.0)


def test_two_sided_d1_is_exact(cold):
    # T = Z^2 = He_2(Z) + 1, so I(2) = 2 and every other order vanishes
    assert ORACLE_COEFFS["two", 1.0] == pytest.approx((2.0, 0.0, 0.0, 0.0, 0.0, 0.0), abs=1e-15)
    for k in range(1, 13):
        assert hermite_coeff(1.0, k, "two") == pytest.approx(2.0 if k == 2 else 0.0, abs=1e-12 if k <= 8 else 1e-11)


def test_cold_coefficient_goes_through_the_core(cold, monkeypatch):
    calls = _counting(monkeypatch, dependence, "_chisq_isf")
    assert hermite_coeff(3.5, 2, "two") == FROZEN_COEFFS["two", 3.5][0]
    # one call on the whole grid; two-sided T is even, so no mirrored half
    assert [(np.size(p), d) for p, d in calls] == [(kernels.GAUSS_NODES.size, 3.5)]


def test_transform_calls_the_core_once_per_distinct_degree(monkeypatch):
    calls = _counting(monkeypatch, kernels, "_chisq_isf")
    g = GFisherDef(degrees=[1.0, 2.0, 3.5, 2.0, 1.0])
    p = np.array([[0.3, 0.01, 0.5, 1.0, 1e-320], [1.0, 0.2, 1e-9, 0.7, 0.4]])
    t = transform(g, p)
    assert sorted(d for _, d in calls) == [1.0, 2.0, 3.5]
    monkeypatch.undo()
    for j, d in enumerate(g.degrees):
        ref = kernels.chisq_inv_sf(np.maximum(p[:, j], kernels.PROB_CLAMP_LO), d)
        assert np.array_equal(t[:, j], ref)


def test_same_index_terms_once_per_degree_pair(monkeypatch):
    n = 6
    defs = [
        GFisherDef.fisher(n),
        GFisherDef(degrees=[1.0] * n),
        GFisherDef(degrees=[1.0, 2.0, 3.0] * 2, weights=np.arange(1.0, 7.0)),
    ]
    sigma = dependence.gen_structure("equal", "III", n, 0.4)
    ref = cross_cov(defs, sigma)
    calls = _counting(monkeypatch, dependence, "transform_product_moment")
    omega = cross_cov(defs, sigma)
    # (2,2) (2,1) (2,3) (1,1) (1,2) (1,3) (3,3), against one call per (l, r, i) = 36 before
    assert len(calls) == 7
    assert np.array_equal(omega, ref)
