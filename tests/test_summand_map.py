"""One p -> T map: the statistic and the covariance-series integrals share ``kernels._chisq_isf``.

The frozen tables are cold-cache quadratures of the Hermite coefficients and
the same-input product moments; they must stay bit-identical.
"""

import numpy as np
import pytest

from gfisher import dependence, kernels
from gfisher.dependence import cross_cov, hermite_coeff, transform_product_moment
from gfisher.statistic import GFisherDef, transform

# I(k) for k = 1..8 one-sided and k = 2, 4, 6, 8 two-sided (odd two-sided orders are exact zeros)
FROZEN_COEFFS = {
    ("one", 0.5): (
        0.7366522684761355, 0.8672576262500579, 0.6864051526900741, 0.1083340375953838,
        -0.48051751614262184, -0.2077953743957695, 1.0286618771937304, 0.6510239672212017
    ),
    ("one", 1.0): (
        1.177239606332863, 1.0586752319093287, 0.56225179970793, -0.07300608517221228, -0.29059757072796316,
        0.1716115511492399, 0.44930782540255604, -0.6028906709204368
    ),
    ("one", 2.0): (
        1.8063945711372509, 1.191271193694716, 0.4005416439933443, -0.1135578166570835,
        -0.09010018857985613, 0.144825477104834, 0.011167479926145444, -0.26949379776712357
    ),
    ("one", 3.0): (
        2.2833776754478676, 1.2401636252435482, 0.31726262966146984, -0.09674703643620056,
        -0.03152111257351122, 0.07960481447000242, -0.035324315596637124, -0.0795167700824148
    ),
    ("one", 3.5): (
        2.4898108157023313, 1.2542116649453028, 0.28971909910936816, -0.087741077260945,
        -0.01917710825705241, 0.05986114733058809, -0.03442666763753001, -0.042814715557301694
    ),
    ("one", 8.0): (
        3.8921692847839937, 1.3004474968718984, 0.1792780839041874, -0.04367318887879213,
        0.0016151903867191156, 0.00973306650624536, -0.008494413582517686, 0.0017769652641031692
    ),
    ("two", 0.5): (
        1.3914872944834547, 0.7504036643168495, -1.993032874934477, 8.352336745896622
    ),
    ("two", 1.0): (
        2.000000000000001, -2.741790927611759e-16, -2.5660458976621735e-15, 5.169522968739458e-15
    ),
    ("two", 2.0): (
        2.79528098495884, -1.102175236838727, 3.5343304617655065, -18.13988166538961
    ),
    ("two", 3.0): (
        3.374665278067994, -1.9260122795110381, 6.326995640318354, -33.23015903859193
    ),
    ("two", 3.5): (
        3.62247929412097, -2.279237563586506, 7.542189167611885, -39.88353751541505
    ),
    ("two", 8.0): (
        5.287321969195061, -4.644139235480973, 15.800884419182493, -85.68265619187329
    ),
}
# E[T(d1) T(d2)] for d1 <= d2
FROZEN_PRODUCT_MOMENTS = {
    ("one", 0.5, 0.5): 1.250000000000001,
    ("one", 0.5, 1.0): 1.8914872944834553,
    ("one", 0.5, 2.0): 2.8928772620450114,
    ("one", 0.5, 3.0): 3.7557773870700677,
    ("one", 0.5, 3.5): 4.160785778611558,
    ("one", 0.5, 8.0): 7.451388236090193,
    ("one", 1.0, 1.0): 3.000000000000001,
    ("one", 1.0, 2.0): 4.79528098495884,
    ("one", 1.0, 3.0): 6.374665278067998,
    ("one", 1.0, 3.5): 7.122479294120949,
    ("one", 1.0, 8.0): 13.287321969195029,
    ("one", 2.0, 2.0): 8.000000000000002,
    ("one", 2.0, 3.0): 10.885044124993934,
    ("one", 2.0, 3.5): 12.264416481849047,
    ("one", 2.0, 8.0): 23.817561702364262,
    ("one", 3.0, 3.0): 15.000000000000007,
    ("one", 3.0, 3.5): 16.978577506076096,
    ("one", 3.0, 8.0): 33.70333276335409,
    ("one", 3.5, 3.5): 19.25,
    ("one", 3.5, 8.0): 38.51510037887122,
    ("one", 8.0, 8.0): 80.0,
    ("two", 0.5, 0.5): 1.2500000000000004,
    ("two", 0.5, 1.0): 1.8914872944834547,
    ("two", 0.5, 2.0): 2.8928772620450114,
    ("two", 0.5, 3.0): 3.7557773870699283,
    ("two", 0.5, 3.5): 4.160785778611553,
    ("two", 0.5, 8.0): 7.451388236090165,
    ("two", 1.0, 1.0): 3.0000000000000013,
    ("two", 1.0, 2.0): 4.795280984958841,
    ("two", 1.0, 3.0): 6.374665278067991,
    ("two", 1.0, 3.5): 7.12247929412095,
    ("two", 1.0, 8.0): 13.287321969195032,
    ("two", 2.0, 2.0): 8.000000000000002,
    ("two", 2.0, 3.0): 10.88504412499393,
    ("two", 2.0, 3.5): 12.264416481849059,
    ("two", 2.0, 8.0): 23.81756170236419,
    ("two", 3.0, 3.0): 15.0,
    ("two", 3.0, 3.5): 16.97857750607611,
    ("two", 3.0, 8.0): 33.70333276335409,
    ("two", 3.5, 3.5): 19.249999999999986,
    ("two", 3.5, 8.0): 38.51510037887123,
    ("two", 8.0, 8.0): 79.99999999999991,
}


@pytest.fixture()
def cold():
    dependence._hermite_coeff_cached.cache_clear()
    dependence._product_moment_cached.cache_clear()


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


def test_cold_coefficient_goes_through_the_core(cold, monkeypatch):
    calls = _counting(monkeypatch, dependence, "_chisq_isf")
    assert hermite_coeff(3.5, 2, "two") == FROZEN_COEFFS["two", 3.5][0]
    assert len(calls) > 100  # one per quadrature point
    assert {d for _, d in calls} == {3.5}


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
