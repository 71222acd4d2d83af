"""Scalar special functions, Hermite polynomials, and the two fixed quadrature rules.

Everything here is a pure function of its inputs; the rest of the package is
built on top of these primitives.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import expit, gamma, gammainc, gammaincc, gammainccinv, gammaincinv, gammaln, hyperu, ndtri

__all__ = [
    "GAUSS_HALVING",
    "GAUSS_NODES",
    "GAUSS_WEIGHTS",
    "MAX_HERMITE_ORDER",
    "PROB_CLAMP_LO",
    "PROB_CLAMP_HI",
    "UNIT_COMPLEMENTS",
    "UNIT_HALVING",
    "UNIT_NODES",
    "UNIT_WEIGHTS",
    "gamma_sf",
    "hermite",
]

# Hermite recurrences above this order are not needed anywhere in the package
# and start to deserve extended precision; refuse rather than degrade.
MAX_HERMITE_ORDER = 24

# The p -> T transform clamps probabilities from below at PROB_CLAMP_LO so
# that quantiles stay finite; Cauchy and min-p omnibus inputs are clamped into
# the closed interval. Callers surface clamping in diagnostics.
PROB_CLAMP_LO = 1e-300
PROB_CLAMP_HI = 1.0 - 1e-16

# The start table of the general-d summand map: log x against y = log(-log p)
# at step 1/16, from p = 1 - 2^-53 (the largest double below 1) to the smallest
# subnormal (-log p = 744.4)
_ISF_STEP = 1.0 / 16
_ISF_Y0 = np.log(2.0**-53)
_ISF_NODES = int(np.ceil((np.log(745.0) - _ISF_Y0) / _ISF_STEP)) + 1


def _newton_isf(a: float, x, p, q, v):
    """One Newton step from x toward Q(a, x) = p = exp(-v), i.e. P(a, x) = q = 1 - p.

    The residual is taken on the tail that does not cancel: Q - p for p < 1/2,
    q - P otherwise. Below PROB_CLAMP_LO, where Q nears the subnormal range, the
    step is on log Q + v, with Q / f = x U(1, a + 1, x) from the Tricomi function.
    """
    lf = (a - 1.0) * np.log(x) - x - gammaln(a)  # log of the gamma(a) density f at x
    deep = p < PROB_CLAMP_LO
    if deep.any():
        out = np.empty_like(x)
        out[~deep] = _newton_isf(a, x[~deep], p[~deep], q[~deep], v[~deep])
        u = x[deep] * hyperu(1.0, a + 1.0, x[deep])
        out[deep] = x[deep] + (np.log(u) + lf[deep] + v[deep]) * u
        return out
    up = p < 0.5
    r = np.empty_like(x)
    r[up] = gammaincc(a, x[up]) - p[up]
    lo = x[~up]  # P(a, x) = x^a / Gamma(a + 1) to the last bits for tiny x, where gammainc loses ~30 ulps
    r[~up] = q[~up] - np.where(lo < 1e-30, lo**a / gamma(a + 1.0), gammainc(a, lo))
    return x + r / np.exp(lf)


@lru_cache(maxsize=None)
def _isf_table(a: float) -> np.ndarray:
    """Cubic Hermite coefficients of log x(y), one row per table interval, for Q(a, x) = exp(-exp(y)).

    The nodes come from scipy's inverse polished by Newton; the slopes
    d log x / dy = v exp(-v) / (x f(x)) from the closed-form density.
    """
    v = np.exp(_ISF_Y0 + _ISF_STEP * np.arange(_ISF_NODES))
    p, q = np.exp(-v), -np.expm1(-v)
    x = np.where(p < 0.5, gammainccinv(a, np.maximum(p, PROB_CLAMP_LO)), gammaincinv(a, q))
    for _ in range(4):  # nodes past the clamp start up to 10% off; 4 steps reach the ulp level
        x = _newton_isf(a, x, p, q, v)
    lx = np.log(x)
    m = _ISF_STEP * np.exp(np.log(v) - v - lx - ((a - 1.0) * lx - x - gammaln(a)))
    d = lx[1:] - lx[:-1]
    return np.stack([lx[:-1], m[:-1], 3.0 * d - 2.0 * m[:-1] - m[1:], m[:-1] + m[1:] - 2.0 * d], axis=1)


def _gamma_isf(a: float, p) -> np.ndarray:
    """x with Q(a, x) = p for p in (0, 1), flat: a start from the table, then one Newton step."""
    v = -np.log(p)
    s = (np.log(np.maximum(v, 2.0**-53)) - _ISF_Y0) / _ISF_STEP
    j = np.minimum(s.astype(np.intp), _ISF_NODES - 2)
    s -= j  # the offset into interval j, in steps
    c = _isf_table(a).take(j, axis=0)
    x = np.exp(c[:, 0] + s * (c[:, 1] + s * (c[:, 2] + s * c[:, 3])))
    return _newton_isf(a, x, p, 1.0 - p, v)


def _chisq_isf(p, d: float):
    """Upper-tail chi-square quantile for one d, without input checks.

    This is the package's one summand map T = F_d^{-1}(1 - P): the statistic,
    the covariance-series integrands and the null simulation all call it.
    d = 1 and d = 2 use the closed forms (Phi^{-1}(p/2))^2 and -2 log p; other
    d start from a per-degree table in log(-log p) and take one Newton step on
    the incomplete gamma function. p = 1 maps to 0.
    """
    if d == 1.0:
        return ndtri(0.5 * p) ** 2
    if d == 2.0:
        return -2.0 * np.log(p) + 0.0  # + 0.0: T = 0, not -0, at p = 1
    if d < 0.1038:  # the table's x at p = 1 - 2^-53 would be subnormal
        return 2.0 * gammainccinv(d / 2.0, p)
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    t = np.where(flat < 1.0, 2.0 * _gamma_isf(d / 2.0, flat), 0.0)
    return t.reshape(p.shape)[()]


def _check_gamma_params(shape, scale) -> None:
    if np.any(np.asarray(shape) <= 0) or np.any(np.asarray(scale) <= 0):
        raise ValueError("gamma shape and scale must be > 0")


def gamma_sf(x, shape, scale=1.0):
    """Survival function of the gamma distribution; tail-accurate."""
    _check_gamma_params(shape, scale)
    x = np.asarray(x, dtype=float)
    return gammaincc(shape, np.maximum(x, 0.0) / scale)


def hermite(k: int, z):
    """Probabilists' Hermite polynomial He_k(z).

    Satisfies He_{k+1}(z) = z He_k(z) - k He_{k-1}(z) with He_0 = 1, He_1 = z,
    and is orthogonal under the standard normal weight with E[He_k^2] = k!.
    """
    if k < 0 or int(k) != k:
        raise ValueError("Hermite order must be a nonnegative integer")
    if k > MAX_HERMITE_ORDER:
        raise ValueError(f"Hermite order {k} exceeds the supported maximum {MAX_HERMITE_ORDER}")
    z = np.asarray(z, dtype=float)
    if k == 0:
        return np.ones_like(z)
    prev = np.ones_like(z)
    cur = z.copy()
    for j in range(1, k):
        prev, cur = cur, z * cur - j * prev
    return cur


def _exp_sinh_rule(h: float = 1.0 / 256, t_lo: float = -6.0, t_hi: float = 3.2):
    """Takahasi-Mori double-exponential (exp-sinh) rule for int_0^inf f(z) phi(z) dz.

    Nodes are z_j = exp(pi/2 sinh(j h)) and the weights fold in the Jacobian
    and phi(z); nodes whose weight underflows to 0 are dropped. The even-j
    nodes with doubled weights form the rule at step 2h, so ``GAUSS_HALVING @ f``,
    the difference of the two rules, is a free error estimate. z = 0 is no node,
    so a cusp or an algebraic singularity there costs no accuracy.
    """
    j = np.arange(round(t_lo / h), round(t_hi / h) + 1)
    z = np.exp(0.5 * np.pi * np.sinh(j * h))
    w = h * 0.5 * np.pi * np.cosh(j * h) * z * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    keep = w > 0
    return z[keep], w[keep], np.where(j % 2 == 0, -w, w)[keep]


# the rule's nodes, weights and signed halving weights, built once at import
GAUSS_NODES, GAUSS_WEIGHTS, GAUSS_HALVING = _exp_sinh_rule()


def _tanh_sinh_rule(h: float = 1.0 / 32, t_max: float = 4.0):
    """Takahasi-Mori double-exponential (tanh-sinh) rule for int_0^1 f(t) dt.

    Nodes are t_j = (1 + tanh(pi/2 sinh(j h))) / 2, returned together with
    their complements 1 - t_j, each computed as a logistic function so that
    both keep full relative accuracy: near t = 1 the complements reach 5e-38
    while the nodes themselves round to 1, so an integrand written in terms
    of 1 - t may be singular there. As in ``_exp_sinh_rule``, the even-j
    nodes with doubled weights form the rule at step 2h, and the signed
    halving weights give the difference of the two rules.
    """
    j = np.arange(-round(t_max / h), round(t_max / h) + 1)
    v = np.pi * np.sinh(j * h)
    t, s = expit(v), expit(-v)
    w = h * np.pi * np.cosh(j * h) * t * s
    return t, s, w, np.where(j % 2 == 0, -w, w)


# the unit-interval rule's nodes, complements, weights and signed halving weights
UNIT_NODES, UNIT_COMPLEMENTS, UNIT_WEIGHTS, UNIT_HALVING = _tanh_sinh_rule()
