"""Scalar special functions, Hermite polynomials, and the Gaussian-weight quadrature rule.

Everything here is a pure function of its inputs; the rest of the package is
built on top of these primitives.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc, gammainccinv, ndtri

__all__ = [
    "GAUSS_HALVING",
    "GAUSS_NODES",
    "GAUSS_WEIGHTS",
    "MAX_HERMITE_ORDER",
    "PROB_CLAMP_LO",
    "PROB_CLAMP_HI",
    "chisq_inv_sf",
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

def _chisq_isf(p, d: float):
    """Upper-tail chi-square quantile for one d, without input checks.

    This is the package's one summand map T = F_d^{-1}(1 - P): the statistic,
    the covariance-series integrands and the null simulation all call it.
    d = 1 and d = 2 use the closed forms (Phi^{-1}(p/2))^2 and -2 log p, other
    d the regularized incomplete-gamma inverse. p = 1 maps to 0.
    """
    if d == 1.0:
        return ndtri(0.5 * p) ** 2
    if d == 2.0:
        return -2.0 * np.log(p) + 0.0  # + 0.0: T = 0, not -0, at p = 1
    return 2.0 * gammainccinv(d / 2.0, p)


def chisq_inv_sf(p, d: float):
    """Upper-tail chi-square quantile, i.e. x with P(X > x) = p; tail-accurate for tiny p."""
    if d <= 0:
        raise ValueError("degrees of freedom must be > 0")
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("probability must lie in (0, 1]")
    return _chisq_isf(p, float(d))


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
