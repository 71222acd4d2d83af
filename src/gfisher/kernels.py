"""Scalar special functions, Hermite polynomials, and Gaussian-weight quadrature.

Everything here is a pure function of its inputs; the rest of the package is
built on top of these primitives.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammaincc, gammainccinv, ndtri

__all__ = [
    "MAX_HERMITE_ORDER",
    "PROB_CLAMP_LO",
    "PROB_CLAMP_HI",
    "chisq_inv_sf",
    "gamma_sf",
    "hermite",
    "integrate_gauss_weight",
    "norm_phi",
]

# Hermite recurrences above this order are not needed anywhere in the package
# and start to deserve extended precision; refuse rather than degrade.
MAX_HERMITE_ORDER = 24

# The p -> T transform clamps probabilities from below at PROB_CLAMP_LO so
# that quantiles stay finite; Cauchy and min-p omnibus inputs are clamped into
# the closed interval. Callers surface clamping in diagnostics.
PROB_CLAMP_LO = 1e-300
PROB_CLAMP_HI = 1.0 - 1e-16

# Central panel boundary for Gaussian-weight quadrature; the tails beyond it
# are integrated separately on semi-infinite segments so that integrands of
# polynomial growth lose no mass.
GAUSS_CUTOFF = 8.0

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def norm_phi(z):
    """Standard normal density."""
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT_2PI


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


def integrate_gauss_weight(f, tol: float = 1e-10) -> float:
    """Adaptive quadrature of ``f(z) * phi(z)`` over the whole real line.

    Integrates a central panel split at zero (the two-sided transforms have a
    cusp there) plus the two semi-infinite tails, so integrands of polynomial
    growth keep their full mass. If the requested tolerance cannot be
    certified the achieved estimate is reported via a warning and the value
    is still returned.
    """

    def integrand(z):
        return f(z) * float(norm_phi(z))

    value = 0.0
    err = 0.0
    segments = (
        (-np.inf, -GAUSS_CUTOFF, None),
        (-GAUSS_CUTOFF, GAUSS_CUTOFF, [0.0]),
        (GAUSS_CUTOFF, np.inf, None),
    )
    with warnings.catch_warnings():
        # roundoff chatter from quad is superseded by the explicit check below
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi, pts in segments:
            v, e = quad(integrand, lo, hi, points=pts, limit=300, epsabs=tol / 3.0, epsrel=0.0)
            value += v
            err += e
    if err > 10.0 * max(tol, 1e-15):
        warnings.warn(
            f"gauss-weight quadrature reached error estimate {err:.3e} > tol {tol:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return value
