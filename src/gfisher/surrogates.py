"""Gamma and generalized-gamma surrogate null distributions.

Two gamma fits are provided: matching the first two moments (the classic
Brown-style approach, shape a = mu^2 / var) and moment-ratio matching, where
the shape comes from the skewness / excess-kurtosis ratio, a = 9 g^2 /
(k - 3)^2, and the first two moments enter only through standardization of
the observed statistic. The generalized gamma adds a power parameter and is
fitted by numeric root-finding in three variants; the matching equations do
not always have a solution, which is reported as ``NoSolutionError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.special import gammaln

__all__ = [
    "GGDSurrogate",
    "GammaSurrogate",
    "MomentSummary",
    "NoSolutionError",
    "fit_gb",
    "fit_ggd",
    "fit_mr",
    "ggd_sf",
]

MomentSource = Literal["analytic", "empirical", "qsurrogate"]

# below this excess kurtosis the moment-ratio shape is numerically unstable;
# the fit falls back to the two-moment shape with a flag
MR_DEGENERATE_EPS = 1e-6


class NoSolutionError(RuntimeError):
    """Moment-matching equations have no attainable root.

    An expected outcome for generalized-gamma fits under some dependence
    structures; carries the best residual reached.
    """

    def __init__(self, message: str, residual: float | None = None, params=None):
        super().__init__(message)
        self.residual = residual
        self.params = params


@dataclass
class MomentSummary:
    """Null moments of a statistic: mean, variance, skewness, excess kurtosis."""

    mu: float
    var: float
    skew: float | None = None
    exkurt: float | None = None
    source: MomentSource = "analytic"

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError("mean must be finite")
        if not (np.isfinite(self.var) and self.var > 0):
            raise ValueError("variance must be finite and > 0")

    @property
    def sd(self) -> float:
        return float(np.sqrt(self.var))

    def require_shape_moments(self) -> None:
        if self.skew is None or self.exkurt is None:
            raise ValueError("skewness and excess kurtosis are required for this fit")

    def raw_moments(self) -> tuple[float, float, float]:
        """First three raw moments (needs skewness)."""
        if self.skew is None:
            raise ValueError("skewness is required to form the third raw moment")
        m1 = self.mu
        m2 = self.var + m1**2
        m3 = self.skew * self.var**1.5 + 3.0 * m1 * self.var + m1**3
        return m1, m2, m3


@dataclass
class GammaSurrogate:
    """Gamma surrogate in standardized form; only the shape is identified.

    The scale is redundant: p-values are computed by standardizing the
    observed statistic with the target's mean and standard deviation, then
    evaluating the unit-scale gamma survival at sqrt(a) z + a.
    """

    shape: float
    degenerate_fallback: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ValueError("gamma shape must be finite and > 0")


def fit_gb(m: MomentSummary) -> GammaSurrogate:
    """Two-moment gamma fit: shape a = mu^2 / var."""
    if m.mu <= 0:
        raise ValueError("two-moment gamma fit requires a positive mean")
    return GammaSurrogate(shape=m.mu**2 / m.var)


def fit_mr(m: MomentSummary) -> GammaSurrogate:
    """Moment-ratio gamma fit: shape a = 9 skew^2 / exkurt^2.

    Invariant to location-scale changes of the target. Degenerate targets
    (non-positive skewness or vanishing excess kurtosis, which do not occur
    for the combination-statistic nulls this package targets) fall back to
    the two-moment shape with ``degenerate_fallback`` set.
    """
    m.require_shape_moments()
    skew, exkurt = float(m.skew), float(m.exkurt)
    if skew <= 0 or abs(exkurt) < MR_DEGENERATE_EPS or exkurt <= 0:
        return GammaSurrogate(shape=m.mu**2 / m.var, degenerate_fallback=True)
    return GammaSurrogate(shape=9.0 * skew**2 / exkurt**2)


# ---------------------------------------------------------------------------
# Generalized gamma
# ---------------------------------------------------------------------------

GGD_POWER_LO = 0.05
GGD_POWER_HI = 20.0
GGD_RESID_TOL = 1e-8
GGD_ITER_BUDGET = 200


@dataclass
class GGDSurrogate:
    """Generalized gamma with shape a, scale theta, power p, and location c.

    Density (c = 0): f(x) = p / (theta^a Gamma(a/p)) x^{a-1} exp(-(x/theta)^p).
    """

    shape: float
    scale: float
    power: float
    loc: float = 0.0
    residual: float = 0.0

    def __post_init__(self):
        if min(self.shape, self.scale, self.power) <= 0:
            raise ValueError("shape, scale, and power must all be > 0")


def ggd_sf(x, shape: float, scale: float, power: float, loc: float = 0.0):
    """Survival function, tail-accurate."""
    from scipy.special import gammaincc

    y = np.maximum(np.asarray(x, dtype=float) - loc, 0.0)
    return gammaincc(shape / power, (y / scale) ** power)


def _log_norm_moment(a: float, p: float, k: int) -> float:
    # log E (X/theta)^k
    return gammaln((a + k) / p) - gammaln(a / p)


def _central_stats(a: float, p: float) -> tuple[float, float, float, float]:
    """mean, sd, skewness, excess kurtosis of GGD(a, 1, p)."""
    logs = [_log_norm_moment(a, p, k) for k in range(1, 5)]
    if not np.all(np.isfinite(logs)):
        return np.nan, np.nan, np.nan, np.nan
    # work relative to m1^k to avoid overflow for extreme (a, p)
    r2 = np.exp(logs[1] - 2 * logs[0])
    r3 = np.exp(logs[2] - 3 * logs[0])
    r4 = np.exp(logs[3] - 4 * logs[0])
    m1 = np.exp(logs[0])
    var_n = r2 - 1.0  # var / m1^2
    if not np.isfinite(var_n) or var_n <= 0:
        return m1, np.nan, np.nan, np.nan
    mu3_n = r3 - 3.0 * r2 + 2.0
    mu4_n = r4 - 4.0 * r3 + 6.0 * r2 - 3.0
    sd_n = np.sqrt(var_n)
    return m1, m1 * sd_n, mu3_n / sd_n**3, mu4_n / var_n**2 - 3.0


def _newton2(f, x0, budget: int):
    """Damped Newton with numeric Jacobian on a 2-D system; returns (x, resid, used)."""
    x = np.asarray(x0, dtype=float)
    used = 0
    fx = np.asarray(f(x))
    while used < budget:
        if not np.all(np.isfinite(fx)):
            return x, np.inf, used
        resid = float(np.max(np.abs(fx)))
        if resid < 1e-12:
            return x, resid, used
        jac = np.empty((2, 2))
        h = 1e-6
        for j in range(2):
            xp = x.copy()
            xp[j] += h
            fp = np.asarray(f(xp))
            if not np.all(np.isfinite(fp)):
                return x, resid, used
            jac[:, j] = (fp - fx) / h
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            return x, resid, used
        lam = 1.0
        improved = False
        while lam > 1e-8:
            xn = x + lam * step
            fn = np.asarray(f(xn))
            if np.all(np.isfinite(fn)) and np.max(np.abs(fn)) < resid:
                x, fx = xn, fn
                improved = True
                break
            lam *= 0.5
        used += 1
        if not improved:
            return x, resid, used
    return x, float(np.max(np.abs(fx))), used


def _solve_ap(f) -> tuple[np.ndarray, float]:
    """Multistart damped Newton over (log a, log p) within the power bracket."""
    starts_p = (1.0, 0.5, 2.0, 0.2, 5.0, 0.1, 10.0)
    starts_a = (1.0, 0.3, 3.0, 10.0)
    best_x, best_r = None, np.inf
    used_total = 0
    for p0 in starts_p:
        for a0 in starts_a:
            remaining = GGD_ITER_BUDGET - used_total
            if remaining <= 0:
                return best_x, best_r
            x, r, used = _newton2(f, [np.log(a0), np.log(p0)], remaining)
            used_total += max(used, 1)
            if r < best_r:
                best_x, best_r = x, r
            if best_r < 1e-11:
                return best_x, best_r
    return best_x, best_r


def _bracket_guard(a: float, p: float) -> bool:
    return 1e-8 < a < 1e8 and GGD_POWER_LO <= p <= GGD_POWER_HI


def fit_ggd(m: MomentSummary, variant: Literal["ggd123", "ggd234", "ggdmr"] = "ggd123") -> GGDSurrogate:
    """Fit a generalized gamma by one of three matching rules, named by method tag.

    ggd123: first three raw moments (location fixed at 0).
    ggd234: variance, skewness, kurtosis, then location c = mu_T - mu_fit.
    ggdmr:  mean, standard deviation, and the skewness / excess-kurtosis ratio.

    The scale is eliminated through scale-free ratios, leaving a 2-D system in
    (shape, power) solved by damped Newton with multistart; raises
    ``NoSolutionError`` when no root reaches the residual tolerance.
    """
    variant = variant.lower()
    if variant == "ggd123":
        m1, m2, m3 = m.raw_moments()
        if min(m1, m2, m3) <= 0:
            raise ValueError("raw moments must be positive")
        targ2, targ3 = m2 / m1**2, m3 / m1**3

        def eqs(a, p):
            l1 = _log_norm_moment(a, p, 1)
            r2 = np.exp(_log_norm_moment(a, p, 2) - 2 * l1)
            r3 = np.exp(_log_norm_moment(a, p, 3) - 3 * l1)
            return np.array([r2 / targ2 - 1.0, r3 / targ3 - 1.0])

        def scale_loc(a, p):
            return m1 / np.exp(_log_norm_moment(a, p, 1)), 0.0

    elif variant == "ggd234":
        m.require_shape_moments()
        skew_t, exk_t = float(m.skew), float(m.exkurt)

        def eqs(a, p):
            _, _, sk, ek = _central_stats(a, p)
            return np.array([sk - skew_t, ek - exk_t])

        def scale_loc(a, p):
            m1n, sdn, _, _ = _central_stats(a, p)
            theta = m.sd / sdn
            return theta, m.mu - theta * m1n

    elif variant == "ggdmr":
        m.require_shape_moments()
        if abs(float(m.exkurt)) < MR_DEGENERATE_EPS:
            raise NoSolutionError("moment-ratio target is degenerate (excess kurtosis ~ 0)")
        ratio_t = float(m.skew) / float(m.exkurt)
        musd_t = m.mu / m.sd

        def eqs(a, p):
            m1n, sdn, sk, ek = _central_stats(a, p)
            if not np.isfinite(sdn) or abs(ek) < 1e-14:
                return np.array([np.inf, np.inf])
            return np.array([sk / ek - ratio_t, m1n / sdn - musd_t])

        def scale_loc(a, p):
            _, sdn, _, _ = _central_stats(a, p)
            return m.sd / sdn, 0.0

    else:
        raise ValueError(f"unknown GGD variant {variant!r}")

    def bracketed(x):
        a, p = np.exp(np.minimum(x, 60.0))
        if not _bracket_guard(a, p):
            return np.array([np.inf, np.inf])
        return eqs(a, p)

    x, resid = _solve_ap(bracketed)
    if x is None or resid > GGD_RESID_TOL:
        raise NoSolutionError(f"{variant} moment equations unsolved (residual {resid:.3e})", resid)
    a, p = np.exp(x)
    theta, loc = scale_loc(a, p)
    return GGDSurrogate(a, theta, p, loc, resid)
