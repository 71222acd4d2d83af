"""Reference computations the benchmark checks the program's outputs against.

Everything here is computed apart from the program: exact chi-square tails,
bivariate-normal orthant probabilities by 1-D quadrature, the Cauchy closed
form and an eigenvalue clip-and-rescale. Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
from scipy import integrate, special, stats

# gb and hyb are exact under sigma = I (a gamma with shape sum(d)/2, scale 2);
# the tolerance only covers floating-point rounding in the tail.
ORACLE_RTOL_EXACT = 1e-9
# q prices the same oracle through a certified absolute accuracy of 1e-9, so
# 1% relative is honest down to p = 1e-7; seeded oracle genes stay above 1e-6.
ORACLE_RTOL_Q = 1e-2
CC_RTOL = 1e-12
BOUND_RTOL = 1e-9  # slack on the quadrature bounds themselves
EIG_TOL = 1e-10
TRACE_RTOL = 1e-9
# hyb and q are two surrogates of one null; on null-drawn large panels they
# agree to this many log10 units (measured spread is below 0.05).
HYB_Q_LOG10_TOL = 0.25


def exact_fisher_statistic(z: np.ndarray) -> float:
    """T = sum -2 log P_i for two-sided P_i = 2 Phi(-|z_i|), from log_ndtr."""
    return float(np.sum(-2.0 * (np.log(2.0) + special.log_ndtr(-np.abs(z)))))


def rel_close(value: float, exact: float, rtol: float) -> bool:
    return abs(value - exact) <= rtol * abs(exact)


def check_oracle(res, z: np.ndarray, rtol: float) -> list[str]:
    """One p-value of the d = 2 statistic under sigma = I against chi2.sf(T, sum d)."""
    exact = float(stats.chi2.sf(exact_fisher_statistic(z), 2 * z.size))
    if not rel_close(res.pvalue, exact, rtol):
        return [f"p {res.pvalue:.6e} vs exact {exact:.6e} (rtol {rtol:g})"]
    return []


def check_statistic(res, z: np.ndarray) -> list[str]:
    t = exact_fisher_statistic(z)
    if not rel_close(res.statistic, t, 1e-12):
        return [f"statistic {res.statistic!r} != {t!r}"]
    return []


def check_unit_interval(name: str, p: float) -> list[str]:
    if not (np.isfinite(p) and 0.0 <= p <= 1.0):
        return [f"{name}: p-value {p!r} outside [0, 1]"]
    return []


def check_correlation(name: str, m: np.ndarray) -> list[str]:
    """Symmetric, unit diagonal, entries in [-1, 1], minimum eigenvalue >= -EIG_TOL."""
    m = np.asarray(m, dtype=float)
    errs = []
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return [f"{name}: not square"]
    if not np.array_equal(m, m.T):
        errs.append(f"{name}: not symmetric")
    if np.max(np.abs(np.diag(m) - 1.0)) > 1e-12:
        errs.append(f"{name}: diagonal not 1")
    if np.max(np.abs(m)) > 1.0 + 1e-12:
        errs.append(f"{name}: entry outside [-1, 1]")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -EIG_TOL:
        errs.append(f"{name}: minimum eigenvalue {lo:.3e}")
    return errs


def cauchy_pvalue(component_pvals) -> float:
    """Cauchy-combination p-value: arctan2(1, mean cot(pi P_j)) / pi."""
    pj = np.asarray(component_pvals, dtype=float)
    stat = float(np.mean(1.0 / np.tan(np.pi * pj)))
    return float(np.arctan2(1.0, stat) / np.pi)


def check_cc(cc) -> list[str]:
    want = cauchy_pvalue(cc.diagnostics["component_pvalues"])
    if not rel_close(cc.pvalue, want, CC_RTOL):
        return [f"cc: p {cc.pvalue:.6e} vs closed form {want:.6e}"]
    return []


def upper_orthant2(u: float, rho: float) -> float:
    """P(Z1 > u, Z2 > u) for a standard bivariate normal with correlation rho.

    Integrates phi(x) Q((u - rho x) / sqrt(1 - rho^2)) over x > u.
    """
    if rho >= 1.0 - 1e-14:
        return float(special.ndtr(-u))
    s = np.sqrt(1.0 - rho * rho)

    def f(x: float) -> float:
        return float(np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi) * special.ndtr((rho * x - u) / s))

    hi = max(u, 0.0) + 40.0
    # the integrand's mass sits within a few units of u (and of u / rho)
    pts = sorted({u + 1.0, u + 4.0} | ({u / rho} if rho > 0 and u / rho < hi else set()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, u, hi, points=[p for p in pts if u < p < hi],
                                epsabs=0.0, epsrel=1e-12, limit=400)
    return float(val)


def minp_bounds(minp: float, corr: np.ndarray) -> tuple[float, float]:
    """Bounds on P(max_j Z_j > u), u the upper quantile of ``minp``, Z ~ N(0, corr).

    Lower: the largest pairwise-union probability. Upper: Hunter-Worsley,
    the marginal sum minus the intersections on a maximum spanning tree.
    """
    m = corr.shape[0]
    u = -float(special.ndtri(min(max(minp, 1e-300), 1.0 - 1e-16)))
    marg = float(special.ndtr(-u))
    if m == 1:
        return marg, marg
    inter = {}
    for i, j in itertools.combinations(range(m), 2):
        inter[i, j] = upper_orthant2(u, float(corr[i, j]))
    lower = max(2.0 * marg - v for v in inter.values())
    # Kruskal on descending intersection probability
    parent = list(range(m))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = 0.0
    for (i, j), v in sorted(inter.items(), key=lambda kv: -kv[1]):
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[ri] = rj
            tree += v
    upper = min(m * marg - tree, 1.0)
    return lower, upper


def check_minp(mp, corr: np.ndarray) -> list[str]:
    """The minp p-value lies in [pairwise-union, Hunter-Worsley] widened by rect_error."""
    pj = np.asarray(mp.diagnostics["component_pvalues"], dtype=float)
    lower, upper = minp_bounds(float(pj.min()), np.asarray(corr, dtype=float))
    err = float(mp.diagnostics.get("rect_error", 0.0))
    lo = lower * (1.0 - BOUND_RTOL) - err
    hi = upper * (1.0 + BOUND_RTOL) + err
    if not lo <= mp.pvalue <= hi:
        return [
            f"minp: p {mp.pvalue:.6e} outside [{lower:.6e}, {upper:.6e}] "
            f"widened by rect_error {err:.3e}"
        ]
    return []


def clip_rescale(a: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero and rescale back to a unit diagonal."""
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    x = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    d = np.sqrt(np.diag(x))
    return x / np.outer(d, d)


def surrogate_m_raw(cov_t: np.ndarray, degrees: np.ndarray, sigma: np.ndarray, cap: float) -> np.ndarray:
    """The surrogate correlation before repair, from its defining formula."""
    dmin = np.minimum.outer(degrees, degrees)
    m = np.sign(sigma) * np.minimum(np.sqrt(np.maximum(cov_t, 0.0) / (2.0 * dmin)), cap)
    np.fill_diagonal(m, 1.0)
    return 0.5 * (m + m.T)


def check_repair(raw: np.ndarray, repaired: np.ndarray) -> list[str]:
    """A repaired matrix is a correlation matrix no farther from ``raw`` than clip-and-rescale."""
    errs = check_correlation("repaired M", repaired)
    mine = np.linalg.norm(clip_rescale(raw) - raw, "fro")
    theirs = np.linalg.norm(repaired - raw, "fro")
    if theirs > mine * (1.0 + 1e-9):
        errs.append(f"repaired M: distance {theirs:.6e} > clip-and-rescale {mine:.6e}")
    return errs
