"""Omnibus tests over multiple weighting schemes: minimum-p and Cauchy combination.

The component statistics T(1)..T(m) share one input panel and are treated as
jointly normal with the exact cross covariances; the minimum-p omnibus
p-value is one minus a multivariate-normal rectangle probability. For m <= 3
it is a deterministic one-dimensional integral (Plackett's identity along the
path tR), taken with the fixed tanh-sinh rule whose halving estimate is the
reported ``rect_error``; for m >= 4 it is randomized quasi-Monte Carlo. The
Cauchy combination has a closed-form tail that is essentially free of the
cross correlations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from . import dependence, methods, qform
from .kernels import PROB_CLAMP_HI, PROB_CLAMP_LO, UNIT_COMPLEMENTS, UNIT_HALVING, UNIT_NODES, UNIT_WEIGHTS
from .statistic import GFisherDef, InputPanel, PValueResult, evaluate, to_pvalues, z_to_pvalues
from .surrogates import MomentSummary

__all__ = [
    "OmnibusPanel",
    "build_panel",
    "component_pvalues",
    "mvn_rect_prob",
    "omnibus_pvalues",
    "pvalue_cc",
]

MINP_DEFAULT_TOL = 1e-4
MINP_MAX_POINTS = 10_000_000
MINP_BATCHES = 24  # scrambled Sobol batches behind each rectangle error estimate
# Identical definitions correlate to 1 within 4 ulps either side; within 16
# ulps, two components count as one in the min-p union.
SAME_CORR = 1.0 - 2.0**-49


@dataclass
class OmnibusPanel:
    """Fitted component methods plus the correlation of the component statistics."""

    fitted: list[methods.NullApprox]
    corr: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def defs(self) -> list[GFisherDef]:
        return [null.gdef for null in self.fitted]

    @property
    def method_tags(self) -> list[str]:
        return [null.method for null in self.fitted]

    @property
    def m(self) -> int:
        return len(self.fitted)

    @property
    def side(self) -> str:
        return self.fitted[0].gdef.side


def build_panel(
    defs: Sequence[GFisherDef],
    sigma,
    method: str | None = None,
    *,
    kstar: int = dependence.DEFAULT_KSTAR,
    moments: Sequence[MomentSummary | None] | None = None,
    qf_acc: float = qform.DEFAULT_QF_ACC,
) -> OmnibusPanel:
    """Validate the definitions, fit each component, and correlate the component statistics.

    Every component is fitted with ``method``, or with its own
    ``methods.default_method`` when None.
    """
    defs = list(defs)
    if not defs:
        raise ValueError("need at least one statistic definition")
    if moments is None:
        moments = [None] * len(defs)
    if len(moments) != len(defs):
        raise ValueError("one moment summary (or None) per definition required")

    tags = [methods._check(g, method, mom) for g, mom in zip(defs, moments)]
    covs, last_terms, omega = dependence.cov_series(defs, sigma, kstar, cross=True)
    fitted = [
        methods._fit(g, sigma, tag, cov, last, kstar, mom, qf_acc)
        for g, tag, cov, last, mom in zip(defs, tags, covs, last_terms, moments)
    ]
    scale = 1.0 / np.sqrt(np.diag(omega))
    corr = omega * np.outer(scale, scale)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    diag: dict = {"kstar": kstar}
    if np.linalg.eigvalsh(corr)[0] < -1e-10:
        corr = dependence.nearest_correlation(corr)
        diag["corr_repaired"] = True
    return OmnibusPanel(fitted, corr, diag)


def component_pvalues(panel: OmnibusPanel, values, kind: str = "z") -> np.ndarray:
    """P(j) for each component statistic: shape (m,) for one input panel, (reps, m)
    for a batch of panels given as a (reps, n) array of z-scores or p-values."""
    if isinstance(values, InputPanel) or np.ndim(values) < 2:
        inp = values if isinstance(values, InputPanel) else InputPanel(values, kind=kind)
        pvals = to_pvalues(inp, panel.side)
    else:
        v = np.asarray(values, dtype=float)
        pvals = z_to_pvalues(v, panel.side) if kind == "z" else v
    out = np.column_stack(
        [np.asarray(null.survival(np.atleast_1d(evaluate(null.gdef, pvals)))) for null in panel.fitted]
    )
    return out[0] if pvals.ndim == 1 else out


# ---------------------------------------------------------------------------
# Cauchy combination
# ---------------------------------------------------------------------------


def cc_statistic(pj: np.ndarray) -> np.ndarray:
    """Mean over the last axis of tan((1/2 - P(j)) pi), computed as cot(pi P(j)) for stability."""
    return np.mean(1.0 / np.tan(np.pi * pj), axis=-1)


def cauchy_sf(x) -> np.ndarray:
    """Standard Cauchy survival 1/2 - arctan(x)/pi, elementwise and accurate in both tails."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        inv = 1.0 / x  # used only where |x| > 1
    upper = np.arctan(inv) / np.pi
    lower = 1.0 - np.arctan(-inv) / np.pi
    return np.where(x > 1.0, upper, np.where(x < -1.0, lower, 0.5 - np.arctan(x) / np.pi))


def cauchy_combination(pj) -> tuple[np.ndarray, np.ndarray]:
    """The Cauchy statistic over the last axis of component p-values, clamped
    into the open unit interval, and its p-value: one value per panel of a batch."""
    stat = cc_statistic(np.clip(pj, PROB_CLAMP_LO, PROB_CLAMP_HI))
    return stat, cauchy_sf(stat)


def pvalue_cc(component_pvals) -> PValueResult:
    """Cauchy-combination omnibus p-value from the component p-values.

    The statistic is the equal-weight mean of inverse-Cauchy transforms; its
    null tail is standard Cauchy, p = 1/2 - arctan(ccp) / pi.
    """
    pj = np.atleast_1d(np.asarray(component_pvals, dtype=float))
    clamped = int(np.count_nonzero((pj <= 0.0) | (pj >= 1.0)))
    stat, p = cauchy_combination(pj)
    pj = np.clip(pj, PROB_CLAMP_LO, PROB_CLAMP_HI)  # as the statistic saw them
    diag = {"component_pvalues": pj.tolist(), "clamped_components": clamped}
    return PValueResult(float(p), float(stat), "omnibus_cc", diagnostics=diag)


# ---------------------------------------------------------------------------
# Minimum p-value
# ---------------------------------------------------------------------------


def mvn_rect_prob(
    upper,
    corr,
    *,
    abs_tol: float = MINP_DEFAULT_TOL,
    seed: int = 0,
) -> tuple[float, float]:
    """P(Z <= upper) for Z ~ N(0, corr) by randomized quasi-Monte Carlo.

    Sequential conditioning through the Cholesky factor maps the rectangle to
    the unit cube. ``MINP_BATCHES`` scrambled Sobol engines are built once per
    call and each round doubles every engine's points (1024 at first), so each
    batch is the first 2^k points of its sequence. Returns the mean of the batch
    means and 3.5 x their standard error once that meets ``abs_tol`` or the
    points drawn reach ``MINP_MAX_POINTS``; deterministic for a fixed seed.
    """
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    m = upper.size
    if m == 1:
        return float(ndtr(upper[0])), 0.0
    a = np.asarray(corr, dtype=float)
    if a.shape != (m, m):
        raise ValueError("correlation matrix shape must match the bound vector")
    chol = None
    for eps in (0.0, 1e-12, 1e-10, 1e-8, 1e-6):
        try:
            chol = np.linalg.cholesky((1.0 - eps) * a + eps * np.eye(m))
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise ValueError("correlation matrix is not positive semidefinite after repair")

    rng = np.random.default_rng(seed)
    engines = [qmc.Sobol(d=m - 1, scramble=True, seed=rng) for _ in range(MINP_BATCHES)]
    sums = np.zeros(MINP_BATCHES)
    drawn, n_new = 0, 1 << 10
    while True:
        for b, sob in enumerate(engines):
            u = sob.random(n_new)
            f = np.full(n_new, ndtr(upper[0] / chol[0, 0]))
            e_prev = f.copy()
            y = np.zeros((n_new, m - 1))
            for i in range(1, m):
                y[:, i - 1] = ndtri(np.clip(u[:, i - 1] * e_prev, 1e-16, 1.0 - 1e-16))
                e_prev = ndtr((upper[i] - y[:, :i] @ chol[i, :i]) / chol[i, i])
                f *= e_prev
            sums[b] += f.sum()
        drawn += n_new
        batch_means = sums / drawn
        est = float(batch_means.mean())
        err = float(3.5 * batch_means.std(ddof=1) / np.sqrt(MINP_BATCHES))
        if err <= abs_tol or MINP_BATCHES * drawn >= MINP_MAX_POINTS:
            return est, err
        n_new = drawn


def _union_prob(q: float, corr) -> tuple[float, float]:
    """P(max_j Z_j > h) for Z ~ N(0, corr), m <= 3 and h = Q^{-1}(q), with the halving estimate.

    Plackett's identity along the path tR (Plackett 1954; Genz 2004):
    1 - P(Z <= h) = 1 - (1 - q)^m - int_0^1 sum_{i<j} rho_ij phi2(h, h; t rho_ij)
    Phi((h - mu_k) / sigma_k) dt, with k the third component (the Phi factor is 1
    at m = 2), mu_k = h t (rho_ik + rho_jk) / (1 + t rho_ij) and sigma_k^2 =
    det(I + t (R - I)) / (1 - t^2 rho_ij^2), taken with the unit-interval
    tanh-sinh rule. Each factor that vanishes at t = 1 when R is singular is
    written through the node complement s = 1 - t, which no node rounds away:
    1 - t rho = (1 - rho) + rho s; h - mu_k = h (e t + s) / (1 + t rho_ij) with
    e = (1 - rho_ik) + (1 - rho_jk) - (1 - rho_ij); the determinant is
    prod_i (t lambda_i + s) over R's eigenvalues. A component whose correlation
    with an earlier one is within ``SAME_CORR`` of 1 is that component (the
    union is then the reduced panel's) and is dropped.
    """
    r = np.clip(np.asarray(corr, dtype=float), -1.0, 1.0)
    keep = [j for j in range(r.shape[0]) if not np.any(r[:j, j] >= SAME_CORR)]
    r = r[np.ix_(keep, keep)]
    m = r.shape[0]
    h = -float(ndtri(q))
    t, s = UNIT_NODES, UNIT_COMPLEMENTS
    if m == 3:
        lam = np.maximum(np.linalg.eigvalsh(r), 0.0)
        det = (t * lam[0] + s) * (t * lam[1] + s) * (t * lam[2] + s)
    f = np.zeros_like(t)
    for i in range(m):
        for j in range(i + 1, m):
            rho = r[i, j]
            one_minus, one_plus = (1.0 - rho) + rho * s, (1.0 + rho) - rho * s
            g = rho * np.exp(-h * h / one_plus) / (2.0 * np.pi * np.sqrt(one_minus * one_plus))
            if m == 3:
                k = 3 - i - j
                e = (1.0 - r[i, k]) + (1.0 - r[j, k]) - (1.0 - rho)
                sigma = np.sqrt(np.maximum(det / (one_minus * one_plus), 1e-300))
                g *= ndtr(h * (e * t + s) / one_plus / sigma)
            f += g
    return float(-np.expm1(m * np.log1p(-q)) - UNIT_WEIGHTS @ f), float(abs(UNIT_HALVING @ f))


def minp_from_components(
    panel: OmnibusPanel,
    component_pvals,
    *,
    abs_tol: float = MINP_DEFAULT_TOL,
    seed: int = 0,
) -> PValueResult:
    """The minimum-p omnibus p-value P(min_j P(j) <= min_j p_j) under the panel's correlation.

    For m <= 3 this is ``_union_prob``, deterministic, with its halving
    estimate as ``rect_error``; for m >= 4 it is one minus ``mvn_rect_prob``
    at ``abs_tol`` and ``seed``. The result is kept in [min_j p_j, 1], the
    union's own bounds.
    """
    pj = np.atleast_1d(np.asarray(component_pvals, dtype=float))
    if pj.size != panel.m:
        raise ValueError(f"need one p-value per component ({panel.m}), got {pj.size}")
    minp_o = float(pj.min())
    diag: dict = {"component_pvalues": pj.tolist()}
    if panel.m == 1:
        return PValueResult(minp_o, minp_o, "omnibus_minp", diagnostics=diag)
    minp_c = min(max(minp_o, PROB_CLAMP_LO), PROB_CLAMP_HI)
    if panel.m <= 3:
        p, err = _union_prob(minp_c, panel.corr)
        rect = 1.0 - p
    else:
        upper = np.full(panel.m, -ndtri(minp_c))  # upper-tail quantile of minp_o
        rect, err = mvn_rect_prob(upper, panel.corr, abs_tol=abs_tol, seed=seed)
        p = 1.0 - rect
    diag.update({"rect_prob": rect, "rect_error": err, "m": panel.m})
    return PValueResult(min(max(p, minp_c), 1.0), minp_o, "omnibus_minp", diagnostics=diag)


def omnibus_pvalues(
    panel: OmnibusPanel,
    values,
    kind: str = "z",
    *,
    minp_tol: float = MINP_DEFAULT_TOL,
    seed: int = 0,
) -> dict:
    """Component p-values plus both omnibus p-values, as one report."""
    pj = component_pvalues(panel, values, kind)
    cc = pvalue_cc(pj)
    mp = minp_from_components(panel, pj, abs_tol=minp_tol, seed=seed)
    return {
        "component_pvalues": pj.tolist(),
        "methods": panel.method_tags,
        "cc": cc,
        "minp": mp,
    }
