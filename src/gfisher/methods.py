"""Unified p-value computation across all approximation methods.

A method is fitted once per (definition, correlation matrix) into a
``NullApprox`` whose vectorized survival function prices any number of
observed statistic values; this is what the simulation harness streams
against. ``NullApprox.pvalue`` is the one place a fitted method becomes a
p-value result, and ``compute_pvalue`` is the one-shot wrapper around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dependence, qform, surrogates
from .kernels import PROB_CLAMP_LO, gamma_sf
from .statistic import GFisherDef, InputPanel, PValueResult, evaluate, to_pvalues
from .surrogates import MomentSummary

__all__ = ["METHODS", "NullApprox", "compute_pvalue", "default_method", "fit_null"]

METHODS = ("gb", "mr", "q", "hyb", "ggd123", "ggd234", "ggdmr")

_NEEDS_MOMENTS = {"mr": "skewness/kurtosis", "ggd123": "skewness", "ggd234": "skewness/kurtosis", "ggdmr": "skewness/kurtosis"}


@dataclass
class NullApprox:
    """A fitted null approximation: evaluate ``survival`` at observed values.

    ``inversion`` (q only) prices one value with its certified error bound,
    which ``pvalue`` reports next to the p-value.
    """

    method: str
    gdef: GFisherDef
    survival: Callable[[np.ndarray], np.ndarray]
    diagnostics: dict = field(default_factory=dict)
    inversion: Callable[[float], qform.CdfOutcome] | None = None

    def pvalue(self, t_obs: float) -> PValueResult:
        diag = dict(self.diagnostics)
        if self.inversion is None:
            p = float(np.asarray(self.survival(np.asarray([t_obs], dtype=float)))[0])
        else:
            out = self.inversion(float(t_obs))
            p = out.value
            diag.update({"qf_error_bound": out.error_bound, "qf_converged": out.converged, "qf_method": out.method})
        return PValueResult(p, float(t_obs), self.method, side=self.gdef.side, diagnostics=diag)


def _gamma_survival(shape: float, mu: float, sd: float) -> Callable[[np.ndarray], np.ndarray]:
    def surv(t: np.ndarray) -> np.ndarray:
        # gamma_sf is exactly 1 at a nonpositive argument and NaN at a NaN one
        return gamma_sf((np.asarray(t, dtype=float) - mu) / sd * np.sqrt(shape) + shape, shape)

    return surv


def default_method(gdef: GFisherDef) -> str:
    """The method used when none is named: hyb where the quadratic-form surrogate
    covers the definition (two-sided input, integer degrees), else mr."""
    return "hyb" if gdef.side == "two" and gdef.has_integer_degrees else "mr"


def _check(gdef: GFisherDef, method: str | None, moments: MomentSummary | None) -> str:
    """The lowercased method (``default_method`` for None), after checking that
    it can be fitted for this definition."""
    method = default_method(gdef) if method is None else method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in ("q", "hyb"):
        qform._require_two_sided_integer(gdef)
    if method in _NEEDS_MOMENTS and moments is None:
        raise ValueError(
            f"method {method!r} needs a MomentSummary with {_NEEDS_MOMENTS[method]} "
            "(e.g. from harness.empirical_moments or qform.hybrid_moments)"
        )
    return method


def fit_null(
    gdef: GFisherDef,
    sigma,
    method: str | None = None,
    *,
    kstar: int = dependence.DEFAULT_KSTAR,
    moments: MomentSummary | None = None,
    qf_acc: float = qform.DEFAULT_QF_ACC,
) -> NullApprox:
    """Fit one approximation method (``default_method`` when None) for a
    statistic under a correlation matrix.

    ``moments`` supplies skewness/kurtosis (and overrides mean/variance) for
    the methods that need them: required for mr/ggd123/ggd234/ggdmr. The
    q and hyb methods are restricted to two-sided inputs with integer
    degrees of freedom, which is checked before the covariance series.
    """
    method = _check(gdef, method, moments)
    covs, last_terms, _ = dependence.cov_series([gdef], sigma, kstar)
    return _fit(gdef, sigma, method, covs[0], last_terms[0], kstar, moments, qf_acc)


def _fit(gdef, sigma, method: str, cov, last_term: float, kstar: int, moments, qf_acc: float) -> NullApprox:
    """Fit a checked method on the summand covariance matrix of the caller's series pass.

    q and hyb first reduce the surrogate correlation M to its spectrum; gb, mr
    and hyb then price a gamma fitted to a ``MomentSummary``, and the ggd
    variants a generalized gamma.
    """
    diag: dict = {"kstar": kstar, "cov_last_term": last_term}
    if method in ("q", "hyb"):
        sc = qform.build_m(gdef, sigma, cov)
        spec = qform.eigen_spec(gdef, sc)
        diag.update(
            {
                "m_clamp_count": sc.clamp_count,
                "m_repaired": sc.repair_applied,
                "eigen_count": int(spec.lambdas.size),
                "trace": spec.trace,
                "trace_target": gdef.mean,
                "dropped_eigen_mass": spec.dropped_mass,
            }
        )

    if method == "q":
        diag["qf_acc"] = qf_acc

        def inversion(x: float) -> qform.CdfOutcome:
            return qform.qform_sf(spec, x, qf_acc)

        def surv(t: np.ndarray) -> np.ndarray:
            return np.array([inversion(x).value for x in np.atleast_1d(np.asarray(t, dtype=float))])

        return NullApprox(method, gdef, surv, diag, inversion)

    if method in ("gb", "mr", "hyb"):
        var = float(gdef.weights @ cov @ gdef.weights)  # the series variance
        if method == "hyb":  # mr on the surrogate's skewness and kurtosis, with the exact mean
            q = qform.hybrid_moments(spec)
            m = MomentSummary(gdef.mean, var, q.skew, q.exkurt, source="qsurrogate")
        else:
            m = moments or MomentSummary(gdef.mean, var)
        sur = surrogates.fit_gb(m) if method == "gb" else surrogates.fit_mr(m)
        diag.update({"shape": sur.shape, "moment_source": m.source})
        if method != "gb":
            diag["mr_fallback_gb"] = sur.degenerate_fallback
        return NullApprox(method, gdef, _gamma_survival(sur.shape, m.mu, m.sd), diag)

    sur = surrogates.fit_ggd(moments, method)  # raises NoSolutionError when unsolved
    diag.update(
        {
            "params": [sur.shape, sur.scale, sur.power, sur.loc],
            "fit_residual": sur.residual,
            "moment_source": moments.source,
        }
    )

    def surv_ggd(t: np.ndarray) -> np.ndarray:
        return np.asarray(
            surrogates.ggd_sf(np.asarray(t, dtype=float), sur.shape, sur.scale, sur.power, sur.loc)
        )

    return NullApprox(method, gdef, surv_ggd, diag)


def compute_pvalue(
    gdef: GFisherDef,
    sigma,
    values,
    kind: str = "z",
    method: str | None = None,
    *,
    kstar: int = dependence.DEFAULT_KSTAR,
    moments: MomentSummary | None = None,
    qf_acc: float = qform.DEFAULT_QF_ACC,
) -> PValueResult:
    """One-shot p-value: inputs -> p-values -> statistic -> ``fit_null(...).pvalue``."""
    panel = values if isinstance(values, InputPanel) else InputPanel(values, kind=kind)
    pvals = to_pvalues(panel, gdef.side)
    n_clamped = int(np.count_nonzero(pvals < PROB_CLAMP_LO))  # the transform clamps these up
    t_obs = evaluate(gdef, pvals)
    result = fit_null(gdef, sigma, method, kstar=kstar, moments=moments, qf_acc=qf_acc).pvalue(t_obs)
    result.diagnostics["clamped_inputs"] = n_clamped
    return result
