"""Accurate p-values for weighted inverse-chi-square combination tests under dependence.

Combine per-test p-values (or z-scores) with arbitrary weights and degrees of
freedom, computing the combined test's p-value under a known or estimated
correlation matrix of the inputs. Approximation methods: two-moment gamma
(gb), moment-ratio gamma (mr), the quadratic-form surrogate (q), its hybrid
with moment-ratio matching (hyb), and generalized-gamma variants (ggd123,
ggd234, ggdmr). Omnibus tests over several weighting schemes are provided via
the minimum p-value and the Cauchy combination.
"""

from .dependence import CorrMatrix, cov_matrix, gen_structure
from .harness import SimConfig, empirical_moments, empirical_tie, survival_compare
from .methods import METHODS, compute_pvalue, fit_null
from .omnibus import build_panel, component_pvalues, omnibus_pvalues, pvalue_cc
from .qform import hybrid_moments
from .statistic import GFisherDef, InputPanel, PValueResult, evaluate, to_pvalues, transform
from .surrogates import (
    GammaSurrogate,
    GGDSurrogate,
    MomentSummary,
    NoSolutionError,
    fit_gb,
    fit_ggd,
    fit_mr,
)

__version__ = "0.1.0"

__all__ = [
    "CorrMatrix",
    "GFisherDef",
    "GGDSurrogate",
    "GammaSurrogate",
    "InputPanel",
    "METHODS",
    "MomentSummary",
    "NoSolutionError",
    "PValueResult",
    "SimConfig",
    "build_panel",
    "component_pvalues",
    "compute_pvalue",
    "cov_matrix",
    "empirical_moments",
    "empirical_tie",
    "evaluate",
    "fit_gb",
    "fit_ggd",
    "fit_mr",
    "fit_null",
    "gen_structure",
    "hybrid_moments",
    "omnibus_pvalues",
    "pvalue_cc",
    "survival_compare",
    "to_pvalues",
    "transform",
]
