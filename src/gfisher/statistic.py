"""Statistic definitions and the weighted inverse-chi-square transform.

A combination statistic is T = sum_i w_i F_{d_i}^{-1}(1 - P_i), where F_d is
the chi-square CDF. Input p-values are either given directly or derived from
z-scores, one- or two-sided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.special import ndtr

from . import kernels

__all__ = [
    "GFisherDef",
    "InputPanel",
    "PValueResult",
    "Side",
    "evaluate",
    "to_pvalues",
    "transform",
    "validate_side",
    "z_to_pvalues",
]

Side = Literal["one", "two"]


def validate_side(side: str) -> Side:
    if side not in ("one", "two"):
        raise ValueError(f"side must be 'one' or 'two', got {side!r}")
    return side  # type: ignore[return-value]


@dataclass
class GFisherDef:
    """Degrees of freedom, weights, and input-p-value sidedness of one statistic.

    Weights are rescaled at construction so their mean is 1; the p-value of
    the statistic is invariant to a positive rescaling of all weights, so this
    only standardizes reported statistic values and moments.
    """

    degrees: np.ndarray
    weights: np.ndarray | None = None
    side: Side = "two"

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.degrees, dtype=float))
        if d.ndim != 1 or d.size == 0:
            raise ValueError("degrees must be a non-empty 1-D sequence")
        if np.any(~np.isfinite(d)) or np.any(d <= 0):
            raise ValueError("all degrees of freedom must be finite and > 0")
        if self.weights is None:
            w = np.ones_like(d)
        else:
            w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != d.shape:
            raise ValueError("degrees and weights must have the same length")
        if np.any(~np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        if not np.any(w > 0):
            raise ValueError("at least one weight must be positive")
        validate_side(self.side)
        self.degrees = d
        self.weights = w / w.mean()

    @property
    def n(self) -> int:
        return self.degrees.size

    @property
    def mean(self) -> float:
        """Null mean of the statistic, sum_i w_i d_i."""
        return float(np.dot(self.weights, self.degrees))

    @property
    def has_integer_degrees(self) -> bool:
        return bool(np.all(self.degrees == np.round(self.degrees)))

    @classmethod
    def fisher(cls, n: int, side: Side = "two") -> "GFisherDef":
        """Classic equal-weight combination with d_i = 2 for all i."""
        return cls(degrees=np.full(n, 2.0), side=side)


@dataclass
class InputPanel:
    """A vector of per-test inputs: z-scores or p-values."""

    values: np.ndarray
    kind: Literal["z", "p"] = "z"

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        if self.kind not in ("z", "p"):
            raise ValueError("kind must be 'z' or 'p'")
        if self.kind == "z":
            if np.any(~np.isfinite(v)):
                raise ValueError("z-scores must be finite")
        else:
            if np.any(~np.isfinite(v)) or np.any(v <= 0) or np.any(v > 1):
                raise ValueError("p-values must lie in (0, 1]")
        self.values = v


@dataclass
class PValueResult:
    """A p-value with its method tag and numerical diagnostics."""

    pvalue: float
    statistic: float | None
    method: str
    side: Side | None = None
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "pvalue": self.pvalue,
            "statistic": self.statistic,
            "method": self.method,
            "side": self.side,
            "diagnostics": _jsonable(self.diagnostics),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def to_pvalues(panel: InputPanel, side: Side) -> np.ndarray:
    """Per-test p-values from an input panel.

    One-sided: P = 1 - Phi(z). Two-sided: P = 2 Phi(-|z|). P-value panels pass
    through unchanged.
    """
    validate_side(side)
    if panel.kind == "p":
        return panel.values.copy()
    return z_to_pvalues(panel.values, side)


def z_to_pvalues(z, side: Side) -> np.ndarray:
    """P-values of z-scores, elementwise: 1 - Phi(z) one-sided, 2 Phi(-|z|) two-sided."""
    if side == "one":
        return ndtr(-z)
    return 2.0 * ndtr(-np.abs(z))


def transform(gdef: GFisherDef, pvalues) -> np.ndarray:
    """Transformed summands T_i = F_{d_i}^{-1}(1 - P_i) of a panel (n,) or a batch (reps, n).

    Strictly decreasing in each P_i and always >= 0, with T_i = 0 at P_i = 1.
    P_i below ``kernels.PROB_CLAMP_LO`` (0 included) is clamped up to it.
    """
    p = np.atleast_1d(np.asarray(pvalues, dtype=float))
    if p.shape[-1] != gdef.n:
        raise ValueError(f"expected {gdef.n} p-values, got {p.shape[-1]}")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1] (0 is clamped)")
    p = np.maximum(p, kernels.PROB_CLAMP_LO)
    if np.all(gdef.degrees == gdef.degrees[0]):  # one elementwise map: no column masks, no copies
        return kernels._chisq_isf(p, float(gdef.degrees[0]))
    out = np.empty_like(p)
    for d in np.unique(gdef.degrees):
        cols = gdef.degrees == d
        out[..., cols] = kernels._chisq_isf(p[..., cols], float(d))
    return out


def evaluate(gdef: GFisherDef, pvalues):
    """The statistic T = sum_i w_i T_i: a float for one panel (n,), an array
    of one value per row for a batch (reps, n)."""
    t = transform(gdef, pvalues)
    if t.ndim > 2:
        raise ValueError("evaluate expects a panel (n,) or a batch (reps, n)")
    out = np.einsum("...i,i->...", t, gdef.weights)  # a batch row sums exactly as its panel does
    return float(out) if t.ndim == 1 else out
