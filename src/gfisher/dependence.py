"""Covariances of transformed summands under correlated Gaussian inputs.

The covariance of two summands T_i, T_j expands as a series in the input
correlation: Cov(T_i, T_j) = sum_k sigma^k / k! * I_i(k) I_j(k), where I(k)
is a Hermite-coefficient integral of the inverse-chi-square transform. Only
n* x k* one-dimensional integrals are needed for an n x n covariance matrix,
where n* is the number of distinct degrees of freedom.

One pass (``cov_series``) serves every definition sharing a sigma: each order
raises sigma to the k-th power once for the covariance matrices, the
truncation diagnostic and the omnibus cross covariance. Odd orders, whose
coefficients are exact zeros for two-sided input, are skipped there.

Also provides the block correlation-structure generators used by the
simulation harness, CSV round-tripping for correlation matrices, and a
nearest-correlation repair (alternating projections).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from .kernels import PROB_CLAMP_LO, _chisq_isf, hermite, integrate_gauss_weight
from .statistic import GFisherDef, Side, validate_side, z_to_pvalues

__all__ = [
    "CorrMatrix",
    "CovSeries",
    "cov_matrix",
    "cov_series",
    "cov_summands",
    "cross_cov",
    "gen_structure",
    "hermite_coeff",
    "nearest_correlation",
    "transform_product_moment",
    "var_T",
]

DEFAULT_KSTAR = 8
QUAD_TOL = 1e-11

# ---------------------------------------------------------------------------
# Hermite-coefficient integrals
# ---------------------------------------------------------------------------


def _pvalue(z: float, side: str) -> float:
    # the input p-value of one z, clamped from below as ``statistic.transform`` clamps it
    return max(float(z_to_pvalues(z, side)), PROB_CLAMP_LO)


@lru_cache(maxsize=None)
def _hermite_coeff_cached(d: float, k: int, side: str, tol: float) -> float:
    return integrate_gauss_weight(lambda z: float(_chisq_isf(_pvalue(z, side), d)) * float(hermite(k, z)), tol)


def hermite_coeff(d: float, k: int, side: Side, tol: float = QUAD_TOL) -> float:
    """The k-th Hermite coefficient I(k) of the transform for one d.

    For two-sided inputs the transform is an even function of z, so odd-order
    coefficients vanish identically and are returned as exact zeros.
    """
    validate_side(side)
    if k < 1:
        raise ValueError("order k must be >= 1")
    d = float(d)
    if d <= 0:
        raise ValueError("degrees of freedom must be > 0")
    if side == "two" and k % 2 == 1:
        return 0.0
    return _hermite_coeff_cached(d, int(k), side, float(tol))


@lru_cache(maxsize=None)
def _product_moment_cached(d1: float, d2: float, side: str, tol: float) -> float:
    def f(z: float) -> float:
        p = _pvalue(z, side)
        return float(_chisq_isf(p, d1)) * float(_chisq_isf(p, d2))

    return integrate_gauss_weight(f, tol)


def transform_product_moment(d1: float, d2: float, side: Side, tol: float = QUAD_TOL) -> float:
    """E[T_i T_j] for two transforms of the same standard normal input.

    This is the sigma = 1 limit of the covariance series (plus the product of
    means); computing it by direct quadrature avoids the slow tail of the
    series at full correlation. The exact same-index covariance is this
    minus d1 * d2.
    """
    validate_side(side)
    a, b = sorted((float(d1), float(d2)))
    return _product_moment_cached(a, b, side, float(tol))


# ---------------------------------------------------------------------------
# Covariance series
# ---------------------------------------------------------------------------


def _coeff_table(defs, side: Side, kstar: int, tol: float) -> list[np.ndarray]:
    """I(k) for k = 1..kstar (rows) and each summand (columns) of each definition,
    integrated once per distinct d (the n* x k* economy)."""
    table: dict[float, np.ndarray] = {}
    for d in sorted(set(float(x) for g in defs for x in g.degrees)):
        table[d] = np.array([hermite_coeff(d, k, side, tol) for k in range(1, kstar + 1)])
    return [np.array([table[float(d)] for d in g.degrees]).T for g in defs]


def cov_summands(
    d_i: float,
    d_j: float,
    sigma_ij: float,
    side: Side,
    kstar: int = DEFAULT_KSTAR,
    tol: float = QUAD_TOL,
) -> float:
    """Truncated covariance series sum_{k<=kstar} sigma^k / k! * I_i(k) I_j(k)."""
    if kstar < 1:
        raise ValueError("kstar must be >= 1")
    if not -1.0 <= sigma_ij <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    total = 0.0
    log_fact = 0.0
    for k in range(1, kstar + 1):
        log_fact += np.log(k)
        ii = hermite_coeff(d_i, k, side, tol)
        jj = hermite_coeff(d_j, k, side, tol)
        total += sigma_ij**k / np.exp(log_fact) * ii * jj
    return float(total)


# per definition, the summand covariance matrix and the truncation diagnostic;
# the statistics' cross covariance (None where a pass was not asked for them)
CovSeries = namedtuple("CovSeries", ["covs", "last_terms", "omega"])


def cov_series(defs, sigma, kstar: int = DEFAULT_KSTAR, tol: float = QUAD_TOL, *, full, cross=False) -> CovSeries:
    """One pass over the orders k = 1..kstar for definitions sharing one sigma.

    ``full[l]`` asks for the covariance matrix of ``defs[l]``, ``cross`` for
    the cross covariance; every definition gets its last term, and only
    k = kstar is visited when nothing else is wanted.
    """
    defs = list(defs)
    if not defs:
        raise ValueError("need at least one statistic definition")
    n, side, m = defs[0].n, defs[0].side, len(defs)
    if any(g.n != n or g.side != side for g in defs):
        raise ValueError("all definitions must share the input dimension n and sidedness")
    s = as_corr(sigma).values
    if s.shape != (n, n):
        raise ValueError(f"correlation matrix must be {n}x{n}, got {s.shape}")
    coeffs = _coeff_table(defs, side, kstar, tol)

    covs = [np.zeros((n, n)) if f else None for f in full]
    last_terms = [0.0] * m
    omega = np.zeros((m, m)) if cross else None
    vs = np.empty((m, n))
    fact = 1.0
    for k in range(1, kstar + 1):
        fact *= k
        if (side == "two" and k % 2 == 1) or (k < kstar and not (cross or any(full))):
            continue
        sk = s**k
        np.fill_diagonal(sk, 0.0)  # every consumer treats sigma_ii = 1 exactly
        for l, (g, cov) in enumerate(zip(defs, covs)):
            v = coeffs[l][k - 1]
            vs[l] = g.weights * v
            if cov is None and k < kstar:
                continue
            vv = np.outer(v, v)
            if cov is not None:
                cov += sk * vv / fact
            if k == kstar:
                last_terms[l] = float((np.abs(sk) * np.abs(vv) / np.exp(lgamma(kstar + 1))).max())
        if cross:
            omega += vs @ sk @ vs.T / fact

    for g, cov in zip(defs, covs):
        if cov is not None:
            np.fill_diagonal(cov, 2.0 * g.degrees)
    same: dict = {}  # exact same-index covariance, once per distinct degree pair
    for l in range(m if cross else 0):
        for r in range(l, m):
            pairs = list(zip(defs[l].degrees.tolist(), defs[r].degrees.tolist()))
            for a, b in set(pairs) - same.keys():
                same[a, b] = transform_product_moment(a, b, side, tol) - a * b
            diag = sum(defs[l].weights * defs[r].weights * [same[pair] for pair in pairs])
            omega[l, r] += diag
            if r != l:
                omega[r, l] += diag
    return CovSeries(covs, last_terms, omega)


def cov_matrix(gdef: GFisherDef, sigma, kstar: int = DEFAULT_KSTAR, tol: float = QUAD_TOL) -> np.ndarray:
    """Covariance matrix of the transformed summands T_1..T_n.

    Off-diagonal entries come from the truncated series; the diagonal is the
    exact marginal variance Var(chi2_d) = 2d (the series at sigma = 1
    converges slowly for two-sided inputs, and exactness on the diagonal is
    what makes the independence case exact downstream).
    """
    return cov_series([gdef], sigma, kstar, tol, full=[True]).covs[0]


def var_T(gdef: GFisherDef, sigma, kstar: int = DEFAULT_KSTAR, tol: float = QUAD_TOL) -> float:
    """Null variance of the statistic: w' Cov(T) w."""
    return float(gdef.weights @ cov_matrix(gdef, sigma, kstar, tol) @ gdef.weights)


def cross_cov(defs: list[GFisherDef], sigma, kstar: int = DEFAULT_KSTAR, tol: float = QUAD_TOL) -> np.ndarray:
    """m x m covariance matrix across statistics sharing one input panel.

    Same-index contributions (sigma_ii = 1) use the exact product-moment
    quadrature; cross-index contributions use the truncated series.
    """
    return cov_series(defs, sigma, kstar, tol, full=[False] * len(defs), cross=True).omega


# ---------------------------------------------------------------------------
# Correlation matrices
# ---------------------------------------------------------------------------

_CSV_FMT = "%.17g"  # round-trips float64 exactly


@dataclass
class CorrMatrix:
    """Symmetric matrix with unit diagonal and entries in [-1, 1].

    Positive semidefiniteness is checked lazily (``is_psd``); consumers that
    need a PSD matrix repair it via ``nearest_correlation``.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.allclose(v, v.T, atol=1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(v), 1.0, atol=1e-12):
            raise ValueError("correlation matrix must have unit diagonal")
        if np.any(np.abs(v) > 1.0 + 1e-12):
            raise ValueError("correlation entries must lie in [-1, 1]")
        v = 0.5 * (v + v.T)
        np.fill_diagonal(v, 1.0)
        np.clip(v, -1.0, 1.0, out=v)
        self.values = v

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.values)[0])

    def is_psd(self, tol: float = 1e-10) -> bool:
        return self.min_eigenvalue() >= -tol

    def to_csv(self, path) -> None:
        np.savetxt(path, self.values, delimiter=",", fmt=_CSV_FMT)

    @classmethod
    def from_csv(cls, path) -> "CorrMatrix":
        v = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(v)


def as_corr(sigma) -> CorrMatrix:
    if isinstance(sigma, CorrMatrix):
        return sigma
    return CorrMatrix(np.asarray(sigma, dtype=float))


# ---------------------------------------------------------------------------
# Structure generators
# ---------------------------------------------------------------------------

STRUCTURE_KINDS = ("equal", "poly", "invequal", "invpoly")
BLOCK_TYPES = ("I", "II", "III")
POLY_CAP = 0.99  # |i - j| = 1 gives a raw entry of 1.0; capped to keep the
# matrix nonsingular (still flagged non-PSD where applicable)


def _equal_block(m: int, rho: float) -> np.ndarray:
    if not 0.0 <= rho < 1.0:
        raise ValueError("equal-correlation parameter must satisfy 0 <= rho < 1")
    a = np.full((m, m), rho)
    np.fill_diagonal(a, 1.0)
    return a


def _poly_block(m: int, kappa: float) -> np.ndarray:
    if kappa <= 0:
        raise ValueError("polynomial-decay parameter must be > 0")
    idx = np.arange(m)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
    with np.errstate(divide="ignore"):
        a = 1.0 / dist**kappa
    a = np.minimum(a, POLY_CAP)
    np.fill_diagonal(a, 1.0)
    return a


def _standardized_inverse(a: np.ndarray) -> np.ndarray:
    """D^{-1/2} A^{-1} D^{-1/2} with D = diag(A^{-1}).

    A is repaired to the nearest strictly positive definite correlation first
    when needed, so the inverse exists and has a positive diagonal.
    """
    if np.linalg.eigvalsh(a)[0] < 1e-10:
        a = nearest_correlation(a, eig_floor=1e-8)
    inv = np.linalg.inv(a)
    d = np.sqrt(np.diag(inv))
    out = inv / np.outer(d, d)
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 1.0)
    return out


def gen_structure(kind: str, block: str, n: int, param: float) -> CorrMatrix:
    """Assemble one of the 2 x 2 block correlation layouts.

    Block type I places the pattern in the upper-left (n/2) block, II in both
    diagonal blocks, III over the whole matrix; off-diagonal blocks are zero
    and remaining diagonal blocks are identity. The inv* variants invert the
    pattern block and standardize it back to unit diagonal.

    The result is not guaranteed positive semidefinite for the capped
    polynomial pattern; consumers repair when needed.
    """
    kind = kind.lower()
    if kind not in STRUCTURE_KINDS:
        raise ValueError(f"unknown structure kind {kind!r}; expected one of {STRUCTURE_KINDS}")
    if block not in BLOCK_TYPES:
        raise ValueError(f"unknown block type {block!r}; expected one of {BLOCK_TYPES}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if block in ("I", "II") and n % 2 != 0:
        raise ValueError("block types I and II require even n")

    base = _equal_block if kind.endswith("equal") else _poly_block
    inverted = kind.startswith("inv")

    def pattern(m: int) -> np.ndarray:
        a = base(m, param)
        return _standardized_inverse(a) if inverted else a

    if block == "III":
        return CorrMatrix(pattern(n))
    half = n // 2
    out = np.eye(n)
    out[:half, :half] = pattern(half)
    if block == "II":
        out[half:, half:] = pattern(half)
    return CorrMatrix(out)


# ---------------------------------------------------------------------------
# Nearest correlation matrix (alternating projections)
# ---------------------------------------------------------------------------


def nearest_correlation(
    a,
    tol: float = 1e-10,
    max_iter: int = 500,
    eig_floor: float = 0.0,
) -> np.ndarray:
    """Nearest correlation matrix in Frobenius norm (Higham's projections).

    Alternates projection onto the PSD cone (eigenvalue clipping at
    ``eig_floor``) and onto the unit-diagonal affine set, with a Dykstra
    correction for the cone. Converges linearly; ``tol`` is the Frobenius
    distance between successive iterates.
    """
    y = np.asarray(a, dtype=float).copy()
    n = y.shape[0]
    if y.shape != (n, n):
        raise ValueError("matrix must be square")
    ds = np.zeros_like(y)
    prev = y.copy()
    for _ in range(max_iter):
        r = y - ds
        vals, vecs = np.linalg.eigh(0.5 * (r + r.T))
        x = (vecs * np.maximum(vals, eig_floor)) @ vecs.T
        ds = x - r
        y = 0.5 * (x + x.T)
        np.fill_diagonal(y, 1.0)
        np.clip(y, -1.0, 1.0, out=y)
        if np.linalg.norm(y - prev, "fro") <= tol * max(1.0, np.linalg.norm(y, "fro")):
            break
        prev = y.copy()
    # final symmetric PSD polish with the unit diagonal kept
    vals, vecs = np.linalg.eigh(0.5 * (y + y.T))
    x = (vecs * np.maximum(vals, eig_floor)) @ vecs.T
    d = np.sqrt(np.clip(np.diag(x), 1e-12, None))
    x = x / np.outer(d, d)
    x = 0.5 * (x + x.T)
    np.fill_diagonal(x, 1.0)
    np.clip(x, -1.0, 1.0, out=x)
    return x
