"""Covariances of transformed summands under correlated Gaussian inputs.

The covariance of two summands T_i, T_j expands as a series in the input
correlation: Cov(T_i, T_j) = sum_k sigma^k / k! * I_i(k) I_j(k), where I(k)
is a Hermite-coefficient integral of the inverse-chi-square transform. Only
n* x k* one-dimensional integrals are needed for an n x n covariance matrix,
where n* is the number of distinct degrees of freedom, and all orders of one d
come from one evaluation of its transform on a fixed quadrature grid.

One pass (``cov_series``) serves every definition sharing a sigma: each order
multiplies the previous power of sigma by sigma once (by sigma^2 for two-sided
input, whose odd-order coefficients are exact zeros and are skipped) for the
covariance matrices, the truncation diagnostics and, when asked, the omnibus
cross covariance.

Also provides the block correlation-structure generators used by the
simulation harness, CSV round-tripping for correlation matrices, and a
nearest-correlation repair (semismooth Newton on the dual, Qi & Sun 2006).
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import GAUSS_HALVING, GAUSS_NODES, GAUSS_WEIGHTS, MAX_HERMITE_ORDER, PROB_CLAMP_LO, _chisq_isf, hermite
from .statistic import GFisherDef, Side, validate_side, z_to_pvalues

__all__ = [
    "CorrMatrix",
    "CovSeries",
    "cov_matrix",
    "cov_series",
    "gen_structure",
    "nearest_correlation",
    "transform_product_moment",
]

DEFAULT_KSTAR = 8
QUAD_TOL = 1e-11

# ---------------------------------------------------------------------------
# Hermite-coefficient integrals
# ---------------------------------------------------------------------------

# He_1..He_K on the half-line nodes times the rule's weights (rows 0..K-1) and
# its halving weights (rows K..2K-1); He_k(-z) = (-1)^k He_k(z) on the mirrored half
_K = MAX_HERMITE_ORDER
_HE_BASIS = np.array([hermite(k, GAUSS_NODES) for k in range(1, _K + 1)])
_HE_BASIS = np.concatenate([_HE_BASIS * GAUSS_WEIGHTS, _HE_BASIS * GAUSS_HALVING])
_MIRROR = np.tile((-1.0) ** np.arange(1, _K + 1), 2)

# T_d at the nodes z and -z, and I(1..K) with their halving error estimates
_Grid = namedtuple("_Grid", ["pos", "neg", "coeffs", "err"])


@lru_cache(maxsize=None)
def _grid(d: float, side: str) -> _Grid:
    """T_d on the quadrature nodes and every Hermite coefficient, once per (d, side).

    p is clamped from below as ``statistic.transform`` clamps it. For
    two-sided input T is even in z, so both halves are the same array and the
    odd orders cancel to exact zeros.
    """
    pos = _chisq_isf(np.maximum(z_to_pvalues(GAUSS_NODES, side), PROB_CLAMP_LO), d)
    neg = pos if side == "two" else _chisq_isf(np.maximum(z_to_pvalues(-GAUSS_NODES, side), PROB_CLAMP_LO), d)
    v = _HE_BASIS @ pos + _MIRROR * (_HE_BASIS @ neg)
    return _Grid(pos, neg, v[:_K], np.abs(v[_K:]))


def _certify(err: float, what: str) -> None:
    if err > QUAD_TOL:
        msg = f"gauss-weight quadrature of {what} reached halving estimate {err:.3e} > tol {QUAD_TOL:.1e}"
        warnings.warn(msg, RuntimeWarning, stacklevel=3)


def _coeffs(d: float, side: str, lo: int, hi: int) -> np.ndarray:
    # I(lo..hi) from the cached grid, warning where an order is not certified
    if hi > _K:
        raise ValueError(f"Hermite order {hi} exceeds the supported maximum {_K}")
    g = _grid(float(d), side)
    _certify(g.err[lo - 1 : hi].max(initial=0.0), f"I({lo}..{hi}) at d = {d:g}, side {side!r}")
    return g.coeffs[lo - 1 : hi]


def transform_product_moment(d1: float, d2: float, side: Side) -> float:
    """E[T_i T_j] for two transforms of the same standard normal input.

    This is the sigma = 1 limit of the covariance series (plus the product of
    means); computing it by direct quadrature avoids the slow tail of the
    series at full correlation. The exact same-index covariance is this
    minus d1 * d2.
    """
    validate_side(side)
    a, b = _grid(float(d1), side), _grid(float(d2), side)
    f = a.pos * b.pos + a.neg * b.neg
    _certify(abs(GAUSS_HALVING @ f), f"E[T T] at d = {d1:g}, {d2:g}, side {side!r}")
    return float(GAUSS_WEIGHTS @ f)


# ---------------------------------------------------------------------------
# Covariance series
# ---------------------------------------------------------------------------


def _coeff_table(defs, side: Side, kstar: int) -> list[np.ndarray]:
    """I(k) for k = 1..kstar (rows) and each summand (columns) of each definition,
    looked up once per distinct d (the n* x k* economy)."""
    table = {d: _coeffs(d, side, 1, kstar) for d in set(float(x) for g in defs for x in g.degrees)}
    return [np.array([table[float(d)] for d in g.degrees]).T for g in defs]


# per definition, the summand covariance matrix and the truncation diagnostic;
# the statistics' cross covariance (None where the pass was not asked for it)
CovSeries = namedtuple("CovSeries", ["covs", "last_terms", "omega"])


def cov_series(defs, sigma, kstar: int = DEFAULT_KSTAR, *, cross=False) -> CovSeries:
    """One pass over the orders k = 1..kstar for definitions sharing one sigma.

    Every definition gets its covariance matrix and the largest term of order
    kstar; ``cross`` asks for the cross covariance of the statistics as well.
    Same-index contributions to it (sigma_ii = 1) use the exact product-moment
    quadrature, cross-index contributions the truncated series.
    """
    defs = list(defs)
    if not defs:
        raise ValueError("need at least one statistic definition")
    if kstar < 1:
        raise ValueError("kstar must be >= 1")
    n, side, m = defs[0].n, defs[0].side, len(defs)
    if any(g.n != n or g.side != side for g in defs):
        raise ValueError("all definitions must share the input dimension n and sidedness")
    s = as_corr(sigma).values
    if s.shape != (n, n):
        raise ValueError(f"correlation matrix must be {n}x{n}, got {s.shape}")
    coeffs = _coeff_table(defs, side, kstar)

    covs = [np.zeros((n, n)) for _ in defs]
    last_terms = [0.0] * m
    omega = np.zeros((m, m)) if cross else None
    vs = np.empty((m, n))
    # sigma^k as a chain of products: two-sided input steps over the odd orders
    step = s * s if side == "two" else s.copy()
    np.fill_diagonal(step, 0.0)  # every consumer treats sigma_ii = 1 exactly
    sk, term = np.ones((n, n)), np.empty((n, n))
    fact = 1.0
    for k in range(1, kstar + 1):
        fact *= k
        if side == "two" and k % 2 == 1:
            continue
        np.multiply(sk, step, out=sk)
        for l, (g, cov) in enumerate(zip(defs, covs)):
            v = coeffs[l][k - 1]
            vs[l] = g.weights * v
            np.multiply(sk, np.outer(v, v / fact, out=term), out=term)
            cov += term
            if k == kstar:
                last_terms[l] = float(np.abs(term, out=term).max())
        if cross:
            omega += vs @ sk @ vs.T / fact

    for g, cov in zip(defs, covs):
        np.fill_diagonal(cov, 2.0 * g.degrees)
    same: dict = {}  # exact same-index covariance, once per distinct degree pair
    for l in range(m if cross else 0):
        for r in range(l, m):
            pairs = list(zip(defs[l].degrees.tolist(), defs[r].degrees.tolist()))
            for a, b in set(pairs) - same.keys():
                same[a, b] = transform_product_moment(a, b, side) - a * b
            diag = sum(defs[l].weights * defs[r].weights * [same[pair] for pair in pairs])
            omega[l, r] += diag
            if r != l:
                omega[r, l] += diag
    return CovSeries(covs, last_terms, omega)


def cov_matrix(gdef: GFisherDef, sigma, kstar: int = DEFAULT_KSTAR) -> np.ndarray:
    """Covariance matrix of the transformed summands T_1..T_n.

    Off-diagonal entries come from the truncated series; the diagonal is the
    exact marginal variance Var(chi2_d) = 2d (the series at sigma = 1
    converges slowly for two-sided inputs, and exactness on the diagonal is
    what makes the independence case exact downstream).
    """
    return cov_series([gdef], sigma, kstar).covs[0]


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
        if not np.allclose(v, v.T, rtol=0.0, atol=1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(v), 1.0, rtol=0.0, atol=1e-12):
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


def _components(s: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Components of a symmetric matrix's exact nonzero pattern: the indices whose row is zero off
    the diagonal, as one array, and each larger component's sorted indices. Breadth-first by frontier
    rows, so each row is read once; a matrix without a zero entry is one block."""
    n = s.shape[0]
    nz = s != 0
    if nz.all():
        return np.empty(0, dtype=np.intp), [np.arange(n)]
    np.fill_diagonal(nz, False)
    alone = ~nz.any(axis=1)
    seen = alone.copy()
    blocks = []
    while not seen.all():
        comp = np.zeros(n, dtype=bool)
        comp[np.argmin(seen)] = True  # the first row not yet placed
        front = comp
        while front.any():
            reach = nz[front].any(axis=0)
            front = reach & ~comp
            comp = comp | reach
        seen |= comp
        blocks.append(np.flatnonzero(comp))
    return np.flatnonzero(alone), blocks


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
# Nearest correlation matrix (semismooth Newton on the dual)
# ---------------------------------------------------------------------------

NC_TOL = 1e-10  # root-mean-square of diag((G + diag y)_+) - 1 at the stop
NC_MAX_ITER = 100  # Newton steps
_CG_TOL = 1e-6  # relative residual of each Newton system
_CG_MAX_ITER = 200
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-30
_THETA_ROUNDING = 64 * np.finfo(float).eps


def _dual(g: np.ndarray, y: np.ndarray):
    """theta(y) = 1/2 ||(G + diag y)_+||_F^2 - sum y, its gradient and the eigen pairs."""
    vals, vecs = np.linalg.eigh(g + np.diag(y))
    pos = np.maximum(vals, 0.0)
    return 0.5 * (pos @ pos) - y.sum(), (vecs * vecs) @ pos - 1.0, vals, vecs


def _newton_system(vals: np.ndarray, vecs: np.ndarray):
    """Generalized Jacobian h -> diag(P (Omega o P^T diag(h) P) P^T) and its diagonal.

    Omega is 1 on pairs of positive eigenvalues, lam_i / (lam_i - lam_j) on
    (positive i, nonpositive j) pairs and 0 elsewhere. ``eigh`` sorts the
    nonpositive block first. A product costs 2 n^2 min(r, n - r) for r
    positive eigenvalues: where r > n/2 it goes through the complement
    1 - Omega, whose full-ones part maps h to h.
    """
    s = int(np.searchsorted(vals, 0.0, side="right"))
    lam = vals[s:]
    omega = lam[:, None] / (lam[:, None] - vals[None, :s])  # r x s
    p_neg, p_pos = vecs[:, :s], vecs[:, s:]
    sq = vecs * vecs
    diag = sq[:, s:].sum(axis=1) ** 2 + 2.0 * ((sq[:, s:] @ omega) * sq[:, :s]).sum(axis=1)
    if s >= vecs.shape[0] - s:
        def apply(h):
            b = (p_pos.T * h) @ vecs
            b[:, :s] *= 2.0 * omega
            return ((p_pos @ b) * vecs).sum(axis=1)
    else:
        comp = 2.0 * (1.0 - omega.T)

        def apply(h):
            b = (p_neg.T * h) @ vecs
            b[:, s:] *= comp
            return h - ((p_neg @ b) * vecs).sum(axis=1)

    return apply, np.maximum(diag, 1e-8)


def _pcg(apply, rhs: np.ndarray, precond: np.ndarray) -> np.ndarray:
    """Diagonally preconditioned conjugate gradients to a relative residual of _CG_TOL."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = r / precond
    p = z.copy()
    rz = r @ z
    stop = _CG_TOL * np.linalg.norm(rhs)
    for _ in range(_CG_MAX_ITER):
        w = apply(p) + 1e-10 * p  # keeps the system definite where the Jacobian is singular
        alpha = rz / (p @ w)
        x += alpha * p
        r -= alpha * w
        if np.linalg.norm(r) <= stop:
            break
        z = r / precond
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x


def _newton_nc(g: np.ndarray) -> np.ndarray:
    """(G + diag y)_+ at the minimizer y of the dual theta (Qi & Sun 2006)."""
    n = g.shape[0]
    y = 1.0 - np.diag(g)
    f, grad, vals, vecs = _dual(g, y)
    steps = 0
    while np.linalg.norm(grad) > NC_TOL * np.sqrt(n):
        if steps == NC_MAX_ITER:
            res = np.linalg.norm(grad) / np.sqrt(n)
            msg = f"nearest correlation did not converge in {steps} Newton steps: diagonal residual {res:.3e} (rms)"
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
            break
        apply, precond = _newton_system(vals, vecs)
        d = _pcg(apply, -grad, precond)
        slope = grad @ d
        slack = _THETA_ROUNDING * abs(f)  # theta cannot resolve a smaller decrease
        step = 1.0
        while True:
            trial = _dual(g, y + step * d)
            if trial[0] <= f + _ARMIJO * step * slope + slack or step <= _MIN_STEP:
                break
            step *= 0.5
        y = y + step * d
        f, grad, vals, vecs = trial
        steps += 1
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def nearest_correlation(a, eig_floor: float = 0.0) -> np.ndarray:
    """Nearest correlation matrix in Frobenius norm, by semismooth Newton.

    Minimizes the dual theta(y) = 1/2 ||(A + diag y)_+||_F^2 - sum y, whose
    gradient is diag((A + diag y)_+) - 1: each step solves the generalized
    Jacobian system by preconditioned conjugate gradients and takes an Armijo
    line search, one eigendecomposition per trial point. Converges
    quadratically; warns with a ``RuntimeWarning`` if the step cap is reached.

    With ``eig_floor`` = delta > 0 the eigenvalues are kept >= delta through
    the exact shift X = delta I + (1 - delta) NC((A - delta I) / (1 - delta)).
    The result is rescaled to a unit diagonal, exactly symmetric and clipped
    to [-1, 1].
    """
    g = np.asarray(a, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError("matrix must be square")
    g = 0.5 * (g + g.T)
    if eig_floor:
        eye = np.eye(n)
        x = eig_floor * eye + (1.0 - eig_floor) * _newton_nc((g - eig_floor * eye) / (1.0 - eig_floor))
    else:
        x = _newton_nc(g)
    d = np.sqrt(np.clip(np.diag(x), 1e-12, None))
    x = x / np.outer(d, d)
    x = 0.5 * (x + x.T)
    np.fill_diagonal(x, 1.0)
    np.clip(x, -1.0, 1.0, out=x)
    return x
