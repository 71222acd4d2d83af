"""Quadratic-form surrogate for two-sided inputs with integer degrees.

Each summand T_i ~ chi2_{d_i} is replaced by a sum of d_i squared correlated
Gaussians whose pairwise covariances match Cov(T_i, T_j); the weighted total
is then a nonnegative quadratic form, i.e. a weighted sum of independent
chi2_1 variables. Its CDF is computed by inverting the characteristic
function on a lattice with certified discretization and truncation bounds
(Davies-style); a point the lattice cannot certify within budget is reported
unconverged with the lattice's own bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dependence
from .statistic import GFisherDef
from .surrogates import MomentSummary

__all__ = [
    "CdfOutcome",
    "QuadFormSpec",
    "SurrogateCorr",
    "build_m",
    "eigen_spec",
    "hybrid_moments",
    "qform_sf",
]

M_CLAMP = 0.99  # surrogate correlations are capped below 1 to keep M usable
EIG_DROP_REL = 1e-12  # eigenvalues below this fraction of the largest are dropped
DEFAULT_QF_ACC = 1e-9
MAX_LATTICE_TERMS = 1 << 26


def _require_two_sided_integer(gdef: GFisherDef) -> None:
    if gdef.side != "two":
        raise ValueError("the quadratic-form surrogate requires two-sided input p-values")
    if not gdef.has_integer_degrees:
        raise ValueError("the quadratic-form surrogate requires integer degrees of freedom")


@dataclass
class SurrogateCorr:
    """The surrogate correlation matrix M, zero off sigma's components ``singles`` and ``blocks``."""

    m: np.ndarray
    singles: np.ndarray
    blocks: list[np.ndarray]
    clamp_count: int = 0
    repair_applied: bool = False


@dataclass
class QuadFormSpec:
    """Pooled nonnegative eigenvalues representing sum_j lambda_j chi2_1."""

    lambdas: np.ndarray
    trace: float
    dropped_mass: float = 0.0

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.size and lam.min() < -1e-10:
            raise ValueError("eigenvalues must be nonnegative (tiny negatives are zeroed upstream)")
        self.lambdas = np.maximum(lam, 0.0)


def build_m(gdef: GFisherDef, sigma, cov_t: np.ndarray) -> SurrogateCorr:
    """Surrogate correlation M_ij = sgn(sigma_ij) min(sqrt(C_ij / (2 min(d_i,d_j))), 0.99).

    Entries hitting the cap are counted. M is zero wherever sigma is, so each component of sigma's
    exact nonzero pattern with a negative eigenvalue in M is replaced by its nearest correlation
    matrix (``repair_applied`` set): the Qi-Sun dual separates by block, so this is the whole-matrix
    repair at O(sum b^3). A sigma without zeros is one block.
    """
    _require_two_sided_integer(gdef)
    s = dependence.as_corr(sigma).values
    cov_t = np.asarray(cov_t, dtype=float)
    n = gdef.n
    if cov_t.shape != (n, n) or s.shape != (n, n):
        raise ValueError("covariance and correlation matrices must be n x n")
    off = ~np.eye(n, dtype=bool)
    if np.any(cov_t[off] < -1e-10):
        raise ValueError(
            "negative summand covariance under two-sided inputs; "
            "the covariance matrix is inconsistent with its construction"
        )
    dmin = np.minimum.outer(gdef.degrees, gdef.degrees)
    ratio = np.sqrt(np.maximum(cov_t, 0.0) / (2.0 * dmin))
    clamp_count = int(np.count_nonzero(ratio[off] > M_CLAMP) // 2)
    m = np.sign(s) * np.minimum(ratio, M_CLAMP)
    np.fill_diagonal(m, 1.0)
    m = 0.5 * (m + m.T)

    singles, blocks = dependence._components(s)
    repair_applied = False
    for b in blocks:
        ix = np.ix_(b, b)
        if np.linalg.eigvalsh(m[ix])[0] < -1e-10:
            m[ix] = dependence.nearest_correlation(m[ix])
            repair_applied = True
    return SurrogateCorr(m, singles, blocks, clamp_count, repair_applied)


def eigen_spec(gdef: GFisherDef, sc: SurrogateCorr) -> QuadFormSpec:
    """Pooled eigenvalues of the per-level quadratic forms.

    At level k the active set is {l : d_l >= k}; the form's matrix is
    R_k M R_k with R_k = diag(sqrt(w_l 1{d_l >= k})), whose spectrum matches
    diag(w b_k) M. The pooled eigenvalues satisfy sum(lambda) = sum_i w_i d_i. Each level pools
    one eigensolve per block of ``sc.blocks`` and r**2 over ``sc.singles``, with no eigensolve.
    """
    _require_two_sided_integer(gdef)
    d = gdef.degrees.astype(int)
    w = gdef.weights
    lams: list[np.ndarray] = []
    for k in range(1, int(d.max()) + 1):
        if k == 1 or np.any(d == k - 1):  # otherwise the active set is level k - 1's
            r = np.sqrt(w * (d >= k))
            parts = [r[sc.singles] ** 2]
            parts += [np.linalg.eigvalsh(np.outer(r[b], r[b]) * sc.m[np.ix_(b, b)]) for b in sc.blocks]
            vals = np.concatenate(parts)
        lams.append(vals[vals > 1e-14])
    lam = np.concatenate(lams)  # never empty: level 1's eigenvalues sum to n; all kept are > 1e-14
    cut = EIG_DROP_REL * lam.max()
    dropped = float(lam[lam < cut].sum())
    lam = lam[lam >= cut]
    return QuadFormSpec(
        lambdas=np.sort(lam)[::-1],
        trace=float(lam.sum()),
        dropped_mass=dropped,
    )


# ---------------------------------------------------------------------------
# CDF of a weighted sum of independent chi2_1 variables
# ---------------------------------------------------------------------------


@dataclass
class CdfOutcome:
    value: float
    error_bound: float
    converged: bool
    n_terms: int
    method: str = "davies"


def _cgf_slopes(lams: np.ndarray, s: float) -> tuple[float, float]:
    """K'(s) and K''(s) of the cumulant generating function K(s) = -1/2 sum log(1 - 2 s lambda)."""
    r = lams / (1.0 - 2.0 * s * lams)
    return float(np.sum(r)), 2.0 * float(np.sum(r * r))


def _saddlepoint(lams: np.ndarray, t: float, hi: float) -> float:
    """The root s of K'(s) = t in (0, hi], or hi when K'(hi) < t; needs t > sum(lams).

    Newton on 1 / K'(s) = 1 / t, decreasing and concave in s (a harmonic sum of the linear
    (1 - 2 s lambda) / lambda), from a start right of the root: the largest term plus the
    others at s = 0 reach t there. The iterates fall monotonically, never crossing the pole
    at 1 / (2 max lambda), until a step no longer decreases s; equal eigenvalues take one step.
    """
    lmax = float(lams.max())
    s = min((1.0 - lmax / (t - float(lams.sum()) + lmax)) / (2.0 * lmax), hi)
    for _ in range(100):  # a hard cap; about 5 steps are taken
        k1, k2 = _cgf_slopes(lams, s)
        step = s - (k1 - t) * k1 / (t * k2)
        if not step < s:
            break
        s = step
    return s


def _chernoff_tail(lams: np.ndarray, t: float) -> float:
    """Upper bound on P(Q > t) via the moment generating function, exp(K(s) - s t) at the saddlepoint."""
    if t <= lams.sum():
        return 1.0
    s = _saddlepoint(lams, t, 0.5 / lams.max() * (1.0 - 1e-12))
    log_bound = -s * t - 0.5 * float(np.sum(np.log1p(-2.0 * s * lams)))
    return float(np.exp(min(log_bound, 0.0)))


def _lattice_survival(lams: np.ndarray, x: float, acc: float) -> CdfOutcome:
    """P(Q > x) by a midpoint lattice sum over the characteristic function.

    The step is chosen so the aliasing mass (bounded by a Chernoff tail and
    reported three times over) is at most acc / 6; the number of terms so the
    Dirichlet-test bound on the truncated oscillatory tail takes the rest of
    acc, which keeps the reported bound within acc whenever both searches stop.
    The bound also carries the sum's rounding floor, a few times eps.
    """
    # step from the aliasing bound: 2 pi / step - x must carry < acc / 6 mass
    t_hi = x + float(lams.sum()) + 4.0 * float(np.sqrt(2.0 * np.sum(lams**2)))
    for _ in range(200):
        alias_bound = _chernoff_tail(lams, t_hi)
        if alias_bound <= acc / 6.0:
            break
        t_hi *= 1.4
    delta = 2.0 * np.pi / (x + t_hi)

    def trunc_bound(k0: int) -> float:
        # Dirichlet test: the term phase advances by ~ delta * (x - drift) per
        # index; the partial-sum tail is bounded by the first omitted
        # magnitude over sin(half the phase step).
        u0 = (k0 + 0.5) * delta
        drift = float(np.sum(lams / (1.0 + 4.0 * lams**2 * u0 * u0)))
        eff = delta * (x - drift)
        if eff <= 1e-12:
            return np.inf
        eff = min(eff, np.pi)
        a0 = np.exp(-0.25 * float(np.sum(np.log1p(4.0 * lams**2 * u0 * u0)))) / (np.pi * (k0 + 0.5))
        return a0 / np.sin(0.5 * eff)

    budget = acc - 3.0 * alias_bound
    n_terms = 64
    while n_terms < MAX_LATTICE_TERMS and trunc_bound(n_terms) > budget:
        n_terms *= 2
    tail_bound = trunc_bound(n_terms)

    total = slack = 0.0
    chunk = 1 << 20
    for start in range(0, n_terms, chunk):
        idx = np.arange(start, min(n_terms, start + chunk), dtype=float)
        u = (idx + 0.5) * delta
        lu = 2.0 * np.outer(lams, u)
        logmod = -0.25 * np.log1p(lu * lu).sum(axis=0)
        arc = 0.5 * np.arctan(lu).sum(axis=0)
        mod = np.exp(logmod)
        total += float(np.sum(mod * np.sin(arc - u * x) / (idx + 0.5)))
        # a term's phase and log modulus are good to eps times the sum of their parts' magnitudes,
        # which also bounds their change when the eigenvalues move in their last bits
        slack += float(np.sum(mod * (1.0 + arc + u * x - 2.0 * logmod) / (idx + 0.5)))
    surv = 0.5 + total / np.pi
    # alias series decays geometrically (x3 safety); the last term is the rounding floor
    err = 3.0 * alias_bound + tail_bound + np.finfo(float).eps * (0.5 + slack / np.pi)
    return CdfOutcome(
        value=min(max(surv, 0.0), 1.0),
        error_bound=float(err),
        converged=bool(err <= acc),
        n_terms=n_terms,
    )


def qform_sf(spec: QuadFormSpec | np.ndarray, x: float, acc: float = DEFAULT_QF_ACC) -> CdfOutcome:
    """P(Q > x) for Q = sum_j lambda_j chi2_1, with its certified error bound.

    The lattice inversion; where it cannot certify ``acc`` within its term
    budget, the outcome is unconverged and carries the lattice's own bound.
    Exactly 1 at x <= 0.
    """
    lams = spec.lambdas if isinstance(spec, QuadFormSpec) else np.asarray(spec, dtype=float)
    lams = lams[lams > 0.0]
    if lams.size == 0:
        raise ValueError("the eigenvalue spectrum is empty")
    x = float(x)
    if x <= 0.0:
        return CdfOutcome(1.0, 0.0, True, 0, "exact")
    return _lattice_survival(lams, x, acc)


# ---------------------------------------------------------------------------
# Spectrum summaries
# ---------------------------------------------------------------------------


def hybrid_moments(spec: QuadFormSpec) -> MomentSummary:
    """Analytic moments of the quadratic form from its cumulants.

    c_t = 2^{t-1} (t-1)! sum lambda^t, so the skewness is sqrt(8) S3 / S2^{3/2}
    and the excess kurtosis 12 S4 / S2^2 with S_t = sum lambda^t.
    """
    lam = spec.lambdas
    if lam.size == 0 or lam.sum() <= 0:
        raise ValueError("the eigenvalue spectrum is empty")
    s1, s2, s3, s4 = (float(np.sum(lam**t)) for t in (1, 2, 3, 4))
    return MomentSummary(
        mu=s1,
        var=2.0 * s2,
        skew=np.sqrt(8.0) * s3 / s2**1.5,
        exkurt=12.0 * s4 / s2**2,
        source="qsurrogate",
    )

