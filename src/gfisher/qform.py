"""Quadratic-form surrogate for two-sided inputs with integer degrees.

Each summand T_i ~ chi2_{d_i} is replaced by a sum of d_i squared correlated
Gaussians whose pairwise covariances match Cov(T_i, T_j); the weighted total
is then a nonnegative quadratic form, i.e. a weighted sum of independent
chi2_1 variables. Its CDF is computed by inverting the characteristic
function on a lattice with certified discretization and truncation bounds
(Davies-style), falling back to adaptive quadrature of the Imhof integrand
when the lattice bound cannot be certified within budget.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

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
    "hybrid_shape",
    "qform_sf",
    "qform_spec",
    "spec_diagnostics",
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
    """The surrogate correlation matrix M."""

    m: np.ndarray
    clamp_count: int = 0
    repair_applied: bool = False


@dataclass
class QuadFormSpec:
    """Pooled nonnegative eigenvalues representing sum_j lambda_j chi2_1."""

    lambdas: np.ndarray
    trace: float
    clamp_count: int = 0
    repair_applied: bool = False
    dropped_mass: float = 0.0

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.size and lam.min() < -1e-10:
            raise ValueError("eigenvalues must be nonnegative (tiny negatives are zeroed upstream)")
        self.lambdas = np.maximum(lam, 0.0)


def build_m(gdef: GFisherDef, sigma, cov_t: np.ndarray) -> SurrogateCorr:
    """Surrogate correlation M_ij = sgn(sigma_ij) min(sqrt(C_ij / (2 min(d_i,d_j))), 0.99).

    Entries hitting the cap are counted; a non-PSD M is replaced by the
    nearest correlation matrix in Frobenius norm with ``repair_applied`` set.
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

    repair_applied = False
    if np.linalg.eigvalsh(m)[0] < -1e-10:
        m = dependence.nearest_correlation(m)
        repair_applied = True
    return SurrogateCorr(m=m, clamp_count=clamp_count, repair_applied=repair_applied)


def eigen_spec(gdef: GFisherDef, sc: SurrogateCorr) -> QuadFormSpec:
    """Pooled eigenvalues of the per-level quadratic forms.

    At level k the active set is {l : d_l >= k}; the form's matrix is
    R_k M R_k with R_k = diag(sqrt(w_l 1{d_l >= k})), whose spectrum matches
    diag(w b_k) M. The pooled eigenvalues satisfy sum(lambda) = sum_i w_i d_i.
    """
    _require_two_sided_integer(gdef)
    d = gdef.degrees.astype(int)
    w = gdef.weights
    lams: list[np.ndarray] = []
    for k in range(1, int(d.max()) + 1):
        if k == 1 or np.any(d == k - 1):  # otherwise the active set is level k - 1's
            r = np.sqrt(w * (d >= k))
            vals = np.linalg.eigvalsh(np.outer(r, r) * sc.m)
        lams.append(vals[vals > 1e-14])
    lam = np.concatenate(lams) if lams else np.zeros(0)
    lam = np.maximum(lam, 0.0)
    dropped = 0.0
    if lam.size:
        cut = EIG_DROP_REL * lam.max()
        dropped = float(lam[lam < cut].sum())
        lam = lam[lam >= cut]
    return QuadFormSpec(
        lambdas=np.sort(lam)[::-1],
        trace=float(lam.sum()),
        clamp_count=sc.clamp_count,
        repair_applied=sc.repair_applied,
        dropped_mass=dropped,
    )


def qform_spec(gdef: GFisherDef, sigma, kstar: int = dependence.DEFAULT_KSTAR) -> QuadFormSpec:
    """Covariance series -> surrogate correlation -> pooled eigenvalues."""
    cov_t = dependence.cov_matrix(gdef, sigma, kstar)
    return eigen_spec(gdef, build_m(gdef, sigma, cov_t))


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


def _chernoff_tail(lams: np.ndarray, t: float) -> float:
    """Upper bound on P(Q > t) via the moment generating function."""
    if t <= lams.sum():
        return 1.0
    hi = 0.5 / lams.max() * (1.0 - 1e-12)

    def slope(s: float) -> float:
        return float(np.sum(lams / (1.0 - 2.0 * s * lams))) - t

    lo = 0.0
    if slope(hi) < 0:
        s = hi
    else:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0:
                hi = mid
            else:
                lo = mid
        s = 0.5 * (lo + hi)
    log_bound = -s * t - 0.5 * float(np.sum(np.log1p(-2.0 * s * lams)))
    return float(np.exp(min(log_bound, 0.0)))


def _lattice_survival(lams: np.ndarray, x: float, acc: float) -> CdfOutcome:
    """P(Q > x) by a midpoint lattice sum over the characteristic function.

    The step is chosen so the aliasing mass (bounded by a Chernoff tail) is
    within budget; the number of terms so the Dirichlet-test bound on the
    truncated oscillatory tail is within budget.
    """
    budget = acc / 3.0
    # step from the aliasing bound: 2 pi / step - x must carry < budget mass
    t_hi = x + float(lams.sum()) + 4.0 * float(np.sqrt(2.0 * np.sum(lams**2)))
    for _ in range(200):
        if _chernoff_tail(lams, t_hi) <= budget:
            break
        t_hi *= 1.4
    alias_bound = _chernoff_tail(lams, t_hi)
    delta = 2.0 * np.pi / (x + t_hi)

    def log_mod(u: float) -> float:
        return -0.25 * float(np.sum(np.log1p(4.0 * lams**2 * u * u)))

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
        a0 = np.exp(log_mod(u0)) / (np.pi * (k0 + 0.5))
        return a0 / np.sin(0.5 * eff)

    n_terms = 64
    while n_terms < MAX_LATTICE_TERMS and trunc_bound(n_terms) > budget:
        n_terms *= 2
    tail_bound = trunc_bound(n_terms)

    total = 0.0
    chunk = 1 << 20
    for start in range(0, n_terms, chunk):
        idx = np.arange(start, min(n_terms, start + chunk), dtype=float)
        u = (idx + 0.5) * delta
        lu = 2.0 * np.outer(lams, u)
        logmod = -0.25 * np.log1p(lu * lu).sum(axis=0)
        phase = 0.5 * np.arctan(lu).sum(axis=0) - u * x
        total += float(np.sum(np.exp(logmod) * np.sin(phase) / (idx + 0.5)))
    surv = 0.5 + total / np.pi
    err = 3.0 * alias_bound + tail_bound  # alias series decays geometrically; x3 safety
    return CdfOutcome(
        value=min(max(surv, 0.0), 1.0),
        error_bound=float(err),
        converged=bool(err <= acc),
        n_terms=n_terms,
    )


def _imhof_survival(lams: np.ndarray, x: float, acc: float) -> CdfOutcome:
    """Adaptive quadrature of the Imhof integrand; fallback path and oracle.

    P(Q > x) = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du with
    theta(u) = (sum arctan(lam u) - x u) / 2, rho(u) = prod (1 + lam^2 u^2)^{1/4}.
    The truncation point comes from the absolute tail bound, so this path is
    only efficient when several eigenvalues are present.
    """
    k = lams.size
    log_prod = float(np.sum(np.log(lams)))
    # absolute tail: int_U^inf du / (pi u^{1+k/2} sqrt(prod lam)) <= acc/2
    log_u = (np.log(4.0 / (np.pi * k * acc)) - 0.5 * log_prod) * (2.0 / k)
    u_max = float(np.exp(min(log_u, 50.0)))
    trunc = 2.0 / (np.pi * k * np.exp(0.5 * log_prod) * u_max ** (k / 2.0))

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.5 * (float(lams.sum()) - x) / np.pi
        theta = 0.5 * (float(np.sum(np.arctan(lams * u))) - x * u)
        log_rho = 0.25 * float(np.sum(np.log1p(lams**2 * u * u)))
        return np.sin(theta) / (u * np.exp(log_rho)) / np.pi

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, quad_err = quad(integrand, 0.0, u_max, limit=2000, epsabs=acc / 2.0, epsrel=0.0)
    surv = 0.5 + val
    err = quad_err + trunc
    return CdfOutcome(
        value=min(max(surv, 0.0), 1.0),
        error_bound=float(err),
        converged=bool(err <= acc),
        n_terms=0,
        method="imhof",
    )


def qform_sf(spec: QuadFormSpec | np.ndarray, x: float, acc: float = DEFAULT_QF_ACC) -> CdfOutcome:
    """P(Q > x) for Q = sum_j lambda_j chi2_1, with its certified error bound.

    The lattice inversion runs first; when it cannot certify ``acc``, the
    Imhof quadrature is taken instead if its bound is smaller. Exactly 1 at
    x <= 0.
    """
    lams = spec.lambdas if isinstance(spec, QuadFormSpec) else np.asarray(spec, dtype=float)
    lams = lams[lams > 0.0]
    if lams.size == 0:
        raise ValueError("the eigenvalue spectrum is empty")
    x = float(x)
    if x <= 0.0:
        return CdfOutcome(1.0, 0.0, True, 0, "exact")
    out = _lattice_survival(lams, x, acc)
    if not out.converged:
        alt = _imhof_survival(lams, x, acc)
        if alt.error_bound < out.error_bound:
            return alt
    return out


# ---------------------------------------------------------------------------
# Spectrum summaries
# ---------------------------------------------------------------------------


def spec_diagnostics(spec: QuadFormSpec, gdef: GFisherDef) -> dict:
    return {
        "m_clamp_count": spec.clamp_count,
        "m_repaired": spec.repair_applied,
        "eigen_count": int(spec.lambdas.size),
        "trace": spec.trace,
        "trace_target": gdef.mean,
        "dropped_eigen_mass": spec.dropped_mass,
    }


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


def hybrid_shape(spec: QuadFormSpec) -> float:
    """Moment-ratio gamma shape from the spectrum: S2 S3^2 / (2 S4^2)."""
    lam = spec.lambdas
    s2, s3, s4 = (float(np.sum(lam**t)) for t in (2, 3, 4))
    return s2 * s3**2 / (2.0 * s4**2)
