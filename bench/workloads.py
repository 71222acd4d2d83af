"""The three benchmark workloads: inputs made from a seed, ops and their checks.

A run repeats whole rounds of ops; every round has the same make-up, so each
known-fault op appears once per round and the failed share is the same in
every run. ``null_sim`` and ``large_panel`` repeat the same ops; ``gene_scan``
draws fresh seeded genes each round next to the same fixed known-fault genes.
An op calls the public ``gfisher`` API only; inputs, structure matrices and
statistic definitions are built before the round is timed, so the op's time
is the program's time. Functions are looked up on their modules at call time
so that the tracer's wrappers see every call.

Workloads:

gene_scan    one gene per op: marginal score panel from a binomial design,
             gb/hyb/q p-values of the d=2 statistic, a d in {1,2,3} omnibus
             panel and its cc and minp p-values.
null_sim     one empirical type-I-error job per op, from a fixed grid.
large_panel  one large correlation panel per op, priced with gb, hyb and q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special, stats

import gfisher
import gfisher.glm

import checks

# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One unit a user waits for.

    ``run`` performs it through the public API and returns its outputs;
    ``check`` returns (check, message) pairs for the checks those outputs
    fail; ``values`` reduces them to the numbers that must repeat exactly in
    later rounds. ``faults`` maps a check to the known program fault that
    makes it fail on this op; a failure of any other check is unexpected.
    ``kind`` groups ops for the per-kind latency report (default: the label).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[tuple[str, str]]]
    values: Callable[[object], tuple]
    faults: dict[str, str] = field(default_factory=dict)
    kind: str = ""


@dataclass
class Workload:
    """``round(r)`` gives the ops of round r (made before the round is timed).

    An op object that appears in several rounds must give the same outputs
    every time.
    """

    round: Callable[[int], list[Op]]
    # checks that need extra program calls, run once after the timed phase
    final_checks: Callable[[], list[str]] = lambda: []


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream))))


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of the clip-and-rescale of ``a`` (a sampler for N(0, a))."""
    vals, vecs = np.linalg.eigh(checks.clip_rescale(a))
    return vecs * np.sqrt(np.maximum(vals, 0.0))


def _tagged(check: str, messages: list[str]) -> list[tuple[str, str]]:
    return [(check, m) for m in messages]


def _pvalues(results: dict) -> tuple:
    return tuple(r.pvalue for r in results.values())


# ---------------------------------------------------------------------------
# gene_scan
# ---------------------------------------------------------------------------

GENE_SAMPLES = 400
# A round is 80 genes: 70 seeded GLM genes, 2 seeded oracle genes and the 8
# fixed genes below, so synthetic genes are 1/8 of the ops.
GLM_GENES = 70  # seeded genes fitted by glm.marginal_score, per round
ORACLE_GENES = 2  # seeded oracle genes under sigma = I, per round
SNP_MIN, SNP_MAX, SNP_SKEW = 5, 200, 2.5  # n = 5 + 195 u^2.5: median 39
ORACLE_LOGP = (-3.0, -2.0)  # seeded oracle depth, exact log10 p of the d=2 statistic
# A GLM gene's op time depends on its minp p-value, through the number of
# quasi-Monte Carlo points the minp rectangle probability takes: op times form
# clusters and the median falls between two of them. Drawn freely, the share
# of genes on each side changes from seed to seed (latency_p50_ms spread 0.30
# over 10 seeds, against 0.15 for ops_per_s). So a round's GLM genes are a
# fixed design: gene i has the i-th SNP-count stratum and stratum
# (PAIRING_STRIDE * i) mod GLM_GENES of the benchmark's own null screen p in
# [SCREEN_P, 1] (the stride keeps SNP count and screen p from being paired in
# order), and its phenotype is redrawn until the screen p falls there. The cut at SCREEN_P also keeps seeded genes
# clear of the minp deep-tail fault (F2), which starts near p = 5e-5 and would
# otherwise fail on some seeds only.
SCREEN_P = 0.01
SCREEN_REPS = 2000
PAIRING_STRIDE = 29  # coprime with GLM_GENES
# Fixed ops on inputs that do not depend on the seed: exact p of the d=2
# statistic under sigma = I with n = 20 (chi2_40), and three-coordinate
# signals on equal:0.5:III with n = 20.
FIXED_ORACLE_LOGP = (-4, -6, -8, -10, -12, -14)
FIXED_MINP_Z = (8.0, 10.0)
FIXED_N = 20
OMNIBUS_DEGREES = (1.0, 2.0, 3.0)


def _skewed_sizes(rng: np.random.Generator, count: int) -> np.ndarray:
    """Stratified draws from the skewed SNP-count law: one per probability stratum."""
    u = (np.arange(count) + rng.random(count)) / count
    return (SNP_MIN + np.floor((SNP_MAX - SNP_MIN + 1) * u**SNP_SKEW)).astype(int).clip(SNP_MIN, SNP_MAX)


def _genotypes(rng: np.random.Generator, n_obs: int, n_snp: int) -> np.ndarray:
    """0/1/2 genotypes from two latent AR(1) haplotypes (LD decays with distance)."""
    rho = rng.uniform(0.5, 0.95)
    maf = rng.uniform(0.05, 0.5, n_snp)
    thr = special.ndtri(1.0 - maf)
    out = np.zeros((n_obs, n_snp))
    for _ in range(2):
        h = np.empty((n_obs, n_snp))
        h[:, 0] = rng.standard_normal(n_obs)
        innov = rng.standard_normal((n_obs, n_snp)) * np.sqrt(1.0 - rho * rho)
        for j in range(1, n_snp):
            h[:, j] = rho * h[:, j - 1] + innov[:, j]
        out += h > thr
    return out


def _fisher_family(z: np.ndarray) -> np.ndarray:
    """The d = 1, 2, 3 statistics of two-sided z rows (chi2_3 quantile by Wilson-Hilferty)."""
    log_p = np.log(2.0) + special.log_ndtr(-np.abs(z))
    zq = -special.ndtri(np.exp(log_p))  # normal quantile of 1 - p
    t3 = 3.0 * (1.0 - 2.0 / 27.0 + zq * np.sqrt(2.0 / 27.0)) ** 3
    return np.stack([(z * z).sum(axis=-1), (-2.0 * log_p).sum(axis=-1), t3.sum(axis=-1)], axis=-1)


class _NullScreen:
    """Monte Carlo null p of a phenotype's gene statistics, computed apart from the program.

    Uses least-squares marginal z-scores on the control-residualized design
    (close to the score test for these designs) and reports the smallest of
    the d = 1, 2, 3 p-values. The null draws depend on the design only, so
    redrawing the phenotype is cheap.
    """

    def __init__(self, rng: np.random.Generator, x: np.ndarray, c: np.ndarray):
        self.q, _ = np.linalg.qr(c)
        self.xr = x - self.q @ (self.q.T @ x)
        g = self.xr.T @ self.xr
        self.sd = np.sqrt(np.diag(g))
        self.dof = x.shape[0] - c.shape[1]
        z_sim = rng.standard_normal((SCREEN_REPS, x.shape[1])) @ _psd_sqrt(g / np.outer(self.sd, self.sd)).T
        self.sim = _fisher_family(z_sim)

    def min_p(self, y: np.ndarray) -> float:
        yr = y - self.q @ (self.q.T @ y)
        z = (self.xr.T @ yr) / self.sd / np.sqrt(yr @ yr / self.dof)
        p = (1.0 + (self.sim >= _fisher_family(z)).sum(axis=0)) / (SCREEN_REPS + 1.0)
        return float(p.min())


def _glm_design(rng: np.random.Generator, n_snp: int, p_lo: float, p_hi: float):
    """A null binomial design whose screen p lies in [p_lo, p_hi).

    Intercept, a normal and a binary covariate, no SNP effect. The phenotype
    is redrawn until the screen p falls in the gene's stratum.
    """
    x = _genotypes(rng, GENE_SAMPLES, n_snp)
    c1 = rng.standard_normal(GENE_SAMPLES)
    c2 = (rng.random(GENE_SAMPLES) < 0.5).astype(float)
    c = np.column_stack([np.ones(GENE_SAMPLES), c1, c2])
    mu = special.expit(-0.3 + 0.4 * c1 + 0.3 * c2)
    screen = _NullScreen(rng, x, c)
    while True:
        y = (rng.random(GENE_SAMPLES) < mu).astype(float)
        if p_lo <= screen.min_p(y) < p_hi:
            return gfisher.glm.DesignData(y=y, x=x, c=c, family="binomial")


def _oracle_z(rng: np.random.Generator, n: int, log10_p: float) -> np.ndarray:
    """z under sigma = I placing the d=2 statistic at exact p = 10**log10_p.

    The target statistic chi2.isf(p, 2n) is split over the n SNPs by random
    shares; each share t_i becomes |z_i| with -2 log(2 Q(|z_i|)) = t_i.
    """
    t = stats.chi2.isf(10.0**log10_p, 2 * n)
    share = rng.dirichlet(np.full(n, 2.0))
    z = -special.ndtri(0.5 * np.exp(-0.5 * share * t))
    return z * rng.choice([-1.0, 1.0], n)


def _gene_op(label, z_source, sigma_source, n, oracle: bool, kind: str, faults: dict | None = None) -> Op:
    """One gene: score panel (when a design is given), d=2 p-values, omnibus.

    ``z_source`` is either a fixed z vector or a DesignData for marginal_score.
    """
    fisher = gfisher.GFisherDef.fisher(n)
    defs = [gfisher.GFisherDef(degrees=np.full(n, d), side="two") for d in OMNIBUS_DEGREES]

    def run():
        if isinstance(z_source, gfisher.glm.DesignData):
            zp = gfisher.glm.marginal_score(z_source)
            z, sigma = zp.z, zp.sigma_hat
        else:
            z, sigma = z_source, sigma_source
        res = {m: gfisher.compute_pvalue(fisher, sigma, z, method=m) for m in ("gb", "hyb", "q")}
        panel = gfisher.build_panel(defs, sigma)
        omni = gfisher.omnibus_pvalues(panel, z)
        return {"z": z, "sigma": sigma, "res": res, "corr": panel.corr, "omni": omni}

    def check(out) -> list[tuple[str, str]]:
        errs = []
        pvals = [(t, r.pvalue) for t, r in out["res"].items()]
        pvals += [(t, out["omni"][t].pvalue) for t in ("cc", "minp")]
        for tag, p in pvals:
            errs += _tagged("unit_interval", checks.check_unit_interval(tag, p))
        if isinstance(out["sigma"], gfisher.CorrMatrix):
            errs += _tagged("sigma_hat", checks.check_correlation("sigma_hat", out["sigma"].values))
        if oracle:
            z = np.asarray(out["z"])
            for tag, r in out["res"].items():
                rtol = checks.ORACLE_RTOL_Q if tag == "q" else checks.ORACLE_RTOL_EXACT
                errs += _tagged(f"oracle.{tag}", checks.check_oracle(r, z, rtol))
                errs += _tagged(f"statistic.{tag}", checks.check_statistic(r, z))
        errs += _tagged("cc", checks.check_cc(out["omni"]["cc"]))
        errs += _tagged("minp", checks.check_minp(out["omni"]["minp"], out["corr"]))
        return errs

    def values(out) -> tuple:
        return _pvalues(out["res"]) + (out["omni"]["cc"].pvalue, out["omni"]["minp"].pvalue)

    return Op(label, run, check, values, faults or {}, kind)


def gene_scan(seed: int) -> Workload:
    """Fresh seeded genes every round, plus the same fixed known-fault genes.

    Round r draws its genes from (seed, r), so a run sees a new set of genes
    in each round while every round has the same make-up.
    """
    # the check each known fault trips: F1 the q oracle check, F2 the minp bounds
    f1, f2 = {"oracle.q": "F1"}, {"minp": "F2"}
    fixed: list[Op] = []
    frng = _rng(0, 99)  # seed-independent inputs for the known-fault ops
    for lp in FIXED_ORACLE_LOGP:
        z = _oracle_z(frng, FIXED_N, float(lp))
        faults = {**f1, **f2} if lp <= -10 else (f2 if lp <= -6 else {})
        fixed.append(_gene_op(f"oracle n={FIXED_N} p=1e{lp}", z, np.eye(FIXED_N), FIXED_N, True, "fixed", faults))
    equal = gfisher.gen_structure("equal", "III", FIXED_N, 0.5)
    for zz in FIXED_MINP_Z:
        z = np.zeros(FIXED_N)
        z[:3] = zz
        fixed.append(_gene_op(f"minp equal n={FIXED_N} z={zz:g}", z, equal, FIXED_N, False, "fixed", f2))

    edges = SCREEN_P + (1.0 - SCREEN_P) * np.arange(GLM_GENES + 1) / GLM_GENES
    edges[-1] = np.inf  # the top stratum includes p = 1

    def make_round(r: int) -> list[Op]:
        rng = _rng(seed, 1000 + r)
        ops: list[Op] = []
        for i, n in enumerate(_skewed_sizes(rng, GLM_GENES)):
            k = PAIRING_STRIDE * i % GLM_GENES
            design = _glm_design(rng, int(n), edges[k], edges[k + 1])
            ops.append(_gene_op(f"r{r} glm{i:02d} n={n}", design, None, int(n), False, "glm"))
        depths = ORACLE_LOGP[0] + (ORACLE_LOGP[1] - ORACLE_LOGP[0]) * (
            (np.arange(ORACLE_GENES) + rng.random(ORACLE_GENES)) / ORACLE_GENES
        )
        for i, (n, lp) in enumerate(zip(_skewed_sizes(rng, ORACLE_GENES), rng.permutation(depths))):
            z = _oracle_z(rng, int(n), float(lp))
            label = f"r{r} oracle{i:02d} n={n} p=1e{lp:.2f}"
            ops.append(_gene_op(label, z, np.eye(int(n)), int(n), True, "oracle"))
        return ops + fixed

    return Workload(make_round)


def gene_scan_warm_up() -> None:
    """Fill the Hermite-coefficient and product-moment caches for d = 1, 2, 3
    and load the Sobol direction numbers the minp rectangle probability uses."""
    defs = [gfisher.GFisherDef(degrees=[d, d], side="two") for d in OMNIBUS_DEGREES]
    gfisher.omnibus_pvalues(gfisher.build_panel(defs, np.eye(2)), [0.5, -0.5])


# ---------------------------------------------------------------------------
# null_sim
# ---------------------------------------------------------------------------

# job sizes are set so that each job takes about half a second here, which
# keeps a run above 40 ops and the median inside one cluster of op times
CALIB_N, CALIB_REPS, CALIB_ALPHAS = 20, 300_000, (1e-2, 1e-3, 1e-4)
HYB_N, HYB_REPS, HYB_ALPHAS = 50, 100_000, (1e-2, 1e-3, 1e-4)
MR_N, MR_D, MR_REPS, MR_ALPHAS = 20, 3.5, 16_000, (1e-2, 1e-3)
Q_N, Q_REPS, Q_ALPHAS = 50, 90, (0.1, 0.05, 0.01)
BINOM_TAIL = 1e-9  # two-sided tail of the calibration interval per level
MEAN_SE = 6.0  # empirical mean within this many standard errors of sum(w d)


def _tie_check(rep, alphas) -> list[str]:
    errs = []
    if rep.n_failures != 0:
        errs.append(f"{rep.method}: n_failures {rep.n_failures}")
    if not np.array_equal(rep.alphas, np.sort(np.asarray(alphas))[::-1]):
        errs.append(f"{rep.method}: levels {rep.alphas.tolist()}")
    if np.any(np.diff(rep.counts) > 0):
        errs.append(f"{rep.method}: counts rise as alpha falls {rep.counts.tolist()}")
    return errs


def null_sim(seed: int) -> Workload:
    seeds = _rng(seed, 2).integers(0, 2**31, 4)

    def tie(*args, **kwargs):
        return gfisher.empirical_tie(*args, **kwargs)

    calib_def = gfisher.GFisherDef.fisher(CALIB_N)
    calib_cfg = gfisher.SimConfig(sigma=np.eye(CALIB_N), nreps=CALIB_REPS, seed=int(seeds[0]))

    def calib_run():
        return tie(calib_def, "gb", calib_cfg, CALIB_ALPHAS, threads=1)

    def calib_check(rep) -> list[str]:
        errs = _tie_check(rep, CALIB_ALPHAS)
        for a, k in zip(rep.alphas, rep.counts):
            lo = stats.binom.ppf(BINOM_TAIL, rep.nreps, a)
            hi = stats.binom.isf(BINOM_TAIL, rep.nreps, a)
            if not lo <= k <= hi:
                errs.append(f"calibration: count {k} at alpha {a:g} outside [{lo:g}, {hi:g}]")
        return errs

    hyb_def = gfisher.GFisherDef.fisher(HYB_N)
    hyb_cfg = gfisher.SimConfig(
        sigma=gfisher.gen_structure("equal", "III", HYB_N, 0.5), nreps=HYB_REPS, seed=int(seeds[1])
    )

    def hyb_run():
        return tie(hyb_def, "hyb", hyb_cfg, HYB_ALPHAS, threads=1)

    mr_def = gfisher.GFisherDef(degrees=np.full(MR_N, MR_D), side="two")
    mr_cfg = gfisher.SimConfig(
        sigma=gfisher.gen_structure("poly", "II", MR_N, 0.5), nreps=MR_REPS, seed=int(seeds[2])
    )

    def mr_run():
        mom = gfisher.empirical_moments(mr_def, mr_cfg)
        return mom, tie(mr_def, "mr", mr_cfg, MR_ALPHAS, moments=mom, threads=1)

    def mr_check(out) -> list[str]:
        mom, rep = out
        errs = _tie_check(rep, MR_ALPHAS)
        if not mr_cfg.sigma_repaired:
            errs.append("mr: poly:0.5:II was not repaired")
        errs += checks.check_correlation("repaired sigma", mr_cfg.sigma.values)
        se = np.sqrt(mom.var / MR_REPS)
        if abs(mom.mu - mr_def.mean) > MEAN_SE * se:
            errs.append(f"empirical_moments: mean {mom.mu:.6g} vs exact {mr_def.mean:.6g} (se {se:.3g})")
        return errs

    q_def = gfisher.GFisherDef.fisher(Q_N)
    q_cfg = gfisher.SimConfig(
        sigma=gfisher.gen_structure("equal", "III", Q_N, 0.5), nreps=Q_REPS, seed=int(seeds[3])
    )

    def q_run():
        return tie(q_def, "q", q_cfg, Q_ALPHAS, threads=1)

    def counts(rep) -> tuple:
        return tuple(rep.counts.tolist()) + (rep.n_failures,)

    ops = [
        Op("calibration gb d=2 sigma=I", calib_run, lambda r: _tagged("tie", calib_check(r)), counts),
        Op("hyb d=2 equal:0.5:III", hyb_run, lambda r: _tagged("tie", _tie_check(r, HYB_ALPHAS)), counts),
        Op("mr d=3.5 poly:0.5:II", mr_run, lambda o: _tagged("tie", mr_check(o)),
           lambda o: (o[0].mu, o[0].var) + counts(o[1])),
        Op("q d=2 equal:0.5:III", q_run, lambda r: _tagged("tie", _tie_check(r, Q_ALPHAS)), counts),
    ]

    def final_checks() -> list[str]:
        # threading must not change results: the calibration job on 1 and 2 threads
        one, two = (tie(calib_def, "gb", calib_cfg, CALIB_ALPHAS, threads=t) for t in (1, 2))
        if not np.array_equal(one.counts, two.counts):
            return [f"threads=2 counts {two.counts.tolist()} differ from threads=1 {one.counts.tolist()}"]
        return []

    return Workload(lambda r: ops, final_checks)


def null_sim_warm_up() -> None:
    """Fill the Hermite-coefficient cache for d = 2 and the non-integer d = 3.5."""
    for d in (2.0, MR_D):
        gfisher.cov_matrix(gfisher.GFisherDef(degrees=[d, d], side="two"), np.eye(2))


# ---------------------------------------------------------------------------
# large_panel
# ---------------------------------------------------------------------------

# (kind, block, n, param): the poly panels are not PSD and need M repaired;
# equal/invequal in blocks II and I do not. Sizes give each op about half a
# second here, so a run has more than 40 ops and the median sits in one cluster.
PANELS = (
    ("poly", "III", 240, 1.0),
    ("poly", "III", 260, 1.0),
    ("equal", "II", 760, 0.5),
    ("invequal", "I", 560, 0.5),
)
M_CAP = 0.99  # documented cap on surrogate correlations


def large_panel(seed: int) -> Workload:
    rng = _rng(seed, 3)
    ops = []
    for kind, block, n, param in PANELS:
        sigma = gfisher.gen_structure(kind, block, n, param)
        z = _psd_sqrt(sigma.values) @ rng.standard_normal(n)
        gdef = gfisher.GFisherDef.fisher(n)
        ops.append(_panel_op(f"{kind}:{param:g}:{block} n={n}", gdef, sigma, z))

    return Workload(lambda r: ops)


def large_panel_warm_up() -> None:
    """Fill the Hermite-coefficient cache for d = 2."""
    gfisher.cov_matrix(gfisher.GFisherDef.fisher(2), np.eye(2))


def _panel_op(label: str, gdef, sigma, z) -> Op:
    def run():
        return {m: gfisher.compute_pvalue(gdef, sigma, z, method=m) for m in ("gb", "hyb", "q")}

    def check(res) -> list[tuple[str, str]]:
        errs = []
        for tag, r in res.items():
            errs += _tagged("unit_interval", checks.check_unit_interval(tag, r.pvalue))
        for tag in ("hyb", "q"):
            d = res[tag].diagnostics
            tol = checks.TRACE_RTOL * d["trace_target"] + d["dropped_eigen_mass"]
            if abs(d["trace"] - d["trace_target"]) > tol:
                errs.append(("trace", f"{tag}: spectrum trace {d['trace']!r} != target {d['trace_target']!r}"))
        gap = abs(np.log10(res["hyb"].pvalue) - np.log10(res["q"].pvalue))
        if not gap <= checks.HYB_Q_LOG10_TOL:
            errs.append(("hyb_q", f"hyb {res['hyb'].pvalue:.4e} and q {res['q'].pvalue:.4e} differ by {gap:.3f} log10"))
        # the surrogate correlation M, rebuilt through the public pieces
        cov = gfisher.cov_matrix(gdef, sigma)
        sc = gfisher.qform.build_m(gdef, sigma, cov)
        raw = checks.surrogate_m_raw(cov, gdef.degrees, sigma.values, M_CAP)
        needs = float(np.linalg.eigvalsh(raw)[0]) < -checks.EIG_TOL
        if needs != bool(res["q"].diagnostics["m_repaired"]):
            errs.append(("m_repair", f"m_repaired={res['q'].diagnostics['m_repaired']} but raw M needs repair: {needs}"))
        if needs:
            errs += _tagged("m_repair", checks.check_repair(raw, sc.m))
        else:
            errs += _tagged("m_repair", checks.check_correlation("M", sc.m))
        return errs

    return Op(label, run, check, _pvalues)


# name -> (warm-up run in set-up, input builder from the seed)
WORKLOADS = {
    "gene_scan": (gene_scan_warm_up, gene_scan),
    "null_sim": (null_sim_warm_up, null_sim),
    "large_panel": (large_panel_warm_up, large_panel),
}
