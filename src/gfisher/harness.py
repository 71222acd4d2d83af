"""Simulation laboratory: null samplers, type-I-error ratios, survival curves.

Replication uses counter-based substreams (one Philox jump per batch) derived
from the master seed, so reports are bit-identical for a given configuration
regardless of the number of worker threads; reductions happen in batch order.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np
from scipy.optimize import brentq

from . import dependence, methods, omnibus
from .kernels import PROB_CLAMP_HI, PROB_CLAMP_LO, chisq_inv_sf
from .statistic import GFisherDef, evaluate, z_to_pvalues
from .surrogates import MomentSummary

__all__ = [
    "SimConfig",
    "SurvivalTable",
    "TIEReport",
    "empirical_moments",
    "empirical_tie",
    "inflation_factor",
    "survival_compare",
]


@dataclass
class SimConfig:
    """Null-model simulation settings: the z-score law and the replicate stream.

    Sidedness is not a setting here: it belongs to the statistic, and the
    harness reads it from the definition or panel it simulates. A non-PSD
    correlation matrix is repaired once, up front, so the sampler and every
    method fitted against this configuration see the same matrix.
    """

    sigma: object
    nreps: int
    seed: int = 0
    model: Literal["gmm", "mvt"] = "gmm"
    df: float = 10.0
    batch_size: int = 100_000
    sigma_repaired: bool = field(init=False, default=False)

    def __post_init__(self):
        corr = dependence.as_corr(self.sigma)
        if not corr.is_psd():
            corr = dependence.CorrMatrix(dependence.nearest_correlation(corr.values))
            self.sigma_repaired = True
        self.sigma = corr
        if self.nreps < 1:
            raise ValueError("nreps must be >= 1")
        if self.model not in ("gmm", "mvt"):
            raise ValueError("model must be 'gmm' or 'mvt'")
        if self.model == "mvt" and self.df <= 2:
            raise ValueError("the multivariate-t model needs df > 2 for a correlation matrix")
        vals, vecs = np.linalg.eigh(self.sigma.values)
        self._sqrt = vecs * np.sqrt(np.maximum(vals, 0.0))

    @property
    def n(self) -> int:
        return self.sigma.n

    def rng(self, batch_index: int, stream: int = 0) -> np.random.Generator:
        """Independent deterministic substream per (stream, batch)."""
        bitgen = np.random.Philox(np.random.SeedSequence((int(self.seed), int(stream))))
        return np.random.Generator(bitgen.jumped(batch_index))

    def batches(self, nreps: int | None = None):
        total = self.nreps if nreps is None else int(nreps)
        size = int(self.batch_size)
        return [(b, min(size, total - b * size)) for b in range((total + size - 1) // size)]

    def draw(self, batch_index: int, size: int, stream: int = 0) -> np.ndarray:
        rng = self.rng(batch_index, stream)
        z = rng.standard_normal((size, self.n)) @ self._sqrt.T
        if self.model == "mvt":
            z /= np.sqrt(rng.chisquare(self.df, size=size) / self.df)[:, None]
        return z


def sim_config_from_json(path) -> SimConfig:
    """Build a simulation configuration from a JSON file.

    Keys: ``sigma`` (path to a dense CSV) or ``structure``
    ({kind, param, block, n}), plus ``nreps``, ``seed``, ``model``, ``df``,
    ``batch_size`` with the usual defaults. A ``side`` key is refused:
    sidedness belongs to the statistic definition (or the CLI's ``--side``).
    """
    import json

    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if "side" in spec:
        raise ValueError("simulation config takes no 'side': sidedness belongs to the statistic definition or --side")
    if "sigma" in spec:
        sigma = dependence.CorrMatrix.from_csv(spec["sigma"])
    elif "structure" in spec:
        s = spec["structure"]
        sigma = dependence.gen_structure(s["kind"], s["block"], int(s["n"]), float(s["param"]))
    else:
        raise ValueError("simulation config needs 'sigma' or 'structure'")
    return SimConfig(
        sigma=sigma,
        nreps=int(spec.get("nreps", 1_000_000)),
        seed=int(spec.get("seed", 0)),
        model=spec.get("model", "gmm"),
        df=float(spec.get("df", 10.0)),
        batch_size=int(spec.get("batch_size", 100_000)),
    )


# ---------------------------------------------------------------------------
# Empirical moments
# ---------------------------------------------------------------------------


def empirical_moments(gdef: GFisherDef, config: SimConfig, nreps: int | None = None) -> MomentSummary:
    """Moments of the statistic estimated from simulated null replicates.

    Streaming accumulation of power sums centered at the analytic null mean,
    constant memory in the replicate count.
    """
    total = config.nreps if nreps is None else int(nreps)
    if total < 100:
        raise ValueError("at least 100 replicates are required for moment estimation")
    shift = gdef.mean
    sums = np.zeros(4)
    count = 0
    for b, size in config.batches(total):
        t = evaluate(gdef, z_to_pvalues(config.draw(b, size, stream=1), gdef.side)) - shift
        sums += [t.sum(), (t**2).sum(), (t**3).sum(), (t**4).sum()]
        count += size
    m1 = sums[0] / count
    m2 = sums[1] / count
    m3 = sums[2] / count
    m4 = sums[3] / count
    var = m2 - m1**2
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4
    return MomentSummary(
        mu=shift + m1,
        var=var,
        skew=mu3 / var**1.5,
        exkurt=mu4 / var**2 - 3.0,
        source="empirical",
    )


# ---------------------------------------------------------------------------
# Type-I-error ratios
# ---------------------------------------------------------------------------


@dataclass
class TIEReport:
    """Empirical rejection rates against nominal levels."""

    alphas: np.ndarray
    counts: np.ndarray
    nreps: int
    method: str
    n_failures: int = 0
    config: dict = field(default_factory=dict)

    @property
    def rates(self) -> np.ndarray:
        return self.counts / self.nreps

    @property
    def ratios(self) -> np.ndarray:
        return self.rates / self.alphas

    @property
    def mc_se(self) -> np.ndarray:
        r = self.rates
        return np.sqrt(np.maximum(r * (1.0 - r), 0.0) / self.nreps)

    def as_dict(self) -> dict:
        return {
            "alphas": self.alphas.tolist(),
            "counts": self.counts.tolist(),
            "rates": self.rates.tolist(),
            "ratios": self.ratios.tolist(),
            "mc_se": self.mc_se.tolist(),
            "nreps": self.nreps,
            "method": self.method,
            "n_failures": self.n_failures,
            "config": self.config,
        }

    def to_csv(self, path) -> None:
        rows = np.column_stack([self.alphas, self.rates, self.ratios, self.mc_se])
        np.savetxt(
            path,
            rows,
            delimiter=",",
            header="alpha,rate,ratio,mc_se",
            comments="",
            fmt="%.12g",
        )


def _config_echo(config: SimConfig, side: str, kstar: int) -> dict:
    out = {
        "nreps": config.nreps,
        "seed": config.seed,
        "model": config.model,
        "side": side,
        "n": config.n,
        "sigma_repaired": config.sigma_repaired,
        "kstar": kstar,
    }
    if config.model == "mvt":
        out["df"] = config.df
    return out


def _auto_moments(
    gdef: GFisherDef, config: SimConfig, method_names: Sequence[str], moments, moments_nreps: int
) -> MomentSummary | None:
    """The given moments, or one simulated summary when some method in ``method_names`` needs it."""
    if moments is not None or not any(name in methods._NEEDS_MOMENTS for name in method_names):
        return moments
    return empirical_moments(gdef, config, moments_nreps)


def empirical_tie(
    target,
    method: str,
    config: SimConfig,
    alphas: Sequence[float],
    *,
    moments: MomentSummary | None = None,
    moments_nreps: int = 100_000,
    kstar: int = dependence.DEFAULT_KSTAR,
    threads: int = 1,
) -> TIEReport:
    """Fraction of simulated replicates whose p-value falls below each level.

    ``target`` is a statistic definition (method = one of the approximation
    tags) or an omnibus panel (method = 'cc' or 'minp'), whose sidedness
    turns replicates into p-values. Streaming and deterministic for a fixed
    configuration.
    """
    alphas = np.asarray(sorted(alphas, reverse=True), dtype=float)
    if np.any((alphas <= 0) | (alphas >= 1)):
        raise ValueError("levels must lie in (0, 1)")
    if config.nreps < 10.0 / alphas.min():
        warnings.warn(
            f"nreps = {config.nreps:g} is small for alpha = {alphas.min():g}; "
            "expect noisy ratios",
            RuntimeWarning,
            stacklevel=2,
        )

    if isinstance(target, omnibus.OmnibusPanel):
        count_batch = _omnibus_counter(target, method, config, alphas)
        tag = f"omnibus_{method}"
    else:
        gdef: GFisherDef = target
        mom = _auto_moments(gdef, config, [method], moments, moments_nreps)
        null = methods.fit_null(gdef, config.sigma, method, kstar=kstar, moments=mom)

        def count_batch(z: np.ndarray) -> tuple[np.ndarray, int]:
            t = evaluate(gdef, z_to_pvalues(z, gdef.side))
            p = np.asarray(null.survival(t))
            bad = int(np.count_nonzero(~np.isfinite(p)))
            p = p[np.isfinite(p)]
            return np.array([np.count_nonzero(p < a) for a in alphas]), bad

        tag = method

    jobs = config.batches()

    def run(job):
        b, size = job
        return count_batch(config.draw(b, size))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    counts = np.zeros(alphas.size, dtype=np.int64)
    failures = 0
    for c, bad in results:  # batch order: deterministic reduction
        counts += c
        failures += bad
    return TIEReport(
        alphas=alphas,
        counts=counts,
        nreps=config.nreps,
        method=tag,
        n_failures=failures,
        config=_config_echo(config, target.side, kstar),
    )


def _omnibus_counter(panel, method: str, config: SimConfig, alphas: np.ndarray):
    if method not in ("cc", "minp"):
        raise ValueError("omnibus targets take method 'cc' or 'minp'")

    if method == "cc":

        def count_batch(z: np.ndarray) -> tuple[np.ndarray, int]:
            pj = np.clip(omnibus.component_pvalues(panel, z), PROB_CLAMP_LO, PROB_CLAMP_HI)
            p = omnibus.cauchy_sf(omnibus.cc_statistic(pj))
            return np.array([np.count_nonzero(p < a) for a in alphas]), 0

        return count_batch

    # minp: the omnibus p-value is monotone in the smallest component p-value,
    # so each level inverts once to a threshold on min_j P(j)
    thresholds = np.array(
        [_invert_minp_level(panel, a, config.seed) for a in alphas]
    )

    def count_batch(z: np.ndarray) -> tuple[np.ndarray, int]:
        minp = omnibus.component_pvalues(panel, z).min(axis=1)
        return np.array([np.count_nonzero(minp < t) for t in thresholds]), 0

    return count_batch


def _invert_minp_level(panel, alpha: float, seed: int) -> float:
    rect_tol = float(np.clip(alpha / 50.0, 1e-7, 1e-4))

    def f(log_t: float) -> float:
        res = omnibus.minp_from_components(
            panel, np.full(panel.m, np.exp(log_t)), abs_tol=rect_tol, seed=seed
        )
        return res.pvalue - alpha

    lo, hi = np.log(alpha / panel.m) - 3.0, np.log(min(0.5, alpha))
    flo, fhi = f(lo), f(hi)
    for _ in range(60):
        if flo < 0:
            break
        lo -= 2.0
        flo = f(lo)
    if fhi < 0:
        return float(np.exp(hi))
    return float(np.exp(brentq(f, lo, hi, xtol=1e-12, rtol=1e-9)))


# ---------------------------------------------------------------------------
# Survival curves and inflation factors
# ---------------------------------------------------------------------------

SURVIVAL_QUANTILES = 1.0 - np.logspace(np.log10(0.5), -4, 40)  # up to the 0.9999 quantile


@dataclass
class SurvivalTable:
    """Tail probabilities (-log10) of fitted methods along empirical quantiles."""

    quantiles: np.ndarray
    statistic_values: np.ndarray
    empirical_neglog10: np.ndarray
    method_neglog10: dict[str, np.ndarray]

    def to_csv(self, path) -> None:
        cols = [self.quantiles, self.statistic_values, self.empirical_neglog10]
        names = ["quantile", "statistic", "empirical"]
        for name, vals in self.method_neglog10.items():
            names.append(name)
            cols.append(vals)
        np.savetxt(
            path,
            np.column_stack(cols),
            delimiter=",",
            header=",".join(names),
            comments="",
            fmt="%.12g",
        )


def survival_compare(
    gdef: GFisherDef,
    method_names: Sequence[str],
    config: SimConfig,
    *,
    moments: MomentSummary | None = None,
    moments_nreps: int = 100_000,
    kstar: int = dependence.DEFAULT_KSTAR,
) -> SurvivalTable:
    """Right-tail probabilities of each method at the ``SURVIVAL_QUANTILES`` of the simulated null."""
    draws = np.empty(config.nreps)
    pos = 0
    for b, size in config.batches():
        draws[pos : pos + size] = evaluate(gdef, z_to_pvalues(config.draw(b, size), gdef.side))
        pos += size
    t_q = np.quantile(draws, SURVIVAL_QUANTILES)
    auto = _auto_moments(gdef, config, method_names, moments, moments_nreps)
    table: dict[str, np.ndarray] = {}
    for name in method_names:
        mom = auto if name in methods._NEEDS_MOMENTS else moments
        null = methods.fit_null(gdef, config.sigma, name, kstar=kstar, moments=mom)
        p = np.clip(np.asarray(null.survival(t_q)), PROB_CLAMP_LO, 1.0)
        table[name] = -np.log10(p)
    return SurvivalTable(
        quantiles=SURVIVAL_QUANTILES.copy(),
        statistic_values=t_q,
        empirical_neglog10=-np.log10(np.clip(1.0 - SURVIVAL_QUANTILES, PROB_CLAMP_LO, 1.0)),
        method_neglog10=table,
    )


def inflation_factor(pvalues, p_grid=(0.5, 0.1, 0.01)) -> np.ndarray:
    """Percentile-dependent inflation factor of a p-value collection.

    lambda(p) is the ratio of the chi2_1 upper quantile at the observed
    100p-th percentile of the p-values to the one at p itself; uniformly
    distributed p-values give lambda = 1 at every percentile.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.size == 0:
        raise ValueError("need at least one p-value")
    grid = np.asarray(p_grid, dtype=float)
    if np.any((grid <= 0) | (grid > 0.5)):
        raise ValueError("percentiles must lie in (0, 0.5]")
    observed = np.quantile(p, grid)
    observed = np.clip(observed, PROB_CLAMP_LO, PROB_CLAMP_HI)
    return chisq_inv_sf(observed, 1.0) / chisq_inv_sf(grid, 1.0)
