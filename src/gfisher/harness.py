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
from .kernels import PROB_CLAMP_LO
from .statistic import GFisherDef, evaluate, z_to_pvalues
from .surrogates import MomentSummary

__all__ = [
    "SimConfig",
    "SurvivalTable",
    "TIEReport",
    "empirical_moments",
    "empirical_tie",
    "simulated_moments",
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

    def map_batches(self, fn, nreps: int | None = None, *, stream: int = 0, threads: int = 1) -> list:
        """``fn`` of each replicate batch's z-scores, in batch order.

        ``threads`` > 1 draws and maps the batches on a thread pool; the
        results are the same. ``fn`` should reduce its batch, since every
        result is kept until the last batch is done.
        """

        def run(job):
            b, size = job
            return fn(self.draw(b, size, stream))

        jobs = self.batches(nreps)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(run, jobs))
        return [run(j) for j in jobs]


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

    def power_sums(z: np.ndarray) -> np.ndarray:
        t = evaluate(gdef, z_to_pvalues(z, gdef.side)) - shift
        return np.array([t.sum(), (t**2).sum(), (t**3).sum(), (t**4).sum()])

    sums = sum(config.map_batches(power_sums, total, stream=1), np.zeros(4))  # in batch order
    m1, m2, m3, m4 = sums / total
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


MOMENT_REPS = 100_000  # replicates behind the moments simulated for a method


def simulated_moments(
    gdef: GFisherDef, method_names: Sequence[str], config, nreps: int = MOMENT_REPS
) -> list[MomentSummary | None]:
    """Per method, the moments it is fitted on when the caller gives none.

    mr and the ggd variants share one summary simulated from ``nreps``
    replicates, the others get None. ``config`` is a ``SimConfig`` or a
    function that builds one, called only when something is simulated.
    """
    needs = [name in methods._NEEDS_MOMENTS for name in method_names]
    if not any(needs):
        return [None] * len(needs)
    mom = empirical_moments(gdef, config() if callable(config) else config, nreps)
    return [mom if need else None for need in needs]


def empirical_tie(
    target,
    method: str,
    config: SimConfig,
    alphas: Sequence[float],
    *,
    moments: MomentSummary | None = None,
    kstar: int = dependence.DEFAULT_KSTAR,
    threads: int = 1,
) -> TIEReport:
    """Fraction of simulated replicates whose p-value falls below each level.

    ``target`` is a statistic definition (method = one of the approximation
    tags) or an omnibus panel (method = 'cc' or 'minp'), whose sidedness
    turns replicates into p-values; a panel reports its own ``kstar``.
    ``moments`` default to ``simulated_moments`` for a definition; a panel
    takes none, since ``build_panel`` fitted its components. Every target
    scores a batch (a p-value, or min-p's smallest component p-value) and
    counts finite scores below one level per alpha; non-finite scores are
    ``n_failures``. Streaming and deterministic for a fixed configuration.
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
        if method not in ("cc", "minp"):
            raise ValueError("omnibus targets take method 'cc' or 'minp'")
        if moments is not None:
            raise ValueError("a panel's components are fitted by build_panel; pass moments there")
        tag, kstar = f"omnibus_{method}", target.diagnostics["kstar"]
        if method == "cc":
            levels = alphas

            def score(z: np.ndarray) -> np.ndarray:
                return omnibus.cauchy_combination(omnibus.component_pvalues(target, z))[1]

        else:
            # the min-p omnibus p-value is monotone in the smallest component
            # p-value, so each level inverts once to a threshold on min_j P(j)
            levels = np.array([_invert_minp_level(target, a, config.seed) for a in alphas])

            def score(z: np.ndarray) -> np.ndarray:
                return omnibus.component_pvalues(target, z).min(axis=1)

    else:
        gdef: GFisherDef = target
        if moments is None:
            (moments,) = simulated_moments(gdef, [method], config)
        null = methods.fit_null(gdef, config.sigma, method, kstar=kstar, moments=moments)
        levels, tag = alphas, method

        def score(z: np.ndarray) -> np.ndarray:
            return np.asarray(null.survival(evaluate(gdef, z_to_pvalues(z, gdef.side))))

    def count(z: np.ndarray) -> tuple[np.ndarray, int]:
        # rejections per level among the finite scores, and the non-finite ones
        s = score(z)
        finite = np.isfinite(s)
        s = s[finite]
        return np.array([np.count_nonzero(s < v) for v in levels]), int(np.count_nonzero(~finite))

    counts = np.zeros(alphas.size, dtype=np.int64)
    failures = 0
    for c, bad in config.map_batches(count, threads=threads):  # batch order: deterministic reduction
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
# Survival curves
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
    kstar: int = dependence.DEFAULT_KSTAR,
) -> SurvivalTable:
    """Right-tail probabilities of each method at the ``SURVIVAL_QUANTILES`` of the simulated null.

    Every method is fitted on ``moments``, or without them on its ``simulated_moments``.
    """
    draws = np.concatenate(config.map_batches(lambda z: evaluate(gdef, z_to_pvalues(z, gdef.side))))
    t_q = np.quantile(draws, SURVIVAL_QUANTILES)
    fitted_on = simulated_moments(gdef, method_names, config) if moments is None else [moments] * len(method_names)
    table: dict[str, np.ndarray] = {}
    for name, mom in zip(method_names, fitted_on):
        null = methods.fit_null(gdef, config.sigma, name, kstar=kstar, moments=mom)
        p = np.clip(np.asarray(null.survival(t_q)), PROB_CLAMP_LO, 1.0)
        table[name] = -np.log10(p)
    return SurvivalTable(
        quantiles=SURVIVAL_QUANTILES.copy(),
        statistic_values=t_q,
        empirical_neglog10=-np.log10(np.clip(1.0 - SURVIVAL_QUANTILES, PROB_CLAMP_LO, 1.0)),
        method_neglog10=table,
    )
