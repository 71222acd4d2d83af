"""Null samplers, empirical error rates, moments, survival curves, inflation."""

import numpy as np
import pytest

from gfisher import dependence, harness, methods
from gfisher.harness import (
    SimConfig,
    empirical_moments,
    empirical_tie,
    inflation_factor,
    survival_compare,
)
from gfisher.kernels import PROB_CLAMP_LO
from gfisher.statistic import GFisherDef, evaluate, z_to_pvalues


def null_batches(config, nreps=None, stream=0):
    return [config.draw(b, size, stream) for b, size in config.batches(nreps)]


def collect(config, nreps=None, stream=0):
    return np.vstack(null_batches(config, nreps, stream))


class TestSampler:
    def test_identity_unit_variance(self):
        config = SimConfig(sigma=np.eye(3), nreps=1_000_000, seed=1)
        z = collect(config)
        var = z.var(axis=0)
        se = np.sqrt(2.0 / config.nreps)
        assert np.all(np.abs(var - 1.0) < 3 * se)

    def test_equal_correlation_recovery(self):
        sigma = dependence.gen_structure("equal", "III", 2, 0.9)
        config = SimConfig(sigma=sigma, nreps=1_000_000, seed=2)
        z = collect(config)
        r = np.corrcoef(z.T)[0, 1]
        se = (1 - 0.9**2) / np.sqrt(config.nreps)
        assert abs(r - 0.9) < 3 * se + 1e-4

    def test_mvt_margin_kurtosis(self):
        # a t margin with 10 degrees of freedom has kurtosis 3 + 6/(10 - 4) = 4
        config = SimConfig(sigma=np.eye(2), nreps=1_000_000, seed=3, model="mvt", df=10.0)
        z = collect(config)[:, 0]
        kurt = np.mean((z - z.mean()) ** 4) / z.var() ** 2
        # heavy tails inflate the kurtosis sampling error; Monte Carlo se
        boot = np.mean((z[:500_000] - z.mean()) ** 4) / z[:500_000].var() ** 2
        assert abs(kurt - 4.0) < 0.1
        assert abs(boot - kurt) < 0.1

    def test_non_psd_sigma_repaired(self):
        sigma = dependence.gen_structure("poly", "III", 6, 0.2)
        assert not sigma.is_psd()
        config = SimConfig(sigma=sigma, nreps=100, seed=0)
        assert config.sigma_repaired
        assert config.sigma.is_psd(tol=1e-8)

    def test_table_structures_recovered(self):
        # generator -> sampler round trip across all twelve block layouts
        seed = 4
        for kind in ("equal", "poly", "invequal", "invpoly"):
            par = 0.5 if "equal" in kind else 1.0
            for block in ("I", "II", "III"):
                sigma = dependence.gen_structure(kind, block, 10, par)
                config = SimConfig(sigma=sigma, nreps=1_000_000, seed=seed)
                z = collect(config)
                target = config.sigma.values  # post-repair target
                emp = np.corrcoef(z.T)
                se = (1.0 - target**2) / np.sqrt(config.nreps)
                np.fill_diagonal(se, 1.0)
                dev = np.abs(emp - target)
                np.fill_diagonal(dev, 0.0)
                assert (dev / np.maximum(se, 1e-12)).max() < 4.0, (kind, block)
                seed += 1

    def test_seed_determinism_across_batch_sizes(self):
        sigma = dependence.gen_structure("equal", "III", 3, 0.4)
        a = collect(SimConfig(sigma=sigma, nreps=5000, seed=9, batch_size=1000))
        b = collect(SimConfig(sigma=sigma, nreps=5000, seed=9, batch_size=1000))
        np.testing.assert_array_equal(a, b)

    def test_sidedness_is_not_a_simulation_setting(self, tmp_path):
        # sidedness belongs to the statistic; a config cannot carry a second copy
        with pytest.raises(TypeError):
            SimConfig(sigma=np.eye(2), nreps=100, side="one")
        cfg = tmp_path / "sim.json"
        cfg.write_text('{"structure": {"kind": "equal", "param": 0.5, "block": "III", "n": 3}, "side": "two"}')
        with pytest.raises(ValueError, match="sidedness belongs to the statistic"):
            harness.sim_config_from_json(cfg)


class TestEmpiricalMoments:
    def test_independent_fisher_moments(self):
        g = GFisherDef.fisher(10)
        config = SimConfig(sigma=np.eye(10), nreps=1_000_000, seed=5)
        m = empirical_moments(g, config)
        # chi2_20 has skewness sqrt(8/20); allow 3 Monte Carlo standard errors
        se_skew = np.sqrt(6.0 / config.nreps) * 3
        assert m.mu == pytest.approx(20.0, abs=0.05)
        assert m.var == pytest.approx(40.0, rel=0.01)
        assert abs(m.skew - np.sqrt(0.4)) < 3 * se_skew + 0.01
        assert m.source == "empirical"

    def test_degenerate_weights_single_summand(self):
        g = GFisherDef(degrees=[2.0, 2.0], weights=[1.0, 0.0])
        config = SimConfig(sigma=np.eye(2), nreps=200_000, seed=6)
        m = empirical_moments(g, config)
        # normalized weights (2, 0): statistic is 2 * chi2_2
        assert m.mu == pytest.approx(4.0, rel=0.02)
        assert m.var == pytest.approx(16.0, rel=0.05)

    def test_one_sided_definition_gives_one_sided_moments(self):
        # sidedness comes from the definition: the simulated variance matches
        # the one-sided series value (203), not the two-sided statistic's (129)
        g = GFisherDef.fisher(10, side="one")
        sigma = dependence.gen_structure("equal", "III", 10, 0.5)
        m = empirical_moments(g, SimConfig(sigma=sigma, nreps=200_000, seed=3))
        series_var = g.weights @ dependence.cov_matrix(g, sigma) @ g.weights
        assert m.var == pytest.approx(series_var, rel=0.03)

    def test_small_nreps_rejected(self):
        g = GFisherDef.fisher(2)
        config = SimConfig(sigma=np.eye(2), nreps=50, seed=0)
        with pytest.raises(ValueError):
            empirical_moments(g, config)

    @pytest.mark.slow
    def test_moment_self_consistency_small_vs_large(self):
        # the moment-ratio shape from 1e5-replicate moments tracks the
        # 1e7-replicate value; estimator noise at 1e5 is itself ~3-8%
        # relative, so this is a fixed-seed smoke check of consistency
        from gfisher.surrogates import fit_mr

        g = GFisherDef.fisher(10)
        sigma = dependence.gen_structure("equal", "III", 10, 0.5)
        big = empirical_moments(g, SimConfig(sigma=sigma, nreps=10_000_000, seed=1))
        small = empirical_moments(g, SimConfig(sigma=sigma, nreps=100_000, seed=4))
        a_big, a_small = fit_mr(big).shape, fit_mr(small).shape
        assert abs(a_small - a_big) / a_big < 0.05

    def test_streaming_matches_two_pass(self):
        g = GFisherDef.fisher(4)
        sigma = dependence.gen_structure("equal", "III", 4, 0.5)
        config = SimConfig(sigma=sigma, nreps=200_000, seed=7, batch_size=30_000)
        m = empirical_moments(g, config)
        t = np.concatenate([_stats(g, zb) for zb in null_batches(config, stream=1)])
        assert m.mu == pytest.approx(t.mean(), rel=1e-10)
        assert m.var == pytest.approx(t.var(), rel=1e-8)
        sk = np.mean((t - t.mean()) ** 3) / t.var() ** 1.5
        assert m.skew == pytest.approx(sk, rel=1e-8)


def _stats(g, z):
    return evaluate(g, z_to_pvalues(z, g.side))


class TestEmpiricalTie:
    def test_exact_null_is_calibrated(self):
        # two-moment gamma is exact under independence: ratio ~ 1 at 0.01
        g = GFisherDef.fisher(10)
        config = SimConfig(sigma=np.eye(10), nreps=1_000_000, seed=8)
        report = empirical_tie(g, "gb", config, [0.01])
        se = np.sqrt(0.01 * 0.99 / config.nreps)
        assert abs(report.rates[0] - 0.01) < 3 * se

    def test_determinism_across_threads(self):
        g = GFisherDef.fisher(6)
        sigma = dependence.gen_structure("equal", "III", 6, 0.5)
        config = SimConfig(sigma=sigma, nreps=200_000, seed=9)
        r1 = empirical_tie(g, "hyb", config, [0.01, 0.001], threads=1)
        r4 = empirical_tie(g, "hyb", config, [0.01, 0.001], threads=4)
        np.testing.assert_array_equal(r1.counts, r4.counts)

    def test_report_fields(self):
        g = GFisherDef.fisher(4)
        config = SimConfig(sigma=np.eye(4), nreps=20_000, seed=10)
        with pytest.warns(RuntimeWarning):
            report = empirical_tie(g, "hyb", config, [1e-4])
        d = report.as_dict()
        assert set(d) >= {"alphas", "rates", "ratios", "mc_se", "nreps", "method", "config"}

    def test_omnibus_cc_tie(self):
        from gfisher.omnibus import build_panel

        defs = [GFisherDef(degrees=[float(d)] * 6, side="two") for d in (1, 2)]
        sigma = dependence.gen_structure("equal", "III", 6, 0.5)
        panel = build_panel(defs, sigma)
        config = SimConfig(sigma=sigma, nreps=200_000, seed=11)
        report = empirical_tie(panel, "cc", config, [0.01])
        assert 0.5 < report.ratios[0] < 1.5

    def test_omnibus_minp_tie(self):
        from gfisher.omnibus import build_panel

        defs = [GFisherDef(degrees=[float(d)] * 4, side="two") for d in (1, 2)]
        sigma = dependence.gen_structure("equal", "III", 4, 0.3)
        panel = build_panel(defs, sigma)
        config = SimConfig(sigma=sigma, nreps=100_000, seed=12)
        report = empirical_tie(panel, "minp", config, [0.01])
        assert 0.5 < report.ratios[0] < 1.5


class TestSurvivalCompare:
    def test_exact_method_matches_diagonal(self):
        g = GFisherDef.fisher(6)
        config = SimConfig(sigma=np.eye(6), nreps=400_000, seed=13)
        table = survival_compare(g, ["gb"], config)
        # exact model: the method curve tracks -log10(1 - q) within MC noise
        keep = table.quantiles <= 0.999
        gap = np.abs(table.method_neglog10["gb"][keep] - table.empirical_neglog10[keep])
        assert np.max(gap) < 0.05

    def test_one_sided_definition_gives_one_sided_draws(self):
        g = GFisherDef.fisher(4, side="one")
        sigma = dependence.gen_structure("equal", "III", 4, 0.5)
        config = SimConfig(sigma=sigma, nreps=20_000, seed=15, batch_size=7_000)
        table = survival_compare(g, ["gb"], config)
        t = np.concatenate([_stats(g, zb) for zb in null_batches(config)])
        np.testing.assert_array_equal(table.statistic_values, np.quantile(t, table.quantiles))

    def test_csv_output(self, tmp_path):
        g = GFisherDef.fisher(4)
        config = SimConfig(sigma=np.eye(4), nreps=50_000, seed=14)
        table = survival_compare(g, ["gb", "hyb"], config)
        out = tmp_path / "surv.csv"
        table.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "quantile,statistic,empirical,gb,hyb"

    @pytest.mark.slow
    def test_one_sided_moment_ratio_control(self):
        # the moment-ratio method stays calibrated for one-sided inputs,
        # where no quadratic-form surrogate exists
        g = GFisherDef.fisher(10, side="one")
        sigma = dependence.gen_structure("equal", "III", 10, 0.5)
        config = SimConfig(sigma=sigma, nreps=1_000_000, seed=404)
        mom = empirical_moments(g, config, 100_000)
        rep = empirical_tie(g, "mr", config, [1e-3], moments=mom, threads=2)
        assert 0.6 <= rep.ratios[0] <= 1.4

    @pytest.mark.slow
    def test_varying_degrees_method_ordering(self):
        # heterogeneous degrees and weights under strong dense correlation:
        # moment-ratio tracks the simulated tail closely, the quadratic-form
        # pair stays moderately close, the two-moment gamma departs early
        n = 6
        g = GFisherDef(
            degrees=np.arange(1, n + 1, dtype=float),
            weights=2.0 * np.arange(1, n + 1) / (n + 1),
            side="two",
        )
        sigma = dependence.gen_structure("equal", "III", n, 0.7)
        config = SimConfig(sigma=sigma, nreps=1_000_000, seed=505)
        table = survival_compare(g, ["gb", "mr", "q", "hyb"], config, moments_nreps=100_000)
        gap = lambda name: table.method_neglog10[name] - table.empirical_neglog10
        assert np.max(np.abs(gap("mr"))) <= 0.15
        assert np.max(np.abs(gap("q"))) <= 0.35
        assert np.max(np.abs(gap("hyb"))) <= 0.35
        far = table.quantiles >= 0.99
        assert np.max(gap("gb")[far]) > 0.3

    @pytest.mark.slow
    def test_dense_correlation_curve_ordering(self):
        # strong dense correlation at n = 6: the two-moment gamma curve
        # departs visibly above the 0.99 empirical quantile while the
        # moment-ratio and quadratic-form curves track the simulation band
        g = GFisherDef.fisher(6)
        sigma = dependence.gen_structure("equal", "III", 6, 0.7)
        config = SimConfig(sigma=sigma, nreps=1_000_000, seed=33)
        table = survival_compare(g, ["gb", "mr", "q"], config, moments_nreps=200_000)
        far = table.quantiles >= 0.99
        gap = lambda name: table.method_neglog10[name] - table.empirical_neglog10
        # gb overstates significance in the far tail
        assert np.max(gap("gb")[far]) > 0.3
        # mr and q stay within the Monte Carlo band down to p = 1e-4
        assert np.max(np.abs(gap("mr"))) <= 0.15
        assert np.max(np.abs(gap("q"))) <= 0.15


    def test_moments_simulated_once(self, monkeypatch):
        # Fisher at n = 10 under independence: every moment fit succeeds
        g = GFisherDef.fisher(10)
        config = SimConfig(sigma=np.eye(10), nreps=20_000, seed=15)
        names = ["gb", "mr", "ggd123", "ggdmr"]
        calls = []
        inner = harness.empirical_moments

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(harness, "empirical_moments", counting)
        table = survival_compare(g, names, config, moments_nreps=20_000)
        assert len(calls) == 1
        mom = inner(g, config, 20_000)
        for name in names:
            null = methods.fit_null(g, config.sigma, name, moments=None if name == "gb" else mom)
            p = np.clip(np.asarray(null.survival(table.statistic_values)), PROB_CLAMP_LO, 1.0)
            assert np.array_equal(table.method_neglog10[name], -np.log10(p)), name


class TestInflationFactor:
    def test_uniform_grid_is_unity(self):
        p = np.linspace(1e-6, 1.0 - 1e-6, 100_001)
        lam = inflation_factor(p, [0.5])
        assert lam[0] == pytest.approx(1.0, abs=1e-4)

    def test_halved_pvalues_frozen_value(self):
        # frozen: chi2 quantile ratio at the median for p-values halved
        p = np.linspace(1e-6, 1.0 - 1e-6, 100_001) / 2.0
        lam = inflation_factor(p, [0.5])
        assert lam[0] == pytest.approx(2.9087662136554395, rel=1e-3)

    def test_uniform_draws_near_one(self):
        rng = np.random.default_rng(15)
        p = rng.uniform(size=100_000)
        lam = inflation_factor(p, [0.5, 0.1, 0.01])
        # bootstrap-scale tolerance at 1e5 draws
        assert np.all(np.abs(lam - 1.0) < 0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            inflation_factor([], [0.5])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            inflation_factor([0.5], [0.7])
