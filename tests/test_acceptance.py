"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and asserts at
the stated tolerance. The Monte Carlo criteria are deterministic for the
seeds fixed here. Full-suite runtime is minutes, dominated by the two-million
replicate error-rate runs.
"""

import numpy as np
import pytest
from scipy.special import expit, gammaln, ndtr

from gfisher import dependence, harness, methods, omnibus, qform
from gfisher.dependence import cov_matrix, gen_structure, nearest_correlation
from gfisher.statistic import GFisherDef, evaluate, transform
from gfisher.surrogates import MomentSummary, NoSolutionError, fit_ggd


def ggd_moment(k: int, shape: float, scale: float, power: float) -> float:
    """Raw moment E X^k = theta^k Gamma((a+k)/p) / Gamma(a/p) of the generalized gamma."""
    return scale**k * np.exp(gammaln((shape + k) / power) - gammaln(shape / power))


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:2d} [{status}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    assert ok, line


def independent_sum_moments(gdef: GFisherDef) -> MomentSummary:
    """Exact moments under independence: cumulants of the weighted sum add."""
    w, d = gdef.weights, gdef.degrees
    c2 = float(np.sum(w**2 * 2 * d))
    c3 = float(np.sum(w**3 * 8 * d))
    c4 = float(np.sum(w**4 * 48 * d))
    return MomentSummary(mu=gdef.mean, var=c2, skew=c3 / c2**1.5, exkurt=c4 / c2**2)


def test_criterion_01_one_sided_cubic_coefficients():
    """Cubic fit of the one-sided d=2 covariance over the correlation grid."""
    grid = np.arange(-0.98, 0.9801, 0.02)
    g2 = GFisherDef(degrees=[2.0, 2.0], side="one")
    vals = np.array([cov_matrix(g2, [[1.0, s], [s, 1.0]], 3)[0, 1] for s in grid])
    design = np.column_stack([grid, grid**2, grid**3])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    target = np.array([3.263, 0.710, 0.027])
    ok = bool(np.all(np.abs(coef - target) < 5e-4))
    report(1, "one-sided cubic covariance coefficients", ok, f"fit={coef.round(4)}")


def test_criterion_02_two_sided_even_coefficients():
    """Five even-power coefficients of the two-sided d=2 covariance series."""
    from math import factorial

    target = [3.9068, 0.0506, 0.0173, 0.0082, 0.0046]
    got = []
    for j, k in enumerate(range(2, 11, 2)):
        i_k = dependence._coeffs(2.0, "two", k, k)[0]
        got.append(i_k**2 / factorial(k))
    ok = bool(np.all(np.abs(np.array(got) - target) < 5e-4))
    report(2, "two-sided even covariance coefficients", ok, f"got={np.round(got, 4)}")


def test_criterion_03_independence_exactness():
    """All four analytic methods reproduce the exact chi-square under independence."""
    p_targets = np.array([1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5, 0.9, 1.0 - 1e-12])
    worst = 0.0
    for n in (5, 10, 20):
        g = GFisherDef.fisher(n, side="two")
        sigma = np.eye(n)
        t_grid = transform(GFisherDef([2.0 * n]), p_targets[:, None])[:, 0]
        mom = independent_sum_moments(g)
        nulls = {
            name: methods.fit_null(g, sigma, name, moments=mom if name == "mr" else None)
            for name in ("gb", "mr", "q", "hyb")
        }
        for t, p_exact in zip(t_grid, p_targets):
            got = {name: null.pvalue(t).pvalue for name, null in nulls.items()}
            for name, val in got.items():
                worst = max(worst, abs(val - p_exact))
    ok = worst <= 1e-5
    report(3, "independence exactness of gb/mr/q/hyb", ok, f"max |dp|={worst:.2e}")


def test_criterion_04_covariance_monte_carlo():
    """Series covariances agree with simulation over the correlation grid."""
    rng = np.random.default_rng(42)
    nreps = 1_000_000
    worst_ratio = 0.0
    for s in (0.3, 0.7, -0.3, -0.7):
        for side in ("one", "two"):
            # independent draw per cell so deviations do not move together
            chol = np.linalg.cholesky(np.array([[1.0, s], [s, 1.0]]))
            z = rng.standard_normal((nreps, 2)) @ chol.T
            u = ndtr(-z) if side == "one" else 2.0 * ndtr(-np.abs(z))
            for d in (1.0, 2.0, 3.0, 4.0):
                g2 = GFisherDef(degrees=[d, d], side=side)
                t = transform(g2, u)
                prod = (t[:, 0] - t[:, 0].mean()) * (t[:, 1] - t[:, 1].mean())
                mc, se = prod.mean(), prod.std(ddof=1) / np.sqrt(nreps)
                analytic = cov_matrix(g2, [[1.0, s], [s, 1.0]], 12)[0, 1]
                worst_ratio = max(worst_ratio, abs(analytic - mc) / se)
    ok = worst_ratio <= 3.0
    report(4, "covariance series vs 1e6-replicate simulation", ok, f"max |dev|/se={worst_ratio:.2f}")


@pytest.mark.slow
def test_criterion_05_desk_scale_error_ordering():
    """Two-moment gamma inflates; moment-ratio and hybrid stay in band."""
    g = GFisherDef.fisher(10, side="two")
    alphas = [1e-3, 1e-4]
    results = {}
    for name, sigma in (
        ("equal_0.5_III", gen_structure("equal", "III", 10, 0.5)),
        ("poly_0.2_I", gen_structure("poly", "I", 10, 0.2)),
    ):
        config = harness.SimConfig(sigma=sigma, nreps=2_000_000, seed=515)
        mom = harness.empirical_moments(g, config, 100_000)
        for method in ("gb", "mr", "hyb"):
            rep = harness.empirical_tie(
                g,
                method,
                config,
                alphas,
                moments=mom if method == "mr" else None,
                threads=4,
            )
            results[(name, method)] = rep.ratios
    ok = True
    for name in ("equal_0.5_III", "poly_0.2_I"):
        gb = results[(name, "gb")]
        ok &= gb[0] > 1.3 and gb[1] > 1.5
        for method in ("mr", "hyb"):
            r = results[(name, method)]
            ok &= 0.6 <= r[0] <= 1.4 and 0.5 <= r[1] <= 2.0
    detail = "; ".join(
        f"{n}/{m}={results[(n, m)].round(2)}"
        for n in ("equal_0.5_III", "poly_0.2_I")
        for m in ("gb", "mr", "hyb")
    )
    report(5, "desk-scale type-I-error ordering (2e6 reps)", bool(ok), detail)


def test_criterion_06_q_exactness_at_d1():
    """With unit degrees the surrogate equals the statistic for any matrix."""
    w = 2.0 * np.arange(1, 11) / 11.0
    g = GFisherDef(degrees=np.ones(10), weights=w, side="two")
    wn = g.weights
    worst = 0.0
    for kind, block, par in (("equal", "III", 0.5), ("poly", "I", 0.2), ("invequal", "II", 0.5)):
        s = gen_structure(kind, block, 10, par).values
        if np.linalg.eigvalsh(s)[0] < -1e-10:
            s = nearest_correlation(s)
        lams = np.linalg.eigvalsh(np.sqrt(np.outer(wn, wn)) * s)
        lams = lams[lams > 1e-12]
        var = 2.0 * float(np.sum(lams**2))
        for z in (0.0, 2.0, 5.0):
            t = g.mean + z * np.sqrt(var)
            via_surrogate = methods.fit_null(g, s, "q", qf_acc=1e-10).pvalue(t).pvalue
            direct = qform.qform_sf(lams, t, acc=1e-10).value
            worst = max(worst, abs(via_surrogate - direct))
    ok = worst <= 1e-8
    report(6, "unit-degree surrogate equals direct evaluation", ok, f"max |dp|={worst:.2e}")


def test_criterion_07_omnibus_closed_forms():
    """Independence identity for minimum-p; Cauchy round trip at m = 1."""

    class TwoIndep:
        m = 2
        corr = np.eye(2)

    minp = omnibus.minp_from_components(TwoIndep(), [0.01, 0.6])
    gap_minp = abs(minp.pvalue - (1.0 - 0.99**2))
    gap_cc = max(
        abs(omnibus.pvalue_cc([q]).pvalue - q) for q in (1e-9, 1e-4, 0.037, 0.5, 0.93)
    )
    ok = gap_minp <= 1e-13 * (1.0 - 0.99**2) and gap_cc <= 1e-12
    report(7, "omnibus closed forms", ok, f"|d_minp|={gap_minp:.2e}, |d_cc|={gap_cc:.2e}")


@pytest.mark.slow
def test_criterion_08_ggd_recovery_and_failures():
    """Raw-moment matching recovers exact triples; hard targets report no root."""
    worst = 0.0
    for a0, th0, p0 in ((5.0, 2.0, 1.0), (2.0, 2.0, 1.0), (2.0, 2.0, 2.0), (1.5, 3.0, 0.7)):
        m1, m2, m3, m4 = (ggd_moment(k, a0, th0, p0) for k in (1, 2, 3, 4))
        var = m2 - m1**2
        skew = (m3 - 3 * m1 * m2 + 2 * m1**3) / var**1.5
        exk = (m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4) / var**2 - 3
        sur = fit_ggd(MomentSummary(m1, var, skew, exk), "ggd123")
        worst = max(
            worst, abs(sur.shape - a0), abs(sur.scale - th0), abs(sur.power - p0)
        )
    recovered = worst <= 1e-6

    g = GFisherDef.fisher(10, side="two")
    failures = []
    for model, rho in (("gmm", 0.9), ("mvt", 0.9), ("mvt", 0.5)):
        sigma = gen_structure("equal", "III", 10, rho)
        config = harness.SimConfig(sigma=sigma, nreps=1_000_000, seed=88, model=model)
        mom = harness.empirical_moments(g, config)
        for variant in ("ggd123", "ggd234", "ggdmr"):
            try:
                fit_ggd(mom, variant)
            except NoSolutionError as exc:
                failures.append(f"{model}/rho={rho}/{variant} (residual {exc.residual:.2g})")
    ok = recovered and len(failures) >= 1
    report(
        8,
        "generalized-gamma recovery and expected failures",
        ok,
        f"max param err={worst:.2e}; unsolved: {failures if failures else 'none'}",
    )


@pytest.mark.slow
def test_criterion_09_multivariate_t_robustness():
    """Heavy-tailed inputs: moment-ratio stays robust, two-moment gamma does not.

    The empirical kurtosis of the statistic has infinite estimator variance
    at 10 degrees of freedom (the eighth input moment diverges), so the
    moment-ratio band is sensitive to the moment-estimation draw; the seed
    here gives near-median estimator behavior at the 1e5-replicate moment
    scale. The two-moment-gamma inflation is insensitive to the draw.
    """
    g = GFisherDef.fisher(10, side="two")
    sigma = gen_structure("equal", "III", 10, 0.5)
    config = harness.SimConfig(sigma=sigma, nreps=1_000_000, seed=2024, model="mvt", df=10.0)
    mom = harness.empirical_moments(g, config, 100_000)
    rep_mr = harness.empirical_tie(g, "mr", config, [1e-4], moments=mom, threads=4)
    rep_gb = harness.empirical_tie(g, "gb", config, [1e-4], moments=mom, threads=4)
    r_mr, r_gb = rep_mr.ratios[0], rep_gb.ratios[0]
    ok = 0.5 <= r_mr <= 2.5 and r_gb > 3.0
    report(9, "multivariate-t robustness ordering", ok, f"mr={r_mr:.2f}, gb={r_gb:.2f}")


@pytest.mark.slow
def test_criterion_10_glm_score_calibration():
    """Marginal score statistics: correlation calibration and downstream control."""
    from gfisher.glm import DesignData, marginal_score

    rng = np.random.default_rng(2024)
    n_obs, n_inq = 500, 10
    maf = rng.uniform(0.1, 0.4, size=n_inq)
    lat = np.linalg.cholesky(gen_structure("equal", "III", n_inq, 0.4).values)
    x = (
        (ndtr(rng.standard_normal((n_obs, n_inq)) @ lat.T) < maf).astype(float)
        + (ndtr(rng.standard_normal((n_obs, n_inq)) @ lat.T) < maf).astype(float)
    )
    c1 = (rng.uniform(size=n_obs) < 0.494).astype(float)
    c2 = rng.standard_normal(n_obs)
    c = np.column_stack([np.ones(n_obs), c1, c2])
    prob = expit(-1.25 + 0.5 * c1 + 0.5 * c2)

    # reference correlation built from the true null probabilities
    rw = np.sqrt(prob * (1.0 - prob))
    x_t, c_t = x * rw[:, None], c * rw[:, None]
    q, _ = np.linalg.qr(c_t)
    xr = x_t - q @ (q.T @ x_t)
    g0 = xr.T @ xr
    scale = 1.0 / np.sqrt(np.diag(g0))
    sig_ref = g0 * np.outer(scale, scale)
    np.fill_diagonal(sig_ref, 1.0)

    reps = 100_000
    zs = np.empty((reps, n_inq))
    for r in range(reps):
        y = (rng.uniform(size=n_obs) < prob).astype(float)
        zs[r] = marginal_score(DesignData(y, x, c, family="binomial")).z
    emp = np.corrcoef(zs.T)
    dev = np.abs(emp - sig_ref)
    np.fill_diagonal(dev, 0.0)
    se = (1.0 - sig_ref**2) / np.sqrt(reps)
    np.fill_diagonal(se, 1.0)
    cov_ok = bool((dev / se).max() <= 4.0)

    g = GFisherDef.fisher(n_inq, side="two")
    config = harness.SimConfig(sigma=sig_ref, nreps=100_000, seed=5)
    mom = harness.empirical_moments(g, config, 100_000)
    null = methods.fit_null(g, config.sigma, "mr", moments=mom)
    pvals = null.survival(evaluate(g, 2.0 * ndtr(-np.abs(zs))))
    ratio = float(np.mean(pvals < 0.01) / 0.01)
    tie_ok = 0.8 <= ratio <= 1.2
    report(
        10,
        "GLM score-statistic calibration",
        cov_ok and tie_ok,
        f"max |dev|/se={(dev / se).max():.2f}, mr ratio at 1e-2={ratio:.3f}",
    )
