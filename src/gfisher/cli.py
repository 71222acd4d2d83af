"""Command-line front end.

Subcommands: pvalue, omnibus, cov, simulate-tie, survival, glm-z. Matrices
travel as dense, header-free CSV; statistic definitions as JSON. All outputs
are deterministic in (arguments, input files, seed). Exit codes: 0 success,
2 invalid input, 3 moment-matching equations unsolvable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import dependence, glm, harness, methods, omnibus, qform
from .dependence import CorrMatrix, gen_structure
from .statistic import GFisherDef, InputPanel
from .surrogates import NoSolutionError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_SOLUTION = 3


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _error_payload(code: str, message: str) -> dict:
    return {"error": {"type": code, "message": message}}


def _read_values(path: str) -> np.ndarray:
    vals = np.loadtxt(path, delimiter=",", ndmin=1)
    return np.asarray(vals, dtype=float).ravel()


_DEF_KEYS = ("degrees", "weights", "side")


def _def_from_spec(spec: dict) -> GFisherDef:
    if not isinstance(spec, dict):
        raise ValueError("a statistic definition must be a JSON object")
    unknown = sorted(set(spec) - set(_DEF_KEYS))
    if unknown:
        raise ValueError(f"statistic definition has unknown keys {unknown}; expected some of {list(_DEF_KEYS)}")
    return GFisherDef(
        degrees=np.asarray(spec["degrees"], dtype=float),
        weights=np.asarray(spec["weights"], dtype=float) if "weights" in spec else None,
        side=spec.get("side", "two"),
    )


def _read_def(path: str) -> GFisherDef:
    with open(path, encoding="utf-8") as fh:
        return _def_from_spec(json.load(fh))


def _read_defs(path: str) -> list[GFisherDef]:
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list) or not entries:
        raise ValueError("omnibus definitions must be a non-empty JSON array")
    return [_def_from_spec(spec) for spec in entries]


def _resolve_sigma(args, n: int) -> CorrMatrix:
    """``--sigma``, or ``--structure`` at the definition's dimension n."""
    if args.sigma and args.structure:
        raise ValueError("give one of --sigma and --structure, not both")
    if args.sigma:
        return CorrMatrix.from_csv(args.sigma)
    if args.structure:
        parts = args.structure.split(":")
        if len(parts) != 3:
            raise ValueError("--structure takes kind:param:block, e.g. equal:0.5:III")
        kind, param, block = parts
        return gen_structure(kind, block, n, float(param))
    raise ValueError("provide a correlation matrix via --sigma or --structure")


def _sim_config(args, n: int) -> harness.SimConfig:
    """The simulated null of ``simulate-tie`` and ``survival``."""
    return harness.SimConfig(
        sigma=_resolve_sigma(args, n), nreps=args.reps, seed=args.seed, model=args.model, df=args.df
    )


def _component_moments(args, defs, tags, sigma, what: str) -> list:
    """Each component's simulated moments (None where its method takes none), from ``--reps`` replicates."""
    nreps = max(args.reps or harness.MOMENT_REPS, 100)
    # SimConfig factors (and may repair) sigma: build it only when used, and once
    config = functools.cache(lambda: harness.SimConfig(sigma=sigma, nreps=nreps, seed=args.seed))
    moments = [harness.simulated_moments(g, [t], config, nreps)[0] for g, t in zip(defs, tags)]
    if args.reps is not None and all(m is None for m in moments):
        raise ValueError(f"--reps does not apply to {what}: no moments are simulated")
    return moments


_MANIFEST_KEYS = (  # the options a run's manifest echoes, when set
    "stat", "defs", "sigma", "structure", "input", "kind", "method", "component_method", "kstar",
    "seed", "reps", "qf_acc", "minp_tol", "model", "df", "alphas", "threads", "data", "manifest", "estimator",
)


def _manifest(args, command: str) -> dict:
    out = {"command": command}
    for key in _MANIFEST_KEYS:
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_pvalue(args) -> int:
    gdef = _read_def(args.stat)
    sigma = _resolve_sigma(args, gdef.n)
    values = _read_values(args.input)
    args.method = args.method or methods.default_method(gdef)
    (moments,) = _component_moments(args, [gdef], [args.method], sigma, f"method {args.method!r}")
    result = methods.compute_pvalue(
        gdef,
        sigma,
        InputPanel(values, kind=args.kind),
        method=args.method,
        kstar=args.kstar,
        moments=moments,
        qf_acc=args.qf_acc,
    )
    payload = result.as_dict()
    payload["manifest"] = _manifest(args, "pvalue")
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_omnibus(args) -> int:
    defs = _read_defs(args.defs)
    sigma = _resolve_sigma(args, defs[0].n)
    values = _read_values(args.input)
    tags = [args.method or methods.default_method(g) for g in defs]
    moment_list = _component_moments(args, defs, tags, sigma, f"component methods {sorted(set(tags))}")
    panel = omnibus.build_panel(
        defs, sigma, method=args.method, kstar=args.kstar, moments=moment_list, qf_acc=args.qf_acc
    )
    report = omnibus.omnibus_pvalues(
        panel, InputPanel(values, kind=args.kind), minp_tol=args.minp_tol, seed=args.seed
    )
    payload = {
        "component_pvalues": report["component_pvalues"],
        "methods": report["methods"],
        "minp": report["minp"].as_dict(),
        "cc": report["cc"].as_dict(),
        "manifest": _manifest(args, "omnibus"),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_cov(args) -> int:
    gdef = _read_def(args.stat)
    sigma = _resolve_sigma(args, gdef.n)
    cov = dependence.cov_matrix(gdef, sigma, args.kstar)
    if args.out:
        np.savetxt(args.out, cov, delimiter=",", fmt="%.17g")
    else:
        np.savetxt(sys.stdout, cov, delimiter=",", fmt="%.17g")
    if args.out_sigma:
        sigma.to_csv(args.out_sigma)
    return EXIT_OK


def _cmd_simulate_tie(args) -> int:
    if (args.stat is None) == (args.defs is None):
        raise ValueError("simulate-tie needs exactly one of --stat or --defs")
    alphas = [float(a) for a in args.alphas.split(",")]
    if args.defs:
        defs = _read_defs(args.defs)
        config = _sim_config(args, defs[0].n)
        tags = [args.component_method or methods.default_method(g) for g in defs]
        moment_list = [harness.simulated_moments(g, [t], config)[0] for g, t in zip(defs, tags)]
        panel = omnibus.build_panel(
            defs, config.sigma, method=args.component_method, kstar=args.kstar, moments=moment_list
        )
        args.component_method = panel.method_tags
        report = harness.empirical_tie(
            panel, args.method, config, alphas, threads=args.threads, kstar=args.kstar
        )
    else:
        if args.component_method is not None:
            raise ValueError("--component-method applies only with --defs")
        gdef = _read_def(args.stat)
        config = _sim_config(args, gdef.n)
        args.method = args.method or methods.default_method(gdef)
        report = harness.empirical_tie(
            gdef, args.method, config, alphas, threads=args.threads, kstar=args.kstar
        )
    payload = report.as_dict()
    payload["manifest"] = _manifest(args, "simulate-tie")
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_survival(args) -> int:
    gdef = _read_def(args.stat)
    config = _sim_config(args, gdef.n)
    if args.methods:
        names = args.methods.split(",")
    else:  # gb and mr, plus the definition's default method when it is neither
        names = list(dict.fromkeys(["gb", "mr", methods.default_method(gdef)]))
    table = harness.survival_compare(gdef, names, config, kstar=args.kstar)
    table.to_csv(args.out or sys.stdout)
    return EXIT_OK


def _cmd_glm_z(args) -> int:
    data = glm.load_design(args.data, args.manifest)
    fn = {
        "marginal_ls": glm.marginal_ls,
        "joint_ls": glm.joint_ls,
        "marginal_score": glm.marginal_score,
    }[args.estimator]
    panel = fn(data)
    payload = {
        "z": panel.z.tolist(),
        "sigma": panel.sigma_hat.values.tolist(),
        "kind": panel.kind,
        "manifest": _manifest(args, "glm-z"),
    }
    if args.out_sigma:
        panel.sigma_hat.to_csv(args.out_sigma)
    if args.out_z:
        np.savetxt(args.out_z, panel.z[None, :], delimiter=",", fmt="%.17g")
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_sigma_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", help="dense header-free CSV correlation matrix")
    p.add_argument("--structure", help="generated structure kind:param:block at the definition's n, e.g. equal:0.5:III")


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--kstar", type=int, default=dependence.DEFAULT_KSTAR)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfisher",
        description="p-values for weighted inverse-chi-square combination tests under dependence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_threads = int(os.environ.get("GFISHER_THREADS", "1"))

    p = sub.add_parser("pvalue", help="combination-test p-value for one input panel")
    p.add_argument("--stat", required=True, help="statistic JSON: degrees, weights, side")
    _add_sigma_args(p)
    p.add_argument("--input", required=True, help="CSV of z-scores or p-values")
    p.add_argument("--kind", choices=["z", "p"], default="z")
    p.add_argument("--method", choices=list(methods.METHODS), help="default: hyb if two-sided with integer d, else mr")
    p.add_argument("--reps", type=int, help="replicates for simulated moments (mr, ggd*)")
    p.add_argument("--qf-acc", dest="qf_acc", type=float, default=qform.DEFAULT_QF_ACC)
    _add_common(p)
    p.set_defaults(handler=_cmd_pvalue)

    p = sub.add_parser("omnibus", help="minimum-p and Cauchy-combination omnibus p-values")
    p.add_argument("--defs", required=True, help="JSON array of statistic definitions")
    _add_sigma_args(p)
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["z", "p"], default="z")
    p.add_argument("--method", choices=list(methods.METHODS), default=None)
    p.add_argument("--reps", type=int, help="replicates for empirical moments")
    p.add_argument(
        "--minp-tol", dest="minp_tol", type=float, default=omnibus.MINP_DEFAULT_TOL,
        help="absolute error target of the quasi-Monte Carlo min-p for 4 or more definitions; "
        "up to 3 use a deterministic integral (Plackett, tanh-sinh) and report its halving estimate",
    )
    p.add_argument("--qf-acc", dest="qf_acc", type=float, default=qform.DEFAULT_QF_ACC)
    _add_common(p)
    p.set_defaults(handler=_cmd_omnibus)

    p = sub.add_parser("cov", help="covariance matrix of the transformed summands")
    p.add_argument("--stat", required=True)
    _add_sigma_args(p)
    p.add_argument("--out-sigma", dest="out_sigma", help="also write the resolved correlation CSV")
    _add_common(p, seed=False)
    p.set_defaults(handler=_cmd_cov)

    p = sub.add_parser("simulate-tie", help="empirical type-I-error ratios under the null")
    p.add_argument("--stat", help="statistic JSON (single-statistic mode)")
    p.add_argument("--defs", help="JSON array of definitions (omnibus mode)")
    _add_sigma_args(p)
    p.add_argument("--method", help="approximation tag (default hyb if two-sided, integer d; else mr), or cc/minp")
    p.add_argument("--component-method", dest="component_method", help="with --defs; default per definition, as --method")
    p.add_argument("--reps", type=int, default=1_000_000)
    p.add_argument("--alphas", default="1e-2,1e-3")
    p.add_argument("--model", choices=["gmm", "mvt"], default="gmm")
    p.add_argument("--df", type=float, default=10.0)
    p.add_argument("--threads", type=int, default=default_threads)
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate_tie)

    p = sub.add_parser("survival", help="method survival curves along empirical quantiles")
    p.add_argument("--stat", required=True)
    _add_sigma_args(p)
    p.add_argument("--methods", help="comma-separated; default: gb,mr, plus hyb if two-sided with integer d")
    p.add_argument("--reps", type=int, default=1_000_000)
    p.add_argument("--model", choices=["gmm", "mvt"], default="gmm")
    p.add_argument("--df", type=float, default=10.0)
    _add_common(p)
    p.set_defaults(handler=_cmd_survival)

    p = sub.add_parser("glm-z", help="z-score panel and correlation estimate from a design")
    p.add_argument("--data", required=True, help="headered CSV design file")
    p.add_argument("--manifest", required=True, help="JSON sidecar selecting columns")
    p.add_argument(
        "--estimator",
        choices=["marginal_ls", "joint_ls", "marginal_score"],
        default="marginal_score",
    )
    p.add_argument("--out-sigma", dest="out_sigma", help="write the estimated correlation CSV")
    p.add_argument("--out-z", dest="out_z", help="write the z panel CSV")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(handler=_cmd_glm_z)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NoSolutionError as exc:
        _emit(_error_payload("no_solution", str(exc)), getattr(args, "out", None))
        return EXIT_NO_SOLUTION
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit(_error_payload("invalid_input", str(exc)), getattr(args, "out", None))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
