"""Command-line front end.

Subcommands: pvalue, omnibus, cov, simulate-tie, survival, glm-z. Matrices
travel as dense, header-free CSV; statistic definitions as JSON. All outputs
are deterministic in (arguments, input files, seed). Exit codes: 0 success,
2 invalid input, 3 moment-matching equations unsolvable.
"""

from __future__ import annotations

import argparse
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


def _def_from_spec(spec: dict, side_flag: str | None) -> GFisherDef:
    return GFisherDef(
        degrees=np.asarray(spec["degrees"], dtype=float),
        weights=np.asarray(spec["weights"], dtype=float) if "weights" in spec else None,
        side=side_flag or spec.get("side", "two"),
    )


def _read_def(path: str, side_flag: str | None) -> GFisherDef:
    with open(path, encoding="utf-8") as fh:
        return _def_from_spec(json.load(fh), side_flag)


def _read_defs(path: str, side_flag: str | None) -> list[GFisherDef]:
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ValueError("omnibus definitions must be a JSON array")
    return [_def_from_spec(spec, side_flag) for spec in entries]


def _resolve_sigma(args, n_hint: int | None = None) -> CorrMatrix:
    if getattr(args, "sigma", None):
        return CorrMatrix.from_csv(args.sigma)
    if getattr(args, "structure", None):
        parts = args.structure.split(":")
        if len(parts) != 3:
            raise ValueError("--structure takes kind:param:block, e.g. equal:0.5:III")
        kind, param, block = parts
        n = args.n or n_hint
        if not n:
            raise ValueError("--n is required with --structure")
        return gen_structure(kind, block, int(n), float(param))
    raise ValueError("provide a correlation matrix via --sigma or --structure")


def _reject_unused_reps(args, what: str) -> None:
    if args.reps is not None:
        raise ValueError(f"--reps does not apply to {what}: no moments are simulated")


def _resolve_moments(args, gdef, sigma):
    if args.method not in methods._NEEDS_MOMENTS:
        if args.moments is not None:
            raise ValueError(f"--moments does not apply to method {args.method!r}, which takes no moment summary")
        _reject_unused_reps(args, f"method {args.method!r}")
        return None
    if args.moments == "qform":
        _reject_unused_reps(args, "--moments qform")
        m = qform.build_m(gdef, sigma, dependence.cov_matrix(gdef, sigma, args.kstar))
        return qform.hybrid_moments(qform.eigen_spec(gdef, m))
    config = harness.SimConfig(sigma=sigma, nreps=max(args.reps or 100_000, 100), seed=args.seed)
    return harness._auto_moments(gdef, config, [args.method], None, config.nreps)


def _manifest(args, command: str) -> dict:
    keep = (
        "stat",
        "defs",
        "sigma",
        "structure",
        "n",
        "input",
        "kind",
        "method",
        "side",
        "kstar",
        "seed",
        "reps",
        "moments",
        "qf_acc",
        "minp_tol",
        "model",
        "df",
        "alphas",
        "threads",
    )
    out = {"command": command}
    for key in keep:
        if hasattr(args, key) and getattr(args, key) is not None:
            out[key] = getattr(args, key)
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_pvalue(args) -> int:
    gdef = _read_def(args.stat, args.side)
    sigma = _resolve_sigma(args, gdef.n)
    values = _read_values(args.input)
    moments = _resolve_moments(args, gdef, sigma)
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
    defs = _read_defs(args.defs, args.side)
    sigma = _resolve_sigma(args, defs[0].n)
    values = _read_values(args.input)
    tags = [args.method or omnibus._default_method(g.side) for g in defs]
    moment_list = None
    if any(t in methods._NEEDS_MOMENTS for t in tags):  # SimConfig factors sigma: build it only when used
        config = harness.SimConfig(sigma=sigma, nreps=max(args.reps or 100_000, 100), seed=args.seed)
        moment_list = [harness._auto_moments(g, config, [t], None, config.nreps) for g, t in zip(defs, tags)]
    else:
        _reject_unused_reps(args, f"component methods {sorted(set(tags))}")
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
    gdef = _read_def(args.stat, args.side)
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
    if args.config:
        config = harness.sim_config_from_json(args.config)
    else:
        config = harness.SimConfig(
            sigma=_resolve_sigma(args),
            nreps=args.reps,
            seed=args.seed,
            model=args.model,
            df=args.df,
        )
    alphas = [float(a) for a in args.alphas.split(",")]
    if args.defs:
        defs = _read_defs(args.defs, args.side)
        tags = [args.component_method or omnibus._default_method(g.side) for g in defs]
        moment_list = [harness._auto_moments(g, config, [t], None, 100_000) for g, t in zip(defs, tags)]
        panel = omnibus.build_panel(
            defs, config.sigma, method=args.component_method, kstar=args.kstar, moments=moment_list
        )
        report = harness.empirical_tie(
            panel, args.method, config, alphas, threads=args.threads, kstar=args.kstar
        )
    else:
        gdef = _read_def(args.stat, args.side)
        report = harness.empirical_tie(
            gdef, args.method, config, alphas, threads=args.threads, kstar=args.kstar
        )
    payload = report.as_dict()
    payload["manifest"] = _manifest(args, "simulate-tie")
    if args.out and args.out.endswith(".csv"):
        report.to_csv(args.out)
    else:
        _emit(payload, args.out)
    return EXIT_OK


def _cmd_survival(args) -> int:
    gdef = _read_def(args.stat, args.side)
    sigma = _resolve_sigma(args, gdef.n)
    config = harness.SimConfig(sigma=sigma, nreps=args.reps, seed=args.seed, model=args.model, df=args.df)
    table = harness.survival_compare(
        gdef, args.methods.split(","), config, kstar=args.kstar
    )
    if args.out:
        table.to_csv(args.out)
    else:
        table.to_csv(sys.stdout)
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
    p.add_argument("--structure", help="generated structure kind:param:block, e.g. equal:0.5:III")
    p.add_argument("--n", type=int, help="dimension for --structure")


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--side", choices=["one", "two"], help="input p-value sidedness (overrides the definition's)")
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
    p.add_argument("--method", choices=list(methods.METHODS), default="hyb")
    p.add_argument("--moments", choices=["empirical", "qform"], default=None)
    p.add_argument("--reps", type=int, help="replicates for empirical moments")
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
    p.add_argument("--minp-tol", dest="minp_tol", type=float, default=omnibus.MINP_DEFAULT_TOL)
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
    p.add_argument("--config", help="JSON simulation config (replaces sigma/reps/seed/model flags)")
    _add_sigma_args(p)
    p.add_argument("--method", default="hyb", help="approximation tag, or cc/minp with --defs")
    p.add_argument("--component-method", dest="component_method", default=None)
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
    p.add_argument("--methods", default="gb,mr,hyb")
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
        if args.command == "simulate-tie" and not (args.stat or args.defs):
            raise ValueError("simulate-tie needs --stat or --defs")
        return args.handler(args)
    except NoSolutionError as exc:
        _emit(_error_payload("no_solution", str(exc)), getattr(args, "out", None))
        return EXIT_NO_SOLUTION
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit(_error_payload("invalid_input", str(exc)), getattr(args, "out", None))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
