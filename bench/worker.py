"""One workload in one fresh process: set-up, timed rounds, checks, result.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread. Prints one
JSON object as its last line. With ``--setup-only`` it stops after set-up
and reports only the set-up time.

Set-up runs from the launcher's spawn time (passed as ``--spawned-at``, a
``time.monotonic`` reading, which is system-wide) to the end of the warm-up
calls. Inputs are made after that, from the seed, and are not counted.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
TAIL_MIN_OPS = 40
DIFFER = "outputs differ between runs of the op"


def _import_program():
    """Import gfisher from this checkout's ``src``; anything else is refused."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import gfisher
    except ImportError as exc:
        raise SystemExit(f"cannot import gfisher from {ROOT / 'src'}: {exc}")
    if Path(gfisher.__file__).resolve().parent != (ROOT / "src" / "gfisher").resolve():
        raise SystemExit(f"gfisher imported from {gfisher.__file__}, not from this checkout")
    return gfisher


def tail_latency(lat: list[float]) -> tuple[float, str, int]:
    """Highest ladder percentile with at least 10 ops beyond it (nearest rank).

    The timed phase runs at least TAIL_MIN_OPS ops, so p75 always qualifies.
    Returns (value, percentile label, ops beyond).
    """
    xs = sorted(lat)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = -(-int(round(pct * n)) // 100)  # ceil(pct n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], f"p{pct:g}", n - rank
    raise ValueError(f"{n} ops are too few for a tail percentile")


class Rounds:
    """Runs whole rounds of ops, times them and checks what they produced.

    ``lat`` holds every op latency in order, ``kinds`` the op kind of each,
    and ``round_s`` every round's wall time. After each round, outside its
    timing, each op seen for the first time is checked and its outputs
    dropped; an op run again (by label) must give the same values.
    ``failed`` counts executions of ops that failed any check. A failed
    check the op's ``faults`` name goes to ``fault_checks`` and counts under
    its fault in ``faults``; every other failed check, an op that raises
    included, goes to ``unexpected``.
    """

    def __init__(self):
        self.lat: list[float] = []
        self.kinds: list[str] = []
        self.round_s: list[float] = []
        self.ops_per_round = 0
        self.first_values: dict[str, tuple] = {}
        self.errors: dict[str, list[str]] = {}
        self.failed = 0
        self.faults: dict[str, int] = {}
        self.fault_checks: dict[str, list[str]] = {}
        self.unexpected: dict[str, list[str]] = {}

    def run(self, ops, tracer=None) -> float:
        outs = []
        if tracer is not None:
            tracer.install()
        try:
            start = perf_counter()
            for op in ops:
                if tracer is not None:
                    tracer.op = len(self.lat)
                t0 = perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # an op that raises is a failed op
                    out = exc
                self.lat.append(perf_counter() - t0)
                self.kinds.append(op.kind or op.label)
                outs.append(out)
            self.round_s.append(perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.ops_per_round = len(ops)
        for op, out in zip(ops, outs):
            self._settle(op, out)
        return self.round_s[-1]

    def _settle(self, op, out) -> None:
        if op.label not in self.errors:
            if isinstance(out, Exception):
                errs = [("raised", f"{type(out).__name__}: {out}")]
            else:
                try:
                    errs = op.check(out)
                except Exception as exc:
                    errs = [("check raised", f"{type(exc).__name__}: {exc}")]
                self.first_values[op.label] = op.values(out)
            self.errors[op.label] = errs
        elif isinstance(out, Exception) or op.values(out) != self.first_values.get(op.label):
            if ("repeat", DIFFER) not in self.errors[op.label]:
                self.errors[op.label].append(("repeat", DIFFER))
        errs = self.errors[op.label]
        if not errs:
            return
        self.failed += 1
        for fault in sorted({op.faults[c] for c, _ in errs if c in op.faults}):
            self.faults[fault] = self.faults.get(fault, 0) + 1
        known = [f"[{c}] {m}" for c, m in errs if c in op.faults]
        other = [f"[{c}] {m}" for c, m in errs if c not in op.faults]
        if known:
            self.fault_checks[op.label] = known
        if other:
            self.unexpected[op.label] = other

    def p50_ms_by_kind(self) -> dict[str, float]:
        by: dict[str, list[float]] = {}
        for kind, t in zip(self.kinds, self.lat):
            by.setdefault(kind, []).append(t)
        return {k: statistics.median(v) * 1e3 for k, v in by.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    gfisher = _import_program()
    import workloads

    warnings.simplefilter("ignore", RuntimeWarning)  # small-nreps notices from the q job
    warm_up, build = workloads.WORKLOADS[args.workload]
    if args.trace == 0:
        warm_up()
    else:
        # traced warm-up: the coefficient-table fill is the dependence spans' self time
        from tracing import Tracer

        warm_tracer = Tracer(gfisher)
        warm_tracer.install()
        try:
            warm_up()
        finally:
            warm_tracer.uninstall()
        self_s = warm_tracer.summary()["self_s"]
        coeff_cold_s = sum(t for name, t in self_s.items() if name.startswith("dependence."))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl = build(args.seed)
    rounds = Rounds()
    detail: dict = {}
    if args.trace == 0:
        # whole rounds for at least --seconds, and enough ops for the tail percentile
        while sum(rounds.round_s) < args.seconds or len(rounds.lat) < TAIL_MIN_OPS:
            rounds.run(wl.round(len(rounds.round_s)))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat = rounds.lat
        tail, pct, beyond = tail_latency(lat)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(lat) / sum(rounds.round_s), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        detail.update({
            "rounds": len(rounds.round_s),
            "ops_per_round": rounds.ops_per_round,
            "timed_s": sum(rounds.round_s),
            "tail": f"{pct} with {beyond} of {len(lat)} ops beyond",
            "p50_ms_by_kind": rounds.p50_ms_by_kind(),
        })
    else:
        # each round runs twice, untraced and then traced, so both runs see the
        # same inputs and machine; the overhead is the median gap of a pair
        # times the pairs run
        tracer = Tracer(gfisher)
        untraced_s, traced_s = [], []
        while sum(untraced_s) + sum(traced_s) < args.seconds:
            ops = wl.round(len(traced_s))
            untraced_s.append(rounds.run(ops))
            traced_s.append(rounds.run(ops, tracer))
        overhead = statistics.median(t - u for t, u in zip(traced_s, untraced_s)) * len(traced_s)
        metrics = layer_metrics(tracer, coeff_cold_s, overhead, sum(traced_s), len(traced_s) * rounds.ops_per_round)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        detail.update({
            "rounds": len(rounds.round_s),
            "traced_s": sum(traced_s),
            "untraced_s": sum(untraced_s),
            "spans": len(tracer.spans),
            "trace_file": str(trace_path.relative_to(ROOT)),
        })

    try:
        final = wl.final_checks()
    except Exception as exc:
        final = [f"final check raised {type(exc).__name__}: {exc}"]
    unexpected = [f"{label}: " + "; ".join(errs) for label, errs in rounds.unexpected.items()] + final
    detail.update({"faults": rounds.faults, "fault_checks": rounds.fault_checks, "unexpected_failures": unexpected})
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(rounds.lat),
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }))
    return 0


SERIES = {"dependence.cov_matrix", "dependence.var_T", "dependence.truncation_diagnostic", "dependence.cross_cov"}
QF_POINTS = {"qform.qform_sf", "qform.pvalue_q", "qform.qform_cdf_detail"}
FITS = {"surrogates.fit_gb", "surrogates.fit_mr", "surrogates.fit_ggd"}


def layer_metrics(tracer, coeff_cold_s: float, overhead_s: float, traced_wall: float, traced_ops: int) -> dict:
    """Per-layer self times and counts over the traced phase."""
    s = tracer.summary()
    self_s, calls = s["self_s"], s["calls"]

    def tsum(names) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def csum(names) -> int:
        return sum(calls.get(n, 0) for n in names)

    return {
        "statistic.transform_s": (tsum(["statistic.transform"]), "s"),
        "statistic.values": (tracer.count_sum("statistic.transform"), "count"),
        "kernels.gamma_sf_s": (tsum(["kernels.gamma_sf"]), "s"),
        "kernels.gamma_sf_values": (tracer.count_sum("kernels.gamma_sf"), "count"),
        "harness.draw_s": (tsum(["harness.SimConfig.draw"]), "s"),
        "harness.draw_values": (tracer.count_sum("harness.SimConfig.draw"), "count"),
        "harness.empirical_moments_s": (tsum(["harness.empirical_moments"]), "s"),
        "harness.empirical_tie_s": (tsum(["harness.empirical_tie"]), "s"),
        "dependence.coeff_table_cold_s": (coeff_cold_s, "s"),
        "dependence.series_builds": (tracer.outermost_calls(SERIES) / traced_ops, "calls/op"),
        "dependence.cov_series_s": (tsum(SERIES), "s"),
        "dependence.nearest_correlation_s": (tsum(["dependence.nearest_correlation"]), "s"),
        "dependence.nearest_correlation_calls": (csum(["dependence.nearest_correlation"]), "count"),
        "qform.build_m_s": (tsum(["qform.build_m"]), "s"),
        "qform.eigen_spec_s": (tsum(["qform.eigen_spec"]), "s"),
        "qform.qform_spec_calls": (csum(["qform.qform_spec"]), "count"),
        "qform.m_repairs": (tracer.count_sum("qform.build_m", 0), "count"),
        "qform.m_clamps": (tracer.count_sum("qform.build_m", 1), "count"),
        "qform.sf_s": (tsum(QF_POINTS), "s"),
        "qform.sf_points": (csum(QF_POINTS), "count"),
        "methods.fit_null_s": (tsum(["methods.fit_null"]), "s"),
        "methods.fit_null_calls": (csum(["methods.fit_null"]), "count"),
        "methods.survival_s": (tsum(["methods.NullApprox.survival"]), "s"),
        "surrogates.fit_s": (tsum(FITS), "s"),
        "omnibus.build_panel_s": (tsum(["omnibus.build_panel"]), "s"),
        "omnibus.mvn_rect_prob_s": (tsum(["omnibus.mvn_rect_prob"]), "s"),
        "omnibus.mvn_rect_prob_calls": (csum(["omnibus.mvn_rect_prob"]), "count"),
        "glm.marginal_score_s": (tsum(["glm.marginal_score"]), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.coverage": (s["root_s"] / traced_wall, "share"),
        "trace.ops": (traced_ops, "count"),
    }


if __name__ == "__main__":
    sys.exit(main())
