"""Benchmark launcher: runs workloads of the gfisher benchmark in fresh processes.

    python3 bench/run.py --workload gene_scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                      # all three workloads, one after another

Each workload runs in its own single-threaded process (OpenBLAS and OpenMP
pinned to one thread). With ``--trace 0`` the launcher first starts
``SETUP_PROBES`` processes that only set up, then the measuring process, and
reports the median set-up time of all of them with the measured end-to-end
metrics. With ``--trace 1`` it starts one process that alternates untraced
and traced rounds, and reports the per-layer metrics.

The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gene_scan", "null_sim", "large_panel")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 20
# one workload, probes and measuring process together, must end inside 180 s
WORKLOAD_BUDGET_S = 170
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GFISHER_THREADS": "1",
}


class RunError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    timeout = max(deadline - spawned, 0.0)
    if setup_only:
        timeout = min(timeout, PROBE_TIMEOUT_S)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise RunError(f"{workload}: worker exceeded {timeout:g} s") from exc
    if proc.returncode != 0:
        raise RunError(f"{workload}: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{workload}: worker printed nothing")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload: set-up probes (untraced only), then the measuring process."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = []
    if trace == 0:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(workload, seed, seconds, 0, True, deadline)["setup_s"])
    result = _worker(workload, seed, seconds, trace, False, deadline)
    if trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        result["detail"]["setup_samples_s"] = setups
    return result


def _report(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:12s} {name:38s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:12s} {'attempted':38s} {result['attempted']}")
    print(f"{workload:12s} {'failed':38s} {result['failed']}")
    print(f"{workload:12s} detail {json.dumps(result['detail'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            _report(name, results[name])
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
