"""Steadiness tool: run each workload k times and compare each metric's spread to its bound.

    python3 bench/steady.py --runs 10                       # every workload, seeds 1..10
    python3 bench/steady.py --workloads null_sim --runs 5 --first-seed 101
    python3 bench/steady.py --runs 10 --against bench/out/steady-a.json --save bench/out/steady-b.json

For every end-to-end metric in BENCHMARK.json it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, the metric's bound and whether the spread is below a third
of it. ``--against`` also prints how far each median moved from an earlier
saved set, against the bound. The failed share of every run is listed; it
must be identical across runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--save", type=Path, help="write the raw results here")
    ap.add_argument("--against", type=Path, help="an earlier --save file to compare medians with")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    raw: dict[str, list[dict]] = {}
    ok = True
    for w in args.workloads.split(","):
        runs = raw[w] = []
        for i in range(args.runs):
            t0 = time.monotonic()
            runs.append(_run(w, args.first_seed + i, args.seconds))
            print(f"{w} seed {args.first_seed + i} done in {time.monotonic() - t0:.1f} s", file=sys.stderr)
        shares = {str(Fraction(r["failed"], r["attempted"])) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"\n{w}: {args.runs} runs, correct={correct}, failed shares {sorted(shares)}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  ok  moved")
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = spread <= m["bound"] / 3.0
            moved = ""
            if w in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[w])
                worse = (med - before) / before * (1 if m["better"] == "lower" else -1)
                moved = f"{worse:+.3f}" + ("" if worse <= m["bound"] else " WORSE")
                ok &= worse <= m["bound"]
            ok &= spread <= m["bound"]
            print(f"  {name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.3f}  "
                  f"{'yes' if steady else 'NO ':3s} {moved}")
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(raw))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
