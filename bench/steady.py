"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py --runs 10 [--workloads oracle-stable,diagnostics] [--first-seed 1]

Runs every workload ``--runs`` times, each run in a fresh process with the
next seed, alternating the order of the workloads from one pass to the
next.  For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  A spread above
the metric's bound in BENCHMARK.json is flagged FAIL, one above a third of
it WARN.  The share of failed operations must be the same in every run of
a workload, every run must be correct, and only high-degree may have
failed operations at all.  The table also goes to ``bench/out/steady-<time>.json``.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MAY_FAIL = {"high-degree"}  # the only workload with inputs built to hit a known fault


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    chosen = args.workloads.split(",")

    results: dict[str, list[dict]] = {w: [] for w in chosen}
    for i in range(args.runs):
        order = chosen if i % 2 == 0 else chosen[::-1]
        for w in order:
            seed = args.first_seed + i
            cmd = [sys.executable, *spec["command"][1:], "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{w} seed {seed} exited with {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            res["wall_s"] = time.perf_counter() - t0
            results[w].append(res)
            print(f"{w:14s} seed {seed:3d}  wall {res['wall_s']:5.1f} s  correct {res['correct']}  "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)

    table = {}
    bad = 0
    for w, runs in results.items():
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        unexpected = w not in MAY_FAIL and any(r["failed"] for r in runs)
        print(f"\n{w}: failed share {sorted(str(s) for s in shares)}"
              f"{'' if len(shares) == 1 else '  FAIL: differs between runs'}"
              f"{'  FAIL: this workload has no known fault' if unexpected else ''}"
              f"{'' if all(r['correct'] for r in runs) else '  FAIL: incorrect output'}")
        bad += len(shares) != 1 or unexpected or not all(r["correct"] for r in runs)
        table[w] = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"]:
                flag = "FAIL"
                bad += 1
            elif spread > m["bound"] / 3:
                flag = "WARN"
            table[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                   "bound": m["bound"], "values": vals}
            print(f"  {m['name']:12s} median {med:10.4f} {m['unit']:4s} q1 {q1:10.4f} q3 {q3:10.4f}"
                  f"  spread {spread:6.3f} (bound {m['bound']}) {flag}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out / f"steady-{stamp}.json").write_text(json.dumps({"runs": results, "table": table}, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
