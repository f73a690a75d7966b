"""Benchmark for robustpoly: one workload, one process, one thread.

    python3 bench/run.py --workload oracle-stable --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations until the operations have
taken ``--seconds`` of wall time and at least 200 were attempted, checks
each result against the reference in ``reference.py``, and prints one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when an output is wrong, when an operation fails
other than by the known fault its input was built to hit, or when a
warm-up operation does either.  Times are scaled to the machine's nominal
speed by a calibration kernel timed between operations
(``calibrate.py``).  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones,
taken from spans recorded around the package's functions (``spans.py``),
and the run alternates untraced and traced pairs of rounds to measure the
tracing overhead.  The package is imported from ``src/`` of the checkout
this file sits in.  Details of each run and the span file go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
from spans import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 11  # set-up is done this many times; setup_s is the median
WARMUP_OPS = 2
# The warm-up inputs are the same whatever --seed is, so set-up does the
# same work in every run; seeded boxes differ in degree from seed to seed.
WARMUP_SEED = 0
WARMUP_ROUND = 2**31  # round index reserved for warm-up inputs
TAIL_PERCENTILE = 95  # the op_tail_ms percentile of every workload
MIN_OPS = 200  # so that at least ten operations lie beyond the tail percentile


def import_package():
    """Import robustpoly afresh from the checkout's ``src/``, dropping any
    copy already loaded so every set-up pays the full import."""
    for name in [m for m in sys.modules if m == "robustpoly" or m.startswith("robustpoly.")]:
        del sys.modules[name]
    pkg = importlib.import_module("robustpoly")
    importlib.import_module("robustpoly.cli")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "robustpoly":
        raise ImportError(f"robustpoly came from {pkg.__file__}, not from this checkout")
    return pkg


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank ``pct``-th percentile and how many values lie above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def new_tally() -> dict:
    return {"ok": 0, "wrong": 0, "failed": 0, "unexpected": 0, "faults": Counter(), "notes": []}


def run_op(wl, item, out: dict) -> float:
    """Prepare, time and check one operation; tally it into ``out``."""
    args = wl.prepare(item)
    t0 = time.perf_counter()
    try:
        res = wl.op(args)
    except Exception as exc:  # a failed operation is counted, not fatal
        dt = time.perf_counter() - t0
        fault = wl.failure(item, exc)
        out["failed"] += 1
        out["faults"][fault or "unexpected"] += 1
        if fault is None or fault != item.get("fault"):
            out["unexpected"] += 1
            out["notes"].append(f"{wl.name} {item.get('tag', '')}: {type(exc).__name__}: {exc}")
        return dt
    dt = time.perf_counter() - t0
    try:
        errs = wl.check(item, res)
    except (LookupError, TypeError, ValueError, OSError) as exc:  # malformed output
        errs = [f"output could not be checked: {type(exc).__name__}: {exc}"]
    if errs:
        out["wrong"] += 1
        out["notes"].extend(f"{wl.name} {item.get('tag', '')}: {e}" for e in errs)
    else:
        out["ok"] += 1
    if item.get("fault"):
        out["notes"].append(f"{wl.name}: a box expected to hit {item['fault']} passed")
    return dt


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_package()
    except ImportError as e:
        print(f"error: cannot import robustpoly from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(cls, args, workdir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    warm_tally = new_tally()
    warm = cls.round(WARMUP_SEED, WARMUP_ROUND)[:WARMUP_OPS]
    setups = []
    setups_scaled = []
    kernel_s = []  # every calibration sample of the run
    for _ in range(SETUP_REPEATS):
        before = calibrate.kernel()
        t0 = time.perf_counter()
        pkg = import_package()
        wl = cls(pkg, workdir)
        for item in warm:
            item.setdefault("tag", f"warmup-{len(setups)}")
            run_op(wl, item, warm_tally)
        setups.append(time.perf_counter() - t0)
        after = calibrate.kernel()
        kernel_s += [before, after]
        # scaled like an operation, by the kernel times just around it
        setups_scaled.append(setups[-1] * calibrate.NOMINAL_S / (0.5 * (before + after)))

    tracer = Tracer(pkg) if args.trace else None
    out = new_tally()
    raw: list[float] = []  # wall time of each operation
    times: list[float] = []  # the same, scaled to the nominal machine speed
    traced_times: list[float] = []
    plain_times: list[float] = []
    rounds = 0
    while sum(raw) < args.seconds or len(raw) < MIN_OPS or (tracer is not None and rounds < 4):
        items = cls.round(args.seed, rounds)
        # rounds go untraced, untraced, traced, traced, ... so both halves
        # see the same mix of round compositions (some alternate by round)
        traced = tracer is not None and rounds % 4 >= 2
        wl = cls(pkg, workdir, tracer if traced else None)
        round_raw: list[float] = []
        round_kernel = [calibrate.kernel()]
        if traced:
            tracer.install()
        try:
            for item in items:
                if traced:
                    tracer.op_id = len(raw) + len(round_raw)
                round_raw.append(run_op(wl, item, out))
                round_kernel.append(calibrate.kernel())
        finally:
            if traced:
                tracer.remove()
        kernel_s += round_kernel
        raw += round_raw
        # each operation is scaled by the kernel times just before and after it
        scaled = [
            dt * calibrate.NOMINAL_S / (0.5 * (k0 + k1))
            for dt, k0, k1 in zip(round_raw, round_kernel, round_kernel[1:])
        ]
        times += scaled
        (traced_times if traced else plain_times).extend(scaled)
        rounds += 1

    attempted = len(times)
    p_tail, beyond = tail(times, TAIL_PERCENTILE)
    if beyond < 10:
        out["notes"].append(f"only {beyond} operations beyond p{TAIL_PERCENTILE}; the tail is not resolved")
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setups_scaled),
            "ops_per_s": out["ok"] / sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * p_tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
    else:
        speed = calibrate.NOMINAL_S / statistics.median(kernel_s)
        metrics = tracer.layer_metrics(len(traced_times), speed)
        metrics["trace.overhead_ratio"] = statistics.mean(traced_times) / statistics.mean(plain_times)
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "attempted": attempted,
        "ok": out["ok"],
        "wrong": out["wrong"],
        "failed": out["failed"],
        "unexpected": out["unexpected"],
        "faults": out["faults"],
        "warmup": {k: warm_tally[k] for k in ("ok", "wrong", "failed", "unexpected")},
        "tail_percentile": TAIL_PERCENTILE,
        "beyond_tail": beyond,
        "setup_runs_s": setups,
        "setup_scaled_s": setups_scaled,
        "kernel_s": kernel_s,
        "op_wall_s": raw,
        "op_scaled_s": times,
        "notes": (warm_tally["notes"] + out["notes"])[:50],
        "metrics": metrics,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json")
    correct = out["wrong"] == 0 and out["unexpected"] == 0
    correct = correct and warm_tally["wrong"] == 0 and warm_tally["unexpected"] == 0
    for note in (warm_tally["notes"] + out["notes"])[:20]:
        print(note, file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": out["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
