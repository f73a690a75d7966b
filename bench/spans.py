"""Per-layer spans, recorded from outside the package.

Wrappers are set on the module attribute that a caller looks up, so a
function imported by name into several modules is wrapped once per
importing module and the span name carries the caller:
``oracle.is_hurwitz`` is ``hurwitz.is_hurwitz`` as called from
``robustpoly.oracle``.  Each span has a name, start, end, parent span and
operation id.  ``evaluate``, the hot leaf, is only counted and timed: its
calls add to the aggregates and to the parent's child time but open no
span, so the tracer's own cost stays small beside it.  Aggregates
(count, total time, self time) are kept for every span; the span list
itself is capped so a long traced run stays small.
A layer's self time is its span minus the time of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

SPAN_CAP = 50_000

# (module, attribute, span name): every boundary the benchmark records.
BOUNDARIES = (
    ("cli", "cmd_check", "cli.cmd_check"),
    ("cli", "cmd_oracle", "cli.cmd_oracle"),
    ("cli", "kharitonov_test", "cli.kharitonov_test"),
    ("cli", "kharitonov_polys", "cli.kharitonov_polys"),
    ("cli", "is_hurwitz", "cli.is_hurwitz"),
    ("cli", "all_roots", "cli.all_roots"),
    ("cli", "cross_validate", "cli.cross_validate"),
    ("oracle", "kharitonov_test", "oracle.kharitonov_test"),
    ("oracle", "oracle_verdict", "oracle.oracle_verdict"),
    ("oracle", "is_hurwitz", "oracle.is_hurwitz"),
    ("oracle", "all_roots", "oracle.all_roots"),
    ("kharitonov", "is_hurwitz", "kharitonov.is_hurwitz"),
    ("kharitonov", "evaluate", "kharitonov.evaluate"),
    ("hurwitz", "routh_hurwitz", "hurwitz.routh_hurwitz"),
    ("hurwitz", "all_roots", "hurwitz.all_roots"),
    ("homotopy", "sweep_stability", "homotopy.sweep_stability"),
    ("homotopy", "_hypothesis_scan", "homotopy._hypothesis_scan"),
    ("homotopy", "is_hurwitz", "homotopy.is_hurwitz"),
    ("homotopy", "all_roots", "homotopy.all_roots"),
    ("homotopy", "evaluate", "homotopy.evaluate"),
)


def _effective_degree(coeffs) -> int:
    # same rule as RealPolynomial.degree, without calling it (the method
    # itself is counted)
    tol = 1e-12 * max(abs(c) for c in coeffs)
    for i in range(len(coeffs) - 1, -1, -1):
        if abs(coeffs[i]) > tol:
            return i
    return -1


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, package):
        self.pkg = package
        self.op_id = -1
        self.stack: list[list] = []  # [name, start, child_time, span_index]
        self.count: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.events: Counter = Counter()
        self.spans: list[tuple] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, complex-argument calls, seconds]
        self._saved: list[tuple] = []

    # -- span bookkeeping

    def _open(self, name: str) -> list:
        idx = len(self.spans)
        parent = self.stack[-1][3] if self.stack else None
        if idx < SPAN_CAP:
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        else:
            idx = None
        frame = [name, time.perf_counter(), 0.0, idx]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, idx = frame
        dur = end - start
        self.count[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if idx is not None:
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _wrap(self, name: str, fn):
        tracer = self

        if name.endswith(".is_hurwitz"):

            def wrapper(*args, **kwargs):
                frame = tracer._open(name)
                try:
                    verdict = fn(*args, **kwargs)
                except tracer.pkg.MethodDisagreement:
                    tracer.events["hurwitz.disagreements"] += 1
                    raise
                finally:
                    tracer._close(frame)
                tracer.events["hurwitz.route." + verdict.method] += 1
                return verdict

        elif name.endswith(".all_roots"):

            def wrapper(p, *args, **kwargs):
                tracer.events["roots.degree_sum"] += _effective_degree(p.coeffs)
                frame = tracer._open(name)
                try:
                    return fn(p, *args, **kwargs)
                except tracer.pkg.NonConvergence:
                    tracer.events["roots.nonconvergence"] += 1
                    raise
                finally:
                    tracer._close(frame)

        elif name.endswith(".evaluate"):
            # the hot leaf: thousands of calls per diagnostics operation, so
            # it only adds to its accumulator and to the parent span's child
            # time, and opens no span
            acc = tracer.leaves.setdefault(name, [0, 0, 0.0])
            stack, clock = tracer.stack, time.perf_counter

            def wrapper(p, z):
                t0 = clock()
                try:
                    return fn(p, z)
                finally:
                    dur = clock() - t0
                    acc[0] += 1
                    if z.__class__ is complex:
                        acc[1] += 1
                    acc[2] += dur
                    if stack:
                        stack[-1][2] += dur

        else:

            def wrapper(*args, **kwargs):
                frame = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(frame)

        return wrapper

    def _wrap_members(self, fn):
        # enumerate_members is a generator: time each step of it, so the
        # span covers member generation and not the caller's loop body
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer._open("oracle.enumerate_members")
                try:
                    member = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame)
                tracer.events["oracle.members"] += 1
                yield member

        return wrapper

    def _wrap_degree(self, fn):
        tracer = self

        def degree(poly):
            tracer.events["poly_core.degree_calls"] += 1
            return fn(poly)

        return degree

    # -- install / remove

    def install(self) -> None:
        """Set every wrapper; the originals are kept for :meth:`remove`."""
        mods = {name: getattr(self.pkg, name) for name in
                ("cli", "oracle", "kharitonov", "hurwitz", "homotopy", "poly_core")}
        for mod, attr, name in BOUNDARIES:
            m = mods[mod]
            orig = getattr(m, attr)
            self._saved.append((m, attr, orig))
            setattr(m, attr, self._wrap(name, orig))
        orig = mods["oracle"].enumerate_members
        self._saved.append((mods["oracle"], "enumerate_members", orig))
        mods["oracle"].enumerate_members = self._wrap_members(orig)
        cls = mods["poly_core"].RealPolynomial
        self._saved.append((cls, "degree", cls.degree))
        cls.degree = self._wrap_degree(cls.degree)

    def remove(self) -> None:
        for target, attr, orig in reversed(self._saved):
            setattr(target, attr, orig)
        self._saved.clear()

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (for the benchmark's own
        direct calls into a layer)."""
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    # -- results

    def _fold_leaves(self) -> None:
        for name, (calls, complex_calls, seconds) in self.leaves.items():
            self.count[name] = calls
            self.total[name] = self.self_time[name] = seconds
            if name == "kharitonov.evaluate":
                self.events["kharitonov.corner_evals"] = complex_calls
                self.events["kharitonov.bound_evals"] = calls - complex_calls

    def write(self, path) -> None:
        """Dump the recorded spans (up to the cap) and the aggregates."""
        self._fold_leaves()
        blob = {
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "span_cap": SPAN_CAP,
            "count": dict(self.count),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "events": dict(self.events),
        }
        with open(path, "w") as f:
            json.dump(blob, f)

    def _sum(self, table, suffix: str) -> float:
        return sum(v for k, v in table.items() if k.endswith(suffix))

    def layer_metrics(self, ops: int, speed: float) -> dict[str, float]:
        """Per-layer figures per traced operation (``ops``), with times
        multiplied by ``speed`` (nominal over measured machine speed)."""
        self._fold_leaves()
        c, e = self.count, self.events
        t = defaultdict(float, {k: v * speed for k, v in self.total.items()})
        s = defaultdict(float, {k: v * speed for k, v in self.self_time.items()})
        per = 1.0 / ops

        def ratio(a, b):
            return a / b if b else 0.0

        members = e["oracle.members"]
        roots_calls = self._sum(c, ".all_roots")
        cli_checks = c["cli.cmd_check"]
        bisect = (
            t["homotopy.find_crossing"]
            - t["homotopy.sweep_stability"]
            - t["homotopy._hypothesis_scan"]
            - t["homotopy.all_roots"]
        )
        return {
            "oracle.members": members * per,
            "oracle.us_per_member": 1e6 * ratio(t["oracle.oracle_verdict"], members),
            "oracle.generate_s": t["oracle.enumerate_members"] * per,
            "oracle.classify_s": t["oracle.is_hurwitz"] * per,
            "oracle.witness_solves": c["oracle.all_roots"] * per,
            "oracle.witness_s": t["oracle.all_roots"] * per,
            "hurwitz.calls": self._sum(c, ".is_hurwitz") * per,
            "hurwitz.self_s": self._sum(s, ".is_hurwitz") * per,
            "hurwitz.routh_calls": c["hurwitz.routh_hurwitz"] * per,
            "hurwitz.routh_s": t["hurwitz.routh_hurwitz"] * per,
            "hurwitz.route.stodola": e["hurwitz.route.stodola"] * per,
            "hurwitz.route.routh": e["hurwitz.route.routh"] * per,
            "hurwitz.route.roots": e["hurwitz.route.roots"] * per,
            "hurwitz.disagreements": e["hurwitz.disagreements"] * per,
            "roots.calls": roots_calls * per,
            "roots.s": self._sum(t, ".all_roots") * per,
            "roots.ms_per_call": 1e3 * ratio(self._sum(t, ".all_roots"), roots_calls),
            "roots.mean_degree": ratio(e["roots.degree_sum"], roots_calls),
            "roots.nonconvergence": e["roots.nonconvergence"] * per,
            "cli.check_ms": 1e3 * ratio(t["cli.cmd_check"], cli_checks),
            "cli.check_self_ms": 1e3 * ratio(s["cli.cmd_check"], cli_checks),
            "cli.recheck_calls": ratio(c["cli.is_hurwitz"] + c["cli.all_roots"], cli_checks),
            "cli.oracle_ms": 1e3 * ratio(t["cli.cmd_oracle"], c["cli.cmd_oracle"]),
            "kharitonov.test_calls": self._sum(c, ".kharitonov_test") * per,
            "kharitonov.test_self_s": self._sum(s, ".kharitonov_test") * per,
            "kharitonov.sweep_s": t["kharitonov.rectangle_sweep"] * per,
            "kharitonov.sweep_samples": e["kharitonov.sweep_samples"] * per,
            "kharitonov.us_per_sample": 1e6 * ratio(
                t["kharitonov.rectangle_sweep"], e["kharitonov.sweep_samples"]
            ),
            "kharitonov.bound_evals": e["kharitonov.bound_evals"] * per,
            "kharitonov.corner_evals": e["kharitonov.corner_evals"] * per,
            "poly_core.evaluate_calls": self._sum(c, ".evaluate") * per,
            "poly_core.evaluate_s": self._sum(t, ".evaluate") * per,
            "poly_core.degree_calls_per_member": ratio(e["poly_core.degree_calls"], members),
            "homotopy.find_crossing_s": t["homotopy.find_crossing"] * per,
            "homotopy.sweep_s": t["homotopy.sweep_stability"] * per,
            "homotopy.bisect_s": bisect * per,
            "homotopy.classify_calls": c["homotopy.is_hurwitz"] * per,
        }
