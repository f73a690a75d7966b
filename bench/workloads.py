"""The four workloads: what one operation calls and how it is checked.

Each workload gives ``round(seed, r)``, the inputs of round ``r`` (a
static method, so inputs can be made before the package is imported);
``prepare(item)``, untimed set-up of one input (objects, problem files);
``op(args)``, the timed call into the program; ``check(item, result)``,
which returns a list of mismatches against the reference (empty when
correct); and ``failure(item, exc)``, which names the known fault an
exception shows, or returns None for an unexpected one.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from pathlib import Path

import numpy as np

import inputs
import reference as ref


class Workload:
    name = ""

    def __init__(self, pkg, workdir: Path, tracer=None):
        self.pkg = pkg
        self.workdir = workdir
        self.tracer = tracer

    def failure(self, item, exc) -> str | None:
        return None

    def _call(self, name, fn, *args, **kwargs):
        # a direct call from the benchmark into a layer: a span when traced
        if self.tracer is not None:
            return self.tracer.timed(name, fn, *args, **kwargs)
        return fn(*args, **kwargs)

    def _box(self, item):
        return self.pkg.IntervalPolynomial(tuple(item["lo"]), tuple(item["hi"]))

    def _problem_file(self, item) -> Path:
        path = self.workdir / f"{item['tag']}.json"
        blob = {
            "order": len(item["lo"]) - 1,
            "intervals": [[a, b] for a, b in zip(item["lo"], item["hi"])],
        }
        if "sample_seed" in item:
            blob["seed"] = item["sample_seed"]
        path.write_text(json.dumps(blob))
        return path

    def _main(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pkg.cli.main(argv)
        return rc, buf.getvalue()


# ------------------------------------------------------------- checks


def check_certificate(item, path: Path, rc: int, out: str) -> list[str]:
    """``check --json``: exit code, verdict line and certificate against
    the reference corners, verdicts, digest and root residuals."""
    fam = item["ref"]
    errs = []
    want_rc = 0 if fam["robust"] else 1
    if rc != want_rc:
        errs.append(f"check exit {rc}, reference wants {want_rc}")
    verdict = next((ln for ln in out.splitlines() if ln.startswith("verdict: ")), "")
    if (verdict == "verdict: STABLE") != fam["robust"]:
        errs.append(f"check printed {verdict!r}, reference robust={fam['robust']}")
    cert = json.loads(path.with_suffix(".cert.json").read_text())
    if cert["input_digest"] != ref.input_digest(item["lo"], item["hi"]):
        errs.append("certificate input_digest differs from the recomputed one")
    if (cert["verdict"] == "STABLE") != fam["robust"]:
        errs.append(f"certificate verdict {cert['verdict']}, reference robust={fam['robust']}")
    if not fam["robust"]:
        k = cert["failing_k"]
        if k is None or fam["stable"][k - 1]:
            errs.append(f"failing_k={k} names a corner the reference calls stable")
    names = [e["name"] for e in cert["kharitonov"]]
    if names != ["k1", "k2", "k3", "k4"]:
        errs.append(f"certificate corners {names}")
        return errs
    for e, coeffs, stable in zip(cert["kharitonov"], fam["corners"], fam["stable"]):
        if e["coeffs"] != coeffs:
            errs.append(f"{e['name']} coefficients differ from the reference corner")
        if e["stable"] != stable:
            errs.append(f"{e['name']} stable={e['stable']}, exact Routh says {stable}")
        roots = [complex(re, im) for re, im in e["roots"]]
        if len(roots) != len(coeffs) - 1:
            errs.append(f"{e['name']} lists {len(roots)} roots for degree {len(coeffs) - 1}")
            continue
        worst = max((ref.relative_residual(coeffs, r) for r in roots), default=0.0)
        if worst > 1e-7:
            errs.append(f"{e['name']} root residual {worst:.3g}")
        if roots:
            right = max(r.real for r in roots)
            if stable and right >= ref.AXIS_TOL:
                errs.append(f"{e['name']} is stable but lists a root at Re={right:.3g}")
            if not stable and right < -ref.AXIS_TOL:
                errs.append(f"{e['name']} is unstable but its rightmost root has Re={right:.3g}")
    return errs


def check_oracle(item, rc: int, out: str, mode: str, count: int) -> list[str]:
    """``oracle --json``: consistency, member count, the exact number of
    unstable vertices in vertex mode and, on an unstable box, a certified
    failing corner."""
    robust = item["ref"]["robust"]
    rep = json.loads(out.strip().splitlines()[-1])
    errs = []
    want_rc = 0 if robust else 1
    if rc != want_rc:
        errs.append(f"oracle {mode} exit {rc}, reference wants {want_rc}")
    if rep["classification"] != "CONSISTENT":
        errs.append(f"oracle {mode} {rep['classification']}")
    if (rep["test_verdict"] == "STABLE") != robust:
        errs.append(f"oracle {mode} corner verdict {rep['test_verdict']}, reference robust={robust}")
    if rep["tested"] != count:
        errs.append(f"oracle {mode} tested {rep['tested']} members, expected {count}")
    if robust and rep["unstable_members"] != 0:
        errs.append(f"oracle {mode} found unstable members of a robustly stable box")
    if not robust and not rep["witness_certified"]:
        errs.append(f"oracle {mode} did not certify the failing corner")
    if mode == "vertices":
        # the failing corner is a vertex, so an unstable box has at least one
        want = item["vertices"].count(False)
        if rep["unstable_members"] != want or (want == 0) != robust:
            errs.append(f"vertex mode found {rep['unstable_members']} unstable vertices, exact Routh {want}")
    return errs


# ---------------------------------------------------------- workloads


class OracleStable(Workload):
    """``cross_validate(box, SamplePlan.random(N, s))`` on robustly stable
    boxes."""

    name = "oracle-stable"

    @staticmethod
    def round(seed, rnd):
        return inputs.oracle_stable_round(seed, rnd)

    def prepare(self, item):
        plan = self.pkg.SamplePlan.random(inputs.ORACLE_COUNT, item["sample_seed"])
        return self._box(item), plan

    def op(self, args):
        return self.pkg.oracle.cross_validate(*args)

    def check(self, item, res):
        errs = []
        if res.classification != "CONSISTENT":
            errs.append(f"cross_validate {res.classification}: {res.note}")
        if res.test_verdict.status.value != "STABLE":
            errs.append(f"corner test {res.test_verdict.status.value} on a robustly stable box")
        rep = res.oracle_report
        if rep.tested != inputs.ORACLE_COUNT or rep.unstable_count != 0:
            errs.append(f"oracle tested {rep.tested}, {rep.unstable_count} unstable")
        return errs


class MixedBoxes(Workload):
    """``check --json``, ``oracle --mode vertices`` and ``oracle --count
    200`` through ``robustpoly.cli.main`` on one random box."""

    name = "mixed-boxes"

    @staticmethod
    def round(seed, rnd):
        items = inputs.mixed_round(seed, rnd)
        for slot, item in enumerate(items):
            item["tag"] = f"mixed-{rnd}-{slot}"
        return items

    def prepare(self, item):
        return self._problem_file(item)

    def op(self, path):
        p = str(path)
        return (
            path,
            self._main(["check", "--json", p]),
            self._main(["oracle", p, "--mode", "vertices", "--json"]),
            self._main(["oracle", p, "--count", str(inputs.MIXED_ORACLE_COUNT), "--json"]),
        )

    def check(self, item, res):
        path, (rc_c, out_c), (rc_v, out_v), (rc_r, out_r) = res
        return (
            check_certificate(item, path, rc_c, out_c)
            + check_oracle(item, rc_v, out_v, "vertices", len(item["vertices"]))
            + check_oracle(item, rc_r, out_r, "random", inputs.MIXED_ORACLE_COUNT)
        )


class Diagnostics(Workload):
    """``rectangle_sweep`` over a robustly stable box plus ``find_crossing``
    on a straight path out of the stable region."""

    name = "diagnostics"

    @staticmethod
    def round(seed, rnd):
        return inputs.diagnostics_round(seed, rnd)

    def prepare(self, item):
        P = self.pkg.RealPolynomial
        path = self.pkg.PolynomialPath.convex(P(tuple(item["start"])), P(tuple(item["end"])))
        return self._box(item), path

    def op(self, args):
        box, path = args
        samples = self._call(
            "kharitonov.rectangle_sweep",
            self.pkg.kharitonov.rectangle_sweep,
            box,
            inputs.SWEEP_OMEGA_MAX,
            inputs.SWEEP_STEPS,
        )
        outcome = self._call(
            "homotopy.find_crossing",
            self.pkg.homotopy.find_crossing,
            path,
            refine_tol=inputs.CROSSING_REFINE,
            steps=inputs.CROSSING_STEPS,
        )
        if self.tracer is not None:
            self.tracer.events["kharitonov.sweep_samples"] += len(samples)
        return samples, outcome

    def check(self, item, res):
        samples, outcome = res
        errs = []
        om = np.array([s.omega for s in samples])
        steps, wmax = inputs.SWEEP_STEPS, inputs.SWEEP_OMEGA_MAX
        grid = {wmax * i / (steps - 1) for i in range(steps)}
        if not grid <= set(om.tolist()) or np.any(np.diff(om) <= 0) or om[-1] > wmax:
            errs.append("sweep frequencies are not the sorted grid plus refinements")
        hm, hp, gm, gp, scale = ref.hg_bounds(item["lo"], item["hi"], om)
        got = np.array([[*s.x_range, *s.y_range] for s in samples])
        dev = np.abs(got - np.stack([hm, hp, gm, gp], axis=1)) / (1.0 + scale[:, None])
        if dev.max() > 1e-9:
            errs.append(f"rectangle bounds off by {dev.max():.3g} relative to numpy.polyval")
        if any(s.contains_zero for s in samples):
            errs.append("a rectangle of a robustly stable box contains 0")
        if not all(s.lo_nonnegative for s in samples):
            errs.append("lo_nonnegative is false for a box with nonnegative lower bounds")
        if outcome.kind.value != "CROSSING" or outcome.witness is None:
            errs.append(f"find_crossing returned {outcome.kind.value}")
        elif abs(outcome.witness.t_star - item["t_star"]) > 1e-6:
            errs.append(
                f"t* = {outcome.witness.t_star!r}, exact-Routh bisection gives {item['t_star']!r}"
            )
        else:
            w = outcome.witness
            p = ref.path_point(item["start"], item["end"], w.t_star)
            res_rel = ref.relative_residual(p, 1j * w.omega_star)
            if res_rel > 1e-6:
                errs.append(f"crossing residual {res_rel:.3g} at omega*={w.omega_star!r}")
        return errs


class HighDegree(Workload):
    """``check --json`` through ``main`` on thin boxes of degree 8-40."""

    name = "high-degree"

    @staticmethod
    def round(seed, rnd):
        items = inputs.high_degree_round(seed, rnd)
        for slot, item in enumerate(items):
            item["tag"] = f"high-{rnd}-{slot}"
        return items

    def prepare(self, item):
        return self._problem_file(item)

    def op(self, path):
        return path, self._main(["check", "--json", str(path)])

    def check(self, item, res):
        path, (rc, out) = res
        return check_certificate(item, path, rc, out)

    def failure(self, item, exc):
        """F1: ``all_roots`` gives up on a corner (``NonConvergence``).
        F2: float Routh calls a stable corner UNSTABLE, and the root
        fallback inside ``kharitonov_test`` then disagrees or gives up."""
        pkg = self.pkg
        if isinstance(exc, pkg.MethodDisagreement):
            return "F2"
        if not isinstance(exc, pkg.NonConvergence):
            return None
        frames = {f.name for f in traceback.extract_tb(exc.__traceback__)}
        fam = item["ref"]
        routh_wrong = any(
            stable and pkg.routh_hurwitz(pkg.RealPolynomial(tuple(k))).status.value == "UNSTABLE"
            for k, stable in zip(fam["corners"], fam["stable"])
        )
        return "F2" if "kharitonov_test" in frames and routh_wrong else "F1"


WORKLOADS = {w.name: w for w in (OracleStable, MixedBoxes, Diagnostics, HighDegree)}
