"""Command line front end.

Problem files are small JSON objects::

    {"order": 4,
     "intervals": [[10, 21], [46, 50], [38, 40], [6, 12], [0, 1]],
     "omega_max": 10.0,    // optional, rect default
     "steps": 1000,        // optional, rect default
     "seed": 0}            // optional, oracle default

Exit codes: 0 stable / consistent, 1 not robustly stable, 2 bad input,
3 the oracle contradicted the corner test (should never happen).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, svgplot
from .homotopy import NAMED_FAMILIES, CrossingKind, PolynomialPath, find_crossing
# not called here; kept so that bench/spans.py can still wrap cli.is_hurwitz
from .hurwitz import is_hurwitz  # noqa: F401
from .kharitonov import (
    IntervalPolynomial,
    kharitonov_polys,
    kharitonov_test,
    rectangle_sweep,
)
from .oracle import SamplePlan, cross_validate, witness_root
from .poly_core import RealPolynomial, format_poly
from .roots import all_roots

EXIT_STABLE = 0
EXIT_UNSTABLE = 1
EXIT_INPUT = 2
EXIT_CONTRADICTION = 3

K_NAMES = ("k1", "k2", "k3", "k4")


class ProblemError(ValueError):
    pass


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ProblemError(f"{where}: missing required field {key!r}")
    return obj[key]


def load_problem(path: str) -> tuple[IntervalPolynomial, dict]:
    """Parse and validate a problem file; raises ProblemError with the
    offending field named."""
    where = str(path)
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ProblemError(f"{where}: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemError(
            f"{where}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ProblemError(f"{where}: top level must be an object")
    known = {"order", "intervals", "omega_max", "steps", "seed"}
    for key in data:
        if key not in known:
            raise ProblemError(f"{where}: unknown field {key!r}")
    order = _need(data, "order", where)
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ProblemError(f"{where}: 'order' must be a nonnegative integer")
    intervals = _need(data, "intervals", where)
    if not isinstance(intervals, list) or len(intervals) != order + 1:
        got = len(intervals) if isinstance(intervals, list) else type(intervals).__name__
        raise ProblemError(
            f"{where}: 'intervals' must hold {order + 1} [lo, hi] pairs "
            f"for order {order}, got {got}"
        )
    pairs = []
    for i, pair in enumerate(intervals):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise ProblemError(f"{where}: intervals[{i}] must be an [lo, hi] number pair")
        lo, hi = float(pair[0]), float(pair[1])
        if not lo <= hi:
            raise ProblemError(f"{where}: intervals[{i}] is empty: [{lo}, {hi}]")
        pairs.append((lo, hi))
    if pairs[-1] == (0.0, 0.0):
        raise ProblemError(f"{where}: intervals[{order}] must not be [0, 0]")
    opts = {}
    if "omega_max" in data:
        v = data["omega_max"]
        if (
            not isinstance(v, (int, float))
            or isinstance(v, bool)
            or not 0 < v <= sys.float_info.max
        ):
            raise ProblemError(f"{where}: 'omega_max' must be a positive finite number")
        opts["omega_max"] = float(v)
    if "steps" in data:
        v = data["steps"]
        if not isinstance(v, int) or isinstance(v, bool) or v < 2:
            raise ProblemError(f"{where}: 'steps' must be an integer >= 2")
        opts["steps"] = v
    if "seed" in data:
        v = data["seed"]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ProblemError(f"{where}: 'seed' must be an integer")
        opts["seed"] = v
    return IntervalPolynomial.from_intervals(pairs), opts


def _digest(box: IntervalPolynomial) -> str:
    canon = json.dumps(
        {"order": box.order, "intervals": [[lo, hi] for lo, hi in zip(box.lo, box.hi)]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


def _trimmed(p: RealPolynomial) -> list[float]:
    """Coefficients up to the effective degree (JSON output lists the
    polynomial, not the box-aligned padding)."""
    deg = p.degree()
    if deg is None:
        return [0.0]
    return list(p.coeffs[: deg + 1])


def _fmt_root(r: complex) -> str:
    if abs(r.imag) < 0.005:
        return f"{r.real:.2f}"
    return f"{r.real:.2f}{r.imag:+.2f}i"


def _say(args, *lines):
    if not args.quiet:
        for ln in lines:
            print(ln)


def cmd_check(args) -> int:
    box, _ = load_problem(args.problem)
    verdict = kharitonov_test(box)
    polys = verdict.quad.polys
    roots = None
    if args.json:  # the roots go only into the certificate
        roots = [() if k.is_zero() else all_roots(k).expand() for k in polys]
    _say(
        args,
        f"robust stability check: {args.problem}",
        f"family: order {box.order}, degree drop: {'yes' if box.degree_drop else 'no'}",
    )
    for name, k, v in zip(K_NAMES, polys, verdict.corners):
        mark = "STABLE" if v.is_stable else "not stable"
        _say(args, f"  {name} = {format_poly(RealPolynomial(tuple(_trimmed(k))))}   [{mark}]")
    if verdict.witness_root is not None:
        _say(
            args,
            f"  witness: k{verdict.failing_k} has root "
            f"{verdict.witness_root.real:.6g}{verdict.witness_root.imag:+.6g}i",
        )
    elif verdict.note:
        _say(args, f"  note: {verdict.note}")
    print(f"verdict: {verdict.status.value}")
    if args.json:
        cert = {
            "tool": "robustpoly",
            "version": __version__,
            "input": {
                "order": box.order,
                "intervals": [[lo, hi] for lo, hi in zip(box.lo, box.hi)],
            },
            "input_digest": _digest(box),
            "verdict": verdict.status.value,
            "failing_k": verdict.failing_k,
            "note": verdict.note,
            "kharitonov": [
                {
                    "name": name,
                    "coeffs": _trimmed(k),
                    "roots": [[r.real, r.imag] for r in rs],
                    "stable": v.is_stable,
                }
                for name, k, v, rs in zip(K_NAMES, polys, verdict.corners, roots)
            ],
        }
        out = Path(args.problem).with_suffix(".cert.json")
        out.write_text(json.dumps(cert, indent=2) + "\n")
        _say(args, f"certificate written to {out}")
    return EXIT_STABLE if verdict.is_stable else EXIT_UNSTABLE


def cmd_kpolys(args) -> int:
    box, _ = load_problem(args.problem)
    quad = kharitonov_polys(box)
    if args.json:
        blob = {name: _trimmed(k) for name, k in zip(K_NAMES, quad.polys)}
        for name in ("h_minus", "h_plus", "g_minus", "g_plus"):
            blob[name] = _trimmed(getattr(quad, name))
        print(json.dumps(blob, indent=2))
    else:
        for name, k in zip(K_NAMES, quad.polys):
            print(f"{name} = {format_poly(k)}")
    return EXIT_STABLE


def cmd_rect(args) -> int:
    box, opts = load_problem(args.problem)
    omega_max = args.omega_max if args.omega_max is not None else opts.get("omega_max", 10.0)
    steps = args.steps if args.steps is not None else opts.get("steps", 1000)
    samples = rectangle_sweep(box, omega_max, steps)
    flagged = [s for s in samples if s.contains_zero]
    if args.csv:
        with open(args.csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["omega", "h_minus", "h_plus", "g_minus", "g_plus", "contains_zero"])
            for s in samples:
                w.writerow(
                    [f"{v:.17g}" for v in (s.omega, *s.x_range, *s.y_range)]
                    + ["true" if s.contains_zero else "false"]
                )
        _say(args, f"csv written to {args.csv}")
    if args.svg:
        Path(args.svg).write_text(svgplot.rectangles_figure(samples))
        _say(args, f"svg written to {args.svg}")
    if args.json:
        print(
            json.dumps(
                {
                    "omega_max": omega_max,
                    "steps": steps,
                    "samples": len(samples),
                    "flagged": [s.omega for s in flagged],
                    "lower_bounds_nonnegative": samples[0].lo_nonnegative,
                }
            )
        )
    else:
        _say(args, f"{len(samples)} samples on [0, {omega_max:g}]")
        if flagged:
            shown = ", ".join(f"{s.omega:.6g}" for s in flagged[:8])
            more = "" if len(flagged) <= 8 else f" (+{len(flagged) - 8} more)"
            print(f"rectangle contains 0 at omega = {shown}{more}")
        else:
            print("rectangle never contains 0 on the sweep (evidence, not proof)")
    return EXIT_STABLE


def cmd_roots(args) -> int:
    box, _ = load_problem(args.problem)
    quad = kharitonov_polys(box)
    named = [
        (name, () if k.is_zero() else all_roots(k).expand())
        for name, k in zip(K_NAMES, quad.polys)
    ]
    if args.json:
        blob = {
            name: {
                "coeffs": _trimmed(k),
                "roots": [[r.real, r.imag] for r in rs],
            }
            for (name, rs), k in zip(named, quad.polys)
        }
        print(json.dumps(blob, indent=2))
    else:
        for (name, rs), k in zip(named, quad.polys):
            shown = ", ".join(_fmt_root(r) for r in rs) if rs else "(constant)"
            print(f"{name} = {format_poly(k)}")
            print(f"   roots: {shown}")
    if args.svg:
        Path(args.svg).write_text(svgplot.roots_figure(named))
        _say(args, f"svg written to {args.svg}")
    return EXIT_STABLE


def cmd_oracle(args) -> int:
    box, opts = load_problem(args.problem)
    seed = args.seed if args.seed is not None else opts.get("seed", 0)
    if args.mode == "vertices":
        plan = SamplePlan.vertices()
    elif args.mode == "grid":
        plan = SamplePlan.grid(args.points)
    else:
        plan = SamplePlan.random(args.count, seed)
    res = cross_validate(box, plan)
    rep = res.oracle_report
    if args.json:
        print(
            json.dumps(
                {
                    "classification": res.classification,
                    "test_verdict": res.test_verdict.status.value,
                    "oracle_verdict": rep.verdict,
                    "tested": rep.tested,
                    "unstable_members": rep.unstable_count,
                    "witness_certified": res.witness_certified,
                }
            )
        )
    else:
        _say(
            args,
            f"corner test: {res.test_verdict.status.value}",
            f"oracle: {rep.verdict} after {rep.tested} members "
            f"({rep.unstable_count} unstable)",
        )
        shown = () if args.quiet else rep.witnesses[:3]  # roots are solved for these only
        for coeffs in shown:
            root = witness_root(coeffs)
            tag = "zero polynomial" if root is None else f"root {root.real:.6g}{root.imag:+.6g}i"
            _say(args, f"  unstable member {list(coeffs)} ({tag})")
        if res.note:
            _say(args, f"  {res.note}")
        print(f"cross-validation: {res.classification}")
    if not res.consistent:
        return EXIT_CONTRADICTION
    return EXIT_STABLE if res.test_verdict.is_stable else EXIT_UNSTABLE


def _parse_poly_arg(spec: str) -> RealPolynomial:
    """A path to a problem file (its k1 corner is taken) or ascending
    comma-separated coefficients like '10,46,40,12'."""
    if Path(spec).exists():
        box, _ = load_problem(spec)
        return kharitonov_polys(box).k1
    try:
        coeffs = tuple(float(tok) for tok in spec.split(","))
    except ValueError:
        raise ProblemError(
            f"{spec!r} is neither an existing file nor a comma-separated "
            "coefficient list"
        ) from None
    if not coeffs:
        raise ProblemError("empty coefficient list")
    return RealPolynomial(coeffs)


def cmd_homotopy(args) -> int:
    if args.family:
        path = PolynomialPath.named(args.family)
    else:
        if not (args.from_spec and args.to):
            raise ProblemError("need either --family or both --from and --to")
        p = _parse_poly_arg(args.from_spec)
        q = _parse_poly_arg(args.to)
        path = PolynomialPath.convex(p, q)
    outcome = find_crossing(path, refine_tol=args.refine, steps=args.steps)
    if args.json:
        blob = {
            "kind": outcome.kind.value,
            "hypotheses_ok": outcome.hypotheses_ok,
            "hypothesis_note": outcome.hypothesis_note,
            "first_unstable_t": outcome.first_unstable_t,
        }
        if outcome.witness:
            blob["witness"] = {
                "t_star": outcome.witness.t_star,
                "omega_star": outcome.witness.omega_star,
                "residual": outcome.witness.residual,
            }
        print(json.dumps(blob))
    else:
        label = path.label or "path"
        _say(args, f"{label} on [{path.a:g}, {path.b:g}]")
        print(f"outcome: {outcome.kind.value}")
        if outcome.witness:
            w = outcome.witness
            print(
                f"  crossing at t* = {w.t_star:.12g}, omega* = {w.omega_star:.12g} "
                f"(residual {w.residual:.3g})"
            )
        elif outcome.first_unstable_t is not None:
            print(f"  stability lost near t = {outcome.first_unstable_t:.12g} with no axis crossing")
        hyp = "hold" if outcome.hypotheses_ok else "VIOLATED"
        print(f"  crossing hypotheses {hyp}: {outcome.hypothesis_note}")
    return EXIT_STABLE if outcome.kind is CrossingKind.STABLE_ALL else EXIT_UNSTABLE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="verdict lines only")
    common.add_argument("--seed", type=int, default=None, help="random seed override")

    ap = argparse.ArgumentParser(
        prog="robustpoly",
        description="Robust Hurwitz stability of interval polynomial families.",
    )
    ap.add_argument("--version", action="version", version=f"robustpoly {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="corner-polynomial stability verdict")
    p.add_argument("problem", help="problem JSON file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("kpolys", parents=[common], help="print the four corner polynomials")
    p.add_argument("problem")
    p.set_defaults(fn=cmd_kpolys)

    p = sub.add_parser("rect", parents=[common], help="value-set rectangle sweep")
    p.add_argument("problem")
    p.add_argument("--omega-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--csv", help="write the sweep table here (RFC 4180)")
    p.add_argument("--svg", help="write a rectangle trajectory figure here")
    p.set_defaults(fn=cmd_rect)

    p = sub.add_parser("roots", parents=[common], help="roots of the corner polynomials")
    p.add_argument("problem")
    p.add_argument("--svg", help="write a 2x2 root scatter here")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("oracle", parents=[common], help="cross-check against brute force")
    p.add_argument("problem")
    p.add_argument("--mode", choices=["vertices", "grid", "random"], default="random")
    p.add_argument("--count", type=int, default=1000, help="random mode sample count")
    p.add_argument("--points", type=int, default=3, help="grid mode points per axis")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("homotopy", parents=[common], help="first stability loss along a path")
    p.add_argument("--from", dest="from_spec", default=None, metavar="POLY",
                   help="problem file (k1 is used) or comma-separated coefficients")
    p.add_argument("--to", default=None, metavar="POLY")
    p.add_argument("--family", choices=sorted(NAMED_FAMILIES), default=None,
                   help="built-in coefficient family instead of --from/--to")
    p.add_argument("--refine", type=float, default=1e-10, help="bisection width for t*")
    p.add_argument("--steps", type=int, default=256, help="sweep grid size")
    p.set_defaults(fn=cmd_homotopy)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ProblemError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
