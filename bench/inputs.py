"""Seeded inputs for the four workloads.

Every input is drawn from its own stream, keyed by (workload, seed, round,
slot), so the inputs of a round do not depend on how many rounds a run
reaches.  A round is a fixed list of slots; each slot fixes the order or
degree and the kind of box, and the seed fixes everything else.  Boxes
that a workload needs robustly stable are shrunk until the reference says
so; that decision uses only :mod:`reference`.
"""

from __future__ import annotations

import functools

import numpy as np

import reference as ref

WORKLOAD_IDS = {"oracle-stable": 1, "mixed-boxes": 2, "diagnostics": 3, "high-degree": 4}

DEMO_LO = (10.0, 46.0, 38.0, 6.0, 0.0)
DEMO_HI = (21.0, 50.0, 40.0, 12.0, 1.0)

ORACLE_COUNT = 1000  # random members per oracle-stable operation
STABLE_ORDERS = (3, 4, 5, 6, 7, 8)
MIXED_SLOTS = 10  # boxes per mixed-boxes round, two of each order 1..5
MIXED_ORACLE_COUNT = 200
# the values the program's own callers use: the ``rect`` command's defaults
# for the sweep, and the ``homotopy`` command's and ``find_crossing``'s
# defaults for the crossing search
SWEEP_OMEGA_MAX = 10.0
SWEEP_STEPS = 1000
CROSSING_STEPS = 256
CROSSING_REFINE = 1e-10


def rng_for(workload: str, seed: int, rnd: int, slot: int) -> np.random.Generator:
    key = [WORKLOAD_IDS[workload], seed % 2**64, rnd, slot]
    return np.random.default_rng(np.random.SeedSequence(key))


def stable_product(rng: np.random.Generator, degree: int, rmax: float = 3.0) -> list[float]:
    """Monic polynomial (ascending) whose roots all have real part <= -0.1:
    a product of random linear factors and complex-pair quadratics."""
    desc = np.array([1.0])
    left = degree
    while left > 0:
        if left >= 2 and rng.uniform() < 0.5:
            re = -rng.uniform(0.1, rmax)
            im = rng.uniform(0.05, rmax)
            desc = np.convolve(desc, [1.0, -2.0 * re, re * re + im * im])
            left -= 2
        else:
            desc = np.convolve(desc, [1.0, rng.uniform(0.1, rmax)])
            left -= 1
    return [float(c) for c in desc[::-1]]


def _around(center: list[float], rel: list[float]) -> tuple[list[float], list[float]]:
    lo = [c - abs(c) * r for c, r in zip(center, rel)]
    hi = [c + abs(c) * r for c, r in zip(center, rel)]
    return lo, hi


def stable_box(rng: np.random.Generator, order: int, drop: bool, width: float = 0.3):
    """A robustly stable box of the given order around a stable product.

    With ``drop`` the center has degree ``order - 1`` and the leading
    interval is ``[0, eps]``, so the family holds members of both degrees.
    Relative widths and ``eps`` are halved until all four reference
    corners are Hurwitz.
    """
    center = stable_product(rng, order - 1 if drop else order)
    u = rng.uniform(0.0, 1.0, size=len(center))
    eps = center[-1]
    for _ in range(60):
        lo, hi = _around(center, [width * x for x in u])
        if drop:
            lo, hi = lo + [0.0], hi + [eps]
        if ref.family_reference(lo, hi)["robust"]:
            return lo, hi
        width *= 0.5
        eps *= 0.5
    raise RuntimeError("could not shrink the box to a robustly stable one")


def random_box(rng: np.random.Generator, order: int, force_drop: bool | None = None):
    """The distribution of ``robustpoly.random_box`` for a given order:
    lower bounds uniform on [-2, 5], widths on [0, 3], and a leading lower
    bound pinned to 0 with probability 0.3 (or on request)."""
    while True:
        lo = rng.uniform(-2.0, 5.0, size=order + 1)
        width = rng.uniform(0.0, 3.0, size=order + 1)
        hi = lo + width
        drop = force_drop if force_drop is not None else bool(rng.uniform() < 0.3)
        if drop:
            lo[order] = 0.0
            hi[order] = width[order]
        if not (lo[order] == 0.0 and hi[order] == 0.0):
            return [float(v) for v in lo], [float(v) for v in hi]


# ---------------------------------------------------------------- rounds


def oracle_stable_round(seed: int, rnd: int) -> list[dict]:
    """The demo box plus one robustly stable box per order 3..8; half of
    the seeded boxes drop degree, alternating by round."""
    out = []
    rng = rng_for("oracle-stable", seed, rnd, 0)
    out.append({"lo": list(DEMO_LO), "hi": list(DEMO_HI), "sample_seed": int(rng.integers(2**31))})
    for slot, order in enumerate(STABLE_ORDERS, start=1):
        rng = rng_for("oracle-stable", seed, rnd, slot)
        lo, hi = stable_box(rng, order, drop=(order + rnd) % 2 == 0)
        out.append({"lo": lo, "hi": hi, "sample_seed": int(rng.integers(2**31))})
    for item in out:
        item["ref"] = ref.family_reference(item["lo"], item["hi"])
    return out


def mixed_round(seed: int, rnd: int) -> list[dict]:
    """Criterion-2 traffic, stratified by order so every round has the same
    make-up: two ``random_box`` draws of each order 1..5.  Three slots,
    rotating with the round, are forced to drop degree; the others drop
    with probability 0.3."""
    forced = {(3 * rnd + j) % MIXED_SLOTS for j in range(3)}
    out = []
    for slot in range(MIXED_SLOTS):
        rng = rng_for("mixed-boxes", seed, rnd, slot)
        lo, hi = random_box(rng, slot // 2 + 1, True if slot in forced else None)
        out.append(
            {
                "lo": lo,
                "hi": hi,
                "sample_seed": int(rng.integers(2**31)),
                "ref": ref.family_reference(lo, hi),
                "vertices": ref.vertex_verdicts(lo, hi),
            }
        )
    return out


def diagnostics_round(seed: int, rnd: int) -> list[dict]:
    """One robustly stable box per order 3..8 (half dropping degree), a
    rectangle sweep over it, and a straight path from one of its corners
    that has a nonzero leading coefficient to a copy with one lower
    coefficient negated, which is unstable by the coefficient-sign rule
    while the leading coefficient stays put."""
    out = []
    for slot, order in enumerate(STABLE_ORDERS):
        rng = rng_for("diagnostics", seed, rnd, slot)
        lo, hi = stable_box(rng, order, drop=(order + rnd) % 2 == 0)
        family = ref.family_reference(lo, hi)
        full = [k for k in ref.corners(lo, hi) if k[-1] != 0.0]
        start = full[int(rng.integers(len(full)))]
        k = int(rng.integers(order))
        end = list(start)
        end[k] = -start[k] * rng.uniform(0.5, 2.0)
        out.append(
            {
                "lo": lo,
                "hi": hi,
                "ref": family,
                "start": start,
                "end": end,
                "t_star": ref.first_loss(start, end, CROSSING_STEPS, CROSSING_REFINE),
            }
        )
    return out


# Seeded high-degree slots: (kind, lowest degree, highest degree).  The
# degrees stop at 14: all_roots fails on some seeded corners from degree 18
# on (F1; 2 of 200 degree-dropping boxes), which would make the failed
# count depend on the seed.  7,200 seeded boxes of degree 8-14 all passed.
HIGH_SLOTS = (
    ("stable", 8, 11),
    ("stable", 12, 14),
    ("drop", 8, 11),
    ("drop", 12, 14),
    ("unstable", 8, 11),
    ("unstable", 12, 14),
)
HIGH_WIDTH = 1e-9  # relative half-width of the thin boxes
SCALE_CYCLE = 81  # distinct power-of-two scalings of the fixed boxes


def _fixed_rng(slot: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([WORKLOAD_IDS["high-degree"], 0, 0, slot]))


def _factorial_product(n: int) -> list[float]:
    desc = [1.0]
    for k in range(1, n + 1):
        desc = list(np.convolve(desc, [1.0, float(k)]))
    return [float(c) for c in desc[::-1]]


@functools.cache
def _fixed_high_boxes() -> list[dict]:
    """Boxes that do not depend on the seed and hit a known fault every
    time: a stable degree-24 box (F1), a box around prod_{k=1}^{20} (z+k)
    (F2) and a degree-40 box whose leading interval is [0, eps] (F2)."""
    boxes = [
        ("F1", stable_box(_fixed_rng(1001), 24, False, width=HIGH_WIDTH)),
        ("F2", _around(_factorial_product(20), [1e-12] * 21)),
        ("F2", stable_box(_fixed_rng(1003), 40, True, width=HIGH_WIDTH)),
    ]
    return [{"lo": lo, "hi": hi, "fault": f, "ref": ref.family_reference(lo, hi)} for f, (lo, hi) in boxes]


def _scaled(item: dict, k: int) -> dict:
    # scaling every coefficient by 2**k is exact and changes no sign, so
    # the reference corners scale and the exact verdicts carry over
    s = 2.0**k
    fam = item["ref"]
    return {
        "lo": [v * s for v in item["lo"]],
        "hi": [v * s for v in item["hi"]],
        "fault": item["fault"],
        "ref": {
            "corners": [[c * s for c in k_] for k_ in fam["corners"]],
            "stable": fam["stable"],
            "robust": fam["robust"],
        },
    }


def high_degree_round(seed: int, rnd: int) -> list[dict]:
    """Six seeded thin boxes of degree 8-14 (stable, dropping degree, or
    with one right-half-plane root) and the three fixed boxes, scaled by
    2**k with k = 0, 1, -1, 2, -2, ..., 40, -40 by round, so no input
    repeats within a run of up to 81 rounds."""
    out = []
    for slot, (kind, dmin, dmax) in enumerate(HIGH_SLOTS):
        rng = rng_for("high-degree", seed, rnd, slot)
        deg = int(rng.integers(dmin, dmax + 1))
        if kind == "unstable":
            center = stable_product(rng, deg - 1)
            desc = np.convolve(center[::-1], [1.0, -rng.uniform(0.2, 2.0)])
            lo, hi = _around([float(c) for c in desc[::-1]], HIGH_WIDTH * rng.uniform(0, 1, deg + 1))
        else:
            lo, hi = stable_box(rng, deg, kind == "drop", width=HIGH_WIDTH)
        out.append({"lo": lo, "hi": hi, "fault": None, "ref": ref.family_reference(lo, hi)})
    j = rnd % SCALE_CYCLE
    k = (j + 1) // 2 * (1 if j % 2 else -1)
    out.extend(_scaled(item, k) for item in _fixed_high_boxes())
    return out
