"""Brute-force evidence against which the corner test is cross-checked.

Members of a coefficient box are enumerated (vertices, grids) or sampled
(seeded uniform draws) and classified in blocks, one numpy array of
members at a time.  A single unstable member refutes robust stability
outright; exhausting a sample without finding one is merely evidence for
it.  The corner test and the oracle must never land on opposite sides: an
unstable member under a STABLE family verdict is a contradiction, and the
reverse direction is settled by certifying the failing corner polynomial,
which is itself a member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hurwitz import is_hurwitz, is_hurwitz_rows
from .kharitonov import FamilyVerdict, IntervalPolynomial, kharitonov_test
from .poly_core import RealPolynomial
from .roots import all_roots

__all__ = [
    "VertexBlowup",
    "SamplePlan",
    "OracleReport",
    "CrossValidation",
    "enumerate_members",
    "oracle_verdict",
    "witness_root",
    "cross_validate",
    "random_box",
]

VERTEX_LIMIT = 20
GRID_LIMIT = 2_000_000
MAX_STORED_WITNESSES = 16
BLOCK_ROWS = 4096  # members per array handed to the classifier


class VertexBlowup(ValueError):
    """Vertex enumeration requested for a box with too many axes."""


@dataclass(frozen=True)
class SamplePlan:
    """How to walk the box: corner vertices, a grid, or seeded random draws."""

    mode: str  # "vertices" | "grid" | "random"
    points_per_axis: int = 0
    count: int = 0
    seed: int = 0

    @classmethod
    def vertices(cls) -> "SamplePlan":
        return cls("vertices")

    @classmethod
    def grid(cls, points_per_axis: int) -> "SamplePlan":
        if points_per_axis < 2:
            raise ValueError("a grid needs at least 2 points per axis")
        return cls("grid", points_per_axis=points_per_axis)

    @classmethod
    def random(cls, count: int, seed: int = 0) -> "SamplePlan":
        if count < 1:
            raise ValueError("need a positive sample count")
        return cls("random", count=count, seed=seed)


def _finite(block: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(block).all(axis=0)
    if bad.any():
        raise ValueError(f"interval {int(np.argmax(bad))} yields non-finite members")
    return block


def _member_blocks(box: IntervalPolynomial, plan: SamplePlan):
    """Yield the plan's members as ``(k, n+1)`` arrays, ``k <= BLOCK_ROWS``.

    Rows come in the order :func:`enumerate_members` documents.  Vertex and
    grid mode first collapse each axis to its distinct values in order of
    first occurrence; the product of the collapsed axes (last axis fastest)
    holds every distinct member once, in the order of its first occurrence
    in the full product.  A box whose width or members are not finite is
    refused with a ``ValueError`` naming the axis.
    """
    n = box.order
    for i, (lo, hi) in enumerate(zip(box.lo, box.hi)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"interval {i} is too wide to sample: [{lo}, {hi}]")
    if plan.mode == "random":
        rng = np.random.default_rng(plan.seed)
        lo = np.asarray(box.lo)
        hi = np.asarray(box.hi)
        for start in range(0, plan.count, BLOCK_ROWS):
            rows = min(BLOCK_ROWS, plan.count - start)
            yield _finite(rng.uniform(lo, hi, size=(rows, n + 1)))
        return
    if plan.mode == "vertices":
        if n > VERTEX_LIMIT:
            raise VertexBlowup(
                f"2**{n + 1} vertices for order {n}; refusing beyond order {VERTEX_LIMIT}"
            )
        axes = list(zip(box.lo, box.hi))
    elif plan.mode == "grid":
        k = plan.points_per_axis
        total = k ** (n + 1)
        if total > GRID_LIMIT:
            raise ValueError(f"grid would hold {total} members; use random sampling")
        axes = [np.linspace(lo, hi, k).tolist() for lo, hi in zip(box.lo, box.hi)]
    else:
        raise ValueError(f"unknown sample mode {plan.mode!r}")
    axes = [np.array(list(dict.fromkeys(a))) for a in axes]
    sizes = [len(a) for a in axes]
    total = math.prod(sizes)
    for start in range(0, total, BLOCK_ROWS):
        index = np.arange(start, min(start + BLOCK_ROWS, total))
        block = np.empty((len(index), n + 1))
        for j in range(n, -1, -1):
            index, digit = np.divmod(index, sizes[j])
            block[:, j] = axes[j][digit]
        yield _finite(block)


def enumerate_members(box: IntervalPolynomial, plan: SamplePlan):
    """Yield member polynomials of the box in a deterministic order.

    Vertex mode yields every corner once (duplicates from point intervals
    are collapsed) and refuses boxes with more than 20 axes.  Grid mode
    places ``points_per_axis`` equispaced values on each axis, each
    distinct member once.  Random mode draws ``count`` members uniformly,
    reproducibly from ``seed``.
    """
    for block in _member_blocks(box, plan):
        for row in block.tolist():
            yield RealPolynomial(tuple(row))


@dataclass(frozen=True)
class OracleReport:
    """What the enumeration saw.

    ``verdict`` is UNSTABLE as soon as one member fails, else
    STABLE_EVIDENCE.  ``witnesses`` holds the coefficients of the first
    ``MAX_STORED_WITNESSES`` unstable members, in enumeration order; the
    rest are only counted.  Each lies in the box, and
    :func:`witness_root` solves its offending root on demand.
    """

    verdict: str  # "STABLE_EVIDENCE" | "UNSTABLE"
    tested: int
    unstable_count: int
    witnesses: tuple[tuple[float, ...], ...] = ()


def oracle_verdict(box: IntervalPolynomial, plan: SamplePlan) -> OracleReport:
    """Classify every member the plan produces.

    Members are made and classified in blocks of at most ``BLOCK_ROWS``
    rows by :func:`~robustpoly.hurwitz.is_hurwitz_rows`, whose verdict on
    each row is that of ``is_hurwitz(member, root_witness=False)``: rows
    with a singular Routh array fall back to the scalar :func:`is_hurwitz`,
    which settles them by roots; a member with a root inside the fixed
    band ``hurwitz.AXIS_TOL`` of the axis is MARGINAL, so it counts as
    unstable.  No other root is solved: the witnesses are stored as
    coefficients, and :func:`witness_root` solves a root for those a
    caller shows.
    """
    tested = 0
    bad = 0
    witnesses: list[tuple[float, ...]] = []
    for block in _member_blocks(box, plan):
        tested += len(block)
        unstable = np.flatnonzero(~is_hurwitz_rows(block))
        bad += len(unstable)
        for i in unstable[: MAX_STORED_WITNESSES - len(witnesses)]:
            witnesses.append(tuple(block[i].tolist()))
    return OracleReport(
        verdict="UNSTABLE" if bad else "STABLE_EVIDENCE",
        tested=tested,
        unstable_count=bad,
        witnesses=tuple(witnesses),
    )


def witness_root(coeffs: tuple[float, ...]) -> complex | None:
    """Rightmost root of a witness member, ``None`` for the zero member.

    Raises :class:`~robustpoly.roots.NonConvergence` if the solve gives up.
    """
    p = RealPolynomial(coeffs)
    return None if p.is_zero() else all_roots(p).rightmost()


@dataclass(frozen=True)
class CrossValidation:
    """Joint outcome of the corner test and the oracle on one box.

    ``classification`` is CONSISTENT unless the oracle produced an unstable
    member while the corner test claimed STABLE.  When the corner test is
    the side claiming instability, its failing corner is re-verified as a
    member (``witness_certified``), so that direction never contradicts.
    """

    classification: str  # "CONSISTENT" | "CONTRADICTION"
    test_verdict: FamilyVerdict
    oracle_report: OracleReport
    witness_certified: bool
    note: str = ""

    @property
    def consistent(self) -> bool:
        return self.classification == "CONSISTENT"


def cross_validate(box: IntervalPolynomial, plan: SamplePlan) -> CrossValidation:
    """Run both deciders and reconcile their answers."""
    fam = kharitonov_test(box)
    rep = oracle_verdict(box, plan)

    if fam.is_stable:
        if rep.verdict == "UNSTABLE":
            return CrossValidation(
                "CONTRADICTION",
                fam,
                rep,
                witness_certified=False,
                note="oracle found an unstable member of a STABLE family",
            )
        return CrossValidation("CONSISTENT", fam, rep, witness_certified=False)

    certified = False
    note = ""
    w = fam.witness_poly
    if w is not None:
        inside = box.contains(w) or (-box).contains(w)
        refuted = w.is_zero() or not is_hurwitz(w, root_witness=False).is_stable
        certified = inside and refuted
        note = (
            "failing corner polynomial re-verified as an unstable member"
            if certified
            else "failing corner polynomial could not be certified"
        )
    return CrossValidation("CONSISTENT", fam, rep, certified, note)


def random_box(
    seed: int,
    max_order: int = 5,
    force_degree_drop: bool | None = None,
) -> IntervalPolynomial:
    """Seeded random box for sweep testing.

    Order is uniform on 1..max_order, lower bounds uniform on [-2, 5],
    widths uniform on [0, 3].  With probability 0.3 (or on request) the
    leading lower bound is pinned to zero so the family drops degree.
    Boxes with an identically zero leading interval are redrawn.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(1, max_order + 1))
        lo = rng.uniform(-2.0, 5.0, size=n + 1)
        width = rng.uniform(0.0, 3.0, size=n + 1)
        hi = lo + width
        drop = force_degree_drop
        if drop is None:
            drop = bool(rng.uniform() < 0.3)
        if drop:
            lo[n] = 0.0
            hi[n] = width[n]
        if lo[n] == 0.0 and hi[n] == 0.0:
            continue
        return IntervalPolynomial(tuple(lo), tuple(hi))
    raise RuntimeError("could not draw a valid box")
