"""The block oracle against the per-member loop it replaced.

``reference_members`` and ``reference_verdict`` are the former scalar
implementations of ``enumerate_members`` and ``oracle_verdict``: one
``RealPolynomial`` per member, deduplicated through a ``seen`` set, each
classified by ``is_hurwitz(root_witness=False)``.  The block code must give
the same members in the same order and ``==`` reports, and the kernel must
give every row the scalar verdict.
"""

import itertools

import numpy as np
import pytest

from robustpoly import (
    IntervalPolynomial,
    NonConvergence,
    RealPolynomial,
    SamplePlan,
    enumerate_members,
    is_hurwitz,
    oracle_verdict,
    random_box,
)
import robustpoly.hurwitz as hurwitz_mod
from robustpoly.hurwitz import is_hurwitz_rows
from robustpoly.oracle import BLOCK_ROWS, MAX_STORED_WITNESSES, OracleReport, witness_root


def reference_members(box, plan):
    n = box.order
    if plan.mode == "vertices":
        axes = [(lo, hi) for lo, hi in zip(box.lo, box.hi)]
    elif plan.mode == "grid":
        k = plan.points_per_axis
        axes = [tuple(np.linspace(lo, hi, k)) for lo, hi in zip(box.lo, box.hi)]
    else:
        rng = np.random.default_rng(plan.seed)
        lo = np.asarray(box.lo)
        hi = np.asarray(box.hi)
        for _ in range(plan.count):
            yield RealPolynomial(tuple(rng.uniform(lo, hi)))
        return
    assert len(axes) == n + 1
    seen = set()
    for picks in itertools.product(*axes):
        if picks not in seen:
            seen.add(picks)
            yield RealPolynomial(picks)


def reference_verdict(box, plan):
    tested = 0
    bad = 0
    witnesses = []
    for p in reference_members(box, plan):
        tested += 1
        if p.is_zero():
            bad += 1
            if len(witnesses) < MAX_STORED_WITNESSES:
                witnesses.append(p.coeffs)
            continue
        v = is_hurwitz(p, root_witness=False)
        if not v.is_stable:
            bad += 1
            if len(witnesses) < MAX_STORED_WITNESSES:
                witnesses.append(p.coeffs)
    return OracleReport(
        verdict="UNSTABLE" if bad else "STABLE_EVIDENCE",
        tested=tested,
        unstable_count=bad,
        witnesses=tuple(witnesses),
    )


def scalar_rows(block):
    out = []
    for row in block.tolist():
        p = RealPolynomial(tuple(row))
        out.append(not p.is_zero() and is_hurwitz(p, root_witness=False).is_stable)
    return np.array(out, dtype=bool)


def hexes(members):
    # float.hex tells -0.0 from 0.0, which tuple equality does not
    return [tuple(c.hex() for c in m.coeffs) for m in members]


def random_boxes(per_order):
    """The first ``per_order`` boxes of each order 1..8 from seeds 900 on,
    with and without a forced degree drop."""
    boxes = []
    for drop in (False, True):
        counts = dict.fromkeys(range(1, 9), 0)
        seed = 900
        while min(counts.values()) < per_order:
            box = random_box(seed=seed, max_order=8, force_degree_drop=drop)
            if counts[box.order] < per_order:
                counts[box.order] += 1
                boxes.append(box)
            seed += 1
    return boxes


PRODUCT_20 = tuple(np.polynomial.polynomial.polyfromroots(-np.arange(1.0, 21.0)))

SPECIAL_BOXES = [
    # 1 + z^2 and (1 + z^2)(2 + z^2): singular Routh arrays, roots decide
    IntervalPolynomial((1.0, 0.0, 1.0), (1.0, 0.0, 1.0)),
    IntervalPolynomial((2.0, 0.0, 3.0, 0.0, 1.0), (2.0, 0.0, 3.0, 0.0, 1.0)),
    IntervalPolynomial((1.0, -0.5, 1.0), (1.0, 0.5, 1.0)),
    # zero members
    IntervalPolynomial((0.0, 0.0), (0.0, 1.0)),
    IntervalPolynomial((-1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    # signed zeros, point axes and sub-ulp widths
    IntervalPolynomial((-0.0, 1.0, 0.0), (0.0, 1.0, 2.0)),
    IntervalPolynomial((1.0, 2.0, 1.0), (np.nextafter(1.0, 2.0), 2.0, 1.5)),
    IntervalPolynomial((-0.0, 3.0, -0.0, 1.0), (0.0, 3.0, 5e-324, 1.0)),
]


class TestKernel:
    def test_rows_match_scalar_is_hurwitz(self):
        for box in random_boxes(5) + SPECIAL_BOXES:
            for b in (box, -box):
                for plan in (SamplePlan.vertices(), SamplePlan.random(60, seed=1)):
                    block = np.array([m.coeffs for m in reference_members(b, plan)])
                    np.testing.assert_array_equal(is_hurwitz_rows(block), scalar_rows(block))

    def test_degree_20_product_matches_scalar(self):
        # float Routh calls this Hurwitz polynomial UNSTABLE; only agreement
        # between the two paths is asserted here
        block = np.array([PRODUCT_20, tuple(-c for c in PRODUCT_20)])
        np.testing.assert_array_equal(is_hurwitz_rows(block), scalar_rows(block))

    def test_zero_constant_and_tiny_leading_rows(self):
        block = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [-3.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, -0.0, 0.0],
                [2.0, 1e-13, 0.0, 0.0],
                [1.0, 1.0, 1.0, -1e-11],  # degree 3 by the 1e-12 rule, unstable
                [1.0, 1.0, 1.0, -1e-13],  # degree 2, stable
            ]
        )
        want = [False, True, False, True, False, True]
        assert is_hurwitz_rows(block).tolist() == want
        np.testing.assert_array_equal(scalar_rows(block), want)

    def test_overflowing_array_goes_to_scalar_path(self, monkeypatch):
        # 1e300 * 1e300 - 1e300 * 1e300 is nan: the array leaves the finite
        # range without a small pivot, and the row is settled by is_hurwitz
        calls = []

        def spy(p, *args, **kwargs):
            calls.append(p.coeffs)
            return is_hurwitz(p, *args, **kwargs)

        monkeypatch.setattr(hurwitz_mod, "is_hurwitz", spy)
        block = np.array([[1e300, 1e300, 1e300, 1e300], [1.0, 3.0, 3.0, 1.0]])
        is_hurwitz_rows(block)
        assert calls == [(1e300, 1e300, 1e300, 1e300)]

    def test_overflowing_array_verdict(self):
        # found by random search: decided from its non-finite array alone,
        # this row would come out stable; the scalar path calls it MARGINAL
        row = (5.5954829746614215e91, 5.533364568947781e74, 10606229588642.582,
               2.9872491141359585e132, 1.5258050645803996e239, 1.2276184009302585e230)
        block = np.array([row])
        assert is_hurwitz_rows(block).tolist() == [False]
        np.testing.assert_array_equal(scalar_rows(block), [False])

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    def test_extreme_magnitudes(self, scale):
        # at 1e150 and beyond the Routh products overflow; such rows, like
        # singular ones, must reach the scalar path, which may not converge
        rng = np.random.default_rng(int(np.log10(scale)) % 1000)
        for n in (2, 4, 6):
            block = rng.uniform(-0.2, 2.0, size=(60, n + 1)) * scale
            settled = []
            for row in block:
                try:
                    settled.append(scalar_rows(row[None, :])[0])
                except NonConvergence:
                    with pytest.raises(NonConvergence):
                        is_hurwitz_rows(row[None, :])
                    settled.append(None)
            keep = [i for i, v in enumerate(settled) if v is not None]
            assert is_hurwitz_rows(block[keep]).tolist() == [settled[i] for i in keep]


class TestBlocksMatchLoop:
    def test_members_in_same_order(self):
        plans = [SamplePlan.vertices(), SamplePlan.grid(3), SamplePlan.random(50, seed=4)]
        for box in random_boxes(1) + SPECIAL_BOXES:
            for plan in plans:
                got = hexes(enumerate_members(box, plan))
                assert got == hexes(reference_members(box, plan)), (box, plan)

    def test_grid_dedup_with_point_axes_signed_zeros_and_sub_ulp_widths(self):
        one_up = float(np.nextafter(1.0, 2.0))
        box = IntervalPolynomial((-0.0, 1.0, 1.0, -0.0, 1.0), (0.0, 1.0, one_up, 0.0, 2.0))
        for k in (2, 5, 6):
            got = hexes(enumerate_members(box, SamplePlan.grid(k)))
            want = hexes(reference_members(box, SamplePlan.grid(k)))
            assert got == want
            assert len(got) == len(set(got))

    def test_random_blocks_split_at_any_row(self, demo_box):
        plan = SamplePlan.random(BLOCK_ROWS + 37, seed=8)
        got = hexes(enumerate_members(demo_box, plan))
        assert got == hexes(reference_members(demo_box, plan))

    def test_reports_equal(self):
        for box in random_boxes(2) + SPECIAL_BOXES:
            plans = [SamplePlan.vertices(), SamplePlan.random(200, seed=6)]
            if box.order <= 4:
                plans.append(SamplePlan.grid(3))
            for b in (box, -box):
                for plan in plans:
                    assert oracle_verdict(b, plan) == reference_verdict(b, plan), (b, plan)

    def test_degree_20_product_report(self):
        # both paths take the same wrong float Routh verdict (the polynomial
        # is Hurwitz), and the witness root solve does not converge
        box = IntervalPolynomial(PRODUCT_20, PRODUCT_20)
        rep = oracle_verdict(box, SamplePlan.vertices())
        assert rep == reference_verdict(box, SamplePlan.vertices())
        assert rep.verdict == "UNSTABLE"
        with pytest.raises(NonConvergence):
            witness_root(rep.witnesses[0])

    def test_many_unstable_members_across_blocks(self):
        box = IntervalPolynomial((-2.0, 1.0), (-1.0, 2.0))
        plan = SamplePlan.random(BLOCK_ROWS + 10, seed=2)
        rep = oracle_verdict(box, plan)
        assert rep == reference_verdict(box, plan)
        assert rep.unstable_count == BLOCK_ROWS + 10
        assert len(rep.witnesses) == MAX_STORED_WITNESSES
