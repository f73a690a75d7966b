import numpy as np
import pytest

from robustpoly import (
    FamilyVerdict,
    IntervalPolynomial,
    RealPolynomial,
    SamplePlan,
    Status,
    VertexBlowup,
    cross_validate,
    enumerate_members,
    is_hurwitz,
    oracle_verdict,
    random_box,
    witness_root,
)
import robustpoly.oracle as oracle_mod


class TestSamplePlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplePlan.grid(1)
        with pytest.raises(ValueError):
            SamplePlan.random(0)


class TestEnumerateMembers:
    def test_demo_vertices_cover_corners(self, demo_box, demo_quad):
        members = list(enumerate_members(demo_box, SamplePlan.vertices()))
        assert len(members) == 32
        coeff_sets = {m.coeffs for m in members}
        for k in demo_quad.polys:
            assert k.coeffs in coeff_sets
        for m in members:
            assert demo_box.contains(m)

    def test_point_box_collapses_to_one_vertex(self):
        box = IntervalPolynomial((1.0, 2.0), (1.0, 2.0))
        assert len(list(enumerate_members(box, SamplePlan.vertices()))) == 1

    def test_grid_two_equals_vertices(self, demo_box):
        vs = {m.coeffs for m in enumerate_members(demo_box, SamplePlan.vertices())}
        gs = {m.coeffs for m in enumerate_members(demo_box, SamplePlan.grid(2))}
        assert vs == gs

    def test_vertex_blowup_guard(self):
        box = IntervalPolynomial((0.1,) * 22, (0.2,) * 22)
        with pytest.raises(VertexBlowup):
            list(enumerate_members(box, SamplePlan.vertices()))

    def test_grid_size_guard(self, demo_box):
        with pytest.raises(ValueError):
            list(enumerate_members(demo_box, SamplePlan.grid(20)))

    def test_random_point_box(self):
        box = IntervalPolynomial((1.0, 1.0), (1.0, 1.0))
        members = list(enumerate_members(box, SamplePlan.random(100, seed=5)))
        assert len(members) == 100
        assert all(m.coeffs == (1.0, 1.0) for m in members)

    def test_random_members_in_box_and_deterministic(self, demo_box):
        plan = SamplePlan.random(50, seed=3)
        first = [m.coeffs for m in enumerate_members(demo_box, plan)]
        second = [m.coeffs for m in enumerate_members(demo_box, plan)]
        assert first == second
        for cs in first:
            assert demo_box.contains(RealPolynomial(cs))


class TestOracleVerdict:
    def test_demo_box_large_sample(self, demo_box):
        rep = oracle_verdict(demo_box, SamplePlan.random(10000, seed=42))
        assert rep.verdict == "STABLE_EVIDENCE"
        assert rep.tested == 10000
        assert rep.unstable_count == 0
        assert rep.witnesses == ()

    def test_axis_point_box(self):
        p = (1.0, 0.0, 1.0)
        rep = oracle_verdict(IntervalPolynomial(p, p), SamplePlan.vertices())
        assert rep.verdict == "UNSTABLE"
        assert rep.witnesses[0] == p
        root = witness_root(rep.witnesses[0])
        assert abs(root.real) <= 1e-9
        assert abs(abs(root.imag) - 1.0) < 1e-6

    def test_zero_member_witnessed_without_root(self):
        box = IntervalPolynomial((0.0, 0.0), (0.0, 1.0))
        rep = oracle_verdict(box, SamplePlan.vertices())
        assert rep.verdict == "UNSTABLE"
        assert (0.0, 0.0) in rep.witnesses
        assert witness_root((0.0, 0.0)) is None

    def test_witness_soundness(self):
        found = 0
        for i in range(30):
            box = random_box(seed=5000 + i)
            rep = oracle_verdict(box, SamplePlan.random(100, seed=i))
            for coeffs in rep.witnesses:
                found += 1
                p = RealPolynomial(coeffs)
                root = witness_root(coeffs)
                assert box.contains(p)
                if root is None:
                    assert p.is_zero()
                else:
                    assert not is_hurwitz(p).is_stable
                    assert root.real >= -1e-9
        assert found > 0

    def test_witness_storage_cap(self):
        box = IntervalPolynomial((-2.0, 1.0), (-1.0, 2.0))  # every member unstable
        rep = oracle_verdict(box, SamplePlan.random(100, seed=1))
        assert rep.unstable_count == 100
        assert len(rep.witnesses) == 16

    def test_determinism(self, demo_box):
        plan = SamplePlan.random(500, seed=11)
        assert oracle_verdict(demo_box, plan) == oracle_verdict(demo_box, plan)


class TestCrossValidate:
    def test_demo_box_consistent_stable(self, demo_box):
        cv = cross_validate(demo_box, SamplePlan.random(1000, seed=2))
        assert cv.consistent
        assert cv.test_verdict.is_stable
        assert cv.oracle_report.verdict == "STABLE_EVIDENCE"

    def test_unstable_point_box_certified(self):
        p = (-1.0, 1.0)
        cv = cross_validate(IntervalPolynomial(p, p), SamplePlan.vertices())
        assert cv.consistent
        assert not cv.test_verdict.is_stable
        assert cv.witness_certified

    def test_degree_drop_boxes_consistent(self):
        for i in range(40):
            box = random_box(seed=7000 + i, force_degree_drop=True)
            cv = cross_validate(box, SamplePlan.random(150, seed=i))
            assert cv.consistent, (i, box)
            if not cv.test_verdict.is_stable:
                assert cv.witness_certified, (i, box)

    def test_contradiction_reported(self, monkeypatch):
        # force the family test to lie so the reporting path is exercised
        box = IntervalPolynomial((-1.0, 1.0), (-1.0, 1.0))  # z - 1, unstable
        fake = FamilyVerdict(Status.STABLE, "routh", note="injected")
        monkeypatch.setattr(oracle_mod, "kharitonov_test", lambda b: fake)
        cv = oracle_mod.cross_validate(box, SamplePlan.vertices())
        assert cv.classification == "CONTRADICTION"
        assert not cv.consistent
        assert "unstable member" in cv.note


class TestRandomBox:
    def test_shape_and_bounds(self):
        for i in range(50):
            box = random_box(seed=i)
            assert 1 <= box.order <= 5
            assert all(a <= b for a, b in zip(box.lo, box.hi))

    def test_forced_degree_drop(self):
        for i in range(20):
            box = random_box(seed=i, force_degree_drop=True)
            assert box.lo[-1] == 0.0
            assert box.hi[-1] > 0.0

    def test_deterministic(self):
        assert random_box(seed=9) == random_box(seed=9)
