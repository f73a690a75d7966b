import numpy as np
import pytest

import robustpoly.hurwitz as hurwitz_mod
from robustpoly import (
    MethodDisagreement,
    RealPolynomial,
    RootSet,
    Status,
    is_hurwitz,
    routh_hurwitz,
    stodola_precheck,
)

from robustpoly.roots import all_roots

from conftest import random_poly, random_stable_poly


class TestStodola:
    def test_all_positive_passes(self):
        assert stodola_precheck(RealPolynomial((10.0, 46.0, 40.0, 12.0))) is None

    def test_missing_term_caught(self):
        assert stodola_precheck(RealPolynomial((1.0, 0.0, 1.0))) == 1

    def test_negative_coefficient_caught(self):
        assert stodola_precheck(RealPolynomial((1.0, -1.0))) == 1

    def test_reports_first_offender(self):
        assert stodola_precheck(RealPolynomial((1.0, -2.0, -3.0, 1.0))) == 1

    def test_necessary_for_stability(self):
        # no stable polynomial (normalized to positive lead) may fail it
        rng = np.random.default_rng(101)
        for _ in range(500):
            p = random_stable_poly(rng)
            assert stodola_precheck(p) is None


class TestRouthHurwitz:
    def test_stable_cubic(self):
        v = routh_hurwitz(RealPolynomial((10.0, 50.0, 40.0, 6.0)))
        assert v.status is Status.STABLE

    def test_unstable_cubic(self):
        v = routh_hurwitz(RealPolynomial((1.0, 1.0, 1.0, 1.0)))
        assert v.status is not Status.STABLE

    def test_axis_pair_is_degenerate(self):
        # zero row: the tabular method cannot decide z^2 + 1
        v = routh_hurwitz(RealPolynomial((1.0, 0.0, 1.0)))
        assert v.status is Status.DEGENERATE

    def test_constant(self):
        assert routh_hurwitz(RealPolynomial((5.0,))).status is Status.STABLE

    def test_right_root_detected(self):
        v = routh_hurwitz(RealPolynomial((-1.0, 1.0)))  # root at +1
        assert v.status is Status.UNSTABLE


class TestIsHurwitz:
    def test_stable_quartic(self):
        v = is_hurwitz(RealPolynomial((21.0, 50.0, 38.0, 6.0, 1.0)))
        assert v.is_stable
        assert v.status is Status.STABLE

    def test_constant_is_stable(self):
        assert is_hurwitz(RealPolynomial((5.0,))).is_stable
        assert is_hurwitz(RealPolynomial((-5.0,))).is_stable

    def test_unstable_with_witness(self):
        v = is_hurwitz(RealPolynomial((-1.0, 1.0)))
        assert v.status is Status.UNSTABLE
        assert v.witness_root is not None
        assert abs(v.witness_root - 1.0) < 1e-9

    def test_marginal_axis_pair(self):
        v = is_hurwitz(RealPolynomial((1.0, 0.0, 1.0)))
        assert v.status is Status.MARGINAL
        assert not v.is_stable

    def test_negative_lead_normalized(self):
        # -(stable) has the same root set and must classify the same way
        v = is_hurwitz(RealPolynomial((-10.0, -50.0, -40.0, -6.0)))
        assert v.is_stable

    def test_scaling_invariance(self):
        p = (21.0, 50.0, 38.0, 6.0, 1.0)
        for s in (1.0, -1.0, 1e-3, 1e3):
            v = is_hurwitz(RealPolynomial(tuple(s * c for c in p)))
            assert v.is_stable, s

    def test_stable_generator_agrees(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            assert is_hurwitz(random_stable_poly(rng)).is_stable

    def test_methods_agree_on_random_input(self):
        # tabular route against the root route, same boolean every time
        rng = np.random.default_rng(77)
        for _ in range(1000):
            p = random_poly(rng, max_degree=7)
            by_array = is_hurwitz(p, root_witness=False)
            assert by_array.is_stable == hurwitz_mod._roots_verdict(p).is_stable, p

    def test_witness_root_flag_off(self):
        v = is_hurwitz(RealPolynomial((1.0, -1.0, 1.0)), root_witness=False)
        assert v.status is Status.UNSTABLE
        assert v.witness_root is None

    def test_singular_array_settled_by_roots(self):
        # (1 + z)(1 + z^2) zeroes a whole array row; the root fallback
        # then finds the axis pair
        v = is_hurwitz(RealPolynomial((1.0, 1.0, 1.0, 1.0)))
        assert v.status is Status.MARGINAL
        assert v.method == "roots"
        assert abs(v.witness_root.real) < 1e-9
        assert abs(abs(v.witness_root.imag) - 1.0) < 1e-6

    def test_axis_band_decides_fallback(self, monkeypatch):
        # (z^2 + 2ez + 1)(z + 1) with e = 1e-13: the array is numerically
        # singular, and the near-axis pair at -1e-13 +- i falls inside or
        # outside the band depending on AXIS_TOL
        e = 1e-13
        p = RealPolynomial((1.0, 1.0 + e * 2, 1.0 + e * 2, 1.0))
        assert hurwitz_mod.AXIS_TOL == 1e-9
        assert is_hurwitz(p).status is Status.MARGINAL
        monkeypatch.setattr(hurwitz_mod, "AXIS_TOL", 1e-16)
        assert is_hurwitz(p).status is Status.STABLE

    @pytest.mark.parametrize(
        "coeffs",
        [(1.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (6.0, 11.0, 6.0, 1.0)],
        ids=["singular", "unstable", "stable"],
    )
    def test_roots_solved_at_most_once(self, monkeypatch, coeffs):
        calls = []

        def counting(p):
            calls.append(p)
            return all_roots(p)

        monkeypatch.setattr(hurwitz_mod, "all_roots", counting)
        is_hurwitz(RealPolynomial(coeffs))
        assert len(calls) <= 1

    def test_roots_contradicting_the_array_raise(self, monkeypatch):
        # z - 1 fails Stodola; roots that claim it stable are a disagreement
        fake = RootSet((-1 + 0j,), (1,), 1)
        monkeypatch.setattr(hurwitz_mod, "all_roots", lambda p: fake)
        with pytest.raises(MethodDisagreement):
            is_hurwitz(RealPolynomial((-1.0, 1.0)))
