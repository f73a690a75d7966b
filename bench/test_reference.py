"""Tests of the benchmark's reference on answers known by construction.

    python3 -m pytest bench/test_reference.py -q
"""

import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import reference as ref  # noqa: E402


def ascending_product(factors):
    """Integer coefficients (ascending) of a product of ascending factors."""
    out = [1]
    for f in factors:
        nxt = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                nxt[i + j] += a * b
        out = nxt
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 40])
def test_binomial_power_is_hurwitz(n):
    assert ref.exact_hurwitz([math.comb(n, i) for i in range(n + 1)])


def test_factorial_product_is_hurwitz_in_integers_and_floats():
    coeffs = ascending_product([(k, 1) for k in range(1, 21)])
    assert ref.exact_hurwitz(coeffs)
    # the float coefficients are a tiny perturbation; still Hurwitz
    assert ref.exact_hurwitz([float(c) for c in coeffs])


@pytest.mark.parametrize("degree", [10, 60, 200])
def test_products_of_integer_quadratics(degree):
    rng = np.random.default_rng(degree)
    quads = [(int(rng.integers(1, 30)), int(rng.integers(1, 12)), 1) for _ in range(degree // 2)]
    coeffs = ascending_product(quads)
    assert len(coeffs) == degree + 1
    assert ref.exact_hurwitz(coeffs)


@pytest.mark.parametrize("degree", [10, 60])
def test_unstable_products(degree):
    rng = np.random.default_rng(degree)
    quads = [(int(rng.integers(1, 30)), int(rng.integers(1, 12)), 1) for _ in range(degree // 2 - 1)]
    # one right-half-plane pair, one pair on the axis, one real root at +1
    assert not ref.exact_hurwitz(ascending_product(quads + [(5, -1, 1)]))
    assert not ref.exact_hurwitz(ascending_product(quads + [(4, 0, 1)]))
    assert not ref.exact_hurwitz(ascending_product(quads + [(-1, 1)]))


def test_sign_normalization_and_degenerate_cases():
    assert ref.exact_hurwitz([-2, -3, -1])  # -(z+1)(z+2)
    assert ref.exact_hurwitz([3.0])
    assert not ref.exact_hurwitz([0.0])
    assert not ref.exact_hurwitz([0, 1, 1])  # root at 0
    assert ref.exact_hurwitz([2, 3, 1, 0, 0])  # stored zeros above the degree


def test_agrees_with_numpy_roots_away_from_the_axis():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        c = rng.uniform(-1, 3, size=int(rng.integers(2, 9)))
        right = ref.max_real_part(c)
        if abs(right) > 1e-6:
            assert ref.exact_hurwitz(c) == (right < 0)
            checked += 1
    assert checked > 250


def test_demo_corners():
    lo, hi = inputs.DEMO_LO, inputs.DEMO_HI
    fam = ref.family_reference(lo, hi)
    assert fam["corners"] == [
        [10, 46, 40, 12],
        [21, 46, 38, 12, 1],
        [21, 50, 38, 6, 1],
        [10, 50, 40, 6],
    ]
    assert fam["robust"]


def test_negative_box_is_normalized():
    fam = ref.family_reference([-3, -4, -2], [-2, -3, -1])
    assert fam["corners"][0] == [2, 3, 2]
    assert fam["robust"]


def test_bounds_are_the_vertex_extremes():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        lo = rng.uniform(-1, 3, size=n + 1)
        hi = lo + rng.uniform(0, 2, size=n + 1)
        w = np.array([0.0, 0.4, 1.3, 2.9])
        hm, hp, gm, gp, _ = ref.hg_bounds(list(lo), list(hi), w)
        vals = np.array([np.polyval(v[::-1], 1j * w) for v in itertools.product(*zip(lo, hi))])
        np.testing.assert_allclose(hm, vals.real.min(axis=0), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(hp, vals.real.max(axis=0), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gm, vals.imag.min(axis=0), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gp, vals.imag.max(axis=0), rtol=1e-12, atol=1e-12)


def test_residual_of_true_and_false_roots():
    assert ref.relative_residual([1, 3, 3, 1], -1) == 0.0
    assert ref.relative_residual([1, 3, 3, 1], 1) == 1.0


def test_input_digest_canonical_form():
    canon = '{"intervals":[[1.0,2.0],[0.0,1.5]],"order":1}'
    want = "sha256:" + hashlib.sha256(canon.encode()).hexdigest()
    assert ref.input_digest([1.0, 0.0], [2.0, 1.5]) == want


def test_first_loss_of_a_known_path():
    # 1 + 2(1 - 2t) z + z^2 is Hurwitz exactly for t < 1/2
    t_star = ref.first_loss([1.0, 2.0, 1.0], [1.0, -2.0, 1.0], 64, 1e-10)
    assert 0.5 <= t_star <= 0.5 + 1e-10
    assert ref.first_loss([1.0, 1.0], [2.0, 1.0], 16, 1e-10) is None


def test_generated_boxes():
    for order in (3, 8):
        for drop in (False, True):
            lo, hi = inputs.stable_box(inputs.rng_for("oracle-stable", 0, 0, order), order, drop)
            assert ref.family_reference(lo, hi)["robust"]
            assert (lo[-1] == 0.0) == drop and all(v >= 0.0 for v in lo)
    fixed = inputs.high_degree_round(0, 1)[len(inputs.HIGH_SLOTS):]
    assert [len(b["lo"]) - 1 for b in fixed] == [24, 20, 40]
    assert all(b["ref"]["robust"] for b in fixed)
