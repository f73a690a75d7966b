"""Robust stability of interval polynomial families.

A family is a coefficient box: independent intervals ``[lo[i], hi[i]]``
per power of ``z``.  Four corner polynomials decide Hurwitz stability of
the whole box, including boxes whose leading interval touches zero (the
family then contains members of lower degree); the corners simply come
out with differing degrees and are classified as they are.

The value set of the family along the imaginary axis is an axis-aligned
rectangle per frequency, spanned by the lower/upper even and odd bound
polynomials.  That geometry backs the zero-exclusion diagnostics here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hurwitz import StabilityVerdict, Status, is_hurwitz
from .poly_core import RealPolynomial, evaluate, hg_split

__all__ = [
    "HypothesisNotMet",
    "IntervalPolynomial",
    "KharitonovQuad",
    "RectangleSample",
    "FamilyVerdict",
    "kharitonov_polys",
    "rectangle",
    "rectangle_sweep",
    "zero_exclusion_sweep",
    "corollary1_check",
    "kharitonov_test",
]

# slack applied to rectangle membership so bisection-refined boundary
# frequencies are not lost to the last floating-point digit
CONTAINS_ZERO_SLACK = 1e-9

CORNER_CROSS_TOL = 1e-10

# the verdict on a corner polynomial that is identically zero
ZERO_CORNER = StabilityVerdict(Status.DEGENERATE, "routh", note="zero polynomial")


class HypothesisNotMet(ValueError):
    """A result was requested whose hypotheses the input does not satisfy."""


@dataclass(frozen=True)
class IntervalPolynomial:
    """Coefficient box ``lo[i] <= a_i <= hi[i]`` for ``i = 0..order``.

    The leading interval must not be the degenerate pair ``[0, 0]``; a box
    whose leading interval merely touches zero is allowed and flagged by
    :attr:`degree_drop`.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or len(lo) == 0:
            raise ValueError("lo and hi must be non-empty and of equal length")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not (a <= b):
                raise ValueError(f"interval {i} is empty: [{a}, {b}]")
        if lo[-1] == 0.0 and hi[-1] == 0.0:
            raise ValueError("leading interval must not be identically zero")

    @classmethod
    def from_intervals(cls, pairs) -> "IntervalPolynomial":
        pairs = list(pairs)
        return cls(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    @property
    def order(self) -> int:
        return len(self.lo) - 1

    @property
    def degree_drop(self) -> bool:
        return self.lo[-1] * self.hi[-1] == 0.0

    def __neg__(self) -> "IntervalPolynomial":
        return IntervalPolynomial(
            tuple(-v for v in self.hi), tuple(-v for v in self.lo)
        )

    def contains(self, p: RealPolynomial) -> bool:
        """Coefficientwise membership; coefficients beyond the box must vanish."""
        inside = all(lo <= c <= hi for lo, c, hi in zip(self.lo, p.coeffs, self.hi))
        return inside and not any(p.coeffs[self.order + 1 :])


@dataclass(frozen=True)
class KharitonovQuad:
    """The four corner polynomials plus the bound polynomials they share.

    ``h_minus/h_plus`` bound the even (real) part of any member along the
    imaginary axis, ``g_minus/g_plus`` the odd (imaginary) part; corners
    pair them as ``k1 = h- + i g-``, ``k2 = h+ + i g-``, ``k3 = h+ + i g+``,
    ``k4 = h- + i g+``.
    """

    k1: RealPolynomial
    k2: RealPolynomial
    k3: RealPolynomial
    k4: RealPolynomial
    h_minus: RealPolynomial
    h_plus: RealPolynomial
    g_minus: RealPolynomial
    g_plus: RealPolynomial

    @property
    def polys(self) -> tuple[RealPolynomial, ...]:
        return (self.k1, self.k2, self.k3, self.k4)


def kharitonov_polys(box: IntervalPolynomial) -> KharitonovQuad:
    """Assemble the four corner polynomials and their h/g bound splits.

    Corner ``kj`` takes the lower or upper endpoint of interval ``i`` by
    ``i mod 4``: ``lo lo hi hi`` for k1, ``hi lo lo hi`` for k2, ``hi hi lo
    lo`` for k3 and ``lo hi hi lo`` for k4.
    """
    k1, k2, k3, k4 = (
        RealPolynomial(
            tuple(box.hi[i] if picks[i % 4] == "h" else box.lo[i] for i in range(box.order + 1))
        )
        for picks in ("llhh", "hllh", "hhll", "lhhl")
    )
    h_minus, g_minus = hg_split(k1)
    h_plus, g_plus = hg_split(k3)
    return KharitonovQuad(k1, k2, k3, k4, h_minus, h_plus, g_minus, g_plus)


@dataclass(frozen=True)
class RectangleSample:
    """Value-set rectangle of the family at one frequency.

    ``corners`` are the four corner polynomial values in k1..k4 order;
    ``lo_nonnegative`` records whether every lower bound of the box is
    nonnegative (the hypothesis under which the rectangle is quoted as a
    guaranteed enclosure for nonnegative frequencies).
    """

    omega: float
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    corners: tuple[complex, complex, complex, complex]
    contains_zero: bool
    lo_nonnegative: bool


def _rectangle_at(box: IntervalPolynomial, quad: KharitonovQuad, w: float) -> RectangleSample:
    hm = evaluate(quad.h_minus, w).real
    hp = evaluate(quad.h_plus, w).real
    gm = evaluate(quad.g_minus, w).real
    gp = evaluate(quad.g_plus, w).real
    corners = (
        complex(hm, gm),
        complex(hp, gm),
        complex(hp, gp),
        complex(hm, gp),
    )
    for c, k in zip(corners, quad.polys):
        direct = evaluate(k, 1j * w)
        if abs(direct - c) > CORNER_CROSS_TOL * (1.0 + abs(direct)):
            raise RuntimeError(
                f"corner cross-check failed at omega={w}: {direct} vs {c}"
            )
    slack_x = CONTAINS_ZERO_SLACK * (1.0 + abs(hm) + abs(hp))
    slack_y = CONTAINS_ZERO_SLACK * (1.0 + abs(gm) + abs(gp))
    contains = (
        hm <= slack_x and hp >= -slack_x and gm <= slack_y and gp >= -slack_y
    )
    return RectangleSample(
        omega=w,
        x_range=(hm, hp),
        y_range=(gm, gp),
        corners=corners,
        contains_zero=contains,
        lo_nonnegative=all(v >= 0.0 for v in box.lo),
    )


def rectangle(box: IntervalPolynomial, omega: float) -> RectangleSample:
    """Value-set rectangle at a single frequency.

    Corner values are cross-checked against direct evaluation of the
    corner polynomials at ``i*omega``; a mismatch beyond 1e-10 relative is
    an internal error.
    """
    return _rectangle_at(box, kharitonov_polys(box), omega)


def _bisect_root(f, a: float, b: float) -> float:
    fa = f(a)
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0) == (fm < 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def rectangle_sweep(
    box: IntervalPolynomial, omega_max: float, steps: int = 1000
) -> list[RectangleSample]:
    """Rectangles over ``[0, omega_max]``: a uniform grid of ``steps``
    frequencies plus bisection-refined points wherever one of the four
    bound polynomials changes sign between neighbours."""
    if not 0 < omega_max < math.inf or steps < 2:
        raise ValueError("need a finite omega_max > 0 and steps >= 2")
    quad = kharitonov_polys(box)
    bounds = (quad.h_minus, quad.h_plus, quad.g_minus, quad.g_plus)
    grid = [omega_max * i / (steps - 1) for i in range(steps)]
    extra: list[float] = []
    vals = [[evaluate(b, w).real for b in bounds] for w in grid]
    for i in range(steps - 1):
        for j, b in enumerate(bounds):
            if vals[i][j] * vals[i + 1][j] < 0.0:
                f = lambda w, _b=b: evaluate(_b, w).real
                extra.append(_bisect_root(f, grid[i], grid[i + 1]))
    return [_rectangle_at(box, quad, w) for w in sorted(set(grid + extra))]


def zero_exclusion_sweep(
    box: IntervalPolynomial, omega_max: float, steps: int = 1000
) -> list[RectangleSample]:
    """Frequencies in ``[0, omega_max]`` whose rectangle contains 0.

    An empty result is evidence of zero exclusion, not proof: a
    containment window entirely inside one grid cell with no endpoint
    sign change goes unseen.  The decisive answer comes from the corner
    polynomial test; this sweep is a diagnostic.
    """
    return [s for s in rectangle_sweep(box, omega_max, steps) if s.contains_zero]


def corollary1_check(box: IntervalPolynomial) -> tuple[bool, int | None]:
    """Verify coefficient positivity for a robustly stable box.

    Requires all four corner polynomials Hurwitz stable and a positive
    upper leading bound (raises :class:`HypothesisNotMet` otherwise), then
    confirms what stability forces on the box: every lower bound below the
    leading index is strictly positive and the leading lower bound is
    nonnegative.  Returns ``(ok, violating_index)``; a ``False`` here would
    mean the classification itself is broken.
    """
    n = box.order
    if not box.hi[n] > 0.0:
        raise HypothesisNotMet("upper leading bound must be positive")
    for j, v in enumerate(kharitonov_test(box).corners, start=1):
        if not v.is_stable:
            raise HypothesisNotMet(f"corner polynomial k{j} is not Hurwitz stable")
    for i in range(n):
        if not box.lo[i] > 0.0:
            return False, i
    if box.lo[n] < 0.0:
        return False, n
    return True, None


@dataclass(frozen=True)
class FamilyVerdict(StabilityVerdict):
    """Family-level verdict and the corner verdicts it was taken from.

    ``quad`` holds the corner polynomials of the sign-normalized box and
    ``corners`` their four verdicts in k1..k4 order; a zero corner is
    DEGENERATE.  Only the first failing corner carries a witness root.  On
    failure ``failing_k`` (1-based, k1..k4) names that corner and
    ``witness_poly`` is its polynomial, itself a member of the box.
    """

    failing_k: int | None = None
    witness_poly: RealPolynomial | None = None
    quad: KharitonovQuad | None = None
    corners: tuple[StabilityVerdict, ...] = ()


def kharitonov_test(box: IntervalPolynomial) -> FamilyVerdict:
    """Decide robust Hurwitz stability of the whole box.

    STABLE iff all four corner polynomials are Hurwitz stable; the sign of
    the leading interval is normalized first, so ``kharitonov_test(-P)``
    agrees with ``kharitonov_test(P)``.  All four corner verdicts are kept
    on the result; on failure it names the failing corner, the only one
    whose offending root is solved.  Two degenerate situations are reported
    as DEGENERATE rather than forced into STABLE/UNSTABLE: a box of
    constants straddling zero, and a corner polynomial that is identically
    zero (both mean the zero polynomial is a member).
    """
    work = box if box.hi[-1] > 0.0 else -box
    quad = kharitonov_polys(work)
    # a zero corner fails first; every other corner is then classified
    # without a root witness, as are the corners after the first failing one
    failing = next((j for j, k in enumerate(quad.polys, start=1) if k.is_zero()), None)
    corners = []
    for j, k in enumerate(quad.polys, start=1):
        v = ZERO_CORNER if k.is_zero() else is_hurwitz(k, root_witness=failing is None)
        if failing is None and not v.is_stable:
            failing = j
        corners.append(v)
    found = {"quad": quad, "corners": tuple(corners)}

    if work.order == 0 and not work.lo[0] > 0.0:
        return FamilyVerdict(
            Status.DEGENERATE,
            "routh",
            note="family contains the zero polynomial",
            witness_poly=RealPolynomial((0.0,)),
            **found,
        )
    if failing is None:
        note = "all four corner polynomials are Hurwitz stable"
        if work.order == 0:
            note = "constant family"
        return FamilyVerdict(Status.STABLE, "routh", note=note, **found)
    v = corners[failing - 1]
    if v is ZERO_CORNER:
        note = f"corner polynomial k{failing} is the zero polynomial"
    else:
        note = f"corner polynomial k{failing} is {v.status.value}"
        if work is not box:
            note += " (leading sign normalized)"
    return FamilyVerdict(
        v.status,
        v.method,
        witness_root=v.witness_root,
        witness_index=v.witness_index,
        note=note,
        failing_k=failing,
        witness_poly=quad.polys[failing - 1],
        **found,
    )
