"""Stability along one-parameter polynomial paths.

When a path starts stable and keeps its leading coefficient nonzero up to
the far endpoint, stability can only be lost through a root walking over
the imaginary axis; the crossing finder locates that first transition and
certifies it by a near-zero residual on the axis.  Paths that drop degree
en route can lose stability with no axis crossing at all (the root leaves
through infinity instead), and two built-in families demonstrate exactly
that, so the finder reports the failure mode honestly instead of forcing
a witness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .hurwitz import StabilityVerdict, is_hurwitz
from .kharitonov import KharitonovQuad
from .poly_core import RealPolynomial, ZeroPolynomial, convex_combine, evaluate
from .poly_core import linear_combination, wronskian
from .roots import all_roots

__all__ = [
    "PolynomialPath",
    "CrossingWitness",
    "CrossingKind",
    "CrossingOutcome",
    "SweepResult",
    "sweep_stability",
    "find_crossing",
    "wronskian_identity_check",
    "NAMED_FAMILIES",
]

CROSSING_RESIDUAL_TOL = 1e-8


def _loop_coeffs(t: float) -> tuple[float, ...]:
    # constant term pinned at 1; linear term sweeps 0 -> -1 -> 0
    return (1.0, (2.0 * t - 1.0) ** 2 - 1.0)


NAMED_FAMILIES: dict[str, tuple[float, float, Callable[[float], tuple[float, ...]]]] = {
    # stable at both ends, unstable inside, no axis crossing anywhere:
    # the single root returns from +infinity instead of walking over the axis
    "faedo-loop": (0.0, 1.0, _loop_coeffs),
    # same coefficients on the half interval; degree drops at the left
    # endpoint only, which already defeats the crossing argument
    "faedo-half": (0.0, 0.5, _loop_coeffs),
}


@dataclass(frozen=True)
class PolynomialPath:
    """Continuous coefficient path ``t -> p_t`` on ``[a, b]``."""

    a: float
    b: float
    coeff_fn: Callable[[float], tuple[float, ...]]
    label: str = ""

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("need a < b")

    def at(self, t: float) -> RealPolynomial:
        if not self.a <= t <= self.b:
            raise ValueError(f"t={t} outside [{self.a}, {self.b}]")
        return RealPolynomial(self.coeff_fn(t))

    @classmethod
    def convex(
        cls, p: RealPolynomial, q: RealPolynomial, a: float = 0.0, b: float = 1.0
    ) -> "PolynomialPath":
        """Straight-line segment ``(1-t) p + t q`` (coefficientwise)."""
        return cls(a, b, lambda t: convex_combine(p, q, t).coeffs, label="convex")

    @classmethod
    def piecewise_linear(
        cls, breakpoints: list[tuple[float, tuple[float, ...]]]
    ) -> "PolynomialPath":
        """Linear interpolation through ``(t, coeffs)`` breakpoints."""
        pts = sorted(breakpoints, key=lambda bp: bp[0])
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        # every p_t has as many coefficients as the widest breakpoint
        width = max(len(c) for _, c in pts)
        pts = [(t, c + (0.0,) * (width - len(c))) for t, c in pts]

        def fn(t: float) -> tuple[float, ...]:
            idx = len(pts) - 2
            for i in range(len(pts) - 1):
                if t <= pts[i + 1][0]:
                    idx = i
                    break
            t0, c0 = pts[idx]
            t1, c1 = pts[idx + 1]
            lam = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            return linear_combination(1 - lam, c0, lam, c1)

        return cls(pts[0][0], pts[-1][0], fn, label="piecewise-linear")

    @classmethod
    def named(cls, name: str) -> "PolynomialPath":
        try:
            a, b, fn = NAMED_FAMILIES[name]
        except KeyError:
            raise ValueError(
                f"unknown family {name!r}; available: {sorted(NAMED_FAMILIES)}"
            ) from None
        return cls(a, b, fn, label=name)


@dataclass(frozen=True)
class SweepResult:
    ts: tuple[float, ...]
    verdicts: tuple[StabilityVerdict, ...]
    first_unstable_index: int | None

    @property
    def all_stable(self) -> bool:
        return self.first_unstable_index is None


def sweep_stability(path: PolynomialPath, steps: int = 64) -> SweepResult:
    """Classify ``p_t`` on a uniform grid including both endpoints.

    Raises :class:`~robustpoly.poly_core.ZeroPolynomial` (with the failing
    ``t`` in the message) if the path passes through the zero polynomial.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    ts = [path.a + (path.b - path.a) * i / (steps - 1) for i in range(steps)]
    verdicts = []
    first_bad = None
    for i, t in enumerate(ts):
        p = path.at(t)
        if p.is_zero():
            raise ZeroPolynomial(f"path passes through the zero polynomial at t={t}")
        v = is_hurwitz(p, root_witness=False)
        verdicts.append(v)
        if first_bad is None and not v.is_stable:
            first_bad = i
    return SweepResult(tuple(ts), tuple(verdicts), first_bad)


class CrossingKind(enum.Enum):
    STABLE_ALL = "STABLE_ALL"
    CROSSING = "CROSSING"
    NO_CROSSING_UNSTABLE = "NO_CROSSING_UNSTABLE"


@dataclass(frozen=True)
class CrossingWitness:
    """First loss of stability, certified on the axis.

    ``residual = |p_{t*}(i omega*)|`` is small against the evaluation
    scale of ``p_{t*}`` at ``omega*``; ``t_star - refine_tol`` is still
    stable.
    """

    t_star: float
    omega_star: float
    residual: float


@dataclass(frozen=True)
class CrossingOutcome:
    kind: CrossingKind
    witness: CrossingWitness | None
    hypotheses_ok: bool
    hypothesis_note: str
    first_unstable_t: float | None


def _hypothesis_scan(path: PolynomialPath, sweep: SweepResult) -> tuple[bool, str]:
    # crossing guarantee needs: stable start, and the formal leading
    # coefficient nonzero up to (not including) the far endpoint
    p0 = path.at(path.a)
    if p0.is_zero() or not is_hurwitz(p0, root_witness=False).is_stable:
        return False, "start polynomial is not Hurwitz stable"
    for t in sweep.ts[:-1]:
        if path.at(t).coeffs[-1] == 0.0:
            return False, f"leading coefficient vanishes at t={t:.6g}"
    return True, "start stable and leading coefficient nonzero on the grid"


def find_crossing(
    path: PolynomialPath, refine_tol: float = 1e-10, steps: int = 256
) -> CrossingOutcome:
    """Locate the first stable-to-unstable transition along the path.

    A grid sweep brackets the transition, bisection shrinks the bracket to
    ``refine_tol``, and the transition is certified as an axis crossing by
    evaluating at ``i omega*`` with ``omega*`` the imaginary part of the
    root closest to the axis.  When the residual refuses to vanish there
    was no crossing to find (root escaped through infinity, or the start
    was never stable); the outcome says so together with a scan of the
    hypotheses that would have guaranteed a crossing.
    """
    if refine_tol <= 0:
        raise ValueError("refine_tol must be positive")
    sweep = sweep_stability(path, steps)
    hyp_ok, hyp_note = _hypothesis_scan(path, sweep)
    if sweep.all_stable:
        return CrossingOutcome(CrossingKind.STABLE_ALL, None, hyp_ok, hyp_note, None)

    j = sweep.first_unstable_index
    if j == 0:
        return CrossingOutcome(
            CrossingKind.NO_CROSSING_UNSTABLE, None, hyp_ok, hyp_note, sweep.ts[0]
        )
    t_lo, t_hi = sweep.ts[j - 1], sweep.ts[j]
    while t_hi - t_lo > refine_tol:
        mid = 0.5 * (t_lo + t_hi)
        p_mid = path.at(mid)
        if not p_mid.is_zero() and is_hurwitz(p_mid, root_witness=False).is_stable:
            t_lo = mid
        else:
            t_hi = mid

    t_star = t_hi
    p_star = path.at(t_star)
    no_crossing = CrossingOutcome(
        CrossingKind.NO_CROSSING_UNSTABLE, None, hyp_ok, hyp_note, t_star
    )
    rs = None if p_star.is_zero() else all_roots(p_star)
    if rs is None or not rs.roots:
        return no_crossing
    m = min(abs(r.real) for r in rs.roots)
    ties = [r for r in rs.roots if abs(r.real) <= m + 1e-9 * (1.0 + abs(r))]
    near = max(ties, key=lambda r: r.imag)
    omega_star = near.imag
    residual = abs(evaluate(p_star, 1j * omega_star))
    # backward-error scale of evaluating at i*omega*; max(1, .) keeps the
    # coefficient magnitudes in play for crossings through the origin
    scale = sum(
        abs(c) * max(1.0, abs(omega_star)) ** j for j, c in enumerate(p_star.coeffs)
    )
    if residual <= CROSSING_RESIDUAL_TOL * scale:
        return CrossingOutcome(
            CrossingKind.CROSSING,
            CrossingWitness(t_star, omega_star, residual),
            hyp_ok,
            hyp_note,
            t_star,
        )
    return no_crossing


def wronskian_identity_check(
    alpha: tuple[float, float, float, float],
    quad: KharitonovQuad,
    omega: float,
) -> tuple[float, float]:
    """Both sides of the mixing identity for Wronskians of bound combinations.

    With weights ``alpha`` on the four corners (nonnegative, summing to 1),
    the combined parts are ``h = (a1+a4) h- + (a2+a3) h+`` and
    ``g = (a1+a2) g- + (a3+a4) g+``; the Wronskian of the combination
    expands bilinearly into the four corner Wronskians.  Returns
    ``(lhs, rhs)`` evaluated at ``omega``; they agree to rounding.
    """
    a1, a2, a3, a4 = alpha
    if any(a < 0 for a in alpha):
        raise ValueError("weights must be nonnegative")
    if abs(a1 + a2 + a3 + a4 - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")

    h = RealPolynomial(
        linear_combination(a1 + a4, quad.h_minus.coeffs, a2 + a3, quad.h_plus.coeffs)
    )
    g = RealPolynomial(
        linear_combination(a1 + a2, quad.g_minus.coeffs, a3 + a4, quad.g_plus.coeffs)
    )
    lhs = evaluate(wronskian(h, g), omega).real
    ww = {
        (m, n): evaluate(wronskian(m_, n_), omega).real
        for m, m_ in (("h-", quad.h_minus), ("h+", quad.h_plus))
        for n, n_ in (("g-", quad.g_minus), ("g+", quad.g_plus))
    }
    rhs = (
        (a1 + a4) * (a1 + a2) * ww[("h-", "g-")]
        + (a1 + a4) * (a3 + a4) * ww[("h-", "g+")]
        + (a2 + a3) * (a1 + a2) * ww[("h+", "g-")]
        + (a2 + a3) * (a3 + a4) * ww[("h+", "g+")]
    )
    return lhs, rhs
