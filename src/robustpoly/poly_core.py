"""Real polynomial arithmetic used throughout the package.

Polynomials are stored densely by ascending power: ``coeffs[i]`` is the
coefficient of ``z**i``.  The stored list is never truncated behind the
caller's back; effective degree is computed on demand against a small
tolerance so that an explicitly stored zero leading coefficient (a family
member that dropped degree, say) keeps its slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

__all__ = [
    "ZeroPolynomial",
    "RealPolynomial",
    "evaluate",
    "derivative",
    "wronskian",
    "hg_split",
    "linear_combination",
    "convex_combine",
    "format_poly",
]

# Relative threshold of the effective degree: a coefficient counts as zero
# when its magnitude is at most ``ZERO_REL_TOL * max(abs(coeffs))``.
ZERO_REL_TOL = 1e-12


class ZeroPolynomial(ValueError):
    """Raised when an operation is undefined for the identically-zero polynomial."""


@dataclass(frozen=True)
class RealPolynomial:
    """A dense real polynomial ``sum(coeffs[i] * z**i)``.

    Parameters
    ----------
    coeffs:
        Ascending coefficients.  Must be non-empty and finite.
    zero_tol:
        Threshold below which a coefficient is treated as zero when the
        effective degree is computed.  ``None`` selects the default
        ``1e-12 * max(abs(coeffs))``.  The stored coefficients themselves
        are never modified.
    """

    coeffs: tuple[float, ...]
    zero_tol: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a polynomial needs at least one coefficient")
        cs = tuple(float(c) for c in self.coeffs)
        for i, c in enumerate(cs):
            if not math.isfinite(c):
                raise ValueError(f"coefficient {i} is not finite: {c!r}")
        object.__setattr__(self, "coeffs", cs)
        if self.zero_tol is not None and self.zero_tol < 0:
            raise ValueError("zero_tol must be nonnegative")

    def effective_zero_tol(self) -> float:
        if self.zero_tol is not None:
            return self.zero_tol
        return ZERO_REL_TOL * max(abs(c) for c in self.coeffs)

    def degree(self) -> int | None:
        """Effective degree, or ``None`` for the zero polynomial."""
        tol = self.effective_zero_tol()
        for i in range(len(self.coeffs) - 1, -1, -1):
            if abs(self.coeffs[i]) > tol:
                return i
        return None

    def is_zero(self) -> bool:
        return self.degree() is None

    def leading_coefficient(self) -> float:
        d = self.degree()
        if d is None:
            raise ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeffs[d]

    def __neg__(self) -> "RealPolynomial":
        return RealPolynomial(tuple(-c for c in self.coeffs), self.zero_tol)

    def __str__(self) -> str:
        return format_poly(self)


def evaluate(p: RealPolynomial, z: complex) -> complex:
    """Evaluate ``p`` at a complex point by Horner's scheme."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c
    if not (math.isfinite(acc.real) and math.isfinite(acc.imag)):
        raise OverflowError(f"evaluation overflowed at z={z!r}")
    return acc


def derivative(p: RealPolynomial) -> RealPolynomial:
    """Formal derivative.  Constants map to the zero constant."""
    if len(p.coeffs) == 1:
        return RealPolynomial((0.0,), p.zero_tol)
    return RealPolynomial(
        tuple(i * c for i, c in enumerate(p.coeffs) if i > 0), p.zero_tol
    )


def _polymul(a: tuple[float, ...], b: tuple[float, ...]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def wronskian(h: RealPolynomial, g: RealPolynomial) -> RealPolynomial:
    """Coefficient vector of ``h * g' - h' * g``.

    The result is returned as a polynomial so it can be evaluated at many
    points cheaply; no simplification beyond plain expansion is attempted.
    """
    hg = _polymul(h.coeffs, derivative(g).coeffs)
    gh = _polymul(derivative(h).coeffs, g.coeffs)
    # 1*x + (-1)*y rounds exactly as x - y
    return RealPolynomial(linear_combination(1.0, hg, -1.0, gh))


def hg_split(p: RealPolynomial) -> tuple[RealPolynomial, RealPolynomial]:
    """Split ``p`` along the imaginary axis: ``p(i*w) = h(w) + i*g(w)``.

    ``h`` collects the even-power coefficients with alternating signs,
    ``g`` the odd ones: ``h = a0 - a2 w^2 + a4 w^4 - ...`` and
    ``g = a1 w - a3 w^3 + a5 w^5 - ...``.  Both are returned as real
    polynomials in ``w`` with zeros in the unused slots.
    """
    hc = [0.0] * len(p.coeffs)
    gc = [0.0] * max(len(p.coeffs), 2)
    for i, c in enumerate(p.coeffs):
        if i % 2 == 0:
            hc[i] = c if i % 4 == 0 else -c
        else:
            gc[i] = c if i % 4 == 1 else -c
    return RealPolynomial(tuple(hc)), RealPolynomial(tuple(gc))


def linear_combination(u: float, p, v: float, q) -> tuple[float, ...]:
    """Coefficientwise ``u*p + v*q``; the shorter sequence is padded with zeros."""
    return tuple(u * x + v * y for x, y in zip_longest(p, q, fillvalue=0.0))


def convex_combine(p: RealPolynomial, q: RealPolynomial, t: float) -> RealPolynomial:
    """Coefficientwise ``(1-t)*p + t*q`` for ``t`` in [0, 1].

    Shorter coefficient vectors are padded with zeros, so the result has
    ``max(len(p), len(q))`` stored coefficients.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return RealPolynomial(linear_combination(1.0 - t, p.coeffs, t, q.coeffs))


def format_poly(p: RealPolynomial) -> str:
    """Human-readable rendering, ascending powers, e.g. ``10 + 46 z + 40 z^2``."""
    parts: list[str] = []
    for i, c in enumerate(p.coeffs):
        if c == 0.0 and len(p.coeffs) > 1:
            continue
        mag = f"{abs(c):g}"
        if i == 0:
            term = mag
        else:
            power = "z" if i == 1 else f"z^{i}"
            term = power if mag == "1" else f"{mag} {power}"
        if not parts:
            parts.append(term if c >= 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c >= 0 else f"- {term}")
    if not parts:
        return "0"
    return " ".join(parts)
