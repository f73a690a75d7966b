"""Reference answers computed apart from robustpoly.

Nothing here imports the package under test.  Every float is a dyadic
rational, so a Routh array run in exact rational arithmetic on the float
coefficients has exact signs: it decides Hurwitz stability of exactly the
polynomial the program was given.  Corners, value-set bounds, certificate
digests and root residuals are rebuilt here from their definitions.

Polynomials are ascending coefficient sequences (index i multiplies z**i).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np

AXIS_TOL = 1e-9  # the program's documented MARGINAL band

# Which endpoint each Kharitonov corner takes for the coefficient of z**i,
# by i mod 4 (1 = upper, 0 = lower): K1 = l0 + l1 z + h2 z^2 + h3 z^3 + ...
_CORNER_PICKS = ((0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0))


def trim(coeffs) -> list:
    """Coefficients up to the last exactly nonzero one (``[0]`` if none).
    Values keep their type, so integer inputs stay exact."""
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def exact_hurwitz(coeffs) -> bool:
    """True iff every root of the polynomial lies in the open left half-plane.

    The Routh array of a Hurwitz polynomial is regular with a first column
    of one strict sign (its entries are ratios of Hurwitz determinants), so
    a zero pivot or a sign change both mean "not Hurwitz".  The zero
    polynomial is not Hurwitz; a nonzero constant is.

    The coefficients are taken as exact rationals (``Fraction``), scaled to
    integers by their common denominator, and every new row is computed by
    cross-multiplication and divided by the gcd of its entries.  Both steps
    scale a row of the rational array by a positive number, so every sign
    in the first column is the exact one.
    """
    c = [Fraction(x) for x in trim(coeffs)]
    n = len(c) - 1
    if n == 0:
        return c[0] != 0
    den = math.lcm(*(x.denominator for x in c))
    v = [int(x * den) for x in c]
    if v[-1] < 0:
        v = [-x for x in v]
    desc = v[::-1]
    above, row = desc[0::2], desc[1::2]
    row += [0] * (len(above) - len(row))
    for _ in range(n):
        if row[0] <= 0:
            return False
        nxt = [row[0] * above[i + 1] - above[0] * row[i + 1] for i in range(len(above) - 1)]
        g = math.gcd(*nxt)
        if g > 1:
            nxt = [x // g for x in nxt]
        above, row = row, nxt + [0]
    return True


def normalized(lo, hi) -> tuple[list[float], list[float]]:
    """The box with its leading sign normalized the way the program's
    family test does it: negated when the upper leading bound is not
    positive."""
    if hi[-1] > 0.0:
        return list(lo), list(hi)
    return [-v for v in hi], [-v for v in lo]


def corners(lo, hi) -> list[list[float]]:
    """The four Kharitonov corner polynomials K1..K4 of the box, untrimmed."""
    return [
        [hi[i] if picks[i % 4] else lo[i] for i in range(len(lo))]
        for picks in _CORNER_PICKS
    ]


def family_reference(lo, hi) -> dict:
    """Corners of the sign-normalized box and their exact verdicts."""
    nlo, nhi = normalized(lo, hi)
    ks = [trim(k) for k in corners(nlo, nhi)]
    stable = [exact_hurwitz(k) for k in ks]
    return {"corners": ks, "stable": stable, "robust": all(stable)}


def vertex_verdicts(lo, hi) -> list[bool]:
    """Exact Hurwitz verdict of every distinct vertex of the box (the zero
    polynomial counts as not Hurwitz)."""
    return [exact_hurwitz(v) for v in sorted(set(itertools.product(*zip(lo, hi))))]


def hg_bounds(lo, hi, omegas: np.ndarray) -> tuple[np.ndarray, ...]:
    """``h-, h+, g-, g+`` at each frequency, by numpy.polyval.

    For w >= 0, Re p(iw) = sum over even i of (+/-) a_i w^i with sign +
    when i % 4 == 0, and Im p(iw) = sum over odd i with sign + when
    i % 4 == 1.  Each bound takes the endpoint that minimizes (maximizes)
    every term.  Returned alongside is the magnitude scale
    ``sum |a_i| w^i`` of the larger endpoint, for relative comparisons.
    """
    n = len(lo)
    sign = [1.0 if i % 4 in (0, 1) else -1.0 for i in range(n)]
    even = [i % 2 == 0 for i in range(n)]

    def bound(part_even: bool, upper: bool) -> np.ndarray:
        cs = []
        for i in range(n):
            if even[i] != part_even:
                cs.append(0.0)
                continue
            take_hi = (sign[i] > 0) == upper
            cs.append(sign[i] * (hi[i] if take_hi else lo[i]))
        return np.polyval(cs[::-1], omegas)

    mag = [max(abs(a), abs(b)) for a, b in zip(lo, hi)]
    scale = np.polyval(mag[::-1], np.abs(omegas))
    return bound(True, False), bound(True, True), bound(False, False), bound(False, True), scale


def relative_residual(coeffs, z: complex) -> float:
    """``|p(z)| / sum |a_i| max(1, |z|)^i``: the residual of a claimed root
    against the size of the terms that cancel in it."""
    desc = list(trim(coeffs))[::-1]
    num = abs(np.polyval(desc, z))
    return num / float(np.polyval([abs(c) for c in desc], max(1.0, abs(z))))


def max_real_part(coeffs) -> float:
    """Largest real part among the numpy.roots of the polynomial."""
    return float(np.max(np.roots(trim(coeffs)[::-1]).real))


def input_digest(lo, hi) -> str:
    """The certificate's ``input_digest``: sha256 of the canonical box JSON."""
    canon = json.dumps(
        {"order": len(lo) - 1, "intervals": [[a, b] for a, b in zip(lo, hi)]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


def path_point(p, q, t: float) -> list[float]:
    """Coefficientwise ``(1-t) p + t q`` in floats, shorter side zero-padded."""
    n = max(len(p), len(q))
    a = list(p) + [0.0] * (n - len(p))
    b = list(q) + [0.0] * (n - len(q))
    return [(1.0 - t) * x + t * y for x, y in zip(a, b)]


def first_loss(p, q, steps: int, refine_tol: float) -> float | None:
    """First t in [0, 1] where ``(1-t) p + t q`` stops being Hurwitz.

    The grid ``i / (steps - 1)`` brackets the first unstable point; exact
    Routh bisection then narrows the bracket to ``refine_tol``.  Returns
    the upper end of the bracket, or None when every grid point is stable.
    """
    ts = [i / (steps - 1) for i in range(steps)]
    prev = None
    for t in ts:
        if not exact_hurwitz(path_point(p, q, t)):
            if prev is None:
                return t
            lo_t, hi_t = prev, t
            while hi_t - lo_t > refine_tol:
                mid = 0.5 * (lo_t + hi_t)
                if exact_hurwitz(path_point(p, q, mid)):
                    lo_t = mid
                else:
                    hi_t = mid
            return hi_t
        prev = t
    return None
