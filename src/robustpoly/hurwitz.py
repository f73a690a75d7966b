"""Hurwitz stability of a single real polynomial.

Three routes are combined: a coefficient-positivity fast reject, the Routh
array, and an explicit root computation.  The array handles the generic
case; singular arrays (zero pivot or zero row) are not patched with the
usual epsilon trick but reported as DEGENERATE and settled by the roots.
:func:`is_hurwitz_rows` takes the same decision for a whole block of
polynomials at once, as numpy array operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .poly_core import ZERO_REL_TOL, RealPolynomial, ZeroPolynomial
from .roots import all_roots

__all__ = [
    "Status",
    "StabilityVerdict",
    "MethodDisagreement",
    "AXIS_TOL",
    "stodola_precheck",
    "routh_hurwitz",
    "is_hurwitz",
    "is_hurwitz_rows",
]

AXIS_TOL = 1e-9
# A Routh pivot (or a whole row) is zero when its magnitude is at most
# ``PIVOT_REL_TOL`` times the largest entry of the array so far.
PIVOT_REL_TOL = 1e-12


class Status(enum.Enum):
    STABLE = "STABLE"
    UNSTABLE = "UNSTABLE"
    MARGINAL = "MARGINAL"
    DEGENERATE = "DEGENERATE"


class MethodDisagreement(RuntimeError):
    """Array-based and root-based classification disagree (internal error)."""


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification plus the evidence that produced it.

    ``method`` names the deciding route ("stodola", "routh" or "roots").
    UNSTABLE and MARGINAL verdicts carry a witness: a closed right
    half-plane (respectively near-axis) root, a non-positive coefficient
    index, or a Routh first-column position, depending on the route.
    """

    status: Status
    method: str
    witness_root: complex | None = None
    witness_index: int | None = None
    note: str = ""

    @property
    def is_stable(self) -> bool:
        return self.status is Status.STABLE


def stodola_precheck(p: RealPolynomial) -> int | None:
    """Index of the first non-positive coefficient, or ``None`` if all pass.

    Only coefficients up to the effective degree are inspected.  The check
    is a necessary condition for stability when the leading coefficient is
    positive; callers holding a negative-leading polynomial negate first.
    """
    deg = p.degree()
    if deg is None:
        raise ZeroPolynomial("the zero polynomial has no stability class")
    for i in range(deg + 1):
        if not p.coeffs[i] > 0.0:
            return i
    return None


def _routh_rows(p: RealPolynomial) -> tuple[list[list[float]], int | None]:
    """Routh array rows and the index of the first singular row, if any."""
    deg = p.degree()
    desc = [p.coeffs[i] for i in range(deg, -1, -1)]
    rows = [desc[0::2], desc[1::2]]
    if deg == 0:
        return [rows[0]], None
    width = len(rows[0])
    rows[1] += [0.0] * (width - len(rows[1]))
    scale = max(abs(c) for c in desc)
    for r in range(2, deg + 1):
        prev, prev2 = rows[r - 1], rows[r - 2]
        if all(abs(v) <= PIVOT_REL_TOL * scale for v in prev):
            return rows, r - 1  # premature zero row
        if abs(prev[0]) <= PIVOT_REL_TOL * scale:
            return rows, r - 1  # zero pivot with live row
        new = [
            (prev[0] * prev2[i + 1] - prev2[0] * prev[i + 1]) / prev[0]
            for i in range(width - 1)
        ] + [0.0]
        rows.append(new)
        scale = max(scale, max(abs(v) for v in new))
    last = rows[deg]
    if abs(last[0]) <= PIVOT_REL_TOL * scale:
        return rows, deg
    return rows, None


def _routh_block(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stodola and Routh for rows of equal effective degree ``c.shape[1] - 1``.

    Returns ``(stable, singular)``.  The array is built with the operations
    of :func:`_routh_rows` in the same order, so every entry is bit-identical
    to the scalar one.  The zero-pivot test also covers the zero-row test,
    whose row includes the pivot.  A row is ``singular`` when a pivot
    vanishes or when its array leaves the finite range (then the running
    scale is inf or nan); its ``stable`` entry is meaningless.
    """
    m, deg = c.shape[0], c.shape[1] - 1
    if deg == 0:
        return np.ones(m, dtype=bool), np.zeros(m, dtype=bool)
    q = np.where(c[:, deg:] > 0.0, c, -c)
    stable = (q > 0.0).all(axis=1)  # Stodola; failing rows are UNSTABLE
    singular = np.zeros(m, dtype=bool)
    live = np.flatnonzero(stable)
    desc = q[live, ::-1]
    prev2 = desc[:, 0::2]
    prev = np.zeros_like(prev2)
    prev[:, : (deg + 1) // 2] = desc[:, 1::2]
    scale = desc.max(axis=1)
    zero = prev[:, 0] <= PIVOT_REL_TOL * scale
    negative = np.zeros(len(live), dtype=bool)
    with np.errstate(all="ignore"):  # singular rows run on with junk
        for _ in range(2, deg + 1):
            p0 = prev[:, :1]
            new = np.zeros_like(prev)
            new[:, :-1] = (p0 * prev2[:, 1:] - prev2[:, :1] * prev[:, 1:]) / p0
            scale = np.maximum(scale, np.abs(new).max(axis=1))
            zero |= np.abs(new[:, 0]) <= PIVOT_REL_TOL * scale
            negative |= new[:, 0] < 0.0
            prev2, prev = prev, new
    stable[live] = ~negative
    singular[live] = zero | ~np.isfinite(scale)
    return stable, singular


def is_hurwitz_rows(block: np.ndarray, axis_tol: float = AXIS_TOL) -> np.ndarray:
    """Stability of every row of a ``(k, n+1)`` block of ascending coefficients.

    Entry ``i`` equals ``is_hurwitz(RealPolynomial(block[i]), axis_tol,
    root_witness=False).is_stable``; zero rows come back ``False``.  Rows
    are grouped by effective degree, and the sign normalization, Stodola
    and the Routh array run on each group at once.  Rows whose array is
    singular are handed to :func:`is_hurwitz`, which settles them by roots.
    """
    block = np.asarray(block, dtype=float)
    mag = np.abs(block)
    live = mag > ZERO_REL_TOL * mag.max(axis=1, keepdims=True)
    nonzero = live.any(axis=1)
    deg = block.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)
    stable = np.zeros(len(block), dtype=bool)
    singular = np.zeros(len(block), dtype=bool)
    for d in np.unique(deg[nonzero]):
        rows = np.flatnonzero(nonzero & (deg == d))
        stable[rows], singular[rows] = _routh_block(block[rows, : d + 1])
    for i in np.flatnonzero(singular):
        p = RealPolynomial(tuple(block[i].tolist()))
        stable[i] = is_hurwitz(p, axis_tol, root_witness=False).is_stable
    return stable


def routh_hurwitz(p: RealPolynomial) -> StabilityVerdict:
    """Classify by the Routh array alone.

    STABLE iff every first-column entry shares the sign of the leading
    coefficient.  A vanishing pivot or row makes the array singular; the
    verdict is then DEGENERATE (witness: the row index) and the caller is
    expected to fall back on the root method.
    """
    deg = p.degree()
    if deg is None:
        raise ZeroPolynomial("the zero polynomial has no stability class")
    if deg == 0:
        return StabilityVerdict(Status.STABLE, "routh", note="constant")
    rows, singular = _routh_rows(p)
    if singular is not None:
        return StabilityVerdict(
            Status.DEGENERATE,
            "routh",
            witness_index=singular,
            note=f"singular array at row {singular}",
        )
    lead = 1.0 if p.coeffs[deg] > 0 else -1.0
    for r, row in enumerate(rows):
        if row[0] * lead < 0.0:
            return StabilityVerdict(Status.UNSTABLE, "routh", witness_index=r)
    return StabilityVerdict(Status.STABLE, "routh")


def _roots_verdict(p: RealPolynomial, axis_tol: float) -> StabilityVerdict:
    rs = all_roots(p)
    if not rs.roots:
        return StabilityVerdict(Status.STABLE, "roots", note="constant")
    worst = rs.rightmost()
    if worst.real < -axis_tol:
        return StabilityVerdict(Status.STABLE, "roots")
    if worst.real <= axis_tol:
        return StabilityVerdict(Status.MARGINAL, "roots", witness_root=worst)
    return StabilityVerdict(Status.UNSTABLE, "roots", witness_root=worst)


def is_hurwitz(
    p: RealPolynomial,
    axis_tol: float = AXIS_TOL,
    root_witness: bool = True,
    cross_check: bool = False,
) -> StabilityVerdict:
    """Decide whether every root of ``p`` lies in the open left half-plane.

    The sign of the leading coefficient is normalized away, the positivity
    precheck rejects cheaply, the Routh array decides the generic case and
    the root method settles singular arrays.  Roots within ``axis_tol`` of
    the imaginary axis come back MARGINAL rather than STABLE/UNSTABLE.

    ``root_witness=False`` skips the extra root solve that otherwise
    upgrades index witnesses to an offending root on UNSTABLE verdicts
    (bulk callers sampling thousands of members want it off).
    ``cross_check=True`` runs the root method on every verdict (meant for
    audits).  Whenever the roots are solved, at most once per call, and
    split from the array, :class:`MethodDisagreement` is raised; it should
    never fire.
    """
    deg = p.degree()
    if deg is None:
        raise ZeroPolynomial("the zero polynomial has no stability class")
    q = p if p.coeffs[deg] > 0 else -p

    if deg == 0:
        return StabilityVerdict(Status.STABLE, "routh", note="constant")

    idx = stodola_precheck(q)
    if idx is not None:
        verdict = StabilityVerdict(Status.UNSTABLE, "stodola", witness_index=idx)
    else:
        verdict = routh_hurwitz(q)
    degenerate = verdict.status is Status.DEGENERATE
    upgrade = verdict.status is Status.UNSTABLE and root_witness
    if not (degenerate or upgrade or cross_check):
        return verdict

    by_roots = _roots_verdict(q, axis_tol)  # the one root solve of this call
    if degenerate or (upgrade and by_roots.status is Status.MARGINAL):
        # the roots settle a singular array, and refine an UNSTABLE class
        # whose offending root sits on the axis band
        verdict = by_roots
    elif upgrade:
        verdict = StabilityVerdict(
            verdict.status,
            verdict.method,
            witness_root=by_roots.witness_root,
            witness_index=verdict.witness_index,
        )
    if by_roots.is_stable != verdict.is_stable:
        raise MethodDisagreement(
            f"{verdict.method} gives {verdict.status.value} but roots give "
            f"{by_roots.status.value} for {p}"
        )
    return verdict
