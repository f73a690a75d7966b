"""Simultaneous root finding and root tracking.

All roots of a real polynomial are located at once with the Aberth-Ehrlich
iteration: every approximation is refined by a Newton step corrected for
the repulsion of the other approximations, so the set converges jointly.
Starting points sit on a circle of radius ``1 + max|a_i / a_n|`` (a Cauchy
bound on the root moduli) with a small angular offset to avoid symmetry
locking on real polynomials.

A root is accepted when its step shrinks below ``1e-13 * (1 + |root|)`` or
when the residual falls to the evaluation noise floor, which is how
multiple roots stop (their steps stall near the cluster radius).  Nearby
accepted roots are then merged into multiplicity clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly_core import RealPolynomial, ZeroPolynomial

__all__ = [
    "NonConvergence",
    "RootSet",
    "RootMatching",
    "ContinuityReport",
    "all_roots",
    "match_roots",
    "root_continuity_check",
]

MAX_ITER = 200
STEP_TOL = 1e-13
CLUSTER_RADIUS = 1e-6
RESIDUAL_TOL = 1e-8


class NonConvergence(RuntimeError):
    """Iteration budget exhausted; ``partial`` carries the last approximations."""

    def __init__(self, message: str, partial: list[complex]):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class RootSet:
    """Distinct roots with multiplicities, sorted by (real, imag).

    ``sum(multiplicities) == source_degree`` always holds; ``source_degree``
    is the effective degree of the polynomial the set came from.
    """

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    source_degree: int

    def __post_init__(self):
        if len(self.roots) != len(self.multiplicities):
            raise ValueError("roots and multiplicities must align")
        if sum(self.multiplicities) != self.source_degree:
            raise ValueError("multiplicities must sum to the source degree")

    def expand(self) -> tuple[complex, ...]:
        """Roots repeated by multiplicity, in (real, imag) order."""
        out: list[complex] = []
        for r, m in zip(self.roots, self.multiplicities):
            out.extend([r] * m)
        return tuple(out)

    def max_real_part(self) -> float:
        if not self.roots:
            raise ValueError("empty root set")
        return max(r.real for r in self.roots)

    def rightmost(self) -> complex:
        """The root with the largest real part (ties broken toward +imag)."""
        return max(self.roots, key=lambda r: (r.real, r.imag))


@dataclass(frozen=True)
class RootMatching:
    """Greedy nearest-distance pairing of ``b``'s roots onto ``a``'s.

    ``pairs`` holds ``(index_a, index_b, distance)`` per matched unit of
    multiplicity; ``escaped`` lists indices into ``b.roots`` (one entry per
    unmatched unit) that found no slot because ``a`` has fewer roots.
    """

    pairs: tuple[tuple[int, int, float], ...]
    escaped: tuple[int, ...]


def _horner_many(coeffs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ascending coeffs; returns p(x) and p'(x) for a vector of points
    p = np.zeros_like(x)
    dp = np.zeros_like(x)
    for c in coeffs[::-1]:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _residual_floor(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    # evaluation noise estimate: eps * sum |a_j| |x|^j, slightly inflated
    ax = np.abs(x)
    s = np.zeros_like(ax)
    for c in np.abs(coeffs[::-1]):
        s = s * ax + c
    return 8.0 * np.finfo(float).eps * (len(coeffs) + 1) * s


def all_roots(p: RealPolynomial) -> RootSet:
    """All complex roots of ``p`` counted with multiplicity.

    Constants give an empty set.  Raises :class:`ZeroPolynomial` for the
    zero polynomial and :class:`NonConvergence` when the iteration budget
    runs out or a residual check fails (partial state attached).
    """
    deg = p.degree()
    if deg is None:
        raise ZeroPolynomial("the zero polynomial has no root set")
    if deg == 0:
        return RootSet((), (), 0)

    coeffs = np.asarray(p.coeffs[: deg + 1], dtype=float)
    an = coeffs[-1]
    radius = 1.0 + np.max(np.abs(coeffs[:-1] / an))
    k = np.arange(deg)
    ang = 2.0 * np.pi * k / deg + np.pi / (2.0 * deg) + 0.3
    x = radius * np.exp(1j * ang)

    done = np.zeros(deg, dtype=bool)
    for _ in range(MAX_ITER):
        pv, dpv = _horner_many(coeffs, x)
        noise = _residual_floor(coeffs, x)
        done |= np.abs(pv) <= noise
        if done.all():
            break
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        repel = np.sum(1.0 / diff, axis=1)
        denom = dpv - pv * repel
        # a collapsed denominator gets a plain Newton step instead
        bad = denom == 0
        denom = np.where(bad, np.where(dpv == 0, 1.0, dpv), denom)
        step = pv / denom
        step = np.where(done, 0.0, step)
        x = x - step
        done |= np.abs(step) <= STEP_TOL * (1.0 + np.abs(x))
        if done.all():
            break
    else:
        raise NonConvergence(
            f"no convergence after {MAX_ITER} iterations", [complex(v) for v in x]
        )

    # final residual audit against the looser reporting tolerance
    pv, _ = _horner_many(coeffs, x)
    scale = np.max(np.abs(coeffs)) * np.maximum(1.0, np.abs(x)) ** deg
    if np.any(np.abs(pv) > RESIDUAL_TOL * scale):
        raise NonConvergence(
            "converged point failed the residual check", [complex(v) for v in x]
        )

    return _cluster([complex(v) for v in x], coeffs, deg)


def _cluster(points: list[complex], coeffs: np.ndarray, source_degree: int) -> RootSet:
    # Approximations of an m-fold root stall on a circle around it whose
    # radius depends on m, so a fixed merge distance cannot work.  Instead
    # each point gets the inclusion radius deg * |p(x)| / |p'(x)| (zero for
    # fully converged simple roots, stall-sized for multiple ones) and
    # points whose disks overlap are merged transitively.
    k = len(points)
    xs = np.asarray(points, dtype=complex)
    pv, dpv = _horner_many(coeffs, xs)
    floor = _residual_floor(coeffs, xs)
    deg = len(coeffs) - 1
    # |p(x)| computed in floats can cancel below the noise floor, which
    # would shrink the disk below the stall distance; clamp it, and widen
    # by 3x since stalled points can sit diametrically opposite
    radii = [
        3.0 * deg * max(abs(p), f) / abs(dp)
        if dp != 0
        else CLUSTER_RADIUS * (1.0 + abs(x))
        for p, dp, f, x in zip(pv, dpv, floor, points)
    ]
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            slack = STEP_TOL * (1.0 + abs(points[i]) + abs(points[j]))
            if abs(points[i] - points[j]) <= radii[i] + radii[j] + slack:
                parent[find(i)] = find(j)

    groups: dict[int, list[complex]] = {}
    for i, z in enumerate(points):
        groups.setdefault(find(i), []).append(z)
    reps = sorted(
        ((sum(g) / len(g), len(g)) for g in groups.values()),
        key=lambda rm: (rm[0].real, rm[0].imag),
    )
    return RootSet(
        tuple(r for r, _ in reps), tuple(m for _, m in reps), source_degree
    )


def match_roots(a: RootSet, b: RootSet) -> RootMatching:
    """Pair the roots of ``b`` to the roots of ``a`` greedily by distance.

    Each root of ``a`` accepts at most its multiplicity in partners and each
    unit of ``b`` is used once; leftover units of ``b`` are escaped.  With
    ``b`` a small perturbation of ``a``'s polynomial, matched distances are
    small and escaped roots are the ones that wandered off to infinity.
    """
    cap_a = list(a.multiplicities)
    cap_b = list(b.multiplicities)
    cand = sorted(
        (abs(a.roots[i] - b.roots[j]), i, j)
        for i in range(len(a.roots))
        for j in range(len(b.roots))
    )
    pairs: list[tuple[int, int, float]] = []
    for d, i, j in cand:
        while cap_a[i] > 0 and cap_b[j] > 0:
            pairs.append((i, j, d))
            cap_a[i] -= 1
            cap_b[j] -= 1
    escaped: list[int] = []
    for j, c in enumerate(cap_b):
        escaped.extend([j] * c)
    return RootMatching(tuple(pairs), tuple(escaped))


@dataclass(frozen=True)
class ContinuityReport:
    """Outcome of repeated perturb-and-match trials."""

    trials: int
    passes: int
    failures: int
    worst_matched_distance: float
    worst_escaped_magnitude: float  # inf when nothing ever escaped
    notes: tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return self.failures == 0


def root_continuity_check(
    q: RealPolynomial,
    epsilon: float,
    trials: int = 100,
    delta: float = 1e-6,
    rng_seed: int = 0,
) -> ContinuityReport:
    """Probe root continuity of ``q`` under coefficient perturbations.

    Every trial perturbs each stored coefficient by less than ``delta``
    (uniformly, seeded per trial index so runs are reproducible and order
    independent), then requires via :func:`match_roots` that every root of
    ``q`` attracts exactly its multiplicity within ``epsilon`` and that any
    escaped root has magnitude beyond ``1/epsilon``.
    """
    if epsilon <= 0 or delta <= 0:
        raise ValueError("epsilon and delta must be positive")
    base = all_roots(q)
    passes = 0
    failures = 0
    worst_matched = 0.0
    worst_escaped = float("inf")
    notes: list[str] = []
    for trial in range(trials):
        rng = np.random.default_rng((rng_seed, trial))
        u = rng.uniform(-1.0, 1.0, size=len(q.coeffs))
        pert = RealPolynomial(
            tuple(c + delta * ui for c, ui in zip(q.coeffs, u)), q.zero_tol
        )
        if pert.is_zero():
            failures += 1
            notes.append(f"trial {trial}: perturbation collapsed to zero")
            continue
        moved = all_roots(pert)
        m = match_roots(base, moved)
        ok = True
        got = [0] * len(base.roots)
        for i, _, d in m.pairs:
            got[i] += 1
            worst_matched = max(worst_matched, d)
            if d >= epsilon:
                ok = False
        if got != list(base.multiplicities):
            ok = False
        for j in m.escaped:
            mag = abs(moved.roots[j])
            worst_escaped = min(worst_escaped, mag)
            if mag <= 1.0 / epsilon:
                ok = False
        if ok:
            passes += 1
        else:
            failures += 1
            if len(notes) < 8:
                notes.append(f"trial {trial}: displacement or escape bound violated")
    return ContinuityReport(
        trials, passes, failures, worst_matched, worst_escaped, tuple(notes)
    )
