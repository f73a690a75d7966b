"""Robust Hurwitz stability of interval polynomial families.

The decision procedure classifies an entire coefficient box from its four
corner polynomials; everything else here exists to certify, sample, probe
and visualize that verdict: single-polynomial stability via the Routh
array with a root-method fallback, simultaneous root finding, value-set
rectangles along the imaginary axis, stability sweeps over polynomial
paths, and a brute-force oracle the fast test is cross-checked against.
"""

__version__ = "0.1.0"

from .homotopy import (
    CrossingKind,
    CrossingOutcome,
    CrossingWitness,
    PolynomialPath,
    SweepResult,
    find_crossing,
    sweep_stability,
    wronskian_identity_check,
)
from .hurwitz import (
    AXIS_TOL,
    MethodDisagreement,
    StabilityVerdict,
    Status,
    is_hurwitz,
    routh_hurwitz,
    stodola_precheck,
)
from .kharitonov import (
    FamilyVerdict,
    HypothesisNotMet,
    IntervalPolynomial,
    KharitonovQuad,
    RectangleSample,
    corollary1_check,
    kharitonov_polys,
    kharitonov_test,
    rectangle,
    rectangle_sweep,
    zero_exclusion_sweep,
)
from .oracle import (
    CrossValidation,
    OracleReport,
    SamplePlan,
    VertexBlowup,
    cross_validate,
    enumerate_members,
    oracle_verdict,
    random_box,
    witness_root,
)
from .poly_core import (
    RealPolynomial,
    ZeroPolynomial,
    convex_combine,
    derivative,
    evaluate,
    format_poly,
    hg_split,
    wronskian,
)
from .roots import (
    ContinuityReport,
    NonConvergence,
    RootMatching,
    RootSet,
    all_roots,
    match_roots,
    root_continuity_check,
)

__all__ = [
    "__version__",
    "AXIS_TOL",
    "ContinuityReport",
    "CrossingKind",
    "CrossingOutcome",
    "CrossingWitness",
    "CrossValidation",
    "FamilyVerdict",
    "HypothesisNotMet",
    "IntervalPolynomial",
    "KharitonovQuad",
    "MethodDisagreement",
    "NonConvergence",
    "OracleReport",
    "PolynomialPath",
    "RealPolynomial",
    "RectangleSample",
    "RootMatching",
    "RootSet",
    "SamplePlan",
    "StabilityVerdict",
    "Status",
    "SweepResult",
    "VertexBlowup",
    "ZeroPolynomial",
    "all_roots",
    "convex_combine",
    "corollary1_check",
    "cross_validate",
    "derivative",
    "enumerate_members",
    "evaluate",
    "find_crossing",
    "format_poly",
    "hg_split",
    "is_hurwitz",
    "kharitonov_polys",
    "kharitonov_test",
    "match_roots",
    "oracle_verdict",
    "random_box",
    "rectangle",
    "rectangle_sweep",
    "root_continuity_check",
    "routh_hurwitz",
    "stodola_precheck",
    "sweep_stability",
    "wronskian",
    "witness_root",
    "wronskian_identity_check",
    "zero_exclusion_sweep",
]
