"""The benchmark's span tracer still finds every attribute it wraps.

``bench/spans.py`` sets wrappers on module attributes of the package
(``cli.is_hurwitz``, ``oracle.all_roots``, ...).  A refactor that drops one
of them breaks every traced benchmark run; this test sees it first.
"""

import importlib.util
from pathlib import Path

import robustpoly

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_removes():
    spans = load_spans()
    originals = {
        (mod, attr): getattr(getattr(robustpoly, mod), attr)
        for mod, attr, _ in spans.BOUNDARIES
    }
    tracer = spans.Tracer(robustpoly)
    try:
        tracer.install()
        for mod, attr, _ in spans.BOUNDARIES:
            assert getattr(getattr(robustpoly, mod), attr) is not originals[(mod, attr)]
    finally:
        tracer.remove()
    for (mod, attr), fn in originals.items():
        assert getattr(getattr(robustpoly, mod), attr) is fn
