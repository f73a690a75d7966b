"""Golden CLI output: exit code, stdout, stderr and certificate, byte for byte.

Every command in ``COMMANDS`` runs on every box in ``BOXES``, in process,
and must reproduce ``golden/cli.json``.  Problem file paths are replaced by
``<dir>`` so the file does not depend on where the test runs.  Regenerate
it (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from robustpoly import random_box
from robustpoly.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

DEMO = [[10, 21], [46, 50], [38, 40], [6, 12], [0, 1]]
# first failing corner k1, then a stable k2, then unstable k3 and k4
RANDOM = random_box(seed=135)

BOXES = {
    "demo": DEMO,
    "demo-negated": [[-hi, -lo] for lo, hi in DEMO],
    "unstable": [[-1, -1], [1, 1]],
    "unstable-negated": [[1, 1], [-1, -1]],
    "axis": [[1, 1], [0, 0], [1, 1]],
    "zero-corner": [[0, 1], [0, 1]],
    "order0-straddling": [[-1, 1]],
    "order0-positive": [[2, 3]],
    "random-135": [list(pair) for pair in zip(RANDOM.lo, RANDOM.hi)],
}

COMMANDS = {
    "check": ["check", "{path}"],
    "check-json": ["check", "--json", "{path}"],
    "check-quiet": ["check", "--quiet", "{path}"],
    "kpolys": ["kpolys", "{path}"],
    "kpolys-json": ["kpolys", "--json", "{path}"],
    "roots": ["roots", "{path}"],
    "roots-json": ["roots", "--json", "{path}"],
    "oracle": ["oracle", "{path}"],
    "oracle-vertices-json": ["oracle", "--mode", "vertices", "--json", "{path}"],
    "homotopy-json": ["homotopy", "--from", "{path}", "--to", "1,1,1,1", "--json"],
}


def run(argv: list[str], path: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.format(path=path) for a in argv])
        except Exception as e:  # recorded, so a changed failure mode shows
            code = f"raised {type(e).__name__}"
    cert = path.with_suffix(".cert.json")
    record = {
        "exit": code,
        "stdout": out.getvalue().replace(str(path.parent), "<dir>"),
        "stderr": err.getvalue().replace(str(path.parent), "<dir>"),
        "cert": cert.read_text() if cert.exists() else None,
    }
    cert.unlink(missing_ok=True)
    return record


def collect() -> dict:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, intervals in BOXES.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps({"order": len(intervals) - 1, "intervals": intervals}))
            for cmd, argv in COMMANDS.items():
                results[f"{name} {cmd}"] = run(argv, path)
    return results


def test_cli_outputs_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = collect()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
