import json
import xml.etree.ElementTree as ET

import pytest

import robustpoly.cli as cli
from robustpoly import CrossValidation, FamilyVerdict, OracleReport, Status
from robustpoly.cli import main


def write_problem(tmp_path, name, order, intervals, **extra):
    p = tmp_path / name
    p.write_text(json.dumps({"order": order, "intervals": intervals, **extra}))
    return p


@pytest.fixture
def axis_pair_problem(tmp_path):
    # point box at z^2 + 1
    return write_problem(tmp_path, "axis.json", 2, [[1, 1], [0, 0], [1, 1]])


class TestCheck:
    def test_demo_stable_exit_zero(self, demo_problem_path, capsys):
        assert main(["check", str(demo_problem_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: STABLE" in out
        assert "10 + 46 z + 40 z^2 + 12 z^3" in out
        assert "degree drop: yes" in out

    def test_axis_point_box_exit_one(self, axis_pair_problem, capsys):
        assert main(["check", str(axis_pair_problem)]) == 1
        out = capsys.readouterr().out
        assert "verdict:" in out and "STABLE\n" not in out

    def test_certificate_roundtrip(self, demo_problem_path, tmp_path, capsys):
        assert main(["check", "--json", str(demo_problem_path)]) == 0
        cert_path = demo_problem_path.with_suffix(".cert.json")
        cert = json.loads(cert_path.read_text())
        assert cert["tool"] == "robustpoly"
        assert cert["verdict"] == "STABLE"
        assert cert["input_digest"].startswith("sha256:")
        names = [e["name"] for e in cert["kharitonov"]]
        assert names == ["k1", "k2", "k3", "k4"]
        assert cert["kharitonov"][0]["coeffs"] == [10.0, 46.0, 40.0, 12.0]
        assert all(e["stable"] for e in cert["kharitonov"])
        # replaying the embedded input reproduces the verdict
        replay = write_problem(
            tmp_path, "replay.json", cert["input"]["order"], cert["input"]["intervals"]
        )
        capsys.readouterr()
        assert main(["check", str(replay)]) == 0
        assert "verdict: STABLE" in capsys.readouterr().out

    def test_text_solves_no_roots_json_lists_them(self, demo_problem_path, capsys, monkeypatch):
        assert main(["check", str(demo_problem_path)]) == 0
        want = capsys.readouterr().out

        def no_roots(p):
            raise AssertionError("text check solved roots")

        monkeypatch.setattr(cli, "all_roots", no_roots)
        assert main(["check", str(demo_problem_path)]) == 0
        assert capsys.readouterr().out == want
        monkeypatch.undo()
        assert main(["check", "--json", str(demo_problem_path)]) == 0
        cert = json.loads(demo_problem_path.with_suffix(".cert.json").read_text())
        assert [len(e["roots"]) for e in cert["kharitonov"]] == [3, 4, 4, 3]

    def test_quiet_prints_verdict_only(self, demo_problem_path, capsys):
        assert main(["check", "--quiet", str(demo_problem_path)]) == 0
        assert capsys.readouterr().out == "verdict: STABLE\n"

    def test_schema_errors_exit_two(self, tmp_path, capsys):
        bad_count = write_problem(tmp_path, "c.json", 4, [[1, 2], [1, 2], [1, 2]])
        assert main(["check", str(bad_count)]) == 2
        assert "intervals" in capsys.readouterr().err

        empty = write_problem(tmp_path, "e.json", 1, [[2, 1], [1, 1]])
        assert main(["check", str(empty)]) == 2
        assert "empty" in capsys.readouterr().err

        unknown = tmp_path / "u.json"
        unknown.write_text('{"order": 1, "intervals": [[1,1],[1,1]], "extra": 1}')
        assert main(["check", str(unknown)]) == 2
        assert "unknown field" in capsys.readouterr().err

        syntax = tmp_path / "s.json"
        syntax.write_text('{"order": 1,')
        assert main(["check", str(syntax)]) == 2
        assert "line" in capsys.readouterr().err

        assert main(["check", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "pair", [[-int("9" * 400), 2], [1, int("9" * 400)]], ids=["lo", "hi"]
    )
    def test_bound_beyond_float_range_exit_two(self, tmp_path, capsys, pair):
        prob = write_problem(tmp_path, "big.json", 1, [[1, 2], pair])
        assert main(["check", str(prob)]) == 2
        assert "intervals[1] has a bound beyond the float range" in capsys.readouterr().err

    def test_zero_leading_pair_rejected(self, tmp_path, capsys):
        bad = write_problem(tmp_path, "z.json", 1, [[1, 2], [0, 0]])
        assert main(["check", str(bad)]) == 2
        assert "must not be [0, 0]" in capsys.readouterr().err


class TestKpolys:
    def test_text_lists_all_four(self, demo_problem_path, capsys):
        assert main(["kpolys", str(demo_problem_path)]) == 0
        out = capsys.readouterr().out
        assert "k1 = 10 + 46 z + 40 z^2 + 12 z^3" in out
        assert "k2 = 21 + 46 z + 38 z^2 + 12 z^3 + z^4" in out
        assert "k3 = 21 + 50 z + 38 z^2 + 6 z^3 + z^4" in out
        assert "k4 = 10 + 50 z + 40 z^2 + 6 z^3" in out

    def test_json_bound_polynomials(self, demo_problem_path, capsys):
        assert main(["kpolys", "--json", str(demo_problem_path)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["h_minus"] == [10.0, 0.0, -40.0]
        assert blob["g_plus"] == [0.0, 50.0, 0.0, -6.0]
        assert blob["k1"] == [10.0, 46.0, 40.0, 12.0]

    def test_point_box_collapses(self, tmp_path, capsys):
        prob = write_problem(tmp_path, "p.json", 1, [[1, 1], [1, 1]])
        assert main(["kpolys", "--json", str(prob)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["k1"] == blob["k2"] == blob["k3"] == blob["k4"] == [1.0, 1.0]


class TestRect:
    def test_demo_csv(self, demo_problem_path, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            ["rect", str(demo_problem_path), "--omega-max", "10", "--csv", str(out_csv)]
        )
        assert code == 0
        raw = out_csv.read_bytes()
        assert b"\r\n" in raw  # RFC 4180 line endings
        lines = raw.decode().strip().splitlines()
        assert lines[0] == "omega,h_minus,h_plus,g_minus,g_plus,contains_zero"
        assert len(lines) >= 1001
        assert all(ln.endswith("false") for ln in lines[1:])
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert (float(first[3]), float(first[4])) == (0.0, 0.0)  # g bounds at 0
        # 17 significant digits survive a parse round trip
        assert float(lines[2].split(",")[1]) != round(float(lines[2].split(",")[1]), 3)

    def test_axis_point_box_flagged(self, axis_pair_problem, capsys):
        assert main(["rect", str(axis_pair_problem), "--omega-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "contains 0 at omega" in out
        assert "1" in out

    @pytest.mark.parametrize(
        "flags",
        [["--omega-max", "inf"], ["--omega-max", "nan"], ["--omega-max", "0"], ["--steps", "0"]],
    )
    def test_bad_limits_exit_two(self, demo_problem_path, capsys, flags):
        assert main(["rect", str(demo_problem_path), *flags]) == 2
        assert "omega_max" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["Infinity", "NaN", "1e400", "9" * 400])
    def test_non_finite_omega_max_in_file_exit_two(self, tmp_path, capsys, value):
        prob = tmp_path / "inf.json"
        prob.write_text('{"order": 1, "intervals": [[1, 1], [1, 1]], "omega_max": %s}' % value)
        assert main(["rect", str(prob)]) == 2
        assert "'omega_max' must be a positive finite number" in capsys.readouterr().err

    def test_explicit_limits_not_replaced_by_defaults(self, demo_problem_path, capsys):
        argv = ["rect", "--json", str(demo_problem_path), "--omega-max", "0.5", "--steps", "2"]
        assert main(argv) == 0
        blob = json.loads(capsys.readouterr().out)
        assert (blob["omega_max"], blob["steps"]) == (0.5, 2)

    def test_json_summary(self, demo_problem_path, capsys):
        assert main(["rect", "--json", str(demo_problem_path)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["flagged"] == []
        assert blob["samples"] >= blob["steps"]
        assert blob["lower_bounds_nonnegative"] is True

    def test_svg_well_formed(self, demo_problem_path, tmp_path, capsys):
        out_svg = tmp_path / "rect.svg"
        assert main(["rect", str(demo_problem_path), "--svg", str(out_svg)]) == 0
        text = out_svg.read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")


class TestRoots:
    def test_two_decimal_display(self, demo_problem_path, capsys):
        assert main(["roots", str(demo_problem_path)]) == 0
        out = capsys.readouterr().out
        assert "-5.10, -1.32, -0.25" in out
        assert "-2.23-5.05i, -2.23+5.05i, -0.77-0.31i, -0.77+0.31i" in out

    def test_point_box_single_root(self, tmp_path, capsys):
        prob = write_problem(tmp_path, "p.json", 1, [[1, 1], [1, 1]])
        assert main(["roots", str(prob)]) == 0
        assert "-1.00" in capsys.readouterr().out

    def test_json_full_precision_and_deterministic(self, demo_problem_path, capsys):
        assert main(["roots", "--json", str(demo_problem_path)]) == 0
        first = capsys.readouterr().out
        blob = json.loads(first)
        k4 = sorted(blob["k4"]["roots"])
        for got, want in zip(k4, (-5.10, -1.32, -0.25)):
            assert abs(got[0] - want) <= 5e-3
            assert abs(got[1]) <= 5e-3
        assert abs(k4[0][0] - (-5.10)) > 0  # more digits than the display
        assert main(["roots", "--json", str(demo_problem_path)]) == 0
        assert capsys.readouterr().out == first

    def test_svg_well_formed(self, demo_problem_path, tmp_path, capsys):
        out_svg = tmp_path / "roots.svg"
        assert main(["roots", str(demo_problem_path), "--svg", str(out_svg)]) == 0
        root = ET.fromstring(out_svg.read_text())
        assert root.tag.endswith("svg")


@pytest.mark.parametrize("command", ["check", "kpolys", "rect", "roots", "homotopy"])
def test_seed_only_on_oracle(demo_problem_path, capsys, command):
    args = ["--family", "faedo-loop"] if command == "homotopy" else [str(demo_problem_path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestOracle:
    def test_demo_consistent_exit_zero(self, demo_problem_path, capsys):
        code = main(
            ["oracle", str(demo_problem_path), "--count", "1500", "--seed", "42"]
        )
        assert code == 0
        assert "cross-validation: CONSISTENT" in capsys.readouterr().out

    def test_unstable_point_box_exit_one(self, tmp_path, capsys):
        prob = write_problem(tmp_path, "u.json", 1, [[-1, -1], [1, 1]])
        assert main(["oracle", str(prob), "--mode", "vertices"]) == 1
        out = capsys.readouterr().out
        assert "CONSISTENT" in out

    def test_json_output(self, demo_problem_path, capsys):
        code = main(
            ["oracle", "--json", str(demo_problem_path), "--mode", "vertices"]
        )
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["classification"] == "CONSISTENT"
        assert blob["tested"] == 32
        assert blob["unstable_members"] == 0

    @pytest.mark.parametrize("mode", ["vertices", "grid", "random"])
    def test_overflowing_width_exit_two(self, tmp_path, capsys, mode):
        # hi - lo of the middle axis overflows to inf
        prob = write_problem(tmp_path, "w.json", 2, [[1, 2], [-1e308, 1e308], [1, 2]])
        assert main(["oracle", str(prob), "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert "error: interval 1 is too wide" in err

    def test_contradiction_exit_three(self, demo_problem_path, capsys, monkeypatch):
        fake = CrossValidation(
            classification="CONTRADICTION",
            test_verdict=FamilyVerdict(Status.STABLE, "routh"),
            oracle_report=OracleReport("UNSTABLE", 1, 1),
            witness_certified=False,
            note="injected",
        )
        monkeypatch.setattr(cli, "cross_validate", lambda box, plan: fake)
        assert main(["oracle", str(demo_problem_path)]) == 3
        assert "CONTRADICTION" in capsys.readouterr().out


class TestHomotopy:
    def test_crossing_from_demo_corner(self, demo_problem_path, capsys):
        code = main(
            ["homotopy", "--from", str(demo_problem_path), "--to", "1,1,1,1"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "outcome: CROSSING" in out
        assert "t* =" in out and "omega* =" in out

    def test_stable_pair_exit_zero(self, capsys):
        assert main(["homotopy", "--from", "1,1", "--to", "2,2"]) == 0
        assert "STABLE_ALL" in capsys.readouterr().out

    def test_counterexample_family(self, capsys):
        assert main(["homotopy", "--family", "faedo-loop"]) == 1
        out = capsys.readouterr().out
        assert "NO_CROSSING_UNSTABLE" in out
        assert "VIOLATED" in out
        assert "leading coefficient vanishes" in out

    def test_json_witness(self, demo_problem_path, capsys):
        code = main(
            ["homotopy", "--json", "--from", str(demo_problem_path), "--to", "1,1,1,1"]
        )
        assert code == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["kind"] == "CROSSING"
        assert blob["witness"]["residual"] <= 1e-8

    def test_missing_path_spec_exit_two(self, capsys):
        assert main(["homotopy", "--from", "1,1"]) == 2
        assert "--family" in capsys.readouterr().err

    def test_unparsable_poly_exit_two(self, capsys):
        assert main(["homotopy", "--from", "abc", "--to", "1,1"]) == 2
        capsys.readouterr()
