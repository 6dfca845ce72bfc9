from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import poissonkit
from poissonkit import ParseError, UnknownIdentifierError, parse_structure_file, serialize_structure
from poissonkit.cli import main
from conftest import FIXTURES

SCHEMA = json.loads(files("poissonkit").joinpath("schema.json").read_text())

EVEN_FIXTURES = [
    "surface_node.poisson",
    "surface_nonreduced.poisson",
    "surface_cusp.poisson",
    "surface_symplectic.poisson",
    "torus4.poisson",
    "symplectic4.poisson",
    "weighted_surface.poisson",
]


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    envelope = json.loads(captured.out)
    jsonschema.validate(envelope, SCHEMA)
    return envelope


class TestFixtures:
    def test_every_fixture_parses_and_roundtrips(self):
        fixture_files = sorted(FIXTURES.glob("*.poisson"))
        assert len(fixture_files) >= 5
        for path in fixture_files:
            spec = parse_structure_file(path.read_text())
            P = spec.build()
            again = parse_structure_file(serialize_structure(P)).build()
            assert again.pi == P.pi
            assert again.chart == P.chart


class TestJsonConformance:
    @pytest.mark.parametrize("name", sorted(f.name for f in FIXTURES.glob("*.poisson")))
    def test_check_is_schema_valid(self, capsys, name):
        envelope = run_json(capsys, "check", str(FIXTURES / name))
        assert envelope["command"] == "check"
        assert envelope["result"]["jacobi_ok"] is True

    @pytest.mark.parametrize("name", sorted(f.name for f in FIXTURES.glob("*.poisson")))
    def test_modular_is_schema_valid(self, capsys, name):
        envelope = run_json(capsys, "modular", str(FIXTURES / name))
        assert envelope["result"]["lie_zeta_pi_is_zero"] is True

    @pytest.mark.parametrize("name", EVEN_FIXTURES)
    def test_report_is_schema_valid(self, capsys, name):
        envelope = run_json(capsys, "report", str(FIXTURES / name))
        assert envelope["result"]["verdict"] in {
            "NotLogSymplectic",
            "ObstructedByModularLeaves",
            "SurfaceHolonomic",
            "NoObstructionFound",
        }

    @pytest.mark.parametrize(
        "name", ["surface_node.poisson", "surface_symplectic.poisson", "hesse_cubic.poisson", "weighted_surface.poisson"]
    )
    def test_cohomology_is_schema_valid(self, capsys, name):
        envelope = run_json(capsys, "cohomology", str(FIXTURES / name), "--wmax", "3")
        assert envelope["result"]["euler_consistent"] is True

    def test_tjurina_literal_is_schema_valid(self, capsys):
        envelope = run_json(capsys, "tjurina", "w^3 - z^3")
        assert envelope["result"]["tjurina"] == 4

    def test_tjurina_of_a_huge_staircase_is_fast(self, capsys):
        envelope = run_json(capsys, "tjurina", "w^100000000 + z^2")
        assert envelope["result"]["tjurina"] == 99999999
        assert envelope["timing_ms"] < 1000

    def test_tjurina_structure_file(self, capsys):
        envelope = run_json(capsys, "tjurina", str(FIXTURES / "surface_cusp.poisson"))
        assert envelope["result"]["tjurina"] == 2

    def test_tjurina_polynomial_file(self, capsys, tmp_path):
        poly_file = tmp_path / "curve.txt"
        poly_file.write_text("w*z\n")
        envelope = run_json(capsys, "tjurina", str(poly_file))
        assert envelope["result"]["tjurina"] == 1

    def test_tjurina_infinite_marker(self, capsys):
        # On the two-variable chart of the fixture the double line has a
        # non-isolated singular locus.  (The literal "w^2" would infer a
        # one-variable chart, where the answer is the finite number 1.)
        envelope = run_json(capsys, "tjurina", str(FIXTURES / "surface_nonreduced.poisson"))
        assert envelope["result"]["tjurina"] == "INFINITE"

    def test_tjurina_point_flag(self, capsys):
        envelope = run_json(capsys, "tjurina", "(w - 1)*(z - 2)", "--point", "1,2")
        assert envelope["result"]["tjurina"] == 1
        assert envelope["result"]["point"] == ["1", "2"]

    def test_tjurina_negative_point_spellings_agree(self, capsys):
        spaced = run_json(capsys, "tjurina", "(w + 1)*w*z", "--point", "-1,0")
        joined = run_json(capsys, "tjurina", "(w + 1)*w*z", "--point=-1,0")
        assert spaced["result"] == joined["result"]
        assert spaced["result"]["point"] == ["-1", "0"]


class TestVerdictsThroughCli:
    def test_node_is_surface_holonomic(self, capsys):
        envelope = run_json(capsys, "report", str(FIXTURES / "surface_node.poisson"))
        assert envelope["result"]["verdict"] == "SurfaceHolonomic"
        assert envelope["result"]["surface"]["tjurina_total"] == 1

    def test_nonreduced_surface(self, capsys):
        envelope = run_json(capsys, "report", str(FIXTURES / "surface_nonreduced.poisson"))
        assert envelope["result"]["verdict"] == "NotLogSymplectic"
        assert envelope["result"]["witness"] == {"nonreduced_factor": "w"}
        assert envelope["result"]["surface"]["tjurina_total"] == "INFINITE"

    def test_torus_obstruction(self, capsys):
        envelope = run_json(capsys, "report", str(FIXTURES / "torus4.poisson"))
        assert envelope["result"]["verdict"] == "ObstructedByModularLeaves"
        assert envelope["result"]["witness"]["dimension"] == 1

    def test_jacobi_failure_reported_by_check(self, capsys, tmp_path):
        bad = tmp_path / "bad.poisson"
        bad.write_text("chart: x y z\npoisson:\n{x,y} = y\n{x,z} = x\n")
        envelope = run_json(capsys, "check", str(bad))
        assert envelope["result"]["jacobi_ok"] is False
        assert envelope["result"]["jacobiator"] == "2*y dx^dy^dz"


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["check", str(FIXTURES / "surface_node.poisson")]) == 0
        capsys.readouterr()

    def test_parse_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.poisson"
        bad.write_text("chart w z\npoisson:\n")
        assert main(["check", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert main(["modular", "/nonexistent/file.poisson"]) == 2
        capsys.readouterr()

    def test_bad_expression_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.poisson"
        bad.write_text("chart: w z\npoisson:\n{w,z} = w + + z\n")
        assert main(["check", str(bad)]) == 2
        capsys.readouterr()

    def test_precondition_violation_is_3(self, capsys, tmp_path):
        bad = tmp_path / "jacobi_fail.poisson"
        bad.write_text("chart: x y z\npoisson:\n{x,y} = y\n{x,z} = x\n")
        assert main(["modular", str(bad)]) == 3
        assert "precondition" in capsys.readouterr().err

    def test_odd_dimension_report_is_3(self, capsys):
        assert main(["report", str(FIXTURES / "so3_linear.poisson")]) == 3
        capsys.readouterr()

    def test_budget_exhaustion_is_4(self, capsys):
        assert main(["tjurina", "w*z*(w - z)", "--budget", "1"]) == 4
        assert "budget" in capsys.readouterr().err

    def test_degenerate_everywhere_is_3(self, capsys, tmp_path):
        zero = tmp_path / "zero.poisson"
        zero.write_text("chart: w z\npoisson:\n")
        assert main(["report", str(zero)]) == 3
        assert "precondition" in capsys.readouterr().err


class TestDeterminism:
    def test_result_payload_is_reproducible(self, capsys):
        first = run_json(capsys, "report", str(FIXTURES / "torus4.poisson"))
        second = run_json(capsys, "report", str(FIXTURES / "torus4.poisson"))
        assert first["result"] == second["result"]
        assert first["input_digest"] == second["input_digest"]


class TestStructureFileParsing:
    def test_line_numbers_in_errors(self):
        with pytest.raises(ParseError) as info:
            parse_structure_file("chart: w z\npoisson:\n{z,w} = 1\n")
        assert info.value.line == 3

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_structure_file("chart: w z\npoisson:\n{w,q} = 1\n")

    def test_duplicate_pair(self):
        with pytest.raises(ParseError):
            parse_structure_file("chart: w z\npoisson:\n{w,z} = 1\n{w,z} = 2\n")

    def test_builder_must_be_alone(self):
        text = "chart: x y z\npoisson:\n{x,y} = 1\njacobian3 F = x\n"
        with pytest.raises(ParseError):
            parse_structure_file(text)

    def test_diagonal_shape_checked(self):
        text = "chart: w z\npoisson:\ndiagonal lambda = 0 1\n"
        with pytest.raises(ParseError):
            parse_structure_file(text)

    def test_comments_and_blank_lines(self):
        text = "# header\nchart: w z  # two variables\n\npoisson:\n{w,z} = w  # bracket\n"
        spec = parse_structure_file(text)
        P = spec.build()
        assert str(P.pi.terms[(0, 1)]) == "w"


class TestCheckPayload:
    def test_jacobi_failure_reports_the_raw_bivector(self, capsys, tmp_path):
        bad = tmp_path / "bad.poisson"
        bad.write_text("chart: x y z\npoisson:\n{x,y} = y\n{x,z} = x\n")
        structure = run_json(capsys, "check", str(bad))["result"]["structure"]
        assert structure == {
            "chart": ["x", "y", "z"],
            "weights": [1, 1, 1],
            "brackets": {"{x,y}": "y", "{x,z}": "x"},
        }


class TestReportComputesEachInvariantOnce:
    """``report`` reads every invariant from one analysis of the structure."""

    COUNTED = [
        ("poisson", "pfaffian"),
        ("poisson", "modular_field"),
        ("polyalg", "gcd_multi"),
        ("groebner", "buchberger"),
    ]

    def count_calls(self, monkeypatch):
        # Wrap each function in every module that binds it, and count only
        # outermost calls (gcd_multi recurses through the content of its inputs).
        counts = Counter()
        active = set()
        for home, name in self.COUNTED:
            original = getattr(importlib.import_module(f"poissonkit.{home}"), name)

            def counted(*args, _fn=original, _name=name, **kwargs):
                if _name in active:
                    return _fn(*args, **kwargs)
                counts[_name] += 1
                active.add(_name)
                try:
                    return _fn(*args, **kwargs)
                finally:
                    active.discard(_name)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("poissonkit") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize(
        "fixture,expected",
        [
            ("surface_cusp.poisson", {"pfaffian": 1, "modular_field": 1, "gcd_multi": 1, "buchberger": 2}),
            ("surface_nonreduced.poisson", {"pfaffian": 1, "modular_field": 1, "gcd_multi": 1, "buchberger": 1}),
            ("torus4.poisson", {"pfaffian": 1, "modular_field": 1, "gcd_multi": 1, "buchberger": 1}),
        ],
    )
    def test_counts(self, capsys, monkeypatch, fixture, expected):
        counts = self.count_calls(monkeypatch)
        run_json(capsys, "report", str(FIXTURES / fixture))
        assert dict(counts) == expected


class TestExitCodeContract:
    """Malformed input ends in a documented exit code, never a traceback."""

    def test_non_utf8_structure_file_is_2(self, capsys, tmp_path):
        bad = tmp_path / "latin1.poisson"
        bad.write_bytes(b"chart: w z\npoisson:\n{w,z} = w \xe9\n")
        for command in ("report", "tjurina"):
            assert main([command, str(bad)]) == 2
            err = capsys.readouterr().err
            assert "not UTF-8" in err and "line 3, column 11" in err

    def test_directory_argument_is_2(self, capsys, tmp_path):
        assert main(["report", str(tmp_path)]) == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_tjurina_literal_longer_than_a_file_name(self, capsys):
        literal = "w^2 + z^2" + " + 0*w" * 1000
        assert run_json(capsys, "tjurina", literal)["result"]["tjurina"] == 1

    def test_runaway_power_is_4(self, capsys):
        started = time.perf_counter()
        assert main(["tjurina", "(w+z+1)^400"]) == 4
        assert time.perf_counter() - started < 1
        err = capsys.readouterr().err
        assert "expression parser" in err and "80601 terms" in err

    def test_integer_literal_past_the_digit_limit_is_2(self, capsys):
        nines = "9" * 5000
        for literal in (f"w+{nines}", f"w^{nines}+z^2", f"w + 1/{nines}"):
            assert main(["tjurina", literal]) == 2
            err = capsys.readouterr().err
            assert "integer literal of 5000 digits" in err
            assert f"column {literal.index(nines) + 1}" in err

    def test_coefficient_past_the_digit_limit_is_2(self, capsys, tmp_path):
        # 9^9999 has 9543 digits; the parser rejects it before anything prints it.
        # Powers, a product and a sum (10^4300 has 4301 digits), each with
        # the column where the too-long subexpression starts.  9^99999999
        # would take seconds to compute; it is refused before that.
        cases = (
            ("w + 9^9999", 5),
            ("w + 9^99999999", 5),
            ("z + (10^4000*w + 1)^2", 5),
            ("w + 9^3000*9^3000*z", 5),
            ("w + (9*10^4299 + 10^4299)", 6),
        )
        for literal, column in cases:
            started = time.perf_counter()
            assert main(["tjurina", literal, "--json"]) == 2
            assert time.perf_counter() - started < 1
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert f"a coefficient has more than 4300 digits (column {column})" in captured.err
        path = tmp_path / "huge.poisson"
        path.write_text("chart: w z\npoisson:\n{w,z} = w + 9^9999\n")
        for command in ("check", "report", "cohomology"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert "more than 4300 digits" in err and "line 3, column 13" in err
        # Just under the limit still parses: 10^4299 has 4300 digits.
        assert run_json(capsys, "tjurina", "w + 10^4299")["result"]["tjurina"] == 0

    def test_deep_nesting_is_2(self, capsys, tmp_path):
        nested = "(" * 3000 + "w" + ")" * 3000
        deep = tmp_path / "deep.poisson"
        deep.write_text("chart: w z\npoisson:\n{w,z} = " + nested + "\n")
        assert main(["report", str(deep)]) == 2
        assert "line 3, column" in capsys.readouterr().err
        assert main(["tjurina", nested + "*z"]) == 2
        assert "column" in capsys.readouterr().err

    def test_expression_error_in_a_file_names_one_position(self, capsys, tmp_path):
        # The inner parser's own "(column …)" must not survive next to the file
        # position, and the column counts from where the expression starts, even
        # when its text also occurs earlier on the line ("3 F" in "jacobian3 F").
        cases = (
            ("{w,z} = w + $", "unexpected character '$' (line 3, column 13)"),
            ("jacobian3 F = x^2 + (y $ z)", "unexpected character '$' (line 3, column 24)"),
            ("jacobian3 F = 3 F", "unexpected token 'F' (line 3, column 17)"),
            ("  {w,z} = w + $  # w + $", "unexpected character '$' (line 3, column 15)"),
        )
        for entry, message in cases:
            path = tmp_path / "bad.poisson"
            chart = "w z" if entry.lstrip().startswith("{") else "x y z"
            path.write_text(f"chart: {chart}\npoisson:\n{entry}\n")
            assert main(["report", str(path)]) == 2
            assert capsys.readouterr().err == f"parse error: in polynomial expression: {message}\n"

    @pytest.mark.parametrize(
        "chart,entry",
        [("w z", "{w,z} = q"), ("x y z", "jacobian3 F = q")],
    )
    def test_unknown_identifier_in_a_file_keeps_its_class(self, capsys, tmp_path, chart, entry):
        text = f"chart: {chart}\npoisson:\n{entry}\n"
        with pytest.raises(UnknownIdentifierError) as caught:
            parse_structure_file(text)
        column = entry.index("q") + 1
        assert str(caught.value) == f"in polynomial expression: unknown identifier 'q' (line 3, column {column})"
        path = tmp_path / "unknown.poisson"
        path.write_text(text)
        assert main(["report", str(path)]) == 2
        assert "unknown identifier 'q'" in capsys.readouterr().err

    def test_negative_budget_is_2(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["tjurina", "w^2+z^3", "--budget", "-1"])
        assert caught.value.code == 2
        assert "argument --budget: expected an integer of at least 0, got '-1'" in capsys.readouterr().err
        # A budget of 0 is still a budget: the first reduction step exceeds it.
        assert main(["tjurina", "w^2+z^3", "--budget", "0"]) == 4
        assert "all 0 steps spent" in capsys.readouterr().err

    def test_negative_kmax_is_2(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["cohomology", str(FIXTURES / "hesse_cubic.poisson"), "--kmax", "-1"])
        assert caught.value.code == 2
        assert "argument --kmax: expected an integer of at least 0, got '-1'" in capsys.readouterr().err
        envelope = run_json(capsys, "cohomology", str(FIXTURES / "hesse_cubic.poisson"), "--kmax", "0", "--wmax", "2")
        assert {entry["k"] for entry in envelope["result"]["entries"]} == {0}

    def test_wmax_below_the_window_is_2(self, capsys):
        fixture = str(FIXTURES / "hesse_cubic.poisson")
        assert main(["cohomology", fixture, "--wmax", "-5", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: --wmax -5 is below the table's w_min -3: the window is empty\n"
        # The lowest weight alone is a window of one column.
        envelope = run_json(capsys, "cohomology", fixture, "--wmax", "-3")
        assert {entry["w"] for entry in envelope["result"]["entries"]} == {-3}

    def test_non_homogeneous_cohomology_is_3(self, capsys, tmp_path):
        path = tmp_path / "inhomogeneous.poisson"
        path.write_text("chart: w z\npoisson:\n{w,z} = w + w^2\n")
        assert main(["cohomology", str(path), "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "precondition violated: the Poisson structure is not weight-homogeneous\n"

    @pytest.mark.parametrize("point", ["1e3000,0", "1e99999,0"])
    def test_point_past_the_digit_limit_is_2(self, capsys, point):
        # (w + 10^3000)^2 has a coefficient of 6001 digits; 10^99999 itself is too long.
        started = time.perf_counter()
        assert main(["tjurina", "w^2+z^3", "--point", point, "--json"]) == 2
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == f"parse error: --point {point!r} gives a coefficient of more than 4300 digits\n"

    @pytest.mark.parametrize("point", ["1e99999999,0", "1e-99999999,0"])
    def test_point_with_a_runaway_exponent_is_2(self, point):
        # Fraction(point) would build 10**99999999 before any later check; a
        # subprocess lets the timeout stop a run that does.
        src = str(Path(poissonkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = [sys.executable, "-m", "poissonkit", "tjurina", "w^2+z^3", "--point", point, "--json"]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=5, env=env)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"parse error: --point {point!r} gives a coefficient of more than 4300 digits\n"


class TestClosedStdout:
    """A reader that closes the pipe early ends the command with exit 0, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cohomology", "hesse_cubic.poisson", "--wmax", "3", "--json"],
            ["check", "surface_node.poisson"],
        ],
        ids=["json", "human"],
    )
    def test_closed_pipe_exits_0(self, argv):
        command, fixture, *rest = argv
        src = str(Path(poissonkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        child = subprocess.Popen(
            [sys.executable, "-m", "poissonkit", command, str(FIXTURES / fixture), *rest],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        child.stdout.close()  # before the child can print
        _, err = child.communicate(timeout=60)
        assert b"Traceback" not in err, err.decode()
        assert child.returncode == 0, err.decode()

class TestHumanOutput:
    @pytest.mark.parametrize(
        "argv,key_line",
        [
            (["modular", "so3_linear.poisson"], "modular field: "),
            (["report", "surface_node.poisson"], "verdict: "),
            (["cohomology", "torus4.poisson", "--wmax", "2"], "euler consistent: True"),
            (["tjurina", "surface_cusp.poisson"], "tjurina: "),
        ],
        ids=["modular", "report", "cohomology", "tjurina"],
    )
    def test_text_rendering(self, capsys, argv, key_line):
        command, fixture, *rest = argv
        assert main([command, str(FIXTURES / fixture), *rest]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"poissonkit {command} (v")
        assert any(line.startswith(key_line) for line in lines[1:]), lines
