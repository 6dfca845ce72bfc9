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
from poissonkit import ParseError, UnknownIdentifierError, parse_structure_file
from poissonkit import cli
from poissonkit.cli import main
from conftest import FIXTURES, structure_text

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


def run_subprocess(*argv, timeout=20):
    """``python -m poissonkit *argv`` in a child process, so that a ``timeout`` in seconds stops a run that never ends."""
    src = str(Path(poissonkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "poissonkit", *argv]
    return subprocess.run(argv, capture_output=True, text=True, timeout=timeout, env=env)


class TestFixtures:
    def test_every_fixture_parses_and_roundtrips(self, capsys):
        fixture_files = sorted(FIXTURES.glob("*.poisson"))
        assert len(fixture_files) >= 5
        for path in fixture_files:
            spec = parse_structure_file(path.read_text())
            P = spec.build()
            structure = run_json(capsys, "check", str(path))["result"]["structure"]
            again = parse_structure_file(structure_text(structure)).build()
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


class TestRarelyReachedExits:
    """Exit codes and messages of paths that no other test reaches."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("poisson:\nchart: w z\n{w,z} = w*z\n", "the poisson block needs a preceding chart: line (line 1)"),
            ("chart:\npoisson:\n", "chart: needs at least one variable name (line 1)"),
            ("# a comment and nothing else\n", "missing chart: line (line 1)"),
            ("chart: w z\n", "missing poisson: block (line 1)"),
        ],
        ids=["poisson-before-chart", "chart-without-names", "no-chart", "no-poisson"],
    )
    def test_structure_file_without_its_header(self, capsys, tmp_path, text, message):
        path = tmp_path / "headless.poisson"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_failing_check_prints_its_jacobiator(self, capsys, tmp_path):
        bad = tmp_path / "bad.poisson"
        bad.write_text("chart: x y z\npoisson:\n{x,y} = y\n{x,z} = x\n")
        assert main(["check", str(bad)]) == 0
        out = capsys.readouterr().out
        assert "jacobi: FAIL\n" in out and "jacobiator: 2*y dx^dy^dz\n" in out

    def test_point_of_the_wrong_length(self, capsys):
        assert main(["tjurina", "w*z", "--point", "1,2,3"]) == 2
        assert capsys.readouterr().err == "parse error: --point needs 2 coordinates in chart order ('w', 'z')\n"

    def test_budget_that_is_not_an_integer(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["tjurina", "w*z", "--budget", "x"])
        assert info.value.code == 2
        assert "argument --budget: expected an integer of at least 0, got 'x'" in capsys.readouterr().err

    def test_table_too_large_is_refused_before_any_piece_is_listed(self, capsys, monkeypatch):
        import poissonkit.graded_cohomology as module

        def unreachable(*args):
            raise AssertionError("a piece was listed")

        monkeypatch.setattr(module, "graded_basis", unreachable)
        assert main(["cohomology", str(FIXTURES / "weighted_surface.poisson"), "--wmax", "100000"]) == 4
        assert capsys.readouterr().err == "budget exceeded: the table's 3 x 100006 entries exceed the basis cap 20000\n"

    def test_kmax_does_not_shrink_the_table_size_bound(self, capsys, monkeypatch):
        # Every Euler diagonal lists its pieces for k = 0..n whatever --kmax says, so
        # --kmax 0 bounds the same n + 1 rows: 3 x 20000 entries pass the cap.
        import poissonkit.graded_cohomology as module

        def unreachable(*args):
            raise AssertionError("a piece was listed")

        monkeypatch.setattr(module, "graded_basis", unreachable)
        argv = ["cohomology", str(FIXTURES / "surface_symplectic.poisson"), "--kmax", "0", "--wmax", "19997"]
        assert main(argv) == 4
        assert capsys.readouterr().err == "budget exceeded: the table's 3 x 20000 entries exceed the basis cap 20000\n"

    def test_translation_past_the_term_bound(self, capsys):
        # TestExitCodeContract runs the same input in a subprocess, under a timeout.
        assert main(["tjurina", "w^20000 + z^2", "--point=1,0"]) == 4
        err = capsys.readouterr().err
        assert err == "budget exceeded: --point '1,0': translation: the translated polynomial may have more than 2000 terms\n"


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

    def test_zero_bracket_still_counts_for_duplicates(self):
        with pytest.raises(ParseError) as info:
            parse_structure_file("chart: w z\npoisson:\n{w,z} = 0\n{w,z} = 1\n")
        assert info.value.message == "duplicate bracket pair {w,z}"
        assert info.value.line == 4

    def test_empty_weights_line(self, capsys, tmp_path):
        text = "chart: w z\nweights:   # none given\npoisson:\n{w,z} = w*z\n"
        with pytest.raises(ParseError) as info:
            parse_structure_file(text)
        assert info.value.line == 2
        path = tmp_path / "empty_weights.poisson"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "parse error: weights: needs one positive integer per variable (line 2)\n"

    def test_duplicate_weights_line(self, capsys, tmp_path):
        text = "chart: w z\nweights: 1 2\nweights: 2 1\npoisson:\n{w,z} = w*z\n"
        with pytest.raises(ParseError) as info:
            parse_structure_file(text)
        assert info.value.line == 3
        path = tmp_path / "two_weights.poisson"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "parse error: duplicate weights: line (line 3)\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("chart: w z\nchart: w z\npoisson:\n{w,z} = w*z\n", "duplicate chart: line (line 2)"),
            ("chart: w z\npoisson:\n{w,z} = w\n{w,z} = z\n", "duplicate bracket pair {w,z} (line 4)"),
            ("chart: w z\nweights: 1 0\npoisson:\n{w,z} = w*z\n", "weights must be positive integers: (1, 0) (line 2)"),
        ],
        ids=["duplicate-chart", "duplicate-pair", "weights"],
    )
    def test_line_only_error_prints_its_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.poisson"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_non_integer_weight_names_the_weights_line(self, capsys, tmp_path):
        text = "chart: w z\nweights: 1 x\npoisson:\n{w,z} = w*z\n"
        with pytest.raises(ParseError) as info:
            parse_structure_file(text)
        assert info.value.line == 2
        assert info.value.message == "weights: needs one positive integer per variable, got 'x'"
        path = tmp_path / "letter_weight.poisson"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            "parse error: weights: needs one positive integer per variable, got 'x' (line 2)\n"
        )

    def test_parse_error_wins_over_a_non_skew_lambda(self, capsys, tmp_path):
        path = tmp_path / "nonskew.poisson"
        path.write_text("chart: a b\npoisson:\ndiagonal lambda = 0 1; 1 0\n{a,b} = a\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "parse error: bracket lines cannot follow a builder directive (line 4)\n"

    def test_lone_non_skew_lambda_is_3(self, capsys, tmp_path):
        path = tmp_path / "nonskew.poisson"
        path.write_text("chart: a b\npoisson:\ndiagonal lambda = 0 1; 1 0\n")
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr().err == "precondition violated: lambda must be skew-symmetric\n"

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
        ("polyalg", "format_poly"),
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
            # A surface reads reducedness off its singular locus, so only a
            # non-reduced curve runs the gcd, for its witness.
            ("surface_cusp.poisson", {"pfaffian": 1, "modular_field": 1, "gcd_multi": 0, "buchberger": 2, "format_poly": 8}),
            ("surface_nonreduced.poisson", {"pfaffian": 1, "modular_field": 1, "gcd_multi": 1, "buchberger": 1, "format_poly": 8}),
            ("torus4.poisson", {"pfaffian": 1, "modular_field": 1, "gcd_multi": 1, "buchberger": 1, "format_poly": 23}),
        ],
    )
    def test_counts(self, capsys, monkeypatch, fixture, expected):
        counts = self.count_calls(monkeypatch)
        run_json(capsys, "report", str(FIXTURES / fixture))
        assert {name: counts[name] for _, name in self.COUNTED} == expected


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

    @pytest.mark.parametrize(
        "literal,message",
        [
            # Past the file-name limit, as CI's 101-variable literal is: no file has that name.
            (" + ".join(f"x{i}^2" for i in range(101)), "a chart has at most 100 variables, got 101"),
            # No file name holds a NUL.
            ("w^2 + z^2\0", "unexpected character '\\x00' (column 10)"),
        ],
        ids=["long", "nul"],
    )
    def test_a_literal_that_names_no_file_is_parsed(self, capsys, literal, message):
        assert main(["tjurina", literal]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

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

    def test_a_power_past_the_bit_estimate_is_refused_at_its_term(self, capsys):
        # 3 has one bit past its first, so the estimate before the power lets
        # 3^9100 through; it has 4342 digits, and its term, from column 5, is refused.
        assert main(["tjurina", "w + 2*3^9100"]) == 2
        assert capsys.readouterr().err == "parse error: a coefficient has more than 4300 digits (column 5)\n"

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

    @pytest.mark.parametrize("command", ["check", "report", "cohomology"])
    @pytest.mark.parametrize("entry", ["1e99999999", "1e-99999999"])
    def test_lambda_entry_with_a_runaway_exponent_is_2(self, tmp_path, command, entry):
        # A lambda row is read like a --point coordinate: Fraction(entry)
        # would build 10**99999999 first; a subprocess lets the timeout stop
        # a run that does.
        path = tmp_path / "lambda.poisson"
        path.write_text(f"chart: w z\npoisson:\ndiagonal lambda = 0 {entry}; -{entry} 0\n")
        src = str(Path(poissonkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = [sys.executable, "-m", "poissonkit", command, str(path), "--json"]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=5, env=env)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"parse error: lambda entry: the rational {entry!r} has more than 4300 digits (line 3)\n"

    def test_lambda_entry_past_the_digit_limit_is_2(self, capsys, tmp_path):
        # 10^4305 is built, but has more digits than a coefficient may print with.
        path = tmp_path / "lambda.poisson"
        path.write_text("chart: w z\npoisson:\ndiagonal lambda = 0 1e4305; -1e4305 0\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "parse error: lambda entry: the rational '1e4305' has more than 4300 digits (line 3)\n"

    @pytest.mark.parametrize("literal", ["w^20000 + z^2", "w^2000 + z^2"])
    def test_translation_past_the_term_bound_is_4(self, literal):
        # (w + 1)^20000 would be expanded before anything else ran; the
        # translation is bounded like the literal "(w+1)^2000 + z^2" is.
        done = run_subprocess("tjurina", literal, "--point=1,0", "--json")
        assert done.returncode == 4 and done.stdout == ""
        assert done.stderr == (
            "budget exceeded: --point '1,0': translation: the translated polynomial may have more than 2000 terms\n"
        )

    def test_translation_bound_counts_only_translated_variables(self, capsys):
        # z^2 moves to (z - 1)^2; w^1999 stays one term.
        result = run_json(capsys, "tjurina", "w^1999 + z^2", "--point=0,-1")["result"]
        assert result["poly"] == "w^1999 + z^2 - 2*z + 1" and result["tjurina"] == 1998

    @pytest.mark.parametrize(
        "text, wmax",
        [
            ("chart: w z\npoisson:\n{w,z} = w^999999999999\n", "6"),
            ("chart: w z\npoisson:\n{w,z} = w^3000000\n", "6"),
            ("chart: x y z\npoisson:\njacobian3 F = x^99999\n", "6"),
            ("chart: w z\nweights: 20000 1\npoisson:\n{w,z} = w\n", "3"),
            ("chart: w z\nweights: 5000 1\npoisson:\n{w,z} = z^999999999999\n", "3"),
        ],
        ids=["huge-m", "large-m", "jacobian3", "wide-window", "weighted-huge-m"],
    )
    def test_cohomology_past_the_basis_cap_ends_at_once(self, tmp_path, text, wmax):
        # Each used to enumerate a piece's monomials, or the weight window,
        # in full before the cap was compared; a subprocess lets the timeout
        # stop a run that does.
        path = tmp_path / "big.poisson"
        path.write_text(text)
        started = time.perf_counter()
        done = run_subprocess("cohomology", str(path), "--wmax", wmax, "--json")
        assert done.returncode == 4 and done.stdout == ""
        assert done.stderr.startswith("budget exceeded: ") and "exceed" in done.stderr
        assert "the basis cap 20000" in done.stderr
        assert time.perf_counter() - started < 3

    def test_empty_point_is_2(self, capsys):
        # An empty --point is a malformed point, not an absent one.
        assert main(["tjurina", "w^2+z^3", "--point", "", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: bad --point value ''\n"

    @pytest.mark.parametrize("command", ["check", "modular", "report", "cohomology", "tjurina"])
    @pytest.mark.parametrize(
        "text",
        ["chart: x\npoisson:\n", "# one variable\nchart: x\npoisson:\ndiagonal lambda = 0\n"],
        ids=["brackets", "diagonal"],
    )
    def test_one_variable_chart_is_2(self, capsys, tmp_path, command, text):
        path = tmp_path / "one.poisson"
        path.write_text(text)
        assert main([command, str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = text.splitlines().index("chart: x") + 1
        assert captured.err == f"parse error: a Poisson structure needs at least two variables (line {line})\n"


    @pytest.mark.parametrize("literal", ["7", "w - w"])
    def test_tjurina_of_a_constant_is_3(self, capsys, literal):
        assert main(["tjurina", literal, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "precondition violated: the Tjurina number needs a nonconstant polynomial\n"

    @pytest.mark.parametrize("command", ["report", "tjurina"])
    @pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "human"])
    def test_computed_coefficient_past_the_digit_limit_is_4(self, tmp_path, command, flags):
        # Each literal has 2501 digits, within the limit; the Pfaffian's
        # coefficient 10^5000 has 5001 and reaches the printer.
        path = tmp_path / "big.poisson"
        path.write_text("chart: a b c d\npoisson:\n{a,b} = 10^2500*a*b\n{c,d} = 10^2500*c*d\n")
        done = run_subprocess(command, str(path), *flags)
        assert done.returncode == 4 and done.stdout == ""
        assert done.stderr == "budget exceeded: a computed coefficient has more than 4300 digits\n"

    def test_wide_chart_skips_the_multi_indices_below_weight_0(self, tmp_path):
        # At weight -23 only the pieces of degree 23 and 24 of a 24-variable
        # chart are nonempty; the 2^24 multi-indices of the others are never visited.
        names = " ".join(f"x{i}" for i in range(24))
        path = tmp_path / "wide.poisson"
        path.write_text(f"chart: {names}\npoisson:\n{{x0,x1}} = x0*x1\n")
        done = run_subprocess("cohomology", str(path), "--kmax", "0", "--wmax", "-23", "--json")
        assert done.returncode == 0, done.stderr
        assert [e["dim_h"] for e in json.loads(done.stdout)["result"]["entries"]] == [0, 0]

    def test_wide_block_chart_report_ends(self, tmp_path):
        # {x_2i, x_2i+1} = x_2i*x_2i+1 on 40 variables.  The rank-0 locus is
        # one point, for which a Krull dimension that tries every set of
        # variables tries all 2^40, and pi^k has C(20, k) index sets.
        n = 40
        names = " ".join(f"x{i}" for i in range(n))
        brackets = "\n".join(f"{{x{i},x{i + 1}}} = x{i}*x{i + 1}" for i in range(0, n, 2))
        path = tmp_path / "wide.poisson"
        path.write_text(f"chart: {names}\npoisson:\n{brackets}\n")
        done = run_subprocess("report", str(path), "--json", timeout=10)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)["result"]
        assert result["verdict"] == "NoObstructionFound"
        assert result["zero_leaf_locus"]["dimension"] == 0

    @pytest.mark.parametrize("command", ["check", "modular", "report", "cohomology", "tjurina"])
    def test_chart_past_the_variable_bound_is_2(self, tmp_path, command):
        names = " ".join(f"x{i}" for i in range(101))
        path = tmp_path / "wide.poisson"
        path.write_text(f"chart: {names}\npoisson:\n{{x0,x1}} = x0*x1\n")
        done = run_subprocess(command, str(path), "--json")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "parse error: a chart has at most 100 variables, got 101 (line 1)\n"

    def test_tjurina_literal_past_the_variable_bound_is_2(self):
        done = run_subprocess("tjurina", " + ".join(f"x{i}^2" for i in range(101)), "--json")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "parse error: a chart has at most 100 variables, got 101\n"

    def test_chart_at_the_variable_bound_is_checked(self, capsys, tmp_path):
        names = " ".join(f"x{i}" for i in range(100))
        path = tmp_path / "wide.poisson"
        path.write_text(f"chart: {names}\npoisson:\n{{x0,x1}} = x0*x1\n")
        assert run_json(capsys, "check", str(path))["result"]["jacobi_ok"] is True
        sum_of_squares = " + ".join(f"x{i}^2" for i in range(100))
        assert run_json(capsys, "tjurina", sum_of_squares)["result"]["tjurina"] == 1


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


class TestArgumentDispatch:
    """A known command's arguments are parsed by its own parser, with the full parser's results and messages."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "a.poisson"],
            ["modular", "a.poisson", "--json"],
            ["report", "a.poisson", "--budget", "7", "--json"],
            ["cohomology", "a.poisson", "--kmax", "2", "--wmax", "-3"],
            ["cohomology", "a.poisson", "--wmax=4", "--budget=0"],
            ["tjurina", "w^3 + z^2", "--point", "-1,0"],
            ["tjurina", "w^3 + z^2", "--point=-1,0", "--json", "--budget", "12"],
            ["tjurina", "--json", "-w^2 + z^3"],
        ],
    )
    def test_valid_arguments_parse_as_the_full_parser_does(self, argv):
        assert cli._arguments(argv) == cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["-h"],
            ["tjurina", "-h"],
            ["tjurina"],
            ["report", "a.poisson", "--bogus"],
            ["tjurina", "w^3 + z^2", "--budget", "-1"],
        ],
    )
    def test_usage_errors_read_as_the_full_parsers(self, capsys, argv):
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as ours:
            main(argv)
        assert ours.value.code == full.value.code == (0 if "-h" in argv else 2)
        assert capsys.readouterr() == expected and (expected.out or expected.err)
