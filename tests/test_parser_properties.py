"""Property tests of the text parsers and of the CLI's exit-code contract.

``parse_poly`` and ``parse_polyvector`` are checked on expressions, and
``parse_structure_file`` and every CLI command on structure files built
from a line alphabet.  ``parse_structure_file`` is also checked on the
fixtures with one line broken, for the line its error names, and on
charts on both sides of the variable bound.  The 4300-digit guard is
checked on literal, multiplied and raised coefficients (exit 2) and on a
computed Pfaffian coefficient (exit 4).  Hypothesis draws the inputs.  ``derandomize=True``
fixes the examples, so the suite is as reproducible as the seeded ones,
and 200 examples per property (100 for the CLI) keep it fast.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import tempfile
from fractions import Fraction

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonkit import (
    BudgetExceededError,
    Chart,
    ParseError,
    PreconditionError,
    Poly,
    Polyvector,
    format_poly,
    format_polyvector,
    parse_poly,
    parse_polyvector,
    parse_structure_file,
)
from poissonkit.cli import main
from poissonkit import polyalg
from poissonkit.polyalg import MAX_VARIABLES, _digit_limit, _tokenize
from poissonkit.structfile import _BRACKET_RE

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)

NAMES = ("x", "y", "z", "u")
TEXT_CHART = Chart(("x", "y"))
ALPHABET = ["x", "y", "dx", "dy", "q", "0", "1", "2", "3", "/", "^", "*", "+", "-", "(", ")", "$", " "]

charts = st.integers(2, 4).map(lambda n: Chart(NAMES[:n]))
coefficients = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
texts = st.lists(st.sampled_from(ALPHABET), max_size=24).map("".join)

# Well-formed expressions on TEXT_CHART, where halves and thirds meet in
# sums, products and powers and often give integral coefficients.
expressions = st.recursive(
    st.sampled_from(["x", "y", "0", "1", "2", "3", "1/2", "2/3", "3/2", "6/4"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(lambda t: f"{t[0]} {t[1]} ({t[2]})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda t: f"-({t})"),
    ),
    max_leaves=8,
)
# The frame tokens of one term, by degree: all terms of a text share one.
FRAMES = [[""], ["dx", "dy"], ["dx^dy", "dy^dx", "dy dx"]]


@st.composite
def polyvector_texts(draw):
    frames = st.sampled_from(draw(st.sampled_from(FRAMES)))
    terms = draw(st.lists(st.tuples(expressions, frames), min_size=1, max_size=3))
    signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(terms), max_size=len(terms)))
    signs[0] = signs[0].strip("+")
    return " ".join(f"{sign} ({e}) {frame}" for sign, (e, frame) in zip(signs, terms))


@st.composite
def polys(draw, chart):
    exponents = st.tuples(*[st.integers(0, 4)] * chart.n)
    return Poly(chart, draw(st.dictionaries(exponents, coefficients, max_size=5)))


@st.composite
def polyvectors(draw):
    chart = draw(charts)
    k = draw(st.integers(0, chart.n))
    indices = st.sampled_from(list(itertools.combinations(range(chart.n), k)))
    return Polyvector(chart, k, draw(st.dictionaries(indices, polys(chart), max_size=3)))


def integral_fractions(p: Poly) -> list:
    return [c for c in p.terms.values() if type(c) is not int and c.denominator == 1]


@SETTINGS
@given(charts.flatmap(polys))
def test_poly_text_round_trips(p):
    q = parse_poly(format_poly(p), p.chart)
    assert q == p and integral_fractions(q) == []


@SETTINGS
@given(polyvectors())
def test_polyvector_text_round_trips(a):
    b = parse_polyvector(format_polyvector(a), a.chart)
    assert b == a and all(integral_fractions(c) == [] for c in b.terms.values())
    assert a.is_zero or b.k == a.k


@SETTINGS
@given(texts)
def test_poly_parser_ends_in_a_result_or_a_parse_error(text):
    try:
        parse_poly(text, TEXT_CHART)
    except (ParseError, BudgetExceededError):
        pass


@SETTINGS
@given(texts)
def test_polyvector_parser_ends_in_a_result_or_a_parse_error(text):
    try:
        parse_polyvector(text, TEXT_CHART)
    except (ParseError, BudgetExceededError):
        pass


@SETTINGS
@given(expressions)
def test_parsed_polynomials_hold_no_integral_fraction(text):
    assert integral_fractions(parse_poly(text, TEXT_CHART)) == []


@SETTINGS
@given(polyvector_texts())
def test_parsed_polyvectors_hold_no_integral_fraction(text):
    a = parse_polyvector(text, TEXT_CHART)
    assert all(integral_fractions(c) == [] for c in a.terms.values())


# Structure-file lines that break a file, or may: headers out of place,
# brackets out of chart order or of unknown variables, builders that do
# not fit the chart, malformed expressions, and lines that change nothing.
STRAY_LINES = [
    "chart: x y",
    "chart: x",
    "chart:",
    "chart: x x y",
    "weights: 1 2",
    "weights: 0 1",
    "weights: 1 x",
    "weights:",
    "poisson:",
    "poisson: x",
    "{y,x} = x*y",
    "{x,x} = 1",
    "{x,q} = 1",
    "{x,y} = (x + ",
    "{x,y} = 1/0",
    "{x,y} = x^^2",
    "{x,y}",
    "jacobian3 F = x^3 + y^3 + z^3",
    "jacobian3 F = x*",
    "diagonal lambda = 0 1; -1 0",
    "diagonal lambda = 0 a; -1 0",
    "diagonal lambda = 0 1; -1",
    "garbage",
    "# a comment",
    "   # an indented comment",
    "",
]
# Bracket coefficients on the pair's own variables a and b, and the chart's first, c.
BRACKET_TEXTS = ["{a}*{b}", "1", "-2/3", "{a}^2", "{a}*{b} - 1/2*{c}^2", "{a} + {b}", "{c}*{a}*{b}  # a comment"]
JACOBIAN_TEXTS = ["x^3 + y^3 + z^3", "1/3*(x^3 + y^3 + z^3) + x*y*z", "x*y*z", "x^2 + y*z"]
COMMANDS = (
    ["check"],
    ["modular"],
    ["report"],
    ["cohomology", "--wmax", "1"],
    ["tjurina"],
)


@st.composite
def structure_files(draw):
    """A chart of 2-4 variables, maybe a weights: line, valid or not, one kind of poisson block, then maybe stray lines anywhere."""
    n = draw(st.integers(2, 4))
    names = NAMES[:n]
    lines = [f"chart: {' '.join(names)}"]
    weights = [str(draw(st.integers(1, 3))) for _ in names]
    # None, valid, or broken: a zero, a negative, a letter, one too few or one too many.
    kind = draw(st.sampled_from([None, None, None, "valid", "valid", "valid", "broken"]))
    if kind == "broken":
        kind = draw(st.sampled_from(["0", "-1", "x", "short", "long"]))
    if kind == "short" or kind == "long":
        weights = weights[1:] if kind == "short" else weights + ["1"]
    elif kind in ("0", "-1", "x"):
        weights[draw(st.integers(0, n - 1))] = kind
    if kind is not None:
        lines.append("weights: " + " ".join(weights))
    lines.append("poisson:")
    kind = draw(st.sampled_from(["brackets", "jacobian3", "diagonal"]))
    if kind == "brackets":
        pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(names, 2))), unique=True, max_size=3))
        for a, b in pairs:
            text = draw(st.sampled_from(BRACKET_TEXTS)).format(a=a, b=b, c=names[0])
            # Mostly in chart order; the other order is a parse error.
            a, b = (b, a) if draw(st.sampled_from([False] * 4 + [True])) else (a, b)
            lines.append(f"{{{a},{b}}} = {text}")
    elif kind == "jacobian3":
        lines.append(f"jacobian3 F = {draw(st.sampled_from(JACOBIAN_TEXTS))}")
    else:
        upper = [[draw(st.integers(-2, 2)) for _ in names] for _ in names]
        skew = draw(st.sampled_from([True] * 4 + [False]))
        rows = [[upper[i][j] - upper[j][i] if skew else upper[i][j] for j in range(n)] for i in range(n)]
        lines.append("diagonal lambda = " + "; ".join(" ".join(map(str, row)) for row in rows))
    if draw(st.sampled_from([False, False, True])):
        for position, line in draw(st.lists(st.tuples(st.integers(0, 6), st.sampled_from(STRAY_LINES)), min_size=1, max_size=2)):
            lines.insert(position, line)
    return "\n".join(lines) + "\n"


@SETTINGS
@given(structure_files())
def test_structure_parser_ends_in_a_spec_or_a_parse_error(text):
    try:
        parse_structure_file(text)
    except (ParseError, BudgetExceededError):
        pass
    except PreconditionError as exc:
        # The one precondition a builder checks as the file is read; any parse error wins over it.
        assert str(exc) == "lambda must be skew-symmetric"


@settings(SETTINGS, max_examples=100)
@given(structure_files())
def test_every_command_ends_in_a_documented_exit_code(text):
    with tempfile.NamedTemporaryFile("w", suffix=".poisson", delete=False) as handle:
        handle.write(text)
    try:
        for command in COMMANDS:
            argv = [command[0], handle.name, *command[1:], "--json", "--budget", "100"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 2, 3, 4), argv
    finally:
        os.unlink(handle.name)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_LINES = [path.read_text().splitlines() for path in sorted(FIXTURES.glob("*.poisson"))]
# Fragments that no expression or lambda row may contain or end with.
MALFORMED = ["(", ")", "()", "((1)", "1/0", "1/", "*1", "^2", "1 +", "1 2", "$", "1..2", "q", "x^^2", ""]


@st.composite
def broken_fixtures(draw):
    """A fixture with one bracket or builder line's expression malformed, and that line's 1-based number."""
    lines = list(draw(st.sampled_from(FIXTURE_LINES)))
    entries = [number for number, line in enumerate(lines) if "=" in line.split("#", 1)[0]]
    number = draw(st.sampled_from(entries))
    head, expression = lines[number].split("#", 1)[0].split("=", 1)
    fragment = draw(st.sampled_from(MALFORMED))
    # The whole expression replaced, or the fragment added as one more term.
    expression = draw(st.sampled_from([fragment, f"{expression.strip()} + {fragment}"]))
    lines[number] = f"{head}= {expression}"
    return "\n".join(lines) + "\n", number + 1


@SETTINGS
@given(broken_fixtures())
def test_a_malformed_expression_names_its_line(case):
    text, line = case
    try:
        parse_structure_file(text)
    except ParseError as exc:
        assert exc.line == line and f"(line {line}" in str(exc), (text, str(exc))
    else:
        raise AssertionError(f"parsed a malformed line {line}:\n{text}")


@SETTINGS
@given(st.integers(2, MAX_VARIABLES + 10))
@example(MAX_VARIABLES)
@example(MAX_VARIABLES + 1)
def test_the_chart_bound_is_the_first_line(n):
    text = "chart: " + " ".join(f"x{i}" for i in range(n)) + "\npoisson:\n{x0,x1} = x0*x1\n"
    try:
        spec = parse_structure_file(text)
    except ParseError as exc:
        assert n > MAX_VARIABLES and exc.line == 1, (n, str(exc))
    else:
        assert n <= MAX_VARIABLES and spec.pi.chart.n == n


# The interpreter's limit on the digits of an int converted to str: 4300 by default, 0 where it has none.
DIGITS = _digit_limit()
needs_digit_limit = pytest.mark.skipif(not DIGITS, reason="this interpreter has no int digit limit")
digit_counts = st.one_of(st.integers(DIGITS - 3, DIGITS + 3), st.integers(1, 2 * DIGITS))


def exit_code(*argv):
    """``main(argv)`` with its output discarded: the exit code, never a traceback."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([*argv, "--json"])


def structure_path(tmp_dir, text):
    path = Path(tmp_dir) / "guard.poisson"
    path.write_text(text)
    return str(path)


@needs_digit_limit
@settings(SETTINGS, max_examples=40)
@given(digit_counts, st.integers(1, 9))
@example(DIGITS, 9)
@example(DIGITS + 1, 1)
def test_a_literal_coefficient_exits_2_exactly_past_the_digit_limit(digits, lead):
    literal = str(lead) + "7" * (digits - 1)
    expected = 2 if digits > DIGITS else 0
    assert exit_code("tjurina", f"{literal}*w^2 + z^3") == expected
    with tempfile.TemporaryDirectory() as tmp_dir:
        assert exit_code("check", structure_path(tmp_dir, f"chart: w z\npoisson:\n{{w,z}} = {literal}*w*z\n")) == expected


@needs_digit_limit
@settings(SETTINGS, max_examples=40)
@given(st.integers(2, 10**6), st.integers(-2, 2), st.booleans())
@example(10, 0, False)
@example(10, 0, True)
def test_a_product_or_power_past_the_digit_limit_exits_2(base, offset, power):
    # base^e near 10^DIGITS, written as a power or as the product base^(e-1) * base.
    e = max(int(DIGITS / math.log10(base)) + offset, 2)
    text = f"{base}^{e}*w^2 + z^3" if power else f"{base}^{e - 1}*{base}*w^2 + z^3"
    expected = 2 if base**e >= 10**DIGITS else 0
    assert exit_code("tjurina", text) == expected


@needs_digit_limit
@settings(SETTINGS, max_examples=20)
@given(st.integers(1, DIGITS - 1), st.integers(-3, 3))
@example(2000, 0)
@example(2000, 1)
def test_a_pfaffian_coefficient_past_the_digit_limit_exits_4(first, offset):
    # Pf = 10^first * 10^second * a*b*c*d has first + second + 1 digits.
    second = min(max(DIGITS - 1 - first + offset, 0), DIGITS - 1)
    text = f"chart: a b c d\npoisson:\n{{a,b}} = 10^{first}*a*b\n{{c,d}} = 10^{second}*c*d\n"
    expected = 4 if first + second + 1 > DIGITS else 0
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = structure_path(tmp_dir, text)
        assert exit_code("check", path) == 0
        for command in ("report", "tjurina"):
            assert exit_code(command, path) == expected, (command, first, second)


# Letters, digits and the underscore of the identifier rule, next to characters
# that end a name or break it: blanks, separators, a non-ASCII letter and digit.
NAME_ALPHABET = ["a", "Z", "q", "_", "0", "9", " ", "\t", ",", "{", "}", "=", "-", "\u00e9", "\u0663"]


@SETTINGS
@given(st.lists(st.sampled_from(NAME_ALPHABET), max_size=5).map("".join))
@example("x_1")
@example("_x")
@example("9a")
@example("")
@example("a b")
@example("a\u00e9")
def test_one_identifier_rule_for_charts_tokens_and_bracket_lines(name):
    try:
        in_chart = Chart((name,)) is not None
    except ValueError:
        in_chart = False
    try:
        one_token = _tokenize(name) == [("ident", name, 0), ("end", "", len(name))]
    except ParseError:
        one_token = False
    match = _BRACKET_RE.match(f"{{{name},b}} = 1")
    in_bracket = match is not None and match.group(1) == name
    assert in_chart == one_token == in_bracket, name
    if in_chart:
        spec = parse_structure_file(f"chart: {name} b\npoisson:\n{{{name},b}} = 1\n")
        assert spec.pi.chart.names == (name, "b") and str(spec.pi.terms[(0, 1)]) == "1"


def test_digits_are_scanned_only_where_a_coefficient_can_grow(monkeypatch):
    # Once per term that multiplied or raised a power, and once per sum of two
    # or more terms; a lone literal, identifier or group is never re-scanned.
    scans = []
    scan = polyalg._exceeds_digit_limit
    monkeypatch.setattr(polyalg, "_exceeds_digit_limit", lambda values, digits: scans.append(1) or scan(values, digits))
    for text, count in (
        ("(-1*w + 2*z + -2)*(-2*w + 1*z + -2)*(-2*w + -2*z)*(-1*w + 2*z)", 13),
        ("w*z", 1),
        ("w^9 + z^9 + 3*w^4*z^3 + 2*w^0*z^1", 5),
        ("w + z", 1),
        ("-((w))", 0),
        ("3/6", 0),
    ):
        scans.clear()
        parse_poly(text, Chart(("w", "z")))
        assert len(scans) == count, text


@pytest.mark.parametrize(
    "literal,column",
    [
        ("w^\u0663 + z^2", 3),  # ARABIC-INDIC DIGIT THREE is no exponent
        ("w^3\u3000+ z^2", 4),  # an IDEOGRAPHIC SPACE is no blank
        ("w^3 + z^2\u00a0", 10),  # nor is a NO-BREAK SPACE
    ],
)
def test_the_tokenizer_reads_ascii_digits_and_blanks_only(capsys, literal, column):
    # The grammar's digits and blanks are ASCII, as its identifiers are: any
    # other character is a parse error at its column, not a digit or a blank.
    assert main(["tjurina", literal]) == 2
    assert capsys.readouterr().err == f"parse error: unexpected character {literal[column - 1]!r} (column {column})\n"
    ascii_literal = literal.replace("\u0663", "3").replace("\u3000", " ").replace("\u00a0", "")
    assert main(["tjurina", ascii_literal]) == 0


@pytest.mark.parametrize(
    "text,message",
    [
        # ARABIC-INDIC DIGIT ONE is no weight
        ("chart: w z\nweights: ١ 1\npoisson:\n{w,z} = w*z\n", "weights: needs one positive integer per variable, got '١' (line 2)"),
        # an IDEOGRAPHIC SPACE separates no names, opens no line and pads no bracket
        ("chart: w　z\npoisson:\n{w,z} = w*z\n", "invalid variable identifier: 'w\\u3000z' (line 1)"),
        ("　chart: w z\npoisson:\n{w,z} = w*z\n", "unexpected line before the poisson block: '\\u3000chart: w z' (line 1)"),
        ("chart: w z\nweights:　1 1\npoisson:\n{w,z} = w*z\n", "weights: needs one positive integer per variable, got '\\u30001' (line 2)"),
        ("chart: w z\npoisson:\n{w,　z} = w*z\n", "unrecognized poisson entry: '{w,\\u3000z} = w*z' (line 3)"),
        # nor is ARABIC-INDIC DIGIT THREE an exponent digit of a lambda entry
        ("chart: w z\npoisson:\ndiagonal lambda = 0 1e٣; -1e٣ 0\n", "bad rational entry in lambda row: '0 1e٣' (line 3)"),
    ],
)
def test_structure_files_read_ascii_digits_and_blanks_only(tmp_path, capsys, text, message):
    # A structure file's blanks and digits are ASCII, as the expression
    # grammar's are: any other one is a parse error on its line.
    path = tmp_path / "structure.poisson"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"
    ascii_text = text.replace("١", "1").replace("٣", "3").replace("　", " ")
    path.write_text(ascii_text, encoding="utf-8")
    assert main(["check", str(path)]) == 0


def test_point_reads_ascii_digits_only(capsys):
    assert main(["tjurina", "w^3 + z^2", "--point", "١,0"]) == 2
    assert capsys.readouterr().err == "parse error: bad --point value '١,0'\n"
    # Nor does a minus before a non-ASCII digit make a negative number: it is an option.
    with pytest.raises(SystemExit) as exit:
        main(["tjurina", "w^3 + z^2", "--point", "-١,0"])
    assert exit.value.code == 2
    assert "argument --point: expected one argument" in capsys.readouterr().err
    assert main(["tjurina", "w^3 + z^2", "--point", "-1,0"]) == 0
    with pytest.raises(ValueError):
        polyalg._rational("1e٣")
    assert polyalg._rational(" 1e3 ") == 1000


def test_a_structure_file_is_told_apart_by_an_ascii_chart_line(tmp_path, capsys):
    # tjurina reads a file as a structure file only where a line opens with
    # ASCII blanks and "chart:"; otherwise it is a polynomial, here a bad one.
    path = tmp_path / "structure.poisson"
    path.write_text("　chart: w z\npoisson:\n{w,z} = w^2 - z^3\n", encoding="utf-8")
    assert main(["tjurina", str(path)]) == 2
    assert capsys.readouterr().err == "parse error: unexpected character '\\u3000' (column 1)\n"
    path.write_text(" chart: w z\npoisson:\n{w,z} = w^2 - z^3\n", encoding="utf-8")
    assert main(["tjurina", str(path)]) == 0
