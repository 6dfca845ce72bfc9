"""Property tests of the two text parsers, ``parse_poly`` and ``parse_polyvector``.

Hypothesis draws the inputs.  ``derandomize=True`` fixes the examples, so
the suite is as reproducible as the seeded ones, and 200 examples per
property keep it fast.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from poissonkit import (
    BudgetExceededError,
    Chart,
    ParseError,
    Poly,
    Polyvector,
    format_poly,
    format_polyvector,
    parse_poly,
    parse_polyvector,
)

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
