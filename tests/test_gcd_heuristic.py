"""The heuristic gcd of ``gcd_multi`` against the primitive PRS and sympy.

Each family plants a common factor g in a = g*p and b = g*q.  ``gcd_multi``
must agree with the primitive PRS ``_gcd_pair`` (its fallback) and with
``sympy.gcd`` up to a unit, on 1-4 variables, integer coefficients up to
10^30, rational coefficients, monomial and constant gcds.  Small
coefficients make the first evaluation point unlucky often enough that a
heuristic which skipped its trial division returns wrong gcds here.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy

from poissonkit import Chart, Poly, gcd_multi
from poissonkit import polyalg
from poissonkit.groebner import division
from poissonkit.polyalg import _gcd_pair, _heu_gcd, _primitive_terms
from conftest import CHART2, CHART3, CHART4

CHART1 = Chart(("x",))
CHARTS = {1: CHART1, 2: CHART2, 3: CHART3, 4: CHART4}


def random_factor(rng, chart, max_degree, max_terms, bound, rational=False):
    """A nonzero random polynomial with integer (or rational) coefficients of size up to ``bound``."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exponent = [0] * chart.n
            for _ in range(rng.randint(0, max_degree)):
                exponent[rng.randrange(chart.n)] += 1
            coeff = rng.randint(-bound, bound)
            if rational:
                coeff = Fraction(coeff, rng.randint(1, 12))
            terms[tuple(exponent)] = coeff
        p = Poly(chart, terms)
        if not p.is_zero:
            return p


def planted(rng, nvars, bound=3, rational=False, kind="general"):
    """(a, b, g) with a = g*p and b = g*q for random cofactors p, q."""
    chart = CHARTS[nvars]
    if kind == "monomial":
        exponent = tuple(rng.randint(0, 2) for _ in range(nvars))
        g = Poly.monomial(chart, exponent, rng.choice((-2, -1, 1, 3)))
    elif kind == "constant":
        g = Poly.constant(chart, rng.randint(1, bound))
    else:
        g = random_factor(rng, chart, 2, 3, bound, rational)
    degree = 3 if nvars <= 2 else 2
    p = random_factor(rng, chart, degree, 3, bound, rational)
    q = random_factor(rng, chart, degree, 3, bound, rational)
    return g * p, g * q, g


def to_sympy(p: Poly, gens):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain="QQ")


def assert_agrees(a: Poly, b: Poly, g: Poly):
    ours = gcd_multi([a, b])
    assert ours == _gcd_pair(a, b), (a, b)
    gens = sympy.symbols(a.chart.names)
    expected = sympy.gcd(to_sympy(a, gens), to_sympy(b, gens))
    got = to_sympy(ours, gens)
    assert got * expected.LC() == expected * got.LC(), (a, b)
    assert g.is_constant or division(ours, [g])[1].is_zero, (a, b)


FAMILIES = [
    pytest.param(nvars, bound, rational, kind, id=f"{nvars}var-{kind}-{'Q' if rational else 'Z'}-{len(str(bound))}digit")
    for nvars in (1, 2, 3, 4)
    for bound, rational, kind in (
        (3, False, "general"),
        (10**30, False, "general"),
        (3, True, "general"),
        (3, False, "monomial"),
        (3, False, "constant"),
    )
]


class TestHeuristicGcdOracles:
    @pytest.mark.parametrize("nvars,bound,rational,kind", FAMILIES)
    def test_planted_factors(self, rng, nvars, bound, rational, kind):
        for _ in range(12 if nvars <= 2 else 6):
            assert_agrees(*planted(rng, nvars, bound, rational, kind))

    def test_heuristic_answers_are_the_prs_gcd(self, rng):
        """Where the heuristic answers at all, it gives the PRS gcd up to sign."""
        answered = 0
        for _ in range(60):
            a, b, _ = planted(rng, rng.randint(1, 3))
            h = _heu_gcd(_primitive_terms(a.terms), _primitive_terms(b.terms))
            if h is None:
                continue
            answered += 1
            expected = _primitive_terms(_gcd_pair(a, b).terms)
            assert h in (expected, {e: -c for e, c in expected.items()}), (a, b)
        assert answered >= 54

    def test_evaluation_points_respect_the_cgg_bound(self, rng, monkeypatch):
        """Each pair of images is taken at xi >= 2*min(|a|, |b|) + 2 of the primitive pair."""
        calls = []
        evaluate = polyalg._evaluate

        def spy(terms, var, xi):
            calls.append((max(map(abs, terms.values())), xi))
            return evaluate(terms, var, xi)

        monkeypatch.setattr(polyalg, "_evaluate", spy)
        for _ in range(30):
            a, b, _ = planted(rng, rng.randint(1, 3))
            gcd_multi([a, b])
        assert calls and len(calls) % 2 == 0
        for (norm_a, xi_a), (norm_b, xi_b) in zip(calls[::2], calls[1::2]):
            assert xi_a == xi_b >= 2 * min(norm_a, norm_b) + 2

    def test_unlucky_points_make_xi_grow(self, rng, monkeypatch):
        """With a single evaluation point per level the heuristic gives up on some planted pairs."""
        monkeypatch.setattr(polyalg, "HEU_TRIES", 1)
        gave_up = 0
        for _ in range(120):
            a, b, _ = planted(rng, rng.randint(1, 2))
            gave_up += _heu_gcd(_primitive_terms(a.terms), _primitive_terms(b.terms)) is None
        assert gave_up > 0


class TestPrsFallback:
    def test_a_heuristic_that_gives_up_leaves_the_prs_answer(self, rng, monkeypatch):
        gave_up = []

        def give_up(a, b):
            gave_up.append((a, b))
            return None

        cases = [planted(rng, rng.randint(1, 3)) for _ in range(20)]
        expected = [gcd_multi([a, b]) for a, b, _ in cases]
        monkeypatch.setattr(polyalg, "_heu_gcd", give_up)
        for (a, b, g), want in zip(cases, expected):
            assert gcd_multi([a, b]) == want == _gcd_pair(a, b)
            assert_agrees(a, b, g)
        assert len(gave_up) >= len(cases)

    def test_size_cap_gives_up(self, monkeypatch):
        monkeypatch.setattr(polyalg, "HEU_MAX_BITS", 8)
        a = polyalg.parse_poly("(w^3 + 5*z + 1)*(w - z)", CHART2)
        b = polyalg.parse_poly("(w^3 + 5*z + 1)*(w + 7)", CHART2)
        assert _heu_gcd(_primitive_terms(a.terms), _primitive_terms(b.terms)) is None
        assert gcd_multi([a, b]) == polyalg.parse_poly("w^3 + 5*z + 1", CHART2)
