"""The heuristic gcd of ``gcd_multi`` against the primitive PRS and sympy.

Each family plants a common factor g in a = g*p and b = g*q.  ``gcd_multi``
must agree with the primitive PRS ``_prs_gcd`` (its fallback) and with
``sympy.gcd`` up to a unit, on 1-4 variables, integer coefficients up to
10^30, rational coefficients, monomial and constant gcds.  A gcd with a
one-term map is read off its exponents and coefficients; it must equal the
PRS's and sympy's over Z, contents and signs included.  Small
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
from poissonkit.polyalg import _gcd_terms, _heu_gcd, _primitive_terms, _prs_gcd, nonreduced_factor
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


def _gcd_pair(a: Poly, b: Poly) -> Poly:
    """The primitive PRS gcd of two nonzero polynomials, made monic like ``gcd_multi``'s."""
    g = Poly(a.chart, _prs_gcd(_primitive_terms(a.terms), _primitive_terms(b.terms)))
    return g * Fraction(1, g.leading()[1])


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
            assert h == _prs_gcd(_primitive_terms(a.terms), _primitive_terms(b.terms)), (a, b)
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

    def test_a_large_coefficient_reaches_the_prs(self, monkeypatch):
        """A 400-digit coefficient puts xi past HEU_MAX_BITS, so the PRS answers unforced."""
        prs_calls = []

        def spy(a, b):
            prs_calls.append((a, b))
            return _prs_gcd(a, b)

        monkeypatch.setattr(polyalg, "_prs_gcd", spy)
        g = polyalg.parse_poly("w^12 + 7*10^400*z^3 + z + 1", CHART2)
        a = g * polyalg.parse_poly("w^3 - 5*z^2 + 2", CHART2)
        b = g * polyalg.parse_poly("w^2*z + 3", CHART2)
        ours = gcd_multi([a, b])
        assert ours == g * Fraction(1, g.leading()[1])
        gens = sympy.symbols(CHART2.names)
        expected = sympy.gcd(to_sympy(a, gens), to_sympy(b, gens))
        got = to_sympy(ours, gens)
        assert got * expected.LC() == expected * got.LC()
        assert prs_calls

    def test_size_cap_gives_up(self, monkeypatch):
        monkeypatch.setattr(polyalg, "HEU_MAX_BITS", 8)
        a = polyalg.parse_poly("(w^3 + 5*z + 1)*(w - z)", CHART2)
        b = polyalg.parse_poly("(w^3 + 5*z + 1)*(w + 7)", CHART2)
        assert _heu_gcd(_primitive_terms(a.terms), _primitive_terms(b.terms)) is None
        assert gcd_multi([a, b]) == polyalg.parse_poly("w^3 + 5*z + 1", CHART2)


class TestOneTermGcd:
    """A one-term map's gcd is read off exponents and coefficients, with no evaluation."""

    def test_against_the_prs_and_sympy(self, rng, monkeypatch):
        def no_heuristic(a, b):
            raise AssertionError("a one-term gcd reached GCDHEU")

        pairs = []
        for nvars in (1, 2, 3, 4):
            chart = CHARTS[nvars]
            for _ in range(25):
                exponent = tuple(rng.randint(0, 3) for _ in range(nvars))
                monomial = {exponent: rng.choice((-12, -6, -1, 1, 2, 9, 10**25))}
                other = random_factor(rng, chart, 3, rng.choice((1, 4)), rng.choice((3, 30)))
                scale = rng.choice((-4, -1, 1, 6))
                pairs.append((chart, monomial, {e: scale * c for e, c in other.terms.items()}))
        expected = [_prs_gcd(a, b) for _, a, b in pairs]
        monkeypatch.setattr(polyalg, "_heu_gcd", no_heuristic)
        for (chart, a, b), want in zip(pairs, expected):
            assert _gcd_terms(a, b) == _gcd_terms(b, a) == want, (a, b)
            ((_, c),) = want.items()
            assert c > 0
            gens = sympy.symbols(chart.names)
            as_zz = [sympy.Poly.from_dict(t, *gens, domain="ZZ") for t in (a, b, want)]
            assert sympy.gcd(as_zz[0], as_zz[1]) == as_zz[2], (a, b)

    def test_a_monomial_and_its_partials(self):
        chart = Chart(tuple(f"x{i}" for i in range(100)))
        product = polyalg.parse_poly("*".join(chart.names), chart)
        assert nonreduced_factor(product) == Poly.constant(chart, 1)
        assert nonreduced_factor(product * Poly.variable(chart, 7) ** 3) == Poly.variable(chart, 7) ** 3
