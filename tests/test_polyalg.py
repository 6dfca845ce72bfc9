from __future__ import annotations

import math
from fractions import Fraction

import pytest

from poissonkit import (
    BudgetExceededError,
    Chart,
    ChartMismatchError,
    ParseError,
    Poly,
    UnknownIdentifierError,
    buchberger,
    gcd_multi,
    parse_poly,
)
from poissonkit.groebner import division
from poissonkit.polyalg import (
    MAX_NESTING,
    MAX_TERMS,
    _PolyParser,
    _div,
    _exact,
    _over_z,
    _primitive_terms,
    _tokenize,
    grevlex_key,
    nonreduced_factor,
)
from conftest import CHART2, CHART3, CHART4, random_poly
from oracles import division_over_q, univariate_gcd_degree


def P(text, chart=CHART2):
    return parse_poly(text, chart)


class TestChart:
    def test_defaults_and_validation(self):
        chart = Chart(("w", "z"))
        assert chart.n == 2 and chart.weights == (1, 1)
        assert Chart(("a", "b"), (2, 3)).weighted_degree((1, 1)) == 5
        with pytest.raises(ValueError):
            Chart(("w", "w"))
        with pytest.raises(ValueError):
            Chart(("2bad",))
        with pytest.raises(ValueError):
            Chart(("w",), (0,))
        with pytest.raises(ValueError):
            Chart(())

    def test_bool_weights_are_rejected(self):
        # True == 1, but a weight prints and serialises as an integer only if it is an int.
        for weights in ((True, 2), (1, False)):
            with pytest.raises(ValueError, match="weights must be positive integers"):
                Chart(("x", "y"), weights)


class TestParser:
    def test_literal_terms(self):
        p = P("w^2*z - 3/2*z")
        assert p.terms == {(2, 1): Fraction(1), (0, 1): Fraction(-3, 2)}

    def test_binomial_square(self):
        assert P("(w+z)^2") == P("w^2 + 2*w*z + z^2")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError, match="'q'"):
            P("w + q")

    def test_unit_exponents_are_built_as_identifiers_are_read(self):
        chart = Chart(tuple(f"x{i}" for i in range(100)))
        parser = _PolyParser(_tokenize("x3*x97 + x3^2 - 2*x0"), chart)
        assert parser.units == {}
        p = parser.parse()
        assert sorted(parser.units) == ["x0", "x3", "x97"]
        assert p == Poly.variable(chart, 3) * Poly.variable(chart, 97) + Poly.variable(chart, 3) ** 2 - 2 * Poly.variable(chart, 0)
        for text, column in (("x5 + y", 6), ("x5*(x100 + 1)", 5), ("x99 - X1", 7)):
            with pytest.raises(UnknownIdentifierError) as info:
                parse_poly(text, chart)
            assert info.value.column == column

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as info:
            P("w + * z")
        assert info.value.column == 5

    def test_unary_minus(self):
        assert P("-w + z") == P("z") - P("w")
        assert P("w + -z") == P("w - z")
        assert P("-3/2") == Poly.constant(CHART2, Fraction(-3, 2))

    def test_stray_character(self):
        with pytest.raises(ParseError):
            P("w @ z")

    def test_nesting_limit(self):
        depth = MAX_NESTING
        assert P("(" * depth + "w" + ")" * depth) == P("w")
        with pytest.raises(ParseError) as info:
            P("(" * (depth + 1) + "w" + ")" * (depth + 1))
        assert info.value.column == depth + 1

    def test_expansion_cap(self):
        # (w+z+1)^k has C(k+2, 2) terms; a monomial power has one.
        k = max(k for k in range(200) if (k + 1) * (k + 2) // 2 <= MAX_TERMS)
        assert len(P(f"(w+z+1)^{k}").terms) == (k + 1) * (k + 2) // 2
        with pytest.raises(BudgetExceededError, match="expression parser: a power"):
            P(f"(w+z+1)^{k + 1}")
        assert P("w^100000000*z^3") == Poly.monomial(CHART2, (100000000, 3))
        assert P("(2*w*z)^1000") == Poly.monomial(CHART2, (1000, 1000), 2**1000)
        assert P("(w+z)^0") == P("1")
        wide = "(" + " + ".join(f"w^{i}" for i in range(MAX_TERMS // 10 + 1)) + ")"
        with pytest.raises(BudgetExceededError, match="expression parser: a product"):
            P(wide + "*(z + z^2 + z^3 + z^4 + z^5 + z^6 + z^7 + z^8 + z^9 + z^10)")

    def test_roundtrip_on_random_normal_forms(self, rng):
        for chart in (CHART2, CHART3, CHART4, Chart(("a", "b_1"), (2, 5))):
            for _ in range(50):
                p = random_poly(rng, chart, max_degree=4, max_terms=4)
                assert parse_poly(str(p), chart) == p


class TestConstruction:
    def test_exponent_type_is_checked_before_its_sign(self):
        for bad in ({("a", 0): 1}, {(1.0, 0): 1}, {(-1, 0): 1}, {(1,): 1}, {(True, 0): 3}, {(0, False): 1}):
            with pytest.raises(ValueError, match="bad exponent vector"):
                Poly(CHART2, bad)

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError, match="exact rational"):
            Poly(CHART2, {(1, 0): 0.5})
        with pytest.raises(TypeError, match="exact rational"):
            Poly.constant(CHART2, 1.0)
        with pytest.raises(TypeError):
            P("w") * 0.5

    def test_integral_coefficients_are_ints(self):
        p = Poly(CHART2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): True})
        assert [type(p.terms[e]) for e in ((1, 0), (0, 1), (0, 0))] == [int, Fraction, int]
        assert p == P("2*w + 1/2*z + 1")
        assert type((p * Fraction(2)).terms[(0, 1)]) is int
        assert [type(_div(*ab)) for ab in ((4, 2), (1, 2), (Fraction(1, 2), Fraction(1, 4)))] == [int, Fraction, int]

    def test_copies_and_pickles_rebuild_without_the_kept_slots(self, rng, round_trip):
        for chart in (CHART2, CHART3):
            for _ in range(20):
                p = random_poly(rng, chart, max_terms=4)
                text, lead = str(p), p.leading() if p.terms else None
                q = round_trip(p)
                assert getattr(q, "_text", None) is None and getattr(q, "_lead", None) is None
                assert q == p and hash(q) == hash(p) and str(q) == text
                assert q.leading() == lead if lead else q.is_zero


def assert_exact(p: Poly, normalised: bool):
    """No coefficient is a float; with ``normalised``, integral ones are ints."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and (c.denominator != 1 or not normalised)), (p, c)


class TestKernelCoefficients:
    def test_no_float_and_ints_where_integral(self, rng):
        for chart in (CHART2, CHART3):
            for _ in range(40):
                p = random_poly(rng, chart, max_degree=3, max_terms=3, allow_zero=False)
                q = random_poly(rng, chart, max_degree=2, max_terms=3, allow_zero=False)
                assert_exact(p, normalised=True)
                (quotient,), remainder = division(p * q, [q])
                assert remainder.is_zero and quotient == p
                assert_exact(quotient, normalised=True)
                assert_exact(gcd_multi([p * q, q * q]), normalised=True)
                for g in buchberger([p, q], budget=10**5).gens:
                    assert_exact(g, normalised=False)

    def test_arithmetic_keeps_integral_coefficients_ints(self, rng):
        # Half-integer draws make integral Fractions in sums, products,
        # powers, derivatives and translations; each result holds them as ints.
        for chart in (CHART2, CHART3):
            for _ in range(40):
                p = random_poly(rng, chart, max_degree=3, max_terms=3)
                q = random_poly(rng, chart, max_degree=2, max_terms=3)
                moved = p.shift([rng.choice((-2, 1, Fraction(1, 2))) for _ in range(chart.n)])
                for r in (p + q, p - q, p * q, q * p, p**2, p**3, p**0, moved, *(p.diff(i) for i in range(chart.n))):
                    assert_exact(r, normalised=True)

    @pytest.mark.parametrize("text", ["10*1/2", "1/2*w + 1/2*w", "(1/2*w)^0", "2*(1/2*w + 1/2*z)", "1/2*w*2"])
    def test_parser_keeps_integral_coefficients_ints(self, text):
        assert_exact(P(text), normalised=True)

    def test_derivative_keeps_integral_coefficients_ints(self):
        d = P("1/2*w^2 + 1/3*z^3").diff(0)
        assert d == P("w") and type(d.terms[(1, 0)]) is int


def divides(d, e) -> bool:
    return all(a <= b for a, b in zip(d, e))


class TestDivision:
    def test_certificate_on_random_divisors(self, rng):
        for chart in (CHART2, CHART3):
            for _ in range(30):
                p = random_poly(rng, chart, max_degree=4, max_terms=5)
                divisors = [
                    random_poly(rng, chart, max_degree=2, max_terms=3, allow_zero=False)
                    for _ in range(rng.randint(1, 3))
                ]
                quotients, r = division(p, divisors, 10**4)
                assert p == sum((q * d for q, d in zip(quotients, divisors)), r)
                assert all(c for t in (r, *quotients) for c in t.terms.values())
                leads = [d.leading()[0] for d in divisors]
                assert not any(divides(lead, e) for e in r.terms for lead in leads)

    def test_fraction_free_division_returns_the_rationals_of_division_over_q(self, rng):
        # The first case cancels w*z^2 at the step on w^3 and re-creates it at
        # the step on w^2*z, so a stale heap entry for it surfaces after the
        # live one; the remainder is z^3.
        cases = [(P("w^3 + w^2*z - 3/2*w*z^2"), [P("w*z - z^2"), P("2*w^2 - 3*z^2")])]
        for chart in (CHART2, CHART3):
            for _ in range(30):
                # Products carry integral Fractions; the divisors mix ints and Fractions.
                p = random_poly(rng, chart, max_degree=3, max_terms=4) * random_poly(rng, chart, max_terms=3)
                divisors = [
                    random_poly(rng, chart, max_degree=2, max_terms=3, allow_zero=False)
                    for _ in range(rng.randint(1, 3))
                ]
                cases.append((p, divisors))
        for p, divisors in cases:
            quotients, r = division(p, divisors)
            expected_quotients, expected_r = division_over_q(p, divisors, grevlex_key)
            assert [q.terms for q in quotients] == expected_quotients
            assert r.terms == expected_r
            for c in (*r.terms.values(), *(c for q in quotients for c in q.terms.values())):
                assert type(c) is int or c.denominator > 1
        assert cases[0][0] == P("(w + z)*(w*z - z^2) + 1/2*w*(2*w^2 - 3*z^2) + z^3")
        assert division(*cases[0])[1] == P("z^3")


class TestArithmetic:
    def test_additive_inverse(self):
        assert (P("w") + P("-w")).is_zero

    def test_difference_of_squares(self):
        assert P("w+z") * P("w-z") == P("w^2 - z^2")

    def test_empty_product(self):
        assert P("w+1") ** 0 == Poly.constant(CHART2, 1)

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatchError):
            P("w") + parse_poly("x", CHART3)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            P("w") ** -1

    def test_ring_axioms_on_random_triples(self, rng):
        cases = 0
        for chart in (CHART2, CHART3, CHART4):
            for _ in range(70):
                a = random_poly(rng, chart, max_degree=4)
                b = random_poly(rng, chart, max_degree=4)
                c = random_poly(rng, chart, max_degree=4)
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                cases += 1
        assert cases >= 200

    def test_weighted_degree_uses_chart_weights(self):
        chart = Chart(("w", "z"), (2, 3))
        assert chart.weighted_degree((1, 1)) == 5
        assert chart.weighted_degree((2, 0)) == 4


class TestDiff:
    def test_power_rule(self):
        assert P("w^2*z").diff(0) == P("2*w*z")

    def test_constant(self):
        assert P("5").diff(1).is_zero

    def test_power_rule_other_variable(self):
        assert P("w^2 - z^3").diff(1) == P("-3*z^2")

    def test_by_name(self):
        assert P("w^2").diff("w") == P("2*w")

    def test_product_rule_on_random_pairs(self, rng):
        cases = 0
        for chart in (CHART2, CHART3):
            for _ in range(100):
                a = random_poly(rng, chart)
                b = random_poly(rng, chart)
                for i in range(chart.n):
                    assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)
                cases += 1
        assert cases >= 200


def random_rationals(rng, keys):
    """Seeded rationals over ``keys``: ints, zeros, and fractions of denominators up to 12."""
    out = {}
    for key in keys:
        kind = rng.random()
        if kind < 0.2:
            out[key] = 0
        elif kind < 0.5:
            out[key] = rng.randint(-20, 20)
        else:
            out[key] = _exact(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    return out


class TestIntegerScaling:
    """``_over_z`` and ``_primitive_terms`` against the formulas they replaced."""

    def test_over_z_against_the_lcm_formula(self, rng):
        assert _over_z({}) == (1, {})
        for _ in range(500):
            keys = rng.choice([range(rng.randint(0, 6)), [(i, 1 - i, (i, 2)) for i in range(rng.randint(0, 6))]])
            terms = random_rationals(rng, keys)
            s, scaled = _over_z(terms)
            lcm = math.lcm(*(c.denominator for c in terms.values()))
            assert (s, scaled) == (lcm, {k: c.numerator * (lcm // c.denominator) for k, c in terms.items()})
            assert list(scaled) == list(terms)
            assert all(type(c) is int and c == s * terms[k] for k, c in scaled.items())
            # s is the least such scale: no prime of s divides every scaled value.
            assert math.gcd(s, *scaled.values()) == 1

    def test_primitive_terms_against_the_gcd_formula(self, rng):
        assert _primitive_terms({}) == {}
        for _ in range(500):
            terms = random_rationals(rng, [(i, rng.randint(0, 3)) for i in range(rng.randint(1, 6))])
            if not any(terms.values()):
                terms[(9, 9)] = rng.choice((-3, Fraction(5, 7)))
            denominators = math.lcm(*(c.denominator for c in terms.values()))
            numerators = math.gcd(*(c.numerator for c in terms.values()))
            expected = {e: c.numerator * (denominators // c.denominator) // numerators for e, c in terms.items()}
            primitive = _primitive_terms(terms)
            assert primitive == expected
            assert all(type(c) is int for c in primitive.values())
            if denominators == numerators == 1:
                assert primitive is terms


class TestGcd:
    def test_monomials(self):
        assert gcd_multi([P("w^2*z"), P("w*z^2")]) == P("w*z")

    def test_factorization(self):
        assert gcd_multi([P("w^2 - z^2"), P("w - z")]) == P("w - z")

    def test_coprime(self):
        assert gcd_multi([P("w"), P("z")]) == Poly.constant(CHART2, 1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd_multi([Poly.zero(CHART2), Poly.zero(CHART2)])

    def test_zero_entries_ignored(self):
        assert gcd_multi([Poly.zero(CHART2), P("2*w")]) == P("w")

    def test_output_is_monic(self):
        g = gcd_multi([P("4*w^2 + 4*w"), P("6*w")])
        assert g == P("w")

    def test_gcd_divides_inputs_under_division(self, rng):
        for chart in (CHART2, CHART3):
            for _ in range(25):
                common = random_poly(rng, chart, max_degree=2, allow_zero=False)
                a = common * random_poly(rng, chart, max_degree=2, allow_zero=False)
                b = common * random_poly(rng, chart, max_degree=2, allow_zero=False)
                g = gcd_multi([a, b])
                for p in (a, b):
                    if p.is_zero:
                        continue
                    _, remainder = division(p, [g])
                    assert remainder.is_zero


class TestSquarefree:
    def test_node_is_reduced(self):
        assert nonreduced_factor(P("w*z")).is_constant

    def test_double_line_is_not(self):
        assert not nonreduced_factor(P("w^2")).is_constant

    def test_cuspidal_cubic_is_squarefree(self):
        assert nonreduced_factor(P("w^2 - z^3")).is_constant

    def test_squares_detected_on_random_products(self, rng):
        for _ in range(40):
            p = random_poly(rng, CHART2, max_degree=2, allow_zero=False)
            q = random_poly(rng, CHART2, max_degree=2, allow_zero=False)
            if p.is_constant or q.is_constant:
                continue
            assert not nonreduced_factor(p * p * q).is_constant

    def test_agrees_with_univariate_euclid_oracle(self, rng):
        chart = Chart(("t",))
        for _ in range(60):
            f = random_poly(rng, chart, max_degree=5, max_terms=4)
            if f.is_zero or f.is_constant:
                continue
            oracle = univariate_gcd_degree(f, f.diff(0), 0) == 0
            assert nonreduced_factor(f).is_constant == oracle
