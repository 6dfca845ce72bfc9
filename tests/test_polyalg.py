from __future__ import annotations

from fractions import Fraction

import pytest

from poissonkit import (
    MINUS_INFINITY,
    BudgetExceededError,
    Chart,
    ChartMismatchError,
    ParseError,
    Poly,
    PreconditionError,
    UnknownIdentifierError,
    buchberger,
    gcd_multi,
    is_squarefree,
    parse_poly,
)
from poissonkit.groebner import _divides, _StepCounter, division
from poissonkit.polyalg import MAX_NESTING, MAX_TERMS, _div, exact_divide, grevlex_key
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


class TestParser:
    def test_literal_terms(self):
        p = P("w^2*z - 3/2*z")
        assert p.terms == {(2, 1): Fraction(1), (0, 1): Fraction(-3, 2)}

    def test_binomial_square(self):
        assert P("(w+z)^2") == P("w^2 + 2*w*z + z^2")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError, match="'q'"):
            P("w + q")

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
        for bad in ({("a", 0): 1}, {(1.0, 0): 1}, {(-1, 0): 1}, {(1,): 1}):
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
                assert_exact(exact_divide(p * q, q), normalised=True)
                assert_exact(gcd_multi([p * q, q * q]), normalised=True)
                for g in buchberger([p, q], budget=10**5).gens:
                    assert_exact(g, normalised=False)


class TestDivision:
    def test_certificate_on_random_divisors(self, rng):
        for chart in (CHART2, CHART3):
            for _ in range(30):
                p = random_poly(rng, chart, max_degree=4, max_terms=5)
                divisors = [
                    random_poly(rng, chart, max_degree=2, max_terms=3, allow_zero=False)
                    for _ in range(rng.randint(1, 3))
                ]
                quotients, r = division(p, divisors, _StepCounter(10**4))
                assert p == sum((q * d for q, d in zip(quotients, divisors)), r)
                assert all(c for t in (r, *quotients) for c in t.terms.values())
                leads = [d.leading()[0] for d in divisors]
                assert not any(_divides(lead, e) for e in r.terms for lead in leads)

    def test_fraction_free_division_returns_the_rationals_of_division_over_q(self, rng):
        for chart in (CHART2, CHART3):
            for _ in range(30):
                # Products carry integral Fractions; the divisors mix ints and Fractions.
                p = random_poly(rng, chart, max_degree=3, max_terms=4) * random_poly(rng, chart, max_terms=3)
                divisors = [
                    random_poly(rng, chart, max_degree=2, max_terms=3, allow_zero=False)
                    for _ in range(rng.randint(1, 3))
                ]
                quotients, r = division(p, divisors)
                expected_quotients, expected_r = division_over_q(p, divisors, grevlex_key)
                assert [q.terms for q in quotients] == expected_quotients
                assert r.terms == expected_r
                for c in (*r.terms.values(), *(c for q in quotients for c in q.terms.values())):
                    assert type(c) is int or c.denominator > 1


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

    def test_degree_of_zero_is_minus_infinity(self):
        zero = Poly.zero(CHART2)
        assert zero.weighted_degree() is MINUS_INFINITY
        assert MINUS_INFINITY < 0 and MINUS_INFINITY < -10**9
        assert not MINUS_INFINITY > 0
        assert P("w*z^2").weighted_degree() == 3

    def test_weighted_degree_uses_chart_weights(self):
        chart = Chart(("w", "z"), (2, 3))
        assert parse_poly("w*z", chart).weighted_degree() == 5


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
        assert is_squarefree(P("w*z"))

    def test_double_line_is_not(self):
        assert not is_squarefree(P("w^2"))

    def test_cuspidal_cubic_is_squarefree(self):
        assert is_squarefree(P("w^2 - z^3"))

    def test_rejects_constants(self):
        with pytest.raises(PreconditionError):
            is_squarefree(Poly.zero(CHART2))
        with pytest.raises(PreconditionError):
            is_squarefree(P("7"))

    def test_squares_detected_on_random_products(self, rng):
        for _ in range(40):
            p = random_poly(rng, CHART2, max_degree=2, allow_zero=False)
            q = random_poly(rng, CHART2, max_degree=2, allow_zero=False)
            if p.is_constant or q.is_constant:
                continue
            assert not is_squarefree(p * p * q)

    def test_agrees_with_univariate_euclid_oracle(self, rng):
        chart = Chart(("t",))
        for _ in range(60):
            f = random_poly(rng, chart, max_degree=5, max_terms=4)
            if f.is_zero or f.is_constant:
                continue
            oracle = univariate_gcd_degree(f, f.diff(0), 0) == 0
            assert is_squarefree(f) == oracle
