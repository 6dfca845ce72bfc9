from __future__ import annotations

from fractions import Fraction

import pytest
import sympy

from poissonkit import (
    BudgetExceededError,
    Chart,
    INFINITE,
    Poly,
    PreconditionError,
    buchberger,
    ideal_dimension,
    normal_form,
    parse_poly,
    quotient_dimension,
    tjurina_at_point,
    tjurina_global,
)
from poissonkit.groebner import GroebnerBasis, division
from poissonkit.polyalg import grevlex_key
from conftest import CHART2, CHART3, CHART4, random_poly
from oracles import standard_monomial_count, tjurina_jet_oracle


def P(text, chart=CHART2):
    return parse_poly(text, chart)


def gens_of(G):
    return sorted(str(g) for g in G.gens)


class TestMonomialOrders:
    def test_one_is_minimal_and_multiplicative(self, rng):
        key = grevlex_key
        unit = (0, 0, 0)
        for _ in range(180):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            if a != unit:
                assert key(a) > key(unit)
            if key(a) > key(b):
                shifted_a = tuple(x + y for x, y in zip(a, c))
                shifted_b = tuple(x + y for x, y in zip(b, c))
                assert key(shifted_a) > key(shifted_b)


class TestBuchberger:
    def test_already_reduced(self):
        G = buchberger([P("w"), P("z")])
        assert gens_of(G) == ["w", "z"]

    def test_spoly_reduces_to_zero(self):
        G = buchberger([P("w*z"), P("z^2")])
        assert gens_of(G) == ["w*z", "z^2"]

    def test_cusp_jacobian_ideal(self):
        G = buchberger([P("w^2 - z^3"), P("2*w"), P("-3*z^2")])
        assert gens_of(G) == ["w", "z^2"]

    def test_generators_are_monic_and_reduced(self, rng):
        for _ in range(20):
            gens = [random_poly(rng, CHART3, max_terms=3) for _ in range(3)]
            if all(g.is_zero for g in gens):
                continue
            G = buchberger(gens)
            leads = [g.leading() for g in G.gens]
            for (exp, coeff), g in zip(leads, G.gens):
                assert coeff == 1
                for other_exp, _ in leads:
                    if other_exp == exp:
                        continue
                    for term in g.terms:
                        assert not all(a <= b for a, b in zip(other_exp, term))

    def test_spolys_reduce_to_zero(self, rng):
        for _ in range(10):
            gens = [random_poly(rng, CHART2, max_terms=3) for _ in range(2)]
            if all(g.is_zero for g in gens):
                continue
            G = buchberger(gens)
            basis = list(G.gens)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    ei, _ = basis[i].leading()
                    ej, _ = basis[j].leading()
                    lcm = tuple(max(a, b) for a, b in zip(ei, ej))
                    s = Poly.monomial(G.chart, tuple(a - b for a, b in zip(lcm, ei)), 1) * basis[
                        i
                    ] - Poly.monomial(G.chart, tuple(a - b for a, b in zip(lcm, ej)), 1) * basis[j]
                    assert normal_form(s, G).is_zero

    def test_idempotent_on_reduced_basis(self):
        G = buchberger([P("w^2 - z^3"), P("2*w"), P("-3*z^2")])
        again = buchberger(list(G.gens))
        assert again == G

    def test_deterministic(self, rng):
        gens = [P("w^2*z - 1"), P("w*z^2 - w")]
        assert buchberger(gens) == buchberger(gens)

    def test_budget_error(self):
        # This ideal needs more than one reduction step under the pair criteria.
        gens = [P("w^2*z - z^2 + 1"), P("w*z^2 - w - 1")]
        with pytest.raises(BudgetExceededError):
            buchberger(gens, budget=1)
        assert buchberger(gens, budget=10**6).gens

    def test_zero_ideal(self):
        G = buchberger([Poly.zero(CHART2)])
        assert G.gens == ()
        assert quotient_dimension(G) is INFINITE
        assert ideal_dimension(G) == 2


class TestNormalForm:
    def test_membership(self):
        G = buchberger([P("w"), P("z")])
        assert normal_form(P("w^2"), G).is_zero

    def test_constant_remainder(self):
        G = buchberger([P("w"), P("z")])
        assert normal_form(P("w + 1"), G) == Poly.constant(CHART2, 1)

    def test_cubic_in_cusp_ideal(self):
        G = buchberger([P("w"), P("z^2")])
        assert normal_form(P("z^3"), G).is_zero

    def test_division_trace_certifies_membership(self, rng):
        for _ in range(25):
            gens = [random_poly(rng, CHART2, max_terms=3, allow_zero=False) for _ in range(2)]
            G = buchberger(gens)
            basis = list(G.gens)
            # A random explicit combination must reduce to zero, and the
            # division trace must reconstruct the input exactly.
            combo = Poly.zero(CHART2)
            for g in basis:
                combo = combo + random_poly(rng, CHART2, max_degree=2) * g
            quotients, remainder = division(combo, basis)
            assert remainder.is_zero
            rebuilt = Poly.zero(CHART2)
            for q, g in zip(quotients, basis):
                rebuilt = rebuilt + q * g
            assert rebuilt == combo
            # And an arbitrary polynomial is its remainder plus the trace.
            p = random_poly(rng, CHART2, max_degree=3)
            quotients, remainder = division(p, basis)
            rebuilt = remainder
            for q, g in zip(quotients, basis):
                rebuilt = rebuilt + q * g
            assert rebuilt == p


class TestQuotientDimension:
    def test_point(self):
        assert quotient_dimension(buchberger([P("w"), P("z")])) == 1

    def test_fat_point(self):
        assert quotient_dimension(buchberger([P("w"), P("z^2")])) == 2

    def test_unbounded_staircase(self):
        assert quotient_dimension(buchberger([P("w")])) is INFINITE

    def test_unit_ideal(self):
        assert quotient_dimension(buchberger([P("2")])) == 0

    def test_agrees_with_box_walk_on_random_staircases(self, rng):
        for chart in (Chart(("x",)), CHART2, CHART3):
            n = chart.n
            for _ in range(40):
                leads = set()
                for i in range(n):
                    if rng.random() < 0.9:  # sometimes leave the staircase unbounded
                        leads.add(tuple(rng.randint(1, 6) if j == i else 0 for j in range(n)))
                for _ in range(rng.randint(0, 5)):
                    leads.add(tuple(rng.randint(0, 5) for _ in range(n)))
                G = GroebnerBasis(chart, tuple(Poly.monomial(chart, e) for e in sorted(leads)))
                expected = standard_monomial_count(sorted(leads), n)
                got = quotient_dimension(G)
                assert (got is INFINITE) if expected is None else (got == expected), sorted(leads)

    def test_order_independent_on_zero_dimensional_ideals(self, rng):
        # The quotient dimension does not depend on the monomial order: the
        # staircase of sympy's lex basis must count what our grevlex one does.
        symbols = sympy.symbols(CHART3.names)
        checked = 0
        while checked < 25:
            gens = [random_poly(rng, CHART3, max_terms=3) for _ in range(3)]
            if all(g.is_zero for g in gens):
                continue
            polys = [
                sympy.Poly.from_dict(
                    {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms.items()}, *symbols, domain="QQ"
                )
                for g in gens
                if not g.is_zero
            ]
            lex = sympy.groebner(polys, *symbols, order="lex")
            leads = [g.monoms(order="lex")[0] for g in lex.polys]
            expected = standard_monomial_count(leads, CHART3.n)
            got = quotient_dimension(buchberger(gens))
            assert (got is INFINITE) if expected is None else (got == expected), gens
            checked += 1


class TestIdealDimension:
    def test_point(self):
        assert ideal_dimension(buchberger([P("w"), P("z")])) == 0

    def test_empty_variety(self):
        assert ideal_dimension(buchberger([Poly.constant(CHART2, 1)])) == -1

    def test_coordinate_plane(self):
        gens = [Poly.variable(CHART4, 1), Poly.variable(CHART4, 2)]
        assert ideal_dimension(buchberger(gens)) == 2

    def test_hypersurface(self):
        assert ideal_dimension(buchberger([P("x*y - z^2", CHART3)])) == 2


class TestTjurina:
    def test_node(self):
        assert tjurina_global(P("w*z")) == 1

    def test_cusp(self):
        assert tjurina_global(P("w^2 - z^3")) == 2

    def test_three_concurrent_lines(self):
        assert tjurina_global(P("w^3 - z^3")) == 4

    def test_double_line_is_infinite(self):
        assert tjurina_global(P("w^2")) is INFINITE

    def test_rejects_constants(self):
        with pytest.raises(PreconditionError):
            tjurina_global(Poly.constant(CHART2, 3))

    def test_translated_point(self):
        f = P("(w - 1)*(z - 2)")
        assert tjurina_at_point(f, [1, 2]) == 1
        assert tjurina_at_point(f, [Fraction(1), Fraction(2)]) == tjurina_global(P("w*z"))

    def test_jet_oracle_examples(self):
        assert tjurina_jet_oracle(P("w*z")) == 1
        assert tjurina_jet_oracle(P("w^2 - z^3")) == 2
        assert tjurina_jet_oracle(P("w^3 - z^3"), jet_order=4) == 4

    def test_agrees_with_jet_oracle_on_random_curves(self, rng):
        checked = 0
        while checked < 20:
            f = random_poly(rng, CHART2, max_degree=4, max_terms=3, allow_zero=False)
            if f.is_constant:
                continue
            tau = tjurina_global(f)
            if tau is INFINITE:
                continue  # the jet oracle needs isolated singularities
            assert tau == tjurina_jet_oracle(f)
            checked += 1
