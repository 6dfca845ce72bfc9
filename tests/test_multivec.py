from __future__ import annotations

import itertools

import pytest

from poissonkit import (
    ChartMismatchError,
    ParseError,
    Poly,
    Polyvector,
    apply_vector_field,
    bv,
    contract,
    covolume,
    jacobiator,
    lie_derivative,
    parse_poly,
    parse_polyvector,
    schouten,
    wedge,
)
from conftest import CHART2, CHART3, CHART4, random_poly, random_polyvector

W = Poly.variable(CHART2, 0)
Z = Poly.variable(CHART2, 1)
DW = Polyvector.frame(CHART2, 0)
DZ = Polyvector.frame(CHART2, 1)


class TestWedge:
    def test_frame_product_is_covolume(self):
        assert wedge(DW, DZ) == covolume(CHART2)

    def test_alternation(self):
        assert wedge(DW, DW).is_zero

    def test_bilinearity(self):
        assert wedge(W * DW, Z * DZ) == Polyvector.term(CHART2, (0, 1), W * Z)

    def test_degree_overflow_clamps_without_raising(self):
        pi = Polyvector.term(CHART2, (0, 1), W)
        result = wedge(pi, DW)
        assert result.is_zero and result.k == CHART2.n
        assert result.k < pi.k + DW.k  # the clamp is visible

    def test_graded_commutativity(self, rng):
        for chart in (CHART3, CHART4):
            for _ in range(40):
                a = random_polyvector(rng, chart)
                b = random_polyvector(rng, chart)
                sign = -1 if (a.k * b.k) % 2 else 1
                assert wedge(a, b) == sign * wedge(b, a)

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatchError):
            wedge(DW, Polyvector.frame(CHART3, 0))


class TestSchouten:
    def test_constant_frame_commutes(self):
        assert schouten(DW, DZ).is_zero

    def test_surface_bivectors_always_integrable(self, rng):
        for _ in range(30):
            f = random_poly(rng, CHART2)
            pi = Polyvector.term(CHART2, (0, 1), f)
            assert schouten(pi, pi).is_zero

    def test_so3_is_integrable(self):
        x, y, z = (Poly.variable(CHART3, i) for i in range(3))
        pi = Polyvector(CHART3, 2, {(1, 2): x, (0, 2): -y, (0, 1): z})
        assert schouten(pi, pi).is_zero

    def test_vector_field_acts_on_functions(self):
        assert schouten(W * DZ, Polyvector.function(Z)) == Polyvector.function(W)

    def test_restricts_to_lie_bracket(self):
        xi = W * DZ
        eta = DW
        assert schouten(xi, eta) == -DZ


class TestBracketOracle:
    """The bracket against closed forms written out in components."""

    def test_vector_fields_bracket_is_the_commutator(self, rng):
        # [X, Y]^j = X(Y^j) - Y(X^j), with X(g) = sum_i X^i dg/dx_i.
        for chart in (CHART2, CHART3, CHART4):
            zero = Poly.zero(chart)

            def component(xi, j):
                return xi.terms.get((j,), zero)

            def act(xi, g):
                return sum((component(xi, i) * g.diff(i) for i in range(chart.n)), zero)

            for _ in range(30):
                x = random_polyvector(rng, chart, k=1, max_terms=3)
                y = random_polyvector(rng, chart, k=1, max_terms=3)
                bracket = schouten(x, y)
                assert bracket.k == 1
                for j in range(chart.n):
                    expected = act(x, component(y, j)) - act(y, component(x, j))
                    assert component(bracket, j) == expected

    def test_jacobiator_components(self, rng):
        # [pi, pi]^{ijk} = 2 sum_l (pi_il d_l pi_jk + pi_jl d_l pi_ki + pi_kl d_l pi_ij)
        # for i < j < k, with pi_ji = -pi_ij.
        non_poisson = 0
        for chart in (CHART3, CHART4):
            zero = Poly.zero(chart)
            for _ in range(25):
                pi = random_polyvector(rng, chart, k=2, max_terms=3)

                def entry(i, j):
                    if i <= j:
                        return pi.terms.get((i, j), zero)
                    return -pi.terms.get((j, i), zero)

                def cyclic_term(i, j, k):
                    return sum((entry(i, l) * entry(j, k).diff(l) for l in range(chart.n)), zero)

                obstruction = jacobiator(pi)
                assert obstruction.k == 3
                non_poisson += not obstruction.is_zero
                for i, j, k in itertools.combinations(range(chart.n), 3):
                    expected = 2 * (cyclic_term(i, j, k) + cyclic_term(j, k, i) + cyclic_term(k, i, j))
                    assert obstruction.terms.get((i, j, k), zero) == expected
        assert non_poisson > 0  # the draws include bivectors that are not Poisson


class TestContract:
    def test_coordinate_contraction(self):
        assert contract(W, wedge(DW, DZ)) == DZ

    def test_annihilates_complementary_frame(self):
        assert contract(Z, DW).is_zero

    def test_exact_form_against_covolume(self):
        assert contract(W, covolume(CHART2)) == DZ

    def test_contracting_a_function_gives_zero(self):
        assert contract(W, Polyvector.function(Z)).is_zero

    def test_vector_field_pairing(self, rng):
        for chart in (CHART2, CHART3):
            for _ in range(25):
                xi = random_polyvector(rng, chart, k=1)
                f = random_poly(rng, chart)
                assert contract(f, xi) == Polyvector.function(
                    apply_vector_field(xi, f)
                )

    def test_graded_derivation_of_wedge(self, rng):
        for chart in (CHART2, CHART3, CHART4):
            for _ in range(40):
                b = random_polyvector(rng, chart)
                c = random_polyvector(rng, chart)
                if b.k + c.k > chart.n:
                    continue
                f = random_poly(rng, chart)
                sign = -1 if b.k % 2 else 1
                assert contract(f, wedge(b, c)) == wedge(contract(f, b), c) + sign * wedge(
                    b, contract(f, c)
                )


class TestLieDerivative:
    def test_translation_of_coefficient(self):
        assert lie_derivative(DW, W * DZ) == DZ

    def test_euler_field_scales_covolume(self):
        assert lie_derivative(W * DW, wedge(DW, DZ)) == -wedge(DW, DZ)

    def test_acts_as_directional_derivative_on_functions(self):
        assert lie_derivative(W * DZ, Polyvector.function(Z)) == Polyvector.function(W)

    def test_requires_degree_one(self):
        with pytest.raises(ValueError):
            lie_derivative(covolume(CHART2), DW)


class TestBV:
    def test_divergence_of_euler_component(self):
        assert bv(W * DW) == Polyvector.function(Poly.constant(CHART2, 1))

    def test_surface_closed_form(self, rng):
        for _ in range(25):
            f = random_poly(rng, CHART2)
            expected = Polyvector(CHART2, 1, {(1,): f.diff(0), (0,): -f.diff(1)})
            assert bv(Polyvector.term(CHART2, (0, 1), f)) == expected

    def test_squares_to_zero(self, rng):
        for chart in (CHART2, CHART3, CHART4):
            for _ in range(40):
                a = random_polyvector(rng, chart)
                assert bv(bv(a)).is_zero

    def test_divergence_identity_against_covolume(self, rng):
        for chart in (CHART2, CHART3):
            mu = covolume(chart)
            for _ in range(25):
                xi = random_polyvector(rng, chart, k=1)
                divergence = bv(xi).terms.get((), Poly.zero(chart))
                assert lie_derivative(xi, mu) == -divergence * mu


class TestGradedIdentities:
    """Smaller-N spot checks; the full battery lives in test_acceptance."""

    def test_graded_antisymmetry(self, rng):
        for chart in (CHART2, CHART3, CHART4):
            for _ in range(40):
                a = random_polyvector(rng, chart)
                b = random_polyvector(rng, chart)
                sign = -1 if ((a.k - 1) * (b.k - 1)) % 2 else 1
                assert schouten(a, b) == -sign * schouten(b, a)

    def test_graded_leibniz(self, rng):
        for chart in (CHART3, CHART4):
            for _ in range(40):
                a = random_polyvector(rng, chart)
                b = random_polyvector(rng, chart)
                c = random_polyvector(rng, chart)
                if b.k + c.k > chart.n:
                    continue
                sign = -1 if ((a.k - 1) * b.k) % 2 else 1
                assert schouten(a, wedge(b, c)) == wedge(schouten(a, b), c) + sign * wedge(
                    b, schouten(a, c)
                )

    def test_graded_jacobi(self, rng):
        for chart in (CHART3, CHART4):
            for _ in range(30):
                a = random_polyvector(rng, chart, max_terms=1)
                b = random_polyvector(rng, chart, max_terms=1)
                c = random_polyvector(rng, chart, max_terms=1)
                sign = -1 if ((a.k - 1) * (b.k - 1)) % 2 else 1
                lhs = schouten(a, schouten(b, c))
                rhs = schouten(schouten(a, b), c) + sign * schouten(b, schouten(a, c))
                assert lhs == rhs

    def test_bv_derivation_of_bracket(self, rng):
        for chart in (CHART2, CHART3, CHART4):
            for _ in range(40):
                a = random_polyvector(rng, chart)
                b = random_polyvector(rng, chart)
                sign = -1 if a.k % 2 == 0 else 1
                assert bv(schouten(a, b)) == schouten(bv(a), b) + sign * schouten(a, bv(b))


class TestPolyvectorText:
    def test_example_syntax(self):
        pv = parse_polyvector("(w^2 + z) dw^dz", CHART2)
        assert pv == Polyvector.term(CHART2, (0, 1), parse_poly("w^2 + z", CHART2))

    def test_frame_reordering_tracks_sign(self):
        assert parse_polyvector("dz^dw", CHART2) == -wedge(DW, DZ)

    def test_degree_zero(self):
        assert parse_polyvector("w*z - 1", CHART2) == Polyvector.function(
            parse_poly("w*z - 1", CHART2)
        )

    def test_mixed_degree_rejected(self):
        with pytest.raises(ParseError):
            parse_polyvector("w dw + z", CHART2)

    def test_repeated_frame_rejected(self):
        with pytest.raises(ParseError):
            parse_polyvector("dw^dw", CHART2)

    def test_bad_character_column_is_its_own(self):
        with pytest.raises(ParseError) as info:
            parse_polyvector("w dw   $", CHART2)
        assert info.value.column == 8

    def test_roundtrip(self, rng):
        for chart in (CHART2, CHART3, CHART4):
            for _ in range(40):
                a = random_polyvector(rng, chart)
                assert parse_polyvector(str(a), chart) == a

    def test_degree_zero_invariant(self):
        empty = Polyvector.function(Poly.zero(CHART2))
        assert empty.terms == {} and empty.k == 0
        nonzero = Polyvector.function(W)
        assert list(nonzero.terms) == [()]
