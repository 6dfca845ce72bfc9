from __future__ import annotations

from fractions import Fraction

import pytest

from poissonkit import (
    ChartMismatchError,
    JacobiFailure,
    Poly,
    Polyvector,
    PoissonStructure,
    PreconditionError,
    apply_vector_field,
    bv,
    contract,
    diagonal_quadratic_poisson,
    dmodule_generators,
    hamiltonian,
    jacobian_poisson_3,
    jacobiator,
    lichnerowicz,
    lie_derivative,
    modular_field,
    new_poisson,
    pfaffian,
    pfaffian_bivector,
    poisson_bracket,
    schouten,
)
from conftest import (
    CHART2,
    CHART3,
    CHART4,
    random_cubic_structure,
    random_diagonal_structure,
    random_poly,
    random_polyvector,
    random_skew_matrix,
    random_surface_structure,
    so3_structure,
)
from oracles import diagonal_modular_coefficients

W = Poly.variable(CHART2, 0)
Z = Poly.variable(CHART2, 1)
X3, Y3, Z3 = (Poly.variable(CHART3, i) for i in range(3))


def surface(f: Poly):
    return new_poisson(Polyvector.term(CHART2, (0, 1), f))


class TestConstruction:
    def test_every_surface_bivector_is_accepted(self, rng):
        for _ in range(20):
            surface(random_poly(rng, CHART2))

    def test_so3_is_accepted(self):
        # Construction is the Jacobi check: a bivector that passes it is
        # wrapped unchanged, and one that fails it is refused.
        P = so3_structure()
        assert isinstance(P, PoissonStructure)
        assert jacobiator(P.pi).is_zero and new_poisson(P.pi) == P
        with pytest.raises(JacobiFailure):
            new_poisson(Polyvector(CHART3, 2, {(0, 1): Y3, (0, 2): X3}))

    def test_jacobi_failure_carries_the_trivector(self):
        bad = Polyvector(CHART3, 2, {(0, 1): Y3, (0, 2): X3})
        expected = Polyvector.term(CHART3, (0, 1, 2), 2 * Y3)
        assert jacobiator(bad) == expected
        with pytest.raises(JacobiFailure) as info:
            new_poisson(bad)
        assert info.value.trivector == expected

    def test_jacobiator_needs_a_bivector(self):
        with pytest.raises(PreconditionError):
            jacobiator(Polyvector.frame(CHART2, 0))


class TestHamiltonian:
    def test_surface_closed_forms(self, rng):
        for _ in range(10):
            f = random_poly(rng, CHART2)
            P = surface(f)
            assert hamiltonian(P, W) == Polyvector.term(CHART2, (1,), f)
            assert hamiltonian(P, Z) == Polyvector.term(CHART2, (0,), -f)

    def test_constants_are_casimirs(self, rng):
        P = random_surface_structure(rng)
        assert hamiltonian(P, Poly.constant(CHART2, 5)).is_zero

    def test_defining_property(self, rng):
        for P in (random_surface_structure(rng), so3_structure()):
            chart = P.chart
            for _ in range(15):
                f = random_poly(rng, chart)
                g = random_poly(rng, chart)
                assert apply_vector_field(hamiltonian(P, f), g) == poisson_bracket(P, f, g)

    def test_chart_mismatch(self, rng):
        with pytest.raises(ChartMismatchError):
            hamiltonian(random_surface_structure(rng), X3)


class TestLichnerowicz:
    def test_on_functions_is_minus_hamiltonian(self):
        P = surface(W * Z)
        assert lichnerowicz(P, Polyvector.function(W)) == -hamiltonian(P, W)
        assert lichnerowicz(P, Polyvector.function(W)) == Polyvector.term(
            CHART2, (1,), -W * Z
        )

    def test_pi_is_closed(self, rng):
        P = random_surface_structure(rng)
        assert lichnerowicz(P, P.pi).is_zero

    def test_transverse_coordinate_is_casimir(self):
        chart3 = CHART3
        pi = Polyvector.term(chart3, (0, 1), Poly.constant(chart3, 1))
        P = new_poisson(pi)
        t = Poly.variable(chart3, 2)
        assert lichnerowicz(P, Polyvector.function(t)).is_zero

    def test_squares_to_zero(self, rng):
        for P in (random_surface_structure(rng), random_cubic_structure(rng)):
            for _ in range(10):
                a = random_polyvector(rng, P.chart)
                assert lichnerowicz(P, lichnerowicz(P, a)).is_zero


class TestPfaffian:
    def test_surface(self, rng):
        f = random_poly(rng, CHART2, allow_zero=False)
        assert pfaffian(surface(f)) == f

    def test_four_chart_normalization(self):
        # This bivector is not Poisson (its jacobiator is -2 dx2^dx3^dx4),
        # so the normalization is pinned on the raw wedge power.
        x1 = Poly.variable(CHART4, 0)
        pi = Polyvector(CHART4, 2, {(0, 1): Poly.constant(CHART4, 1), (2, 3): x1})
        assert pfaffian_bivector(pi) == x1
        with pytest.raises(JacobiFailure):
            new_poisson(pi)

    def test_constant_symplectic(self):
        pi = Polyvector(
            CHART4, 2, {(0, 1): Poly.constant(CHART4, 1), (2, 3): Poly.constant(CHART4, 1)}
        )
        assert pfaffian(new_poisson(pi)) == Poly.constant(CHART4, 1)

    def test_odd_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            pfaffian(so3_structure())


class TestModularField:
    def test_surface_closed_form(self, rng):
        for _ in range(10):
            f = random_poly(rng, CHART2)
            expected = Polyvector(CHART2, 1, {(1,): f.diff(0), (0,): -f.diff(1)})
            assert modular_field(surface(f)) == expected

    def test_diagonal_quadratic_matches_hand_expansion(self, rng):
        for _ in range(10):
            lam = random_skew_matrix(rng, 4)
            P = diagonal_quadratic_poisson(lam, chart=CHART4)
            coefficients = diagonal_modular_coefficients(lam)
            expected = Polyvector(
                CHART4,
                1,
                {
                    (k,): Poly.variable(CHART4, k) * c
                    for k, c in enumerate(coefficients)
                    if c
                },
            )
            assert modular_field(P) == expected

    def test_constant_symplectic_is_unimodular(self):
        pi = Polyvector.term(CHART2, (0, 1), Poly.constant(CHART2, 1))
        assert modular_field(new_poisson(pi)).is_zero


class TestBuilders:
    def test_jacobian_of_xyz(self):
        P = jacobian_poisson_3(X3 * Y3 * Z3)
        assert P.pi == Polyvector(
            CHART3, 2, {(0, 1): X3 * Y3, (1, 2): Y3 * Z3, (0, 2): -X3 * Z3}
        )

    def test_jacobian_of_fermat_cubic(self):
        F = (X3**3 + Y3**3 + Z3**3) * Fraction(1, 3)
        P = jacobian_poisson_3(F)
        assert P.pi.terms[(0, 1)] == Z3**2
        assert P.pi.terms[(1, 2)] == X3**2
        assert P.pi.terms[(0, 2)] == -(Y3**2)

    def test_hesse_pencil_casimir(self):
        F = (X3**3 + Y3**3 + Z3**3) * Fraction(1, 3) + X3 * Y3 * Z3
        P = jacobian_poisson_3(F)
        assert lichnerowicz(P, Polyvector.function(F)).is_zero

    def test_jacobian_needs_three_variables(self):
        with pytest.raises(PreconditionError):
            jacobian_poisson_3(W)

    def test_diagonal_two_chart(self):
        P = diagonal_quadratic_poisson([[0, 1], [-1, 0]], chart=CHART2)
        assert P.pi == Polyvector.term(CHART2, (0, 1), W * Z)

    def test_diagonal_example_modular_and_pfaffian(self):
        lam = [[0, 1, 1, -2], [-1, 0, 1, 1], [-1, -1, 0, 1], [2, -1, -1, 0]]
        P = diagonal_quadratic_poisson(lam)
        chart = P.chart
        x = [Poly.variable(chart, i) for i in range(4)]
        assert modular_field(P) == Polyvector(chart, 1, {(1,): -x[1], (2,): x[2]})
        assert pfaffian(P) == Poly.monomial(chart, (1, 1, 1, 1), -2)

    def test_diagonal_rejects_non_skew(self):
        with pytest.raises(PreconditionError):
            diagonal_quadratic_poisson([[0, 1], [1, 0]])


class TestDModuleGenerators:
    def test_surface_generators(self, rng):
        f = random_poly(rng, CHART2, allow_zero=False)
        P = surface(f)
        first, second = dmodule_generators(P)
        assert first.source == W
        assert first.scalar_part == -f.diff(1)  # zeta(w)
        assert first.vector_part == Polyvector.term(CHART2, (1,), f)  # H_w
        assert second.scalar_part == f.diff(0)  # zeta(z)
        assert second.vector_part == Polyvector.term(CHART2, (0,), -f)  # H_z

    def test_symplectic_constant(self):
        P = new_poisson(Polyvector.term(CHART2, (0, 1), Poly.constant(CHART2, 1)))
        first, second = dmodule_generators(P)
        assert first.scalar_part.is_zero and first.vector_part == Polyvector.frame(CHART2, 1)
        assert second.scalar_part.is_zero and second.vector_part == -Polyvector.frame(CHART2, 0)

    def test_zero_bivector(self):
        P = new_poisson(Polyvector.zero(CHART2, 2))
        for generator in dmodule_generators(P):
            assert generator.scalar_part.is_zero and generator.vector_part.is_zero

    def test_invariants_hold(self, rng):
        P = random_cubic_structure(rng)
        zeta = modular_field(P)
        for generator in dmodule_generators(P):
            assert generator.vector_part == hamiltonian(P, generator.source)
            assert generator.scalar_part == apply_vector_field(zeta, generator.source)


def _identity_battery(rng, P, cases):
    """The Poisson identity suite on one structure."""
    chart = P.chart
    zeta = modular_field(P)
    assert lie_derivative(zeta, P.pi).is_zero
    for _ in range(cases):
        f = random_poly(rng, chart)
        a = random_polyvector(rng, chart)
        hf = hamiltonian(P, f)
        zeta_f = apply_vector_field(zeta, f)
        # zeta(f) = -bv(H_f)
        assert Polyvector.function(zeta_f) == -bv(hf)
        # L_{H_f} = d_pi i_df + i_df d_pi
        assert lie_derivative(hf, a) == lichnerowicz(P, contract(f, a)) + contract(
            f, lichnerowicz(P, a)
        )
        # bv d_pi + d_pi bv = L_zeta
        assert bv(lichnerowicz(P, a)) + lichnerowicz(P, bv(a)) == schouten(zeta, a)
        # [zeta, H_f] = H_{zeta(f)}
        assert schouten(zeta, hf) == hamiltonian(P, zeta_f)
        # d_pi^2 = 0
        assert lichnerowicz(P, lichnerowicz(P, a)).is_zero


class TestNamedFamilySuites:
    """Randomized invariants over the named structure families (>=100 each)."""

    def test_surface_family(self, rng):
        for _ in range(25):
            _identity_battery(rng, random_surface_structure(rng), cases=4)

    def test_so3_family(self, rng):
        _identity_battery(rng, so3_structure(), cases=100)

    def test_jacobian_family(self, rng):
        for _ in range(25):
            F = random_poly(rng, CHART3, max_degree=3, max_terms=4, allow_zero=False)
            P = jacobian_poisson_3(F)
            _identity_battery(rng, P, cases=4)
            assert lichnerowicz(P, Polyvector.function(F)).is_zero

    def test_diagonal_family(self, rng):
        for _ in range(25):
            _identity_battery(rng, random_diagonal_structure(rng), cases=4)
