from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from poissonkit import (
    Chart,
    ChartMismatchError,
    JacobiFailure,
    ParseError,
    PoissonStructure,
    Poly,
    Polyvector,
    PreconditionError,
    apply_vector_field,
    bv,
    contract,
    covolume,
    diagonal_quadratic_bivector,
    dmodule_generators,
    hamiltonian,
    jacobiator,
    lie_derivative,
    modular_field,
    new_poisson,
    parse_poly,
    parse_structure_file,
    pfaffian,
    poisson_bracket,
    schouten,
    wedge,
)
from conftest import (
    CHART2,
    CHART3,
    CHART4,
    FIXTURES,
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
        assert schouten(P.pi, Polyvector.function(W)) == -hamiltonian(P, W)
        assert schouten(P.pi, Polyvector.function(W)) == Polyvector.term(
            CHART2, (1,), -W * Z
        )

    def test_pi_is_closed(self, rng):
        P = random_surface_structure(rng)
        assert schouten(P.pi, P.pi).is_zero

    def test_transverse_coordinate_is_casimir(self):
        chart3 = CHART3
        pi = Polyvector.term(chart3, (0, 1), Poly.constant(chart3, 1))
        P = new_poisson(pi)
        t = Poly.variable(chart3, 2)
        assert schouten(P.pi, Polyvector.function(t)).is_zero

    def test_squares_to_zero(self, rng):
        for P in (random_surface_structure(rng), random_cubic_structure(rng)):
            for _ in range(10):
                a = random_polyvector(rng, P.chart)
                assert schouten(P.pi, schouten(P.pi, a)).is_zero


class TestPfaffian:
    def test_surface(self, rng):
        f = random_poly(rng, CHART2, allow_zero=False)
        assert pfaffian(surface(f)) == f

    def test_four_chart_normalization(self, rng):
        # A constant bivector is Poisson, and its Pfaffian has the closed form
        # pi_01 pi_23 - pi_02 pi_13 + pi_03 pi_12.
        for _ in range(20):
            c = {pair: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for pair in itertools.combinations(range(4), 2)}
            pi = Polyvector(CHART4, 2, {pair: Poly.constant(CHART4, v) for pair, v in c.items() if v})
            expected = c[(0, 1)] * c[(2, 3)] - c[(0, 2)] * c[(1, 3)] + c[(0, 3)] * c[(1, 2)]
            assert pfaffian(new_poisson(pi)) == Poly.constant(CHART4, expected)

    def test_constant_symplectic(self):
        pi = Polyvector(
            CHART4, 2, {(0, 1): Poly.constant(CHART4, 1), (2, 3): Poly.constant(CHART4, 1)}
        )
        assert pfaffian(new_poisson(pi)) == Poly.constant(CHART4, 1)

    def test_odd_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            pfaffian(so3_structure())

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_skew_charts_against_determinant_and_wedge_powers(self, rng, n):
        # Pf^2 is the determinant of the skew matrix (pi_ij), taken by sympy
        # over Q[x], and Pf is the covolume coefficient of pi^(n/2) / (n/2)!.
        # Neither needs Jacobi, so pi is wrapped without the check.
        chart = Chart(tuple(f"x{i}" for i in range(n)))
        ring = sympy.QQ[sympy.symbols(chart.names)]

        def to_ring(p: Poly):
            return ring.ring.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms.items()})

        for _ in range(12):
            pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.8]
            pi = Polyvector(chart, 2, {pair: random_poly(rng, chart, max_degree=2) for pair in pairs})
            f = pfaffian(PoissonStructure(chart, pi))
            assert all(type(c) is int or c.denominator > 1 for c in f.terms.values())
            power = Polyvector.function(Poly.constant(chart, 1))
            for _ in range(n // 2):
                power = wedge(power, pi)
            top = power.terms.get(tuple(range(n)), Poly.zero(chart))
            assert f == top * Fraction(1, math.factorial(n // 2)), str(pi)
            rows = [[ring.zero] * n for _ in range(n)]
            for (i, j), c in pi.terms.items():
                rows[i][j], rows[j][i] = to_ring(c), -to_ring(c)
            assert DomainMatrix(rows, (n, n), ring).det() == to_ring(f) ** 2, str(pi)


class TestModularField:
    def test_surface_closed_form(self, rng):
        for _ in range(10):
            f = random_poly(rng, CHART2)
            expected = Polyvector(CHART2, 1, {(1,): f.diff(0), (0,): -f.diff(1)})
            assert modular_field(surface(f)) == expected

    def test_diagonal_quadratic_matches_hand_expansion(self, rng):
        for _ in range(10):
            lam = random_skew_matrix(rng, 4)
            P = new_poisson(diagonal_quadratic_bivector(lam, chart=CHART4))
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
        P = new_poisson(contract(X3 * Y3 * Z3, covolume(CHART3)))
        assert P.pi == Polyvector(
            CHART3, 2, {(0, 1): X3 * Y3, (1, 2): Y3 * Z3, (0, 2): -X3 * Z3}
        )

    def test_jacobian_of_fermat_cubic(self):
        F = (X3**3 + Y3**3 + Z3**3) * Fraction(1, 3)
        P = new_poisson(contract(F, covolume(CHART3)))
        assert P.pi.terms[(0, 1)] == Z3**2
        assert P.pi.terms[(1, 2)] == X3**2
        assert P.pi.terms[(0, 2)] == -(Y3**2)

    def test_hesse_pencil_casimir(self):
        F = (X3**3 + Y3**3 + Z3**3) * Fraction(1, 3) + X3 * Y3 * Z3
        P = new_poisson(contract(F, covolume(CHART3)))
        assert schouten(P.pi, Polyvector.function(F)).is_zero

    def test_jacobian_matches_the_hand_written_brackets(self, rng):
        # The jacobian3 rule is contract(F, covolume); the brackets written
        # out are {x,y} = F_z, {y,z} = F_x, {x,z} = -F_y.
        for _ in range(40):
            F = random_poly(rng, CHART3, max_degree=4, max_terms=4)
            expected = Polyvector(CHART3, 2, {(0, 1): F.diff(2), (1, 2): F.diff(0), (0, 2): -F.diff(1)})
            assert contract(F, covolume(CHART3)) == expected

    def test_jacobian_needs_three_variables(self):
        with pytest.raises(ParseError, match=r"jacobian3 needs a 3-variable chart \(line 3\)"):
            parse_structure_file("chart: w z\npoisson:\njacobian3 F = w*z\n")

    def test_sklyanin4_is_the_jacobian_structure_of_its_two_casimirs(self):
        # q_{4,1} is the Jacobian structure of its two Casimirs: the covolume
        # contracted by df1 and then by df2 (Odesskii-Rubtsov 2002).
        P = parse_structure_file((FIXTURES / "sklyanin4.poisson").read_text()).build()
        chart = P.chart
        f1 = parse_poly("x0^2 + x1^2 + x2^2 + x3^2", chart)
        f2 = parse_poly("x1^2 + 2*x2^2 + 3*x3^2", chart)
        assert contract(f2, contract(f1, covolume(chart))) == P.pi
        other = parse_poly("x1^2 + 2*x2^2 + 4*x3^2", chart)
        assert contract(other, contract(f1, covolume(chart))) != P.pi

    def test_pencils_of_quadrics_are_poisson_with_both_casimirs(self, rng):
        quadrics = [Poly.monomial(CHART4, e, 1) for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
        for _ in range(5):
            f1, f2 = (sum((q * rng.randint(-3, 3) for q in quadrics), Poly.zero(CHART4)) for _ in range(2))
            P = new_poisson(contract(f2, contract(f1, covolume(CHART4))))
            for f in (f1, f2):
                assert schouten(P.pi, Polyvector.function(f)).is_zero

    def test_diagonal_two_chart(self):
        P = new_poisson(diagonal_quadratic_bivector([[0, 1], [-1, 0]], chart=CHART2))
        assert P.pi == Polyvector.term(CHART2, (0, 1), W * Z)

    def test_diagonal_example_modular_and_pfaffian(self):
        lam = [[0, 1, 1, -2], [-1, 0, 1, 1], [-1, -1, 0, 1], [2, -1, -1, 0]]
        P = new_poisson(diagonal_quadratic_bivector(lam))
        chart = P.chart
        x = [Poly.variable(chart, i) for i in range(4)]
        assert modular_field(P) == Polyvector(chart, 1, {(1,): -x[1], (2,): x[2]})
        assert pfaffian(P) == Poly.monomial(chart, (1, 1, 1, 1), -2)

    def test_diagonal_matches_the_poly_arithmetic_construction(self, rng):
        def by_arithmetic(lam, chart):
            x = [Poly.variable(chart, i) for i in range(chart.n)]
            pairs = itertools.combinations(range(chart.n), 2)
            return Polyvector(chart, 2, {(i, j): x[i] * x[j] * lam[i][j] for i, j in pairs if lam[i][j]})

        for _ in range(40):
            n = rng.randint(2, 6)
            lam = [[Fraction(0)] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                lam[i][j] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
                lam[j][i] = -lam[i][j]
            chart = Chart(tuple(f"x{i + 1}" for i in range(n)))
            got, want = diagonal_quadratic_bivector(lam), by_arithmetic(lam, chart)
            assert got == want and str(got) == str(want)
            assert [type(c) for p in got.terms.values() for c in p.terms.values()] == [
                type(c) for p in want.terms.values() for c in p.terms.values()
            ]

    def test_diagonal_rejects_non_skew(self):
        with pytest.raises(PreconditionError):
            diagonal_quadratic_bivector([[0, 1], [1, 0]])


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
        assert lie_derivative(hf, a) == schouten(P.pi, contract(f, a)) + contract(
            f, schouten(P.pi, a)
        )
        # bv d_pi + d_pi bv = L_zeta
        assert bv(schouten(P.pi, a)) + schouten(P.pi, bv(a)) == schouten(zeta, a)
        # [zeta, H_f] = H_{zeta(f)}
        assert schouten(zeta, hf) == hamiltonian(P, zeta_f)
        # d_pi^2 = 0
        assert schouten(P.pi, schouten(P.pi, a)).is_zero


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
            P = new_poisson(contract(F, covolume(CHART3)))
            _identity_battery(rng, P, cases=4)
            assert schouten(P.pi, Polyvector.function(F)).is_zero

    def test_diagonal_family(self, rng):
        for _ in range(25):
            _identity_battery(rng, random_diagonal_structure(rng), cases=4)
