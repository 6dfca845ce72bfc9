"""Oracles for what ``report`` reads off shared objects instead of recomputing.

On a surface, reducedness is read off the singular locus and checked here
against the gcd and against sympy's square-free decomposition; the D-module
generators are read off the modular field and the bivector and checked
against the operators that compute them; the printer is checked against the
earlier one in ``oracles.py``.  The inputs are drawn from ``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from fractions import Fraction

import sympy

import poissonkit.polyalg as polyalg
from poissonkit import (
    INFINITE,
    Chart,
    Poly,
    Polyvector,
    StructureAnalysis,
    apply_vector_field,
    contract,
    covolume,
    dmodule_generators,
    hamiltonian,
    modular_field,
    new_poisson,
    parse_poly,
    parse_structure_file,
    quotient_dimension,
)
from poissonkit.cli import main
from poissonkit.polyalg import format_poly, nonreduced_factor
from conftest import CHART2, CHART4, FIXTURES, random_diagonal_structure, random_poly, random_surface_structure
from oracles import format_poly_reference

NAMED_SURFACES = ["w*(w - 1)", "w^2", "(w - z)^3*(w + z)", "w^3 - z^2", "(w^2 + z^2 - 1)^2", "1", "-2/3"]


def random_curve(rng) -> str:
    """A product of 1-4 random linear or quadratic factors, one of them sometimes repeated, as in ``report-mix``."""
    factors = []
    for _ in range(rng.randint(1, 4)):
        monomials = ("w^2", "w*z", "z^2", "w", "z", "1") if rng.random() < 0.15 else ("w", "z", "1")
        top = len(monomials) // 2  # the coefficients of the top degree, not all 0
        while True:
            coeffs = [rng.randint(-3, 3) for _ in monomials]
            if any(coeffs[:top]):
                break
        factors.append("(" + " + ".join(f"{c}*{m}" for c, m in zip(coeffs, monomials) if c) + ")")
    if rng.random() < 0.25:
        factors.append(rng.choice(factors))
    return "*".join(factors)


def surface(text):
    return new_poisson(Polyvector.term(CHART2, (0, 1), parse_poly(text, CHART2)))


def to_sympy(p: Poly):
    gens = sympy.symbols(p.chart.names)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(g**e for g, e in zip(gens, exponent))) for exponent, c in p.terms.items()))


class TestSurfaceReducedness:
    def test_reduced_agrees_with_the_gcd_and_sympy(self, rng):
        texts = NAMED_SURFACES + [random_curve(rng) for _ in range(30)]
        verdicts = set()
        for text in texts:
            analysis = StructureAnalysis(surface(text))
            f = analysis.pfaffian
            reduced = analysis.reduced
            assert reduced == nonreduced_factor(f).is_constant, text
            _, factors = sympy.sqf_list(to_sympy(f))
            assert reduced == all(multiplicity == 1 for _, multiplicity in factors), text
            verdicts.add(reduced)
        assert verdicts == {True, False}

    def test_the_partials_alone_do_not_decide_reducedness(self):
        # w(w - 1) is two parallel lines: reduced, and its singular locus is
        # empty, while its one partial 2w - 1 cuts out a whole line.
        analysis = StructureAnalysis(surface("w*(w - 1)"))
        assert analysis.reduced and analysis.tjurina_total == 0
        assert quotient_dimension(analysis.partials_basis) is INFINITE


def fixture_structures():
    return [parse_structure_file(path.read_text()).build() for path in sorted(FIXTURES.glob("*.poisson"))]


def jacobian_pencil(rng):
    """The Jacobian structure of two random quadrics on C^4: a bivector with every coefficient present."""
    quadrics = [Poly.monomial(CHART4, e) for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
    f1, f2 = (sum((q * rng.randint(-3, 3) for q in quadrics), Poly.zero(CHART4)) for _ in range(2))
    return new_poisson(contract(f2, contract(f1, covolume(CHART4))))


class TestDModuleGenerators:
    def test_read_off_parts_equal_the_operators(self, rng):
        structures = fixture_structures()
        structures += [random_surface_structure(rng) for _ in range(8)]
        structures += [random_diagonal_structure(rng) for _ in range(4)]
        structures += [jacobian_pencil(rng) for _ in range(4)]
        for P in structures:
            zeta = modular_field(P)
            for i, g in enumerate(dmodule_generators(P, zeta)):
                xi = Poly.variable(P.chart, i)
                assert g.source == xi
                assert g.scalar_part == apply_vector_field(zeta, xi)
                assert g.vector_part == hamiltonian(P, xi)

    def test_parts_are_the_coefficients_of_zeta_and_pi(self):
        P = parse_structure_file((FIXTURES / "sklyanin4.poisson").read_text()).build()
        zeta = modular_field(P)
        for i, g in enumerate(dmodule_generators(P, zeta)):
            if (i,) in zeta.terms:
                assert g.scalar_part is zeta.terms[(i,)]
            for (a, b), coeff in P.pi.terms.items():
                if a == i:
                    assert g.vector_part.terms[(b,)] is coeff


def random_printable(rng, n):
    """A random polynomial on an n-chart: int and Fraction coefficients, many of them +-1."""
    chart = Chart(tuple(f"x{i}" for i in range(n)))
    kind = rng.randrange(4)
    if kind == 0:
        return Poly.zero(chart)
    if kind == 1:
        return Poly.constant(chart, Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 1, 2, 7))))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exponent = tuple(rng.randint(0, 3) for _ in range(n))
        numerator = rng.choice((1, -1, rng.randint(-40, 40) or 1, rng.randint(-10**30, 10**30) or 1))
        terms[exponent] = Fraction(numerator, rng.choice((1, 1, 1, 3, 10**12)))
    return Poly(chart, terms)


class TestPrinter:
    def test_text_is_the_earlier_printers(self, rng):
        polys = [random_printable(rng, rng.randint(1, 5)) for _ in range(400)]
        polys += [random_poly(rng, CHART4, max_degree=4, max_terms=5) for _ in range(200)]
        for p in polys:
            assert format_poly(p) == format_poly_reference(p), p.terms
            assert str(p) == format_poly_reference(p)
            assert str(p) is str(p)  # kept on the object after the first str()
            assert str(-p) == format_poly_reference(-p)

    def test_two_reports_in_one_process_each_build_their_texts(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return format_poly(p)

        monkeypatch.setattr(polyalg, "format_poly", counted)
        outputs, counts = [], []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["report", str(FIXTURES / "torus4.poisson"), "--json"]) == 0
            outputs.append(out.getvalue().rsplit('"timing_ms"', 1)[0])
            counts.append(len(calls))
            calls.clear()
        assert outputs[0] == outputs[1]
        assert counts[0] == counts[1] > 0
