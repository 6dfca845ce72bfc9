"""sympy as an independent oracle for the polynomial, Groebner and gcd kernels.

sympy is a test-only dependency: the engine never imports it.  The ring
operations and ``Poly.shift`` are checked on seeded ``conftest.random_poly``
inputs, and the parser on seeded expressions that ``sympy.expand`` expands
independently.  The curves
are the ``tjurina-ladder`` family of the benchmark (``w^a + z^b`` plus up to
three monomials, some translated to a point), and the surfaces are the
``report-mix`` inputs whose gcd ran away before the PRS was made primitive.
"""

from __future__ import annotations

import json
from fractions import Fraction

import sympy

from poissonkit import INFINITE, buchberger, gcd_multi, groebner, jacobian_ideal_basis, parse_poly, quotient_dimension
from poissonkit.cli import main
from poissonkit.groebner import division
from poissonkit.polyalg import _positive_primitive, grevlex_key
from conftest import CHART2, CHART3, CHART4, random_poly
from oracles import division_over_q, standard_monomial_count

W, Z = sympy.symbols("w z")


def random_curve(rng) -> str:
    """w^a + z^b, 3 <= a <= b <= 9, plus 0-3 random monomials of degree at most b."""
    a = rng.randint(3, 9)
    b = rng.randint(a, 9)
    terms = [f"w^{a}", f"z^{b}"]
    seen = {(a, 0), (0, b), (0, 0)}
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randint(0, a), rng.randint(0, b)
        if (i, j) not in seen and i + j <= b:
            seen.add((i, j))
            terms.append(f"{rng.choice((-3, -2, -1, 1, 2, 3))}*w^{i}*z^{j}")
    return " + ".join(terms)


def to_sympy(text: str):
    return sympy.sympify(text.replace("^", "**"), locals={"w": W, "z": Z})


def sympy_reduced_basis(polys):
    """Monic reduced GREVLEX basis as term maps, and its leading exponents."""
    G = sympy.groebner(polys, W, Z, order="grevlex")
    bases, leads = [], []
    for g in G.polys:
        g = g.to_field()
        g = g.quo_ground(g.LC(order="grevlex"))
        bases.append({m: Fraction(int(c.p), int(c.q)) for m, c in g.terms()})
        leads.append(g.monoms(order="grevlex")[0])
    return bases, leads


def canonical(term_maps):
    return sorted(sorted(t.items()) for t in term_maps)


def sympy_poly(p, gens):
    """p as a sympy.Poly over QQ in ``gens``."""
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain="QQ")


class TestRingOperationsAgainstSympy:
    def test_add_sub_mul_exact_divide_diff(self, rng):
        for chart in (CHART2, CHART3):
            gens = sympy.symbols(chart.names)
            for _ in range(60):
                p = random_poly(rng, chart, max_degree=4, max_terms=4)
                q = random_poly(rng, chart, max_degree=3, max_terms=3, allow_zero=False)
                P, Q = sympy_poly(p, gens), sympy_poly(q, gens)
                assert sympy_poly(p + q, gens) == P + Q
                assert sympy_poly(p - q, gens) == P - Q
                assert sympy_poly(p * q, gens) == P * Q
                (quotient,), remainder = division(p * q, [q])
                assert remainder.is_zero and sympy_poly(quotient, gens) == sympy.exquo(P * Q, Q)
                for i, x in enumerate(gens):
                    assert sympy_poly(p.diff(i), gens) == P.diff(x)


def random_expression(rng, names, depth=0) -> tuple[str, str]:
    """A seeded expression, as the parser's text and as sympy's.

    Terms may carry a unary minus, also right after '+' or '-'; bases are
    integers, rationals p/q, variables and, two levels deep, parenthesized
    sums, any of them raised to a power up to 3.  In sympy's text a rational
    is parenthesized, so that p/q^k stays (p/q)^k.
    """
    ours, theirs = [], []
    for n in range(rng.randint(1, 3)):
        if n:
            op = rng.choice("+-")
            ours.append(f" {op} ")
            theirs.append(f" {op} ")
        if rng.random() < 0.3:
            ours.append("-")
            theirs.append("-")
        for m in range(rng.randint(1, 2)):
            if m:
                ours.append("*")
                theirs.append("*")
            kind = rng.choice(("int", "rational", "name", "name", "sum") if depth < 2 else ("int", "rational", "name"))
            if kind == "int":
                a = b = str(rng.randint(0, 5))
            elif kind == "rational":
                a = f"{rng.randint(0, 7)}/{rng.randint(1, 6)}"
                b = f"({a})"
            elif kind == "name":
                a = b = rng.choice(names)
            else:
                inner_a, inner_b = random_expression(rng, names, depth + 1)
                a, b = f"({inner_a})", f"({inner_b})"
            if rng.random() < 0.4:
                k = rng.randint(0, 3)
                a, b = f"{a}^{k}", f"{b}**{k}"
            ours.append(a)
            theirs.append(b)
    return "".join(ours), "".join(theirs)


class TestParserAgainstSympy:
    def test_expressions_expand_to_the_sympy_terms(self, rng):
        unary_after_operator = 0
        for chart in (CHART2, CHART3, CHART4):
            gens = sympy.symbols(chart.names)
            for _ in range(150):
                text, sympy_text = random_expression(rng, chart.names)
                unary_after_operator += ("+ -" in text) + ("- -" in text)
                expected = sympy.Poly(
                    sympy.expand(sympy.sympify(sympy_text, locals=dict(zip(chart.names, gens)))), *gens, domain="QQ"
                )
                assert sympy_poly(parse_poly(text, chart), gens) == expected, text
        assert unary_after_operator > 20


class TestShiftAgainstSympy:
    def test_translation_matches_sympy_substitution(self, rng):
        for chart in (CHART2, CHART3, CHART4):
            gens = sympy.symbols(chart.names)
            for _ in range(40):
                p = random_poly(rng, chart, max_degree=5, max_terms=4)
                point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in gens]
                moved = {x: x + sympy.Rational(a.numerator, a.denominator) for x, a in zip(gens, point)}
                expected = sympy.expand(sympy_poly(p, gens).as_expr().subs(moved, simultaneous=True))
                assert sympy_poly(p.shift(point), gens) == sympy.Poly(expected, *gens, domain="QQ"), (p, point)


class TestGroebnerAgainstSympy:
    def test_jacobian_bases_and_tau_on_ladder_curves(self, rng):
        for _ in range(60):
            text = random_curve(rng)
            point = (rng.randint(-1, 1), rng.randint(-1, 1)) if rng.random() < 0.4 else (0, 0)
            F = sympy.expand(to_sympy(text).subs({W: W + point[0], Z: Z + point[1]}, simultaneous=True))
            expected, leads = sympy_reduced_basis([F, F.diff(W), F.diff(Z)])

            f = parse_poly(text, CHART2)
            G = jacobian_ideal_basis(f.shift(point))
            assert canonical(g.terms for g in G.gens) == canonical(expected), (text, point)
            tau = standard_monomial_count(leads, 2)
            got = quotient_dimension(jacobian_ideal_basis(f.shift(point)))
            assert (got is INFINITE) if tau is None else (got == tau), (text, point)

    def test_negative_leading_coefficients(self, monkeypatch):
        # Every generator's leading coefficient is negative, so a reduction by
        # it scales the fraction-free multiplier by a negative number.
        ideals = [
            ["-2*w^2*z + 3*z^2 - 1", "-3*w*z^2 + 2*w + 1"],
            ["-w^3 + 2*w*z", "-3*z^3 + w^2 - 5"],
            ["-w^4 - z^5 + 3*w^2*z", "-4*w^3 + 6*w*z", "-5*z^4 + 3*w^2"],
            ["-1/2*w^2 + z", "-2/3*z^2 + w*z - 1"],
        ]
        calls = []
        reduce = groebner._reduce

        def spy(*args, **kwargs):
            remainder, m = reduce(*args, **kwargs)
            calls.append((remainder, m))
            return remainder, m

        monkeypatch.setattr(groebner, "_reduce", spy)
        for texts in ideals:
            gens = [parse_poly(t, CHART2) for t in texts]
            expected, _ = sympy_reduced_basis([to_sympy(t) for t in texts])
            assert canonical(g.terms for g in buchberger(gens).gens) == canonical(expected), texts
            for p in (gens[0] * gens[1], gens[0] ** 2 + gens[1], parse_poly("w^5*z^3 - 7*w*z + 2", CHART2)):
                quotients, r = division(p, gens)
                expected_quotients, expected_r = division_over_q(p, gens, grevlex_key)
                assert [q.terms for q in quotients] == expected_quotients and r.terms == expected_r
        negative = [(remainder, m) for remainder, m in calls if m < 0 and remainder]
        assert negative
        # Buchberger keeps the positive multiple of the rational remainder.
        for remainder, m in negative:
            primitive = _positive_primitive(remainder, m)
            assert all((primitive[e] > 0) == (c * m > 0) for e, c in remainder.items())


# The report-mix surfaces whose gcd(f, df/dw, df/dz) never finished in 20 s
# with a PRS that kept rational content, with the verdict fixed by sympy.
RUNAWAYS = [
    (
        "(1*w^2 + -1*w*z + 3*z^2 + -3*z + 2)*(2*w + -3)*(-2*w + 3*z + -3)"
        "*(-2*w^2 + -1*z^2 + 1*w + 1*z + 1)*(-2*w + 3*z + -3)",
        False,
        "NotLogSymplectic",
    ),
    (
        "(-1*w^2 + -1*w*z + -3*z + 1)*(-1*w + 2*z)*(-1*w^2 + -2*w*z + -3*z^2 + 2*w + -1*z + -3)",
        True,
        "SurfaceHolonomic",
    ),
    (
        "(-2*z^2 + -3*w + 3)*(3*w + -3*z)*(-1*w + -3*z + 3)*(3*w^2 + 2*z^2 + 1*w + 1*z + -3)",
        True,
        "SurfaceHolonomic",
    ),
    (
        "(1*w + 2*z + 3)*(3*w*z + 2*z^2 + -2)*(3*w + -3*z + 3)*(1*w^2 + 2*w*z + 3*w + -1*z + 3)*(1*w + 2*z + 3)",
        False,
        "NotLogSymplectic",
    ),
    (
        "(3*w + -2*z + -2)*(3*w + -3*z)*(2*w^2 + 2*w*z + 1*z^2 + -1*w + 1*z + -1)"
        "*(2*w^2 + -3*w*z + -2*z^2 + 1*w + -2*z + -3)",
        True,
        "SurfaceHolonomic",
    ),
]


class TestGcdRunaways:
    def test_gcd_matches_sympy_up_to_a_unit(self):
        for text, _, _ in RUNAWAYS:
            f = parse_poly(text, CHART2)
            g = gcd_multi([f, f.diff(0), f.diff(1)])
            F = to_sympy(text)
            expected = sympy.gcd_list([F, F.diff(W), F.diff(Z)])
            ours = sum(sympy.Rational(c.numerator, c.denominator) * W ** e[0] * Z ** e[1] for e, c in g.terms.items())
            ratio = sympy.cancel(expected / ours)
            assert ratio.is_number and ratio != 0, text

    def test_report_verdict_matches_the_oracle(self, capsys, tmp_path):
        for n, (text, squarefree, verdict) in enumerate(RUNAWAYS):
            path = tmp_path / f"surface{n}.poisson"
            path.write_text(f"chart: w z\npoisson:\n{{w,z}} = {text}\n")
            main(["report", str(path), "--json"])
            result = json.loads(capsys.readouterr().out)["result"]
            assert result["pfaffian_squarefree"] is squarefree, text
            assert result["verdict"] == verdict, text
