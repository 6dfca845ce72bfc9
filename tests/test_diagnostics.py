from __future__ import annotations

import json

import pytest

from poissonkit import (
    BudgetExceededError,
    DegenerateEverywhereError,
    INFINITE,
    NonReducedCurveError,
    Poly,
    Polyvector,
    PreconditionError,
    StructureAnalysis,
    Verdict,
    apply_vector_field,
    diagonal_quadratic_bivector,
    hamiltonian,
    jacobian_ideal_basis,
    modular_field,
    new_poisson,
    normal_form,
    parse_poly,
    quotient_dimension,
    schouten,
)
from poissonkit.cli import main
from poissonkit.groebner import division
from poissonkit.polyalg import nonreduced_factor
from conftest import CHART2, CHART3, CHART4, random_poly, random_surface_structure

LAMBDA_EXAMPLE = [[0, 1, 1, -2], [-1, 0, 1, 1], [-1, -1, 0, 1], [2, -1, -1, 0]]

W = Poly.variable(CHART2, 0)
Z = Poly.variable(CHART2, 1)


def surface(text):
    return new_poisson(Polyvector.term(CHART2, (0, 1), parse_poly(text, CHART2)))


def degeneracy_divisor(P):
    analysis = StructureAnalysis(P)
    return analysis.pfaffian, analysis.reduced


def report_h2(capsys, tmp_path, f):
    """The ``h2`` block of ``report --json`` on the surface pi = f dw^dz."""
    path = tmp_path / "surface.poisson"
    path.write_text(f"chart: w z\npoisson:\n{{w,z}} = {f}\n")
    assert main(["report", str(path), "--json"]) == 0
    return json.loads(capsys.readouterr().out)["result"]["surface"]["h2"]


def symplectic4():
    one = Poly.constant(CHART4, 1)
    return new_poisson(Polyvector(CHART4, 2, {(0, 1): one, (2, 3): one}))


class TestAnalysisContract:
    """Each failed precondition raises its own error, checked in the documented order."""

    STRUCTURES = {
        "3-chart": lambda: new_poisson(Polyvector.term(CHART3, (0, 1), Poly.constant(CHART3, 1))),
        "zero surface": lambda: new_poisson(Polyvector.zero(CHART2, 2)),
        "4-chart": symplectic4,
        "w^2": lambda: surface("w^2"),
        "w*z": lambda: surface("w*z"),
    }

    @pytest.mark.parametrize(
        "structure,read,error",
        [
            pytest.param("3-chart", lambda a: a.verdict, PreconditionError, id="verdict-3-chart"),
            pytest.param("zero surface", lambda a: a.verdict, DegenerateEverywhereError, id="verdict-zero"),
            pytest.param("zero surface", lambda a: a.open_leaf, DegenerateEverywhereError, id="open_leaf-zero"),
            pytest.param(
                "zero surface", lambda a: a.quasi_homogeneous, DegenerateEverywhereError, id="quasi_homogeneous-zero"
            ),
            pytest.param("4-chart", lambda a: a.open_leaf, PreconditionError, id="open_leaf-4-chart"),
            pytest.param("w^2", lambda a: a.quasi_homogeneous, NonReducedCurveError, id="quasi_homogeneous-w^2"),
            pytest.param("w^2", lambda a: a.dim_h2((1, 1, 1)), NonReducedCurveError, id="dim_h2-w^2"),
            pytest.param("w*z", lambda a: a.dim_h2((1, 2)), ValueError, id="dim_h2-two-betti-numbers"),
        ],
    )
    def test_raises(self, structure, read, error):
        with pytest.raises(error) as caught:
            read(StructureAnalysis(self.STRUCTURES[structure]()))
        # A subclass would be a different, later check (NonReducedCurveError is a PreconditionError).
        assert type(caught.value) is error


class TestDegeneracyDivisor:
    def test_node(self):
        f, reduced = degeneracy_divisor(surface("w*z"))
        assert f == W * Z and reduced

    def test_double_line(self):
        f, reduced = degeneracy_divisor(surface("w^2"))
        assert f == W * W and not reduced

    def test_diagonal_example(self):
        f, reduced = degeneracy_divisor(new_poisson(diagonal_quadratic_bivector(LAMBDA_EXAMPLE)))
        assert str(f) == "-2*x1*x2*x3*x4" and reduced

    def test_zero_pfaffian(self):
        with pytest.raises(DegenerateEverywhereError):
            degeneracy_divisor(new_poisson(Polyvector.zero(CHART2, 2)))

    def test_odd_dimension(self):
        pi = Polyvector.term(CHART3, (0, 1), Poly.constant(CHART3, 1))
        with pytest.raises(PreconditionError):
            degeneracy_divisor(new_poisson(pi))


class TestLogSymplectic:
    def test_symplectic_is_vacuously_log_symplectic(self):
        assert StructureAnalysis(surface("1")).reduced

    def test_double_line_is_not(self):
        assert not StructureAnalysis(surface("w^2")).reduced

    def test_cuspidal_cubic_is(self):
        assert StructureAnalysis(surface("w^2 - z^3")).reduced


class TestZeroLeafLocus:
    def test_symplectic_has_empty_locus(self):
        basis, dimension = StructureAnalysis(symplectic4()).zero_leaf_locus
        assert dimension == -1 and [str(g) for g in basis.gens] == ["1"]

    def test_node_locus_is_the_origin(self):
        basis, dimension = StructureAnalysis(surface("w*z")).zero_leaf_locus
        assert dimension == 0
        assert sorted(str(g) for g in basis.gens) == ["w", "z"]

    def test_diagonal_example_has_a_curve_of_zero_leaves(self):
        basis, dimension = StructureAnalysis(new_poisson(diagonal_quadratic_bivector(LAMBDA_EXAMPLE))).zero_leaf_locus
        assert dimension == 1
        assert sorted(str(g) for g in basis.gens) == ["x1*x4", "x2", "x3"]


class TestHolonomyVerdict:
    def test_double_line(self):
        analysis = StructureAnalysis(surface("w^2"))
        assert analysis.verdict == Verdict.NOT_LOG_SYMPLECTIC
        assert analysis.nonreduced_factor == W

    def test_node(self):
        assert StructureAnalysis(surface("w*z")).verdict == Verdict.SURFACE_HOLONOMIC

    def test_diagonal_example(self):
        analysis = StructureAnalysis(new_poisson(diagonal_quadratic_bivector(LAMBDA_EXAMPLE)))
        assert analysis.verdict == Verdict.OBSTRUCTED_BY_MODULAR_LEAVES
        assert analysis.zero_leaf_locus[1] == 1

    def test_symplectic_four_chart(self):
        assert StructureAnalysis(symplectic4()).verdict == Verdict.NO_OBSTRUCTION_FOUND

    def test_odd_dimension_rejected(self):
        pi = Polyvector.term(CHART3, (0, 1), Poly.constant(CHART3, 1))
        with pytest.raises(PreconditionError):
            StructureAnalysis(new_poisson(pi)).verdict

    def test_not_log_symplectic_soundness(self, rng):
        emitted = 0
        for _ in range(60):
            P = random_surface_structure(rng)
            analysis = StructureAnalysis(P)
            if analysis.verdict == Verdict.NOT_LOG_SYMPLECTIC:
                f = analysis.pfaffian
                assert not nonreduced_factor(f).is_constant
                # The witness is a nonconstant common factor of f and its partials.
                for member in (f, f.diff(0), f.diff(1)):
                    assert division(member, [analysis.nonreduced_factor])[1].is_zero
                emitted += 1
        assert emitted > 0

    def test_surface_completeness(self, rng):
        cases = 0
        for _ in range(100):
            P = random_surface_structure(rng)
            f, _ = degeneracy_divisor(P)
            verdict = StructureAnalysis(P).verdict
            reduced = nonreduced_factor(f).is_constant
            assert (verdict == Verdict.SURFACE_HOLONOMIC) == reduced
            cases += 1
        assert cases == 100

    def test_obstruction_witness_validity(self):
        P = new_poisson(diagonal_quadratic_bivector(LAMBDA_EXAMPLE))
        analysis = StructureAnalysis(P)
        assert analysis.verdict == Verdict.OBSTRUCTED_BY_MODULAR_LEAVES
        basis, dimension = analysis.zero_leaf_locus
        assert dimension >= 1
        for coeff in P.pi.terms.values():
            assert normal_form(coeff, basis).is_zero
        for component in modular_field(P).terms.values():
            assert normal_form(component, basis).is_zero


class TestSurfaceLeafReport:
    def test_node(self):
        report = StructureAnalysis(surface("w*z"))
        assert report.singular_dimension == 0
        assert report.tjurina_total == 1
        assert report.reduced
        assert report.open_leaf == "complement of the curve (w*z) = 0"

    def test_double_line(self):
        report = StructureAnalysis(surface("w^2"))
        assert [str(g) for g in report.jacobian_basis.gens] == ["w"]
        assert report.singular_dimension == 1
        assert report.tjurina_total is INFINITE
        assert not report.reduced

    def test_cusp(self):
        report = StructureAnalysis(surface("w^2 - z^3"))
        assert report.singular_dimension == 0
        assert report.tjurina_total == 2

    def test_singular_ideal_contains_f_and_partials(self, rng):
        for _ in range(10):
            P = random_surface_structure(rng)
            f, _ = degeneracy_divisor(P)
            if f.is_constant:
                continue
            report = StructureAnalysis(P)
            for member in (f, f.diff(0), f.diff(1)):
                assert normal_form(member, report.jacobian_basis).is_zero

    def test_symplectic_surface(self):
        report = StructureAnalysis(surface("3"))
        assert report.singular_dimension == -1 and report.tjurina_total == 0
        assert report.open_leaf == "the whole chart (empty degeneracy curve)"

    def test_needs_a_surface(self):
        with pytest.raises(PreconditionError):
            StructureAnalysis(symplectic4()).open_leaf


class TestSurfaceH2Report:
    def test_node_with_torus_betti_numbers(self):
        report = StructureAnalysis(surface("w*z"))
        assert report.tjurina_total == 1
        assert report.dim_h2((1, 2, 1)) == 2
        assert report.quasi_homogeneous

    def test_symbolic_formula_without_betti_input(self, capsys, tmp_path):
        # report has no Betti input, so it prints the formula with tau filled in.
        h2 = report_h2(capsys, tmp_path, "w*z")
        assert h2["formula"] == "b2(U) + 1" and h2["dim_h2"] is None
        assert h2["quasi_homogeneous"] and h2["formula_asserted"]

    def test_smooth_curve(self):
        report = StructureAnalysis(surface("w - z"))
        assert report.tjurina_total == 0 and report.dim_h2((1, 0, 0)) == 0

    def test_non_reduced_curve_rejected(self):
        with pytest.raises(NonReducedCurveError):
            StructureAnalysis(surface("w^2")).quasi_homogeneous

    def test_quasi_homogeneity_gate(self, capsys, tmp_path):
        # w^5 + w^2 z^2 + z^5 has an isolated non-quasi-homogeneous
        # singularity at the origin, so the Saito membership check fails
        # and the formula is emitted unasserted.
        report = StructureAnalysis(surface("w^5 + w^2*z^2 + z^5"))
        assert not report.quasi_homogeneous
        assert report.tjurina_total == 10
        h2 = report_h2(capsys, tmp_path, "w^5 + w^2*z^2 + z^5")
        assert not h2["quasi_homogeneous"] and not h2["formula_asserted"]

    def test_quasi_homogeneity_spends_the_analysis_budget(self):
        # Quasi-homogeneity compares the bases of (df) and (f, df), with no
        # normal form: the partials of w^5 + z^5 need no reduction step, and
        # (f, df) needs 1, so a budget of 0 ends in its S-pair reduction.
        assert StructureAnalysis(surface("w^5 + z^5"), 1).quasi_homogeneous
        with pytest.raises(BudgetExceededError, match="in S-pair reduction: all 0 steps spent"):
            StructureAnalysis(surface("w^5 + z^5"), 0).quasi_homogeneous

    def test_quasi_homogeneity_is_membership_in_the_partials(self, rng):
        # Oracle: f reduces to 0 modulo the basis of its partials.
        texts = ["w*z", "w^3 - z^2", "w^5 + z^5", "w^5 + w^2*z^2 + z^5", "w^2*z + z^4 + w^3", "w*z*(w + z - 1)"]
        structures = [surface(t) for t in texts] + [random_surface_structure(rng) for _ in range(30)]
        seen = set()
        for P in structures:
            report = StructureAnalysis(P)
            try:
                quasi = report.quasi_homogeneous
            except (NonReducedCurveError, DegenerateEverywhereError):
                continue
            f = report.pfaffian
            assert quasi == (f.is_constant or normal_form(f, report.partials_basis, 10**5).is_zero), f
            seen.add(quasi)
        assert seen == {True, False}

    def test_betti_list_length_checked(self):
        with pytest.raises(ValueError):
            StructureAnalysis(surface("w*z")).dim_h2((1, 2))


def modular_foliation_generators(P):
    """Generators of the modular foliation: zeta plus every H_{x_i}."""
    hamiltonians = [hamiltonian(P, Poly.variable(P.chart, i)) for i in range(P.chart.n)]
    return [StructureAnalysis(P).modular_field, *hamiltonians]


class TestModularFoliation:
    def test_surface_generators(self, rng):
        f = random_poly(rng, CHART2, allow_zero=False)
        P = new_poisson(Polyvector.term(CHART2, (0, 1), f))
        zeta, h_w, h_z = modular_foliation_generators(P)
        assert zeta == Polyvector(CHART2, 1, {(1,): f.diff(0), (0,): -f.diff(1)})
        assert h_w == Polyvector.term(CHART2, (1,), f)
        assert h_z == Polyvector.term(CHART2, (0,), -f)

    def test_symplectic_generators_span_everything(self):
        P = surface("1")
        zeta, h_w, h_z = modular_foliation_generators(P)
        assert zeta.is_zero
        assert h_w == Polyvector.frame(CHART2, 1)
        assert h_z == -Polyvector.frame(CHART2, 0)

    def test_zero_bivector(self):
        P = new_poisson(Polyvector.zero(CHART2, 2))
        assert all(g.is_zero for g in modular_foliation_generators(P))

    def test_involutivity_spot_check(self, rng):
        for _ in range(25):
            P = random_surface_structure(rng)
            zeta = modular_field(P)
            f = random_poly(rng, CHART2)
            zeta_f = apply_vector_field(zeta, f)
            assert schouten(zeta, hamiltonian(P, f)) == hamiltonian(P, zeta_f)


class TestTjurinaCrossCheck:
    def test_global_equals_local_sum_for_concurrent_lines(self):
        # wz(w - z) = 0 is three lines through the origin; its only singular
        # point is the origin, so the global number equals the local one.
        f = parse_poly("w*z*(w - z)", CHART2)
        total = quotient_dimension(jacobian_ideal_basis(f))
        local = quotient_dimension(jacobian_ideal_basis(f.shift([0, 0])))
        assert total == local == 4

    def test_global_counts_separated_nodes(self):
        # wz(w - 1) has ordinary nodes at the origin and at (1, 0); each
        # contributes tau = 1, so the global number is their sum.
        f = parse_poly("w*z*(w - 1)", CHART2)
        assert quotient_dimension(jacobian_ideal_basis(f)) == 2
        # Translation moves the ideal rigidly, so the translated-point
        # variant still sees both singular points (documented limitation).
        assert quotient_dimension(jacobian_ideal_basis(f.shift([1, 0]))) == 2
