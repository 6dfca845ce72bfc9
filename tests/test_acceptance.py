"""Acceptance suite: one test per release criterion, each timed and exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every tolerance is exact rational equality; the only numeric
bounds are the per-criterion wall-clock caps asserted here.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from importlib.resources import files

import jsonschema

from poissonkit import (
    Chart,
    INFINITE,
    Poly,
    Polyvector,
    StructureAnalysis,
    Verdict,
    apply_vector_field,
    bv,
    cohomology_table,
    contract,
    diagonal_quadratic_poisson,
    hamiltonian,
    jacobian_poisson_3,
    lichnerowicz,
    lie_derivative,
    modular_field,
    new_poisson,
    parse_structure_file,
    schouten,
    serialize_structure,
    tjurina_global,
    wedge,
)
from poissonkit.cli import main
from conftest import (
    CHART2,
    CHART3,
    CHART4,
    FIXTURES,
    random_cubic_structure,
    random_diagonal_structure,
    random_poly,
    random_polyvector,
    random_surface_structure,
)
from oracles import diagonal_modular_coefficients, bruteforce_dimension_table, tjurina_jet_oracle

LAMBDA_EXAMPLE = [[0, 1, 1, -2], [-1, 0, 1, 1], [-1, -1, 0, 1], [2, -1, -1, 0]]

EMITTED_TABLES = []


def _pass(number: int, started: float, limit: float, detail: str):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {limit:.0f}s) - {detail}")


def _structure_for(rng, chart):
    if chart.n == 2:
        return random_surface_structure(rng)
    if chart.n == 3:
        return random_cubic_structure(rng)
    return random_diagonal_structure(rng)


def test_criterion_1_identity_suite(rng):
    """Graded and modular identities on >=200 random inputs per chart."""
    started = time.perf_counter()
    for chart in (CHART2, CHART3, CHART4):
        n = chart.n
        for _ in range(200):
            P = _structure_for(rng, chart)
            zeta = modular_field(P)
            a = random_polyvector(rng, chart, max_degree=3)
            b = random_polyvector(rng, chart, max_degree=3)
            c = random_polyvector(rng, chart, max_degree=3)
            f = random_poly(rng, chart, max_degree=3)
            hf = hamiltonian(P, f)
            zeta_f = apply_vector_field(zeta, f)
            # bv o bv = 0
            assert bv(bv(a)).is_zero
            # bv is a derivation of the bracket
            sign = -1 if a.k % 2 == 0 else 1
            assert bv(schouten(a, b)) == schouten(bv(a), b) + sign * schouten(a, bv(b))
            # graded antisymmetry
            sign = -1 if ((a.k - 1) * (b.k - 1)) % 2 else 1
            assert schouten(a, b) == -sign * schouten(b, a)
            # graded Leibniz
            if b.k + c.k <= n:
                sign = -1 if ((a.k - 1) * b.k) % 2 else 1
                assert schouten(a, wedge(b, c)) == wedge(schouten(a, b), c) + sign * wedge(
                    b, schouten(a, c)
                )
            # graded Jacobi
            sign = -1 if ((a.k - 1) * (b.k - 1)) % 2 else 1
            assert schouten(a, schouten(b, c)) == schouten(schouten(a, b), c) + sign * schouten(
                b, schouten(a, c)
            )
            # homotopy I: L_{H_f} = d_pi i_df + i_df d_pi
            assert lie_derivative(hf, a) == lichnerowicz(P, contract(f, a)) + contract(
                f, lichnerowicz(P, a)
            )
            # homotopy II: bv d_pi + d_pi bv = L_zeta
            assert bv(lichnerowicz(P, a)) + lichnerowicz(P, bv(a)) == schouten(zeta, a)
            # zeta(f) = -bv(H_f)
            assert Polyvector.function(zeta_f) == -bv(hf)
            # the modular field is a symmetry
            assert lie_derivative(zeta, P.pi).is_zero
            # [zeta, H_f] = H_{zeta(f)}
            assert schouten(zeta, hf) == hamiltonian(P, zeta_f)
    _pass(1, started, 60.0, "identity suite, 200 random inputs per chart, n in {2,3,4}")


def test_criterion_2_surface_closed_forms(rng):
    started = time.perf_counter()
    w = Poly.variable(CHART2, 0)
    z = Poly.variable(CHART2, 1)
    for _ in range(20):
        f = random_poly(rng, CHART2, max_degree=3, allow_zero=False)
        P = new_poisson(Polyvector.term(CHART2, (0, 1), f))
        assert modular_field(P) == Polyvector(CHART2, 1, {(1,): f.diff(0), (0,): -f.diff(1)})
        assert hamiltonian(P, w) == Polyvector.term(CHART2, (1,), f)
        assert hamiltonian(P, z) == Polyvector.term(CHART2, (0,), -f)
    _pass(2, started, 5.0, "modular and Hamiltonian closed forms on 20 random surfaces")


def test_criterion_3_holonomicity_verdicts():
    started = time.perf_counter()
    node = new_poisson(
        Polyvector.term(CHART2, (0, 1), Poly.variable(CHART2, 0) * Poly.variable(CHART2, 1))
    )
    assert StructureAnalysis(node).verdict == Verdict.SURFACE_HOLONOMIC
    square = new_poisson(Polyvector.term(CHART2, (0, 1), Poly.variable(CHART2, 0) ** 2))
    assert StructureAnalysis(square).verdict == Verdict.NOT_LOG_SYMPLECTIC
    P = diagonal_quadratic_poisson(LAMBDA_EXAMPLE)
    analysis = StructureAnalysis(P)
    assert analysis.verdict == Verdict.OBSTRUCTED_BY_MODULAR_LEAVES
    assert analysis.zero_leaf_locus[1] == 1
    # Modular coefficients, re-verified against the hand-expansion oracle.
    oracle = diagonal_modular_coefficients(LAMBDA_EXAMPLE)
    assert oracle == [0, -1, 1, 0]
    chart = P.chart
    expected = Polyvector(
        chart,
        1,
        {(k,): Poly.variable(chart, k) * c for k, c in enumerate(oracle) if c},
    )
    assert modular_field(P) == expected
    _pass(3, started, 10.0, "verdicts for wz, w^2, and the 4-chart lambda example")


def test_criterion_4_tjurina_numbers():
    started = time.perf_counter()
    cases = {"w*z": 1, "w^2 - z^3": 2, "w^3 - z^3": 4}
    from poissonkit import parse_poly

    for text, expected in cases.items():
        f = parse_poly(text, CHART2)
        assert tjurina_global(f) == expected
        assert tjurina_jet_oracle(f) == expected
    assert tjurina_global(parse_poly("w^2", CHART2)) is INFINITE
    _pass(4, started, 10.0, "tau(wz)=1, tau(w2-z3)=2, tau(w3-z3)=4 vs jet oracle; tau(w2) infinite")


def test_criterion_5_symplectic_cohomology():
    started = time.perf_counter()
    P = new_poisson(Polyvector.term(CHART2, (0, 1), Poly.constant(CHART2, 1)))
    table = cohomology_table(P, 2, 6)
    EMITTED_TABLES.append(table)
    assert table.dim_h(0, 0) == 1
    for w in range(0, 7):
        assert table.dim_h(0, w) == (1 if w == 0 else 0)
        assert table.dim_h(1, w) == 0
        assert table.dim_h(2, w) == 0
    _pass(5, started, 30.0, "constant symplectic surface: H = de Rham of the chart")


def test_criterion_6_jacobian_cubic_cohomology():
    started = time.perf_counter()
    x, y, z = (Poly.variable(CHART3, i) for i in range(3))
    F = (x**3 + y**3 + z**3) * Fraction(1, 3) + x * y * z
    P = jacobian_poisson_3(F)
    assert lichnerowicz(P, Polyvector.function(F)).is_zero  # d_pi F = 0, symbolically
    table = cohomology_table(P, 3, 3)
    EMITTED_TABLES.append(table)
    assert table.dim_h(0, 3) == 1
    assert table.dim_h(0, 1) == 0
    assert table.dim_h(0, 2) == 0
    _pass(6, started, 60.0, "Hesse cubic: Casimir F spans H^0 in weight 3; weights 1,2 vanish")


def test_criterion_7_bruteforce_oracle_equivalence(rng):
    started = time.perf_counter()
    structures = []
    while len(structures) < 10:
        degree = rng.randint(0, 4)
        coeffs = {}
        for a in range(degree + 1):
            value = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if value:
                coeffs[(a, degree - a)] = value
        f = Poly(CHART2, coeffs)
        if f.is_zero:
            continue
        structures.append(new_poisson(Polyvector.term(CHART2, (0, 1), f)))
    for P in structures:
        table = cohomology_table(P, 2, 4)
        EMITTED_TABLES.append(table)
        oracle = bruteforce_dimension_table(P, 2, 4)
        for (k, w), dim in oracle.items():
            assert table.dim_h(k, w) == dim
    _pass(7, started, 120.0, "dense brute-force table equals matrix pipeline, 10 structures")


def test_criterion_8_euler_consistency():
    started = time.perf_counter()
    if not EMITTED_TABLES:  # when this criterion runs in isolation
        P = new_poisson(Polyvector.term(CHART2, (0, 1), Poly.constant(CHART2, 1)))
        EMITTED_TABLES.append(cohomology_table(P, 2, 6))
    # Also exercise a weighted chart and a nonzero weight shift.
    chart = Chart(("w", "z"), (2, 3))
    weighted = new_poisson(Polyvector.term(chart, (0, 1), Poly.variable(chart, 0)))
    EMITTED_TABLES.append(cohomology_table(weighted, 2, 5))
    zero = new_poisson(Polyvector.zero(CHART2, 2))
    EMITTED_TABLES.append(cohomology_table(zero, 2, 4))
    for table in EMITTED_TABLES:
        assert table.euler_consistent(), f"Euler check failed for {table.structure}"
        for check in table.euler_checks:
            assert check.chain_sum == check.cohomology_sum
    _pass(8, started, 30.0, f"per-weight Euler identity on {len(EMITTED_TABLES)} emitted tables")


def test_criterion_9_cli_conformance(tmp_path, capsys):
    started = time.perf_counter()
    schema = json.loads(files("poissonkit").joinpath("schema.json").read_text())
    fixture_files = sorted(FIXTURES.glob("*.poisson"))
    assert len(fixture_files) >= 5
    # Every fixture parses and round-trips.
    for path in fixture_files:
        spec = parse_structure_file(path.read_text())
        P = spec.build()
        assert parse_structure_file(serialize_structure(P)).build().pi == P.pi
    # Every command emits schema-valid JSON on a suitable fixture.
    commands = [
        ["check", str(FIXTURES / "so3_linear.poisson")],
        ["modular", str(FIXTURES / "hesse_cubic.poisson")],
        ["report", str(FIXTURES / "torus4.poisson")],
        ["report", str(FIXTURES / "surface_nonreduced.poisson")],
        ["cohomology", str(FIXTURES / "surface_symplectic.poisson"), "--wmax", "4"],
        ["tjurina", "w^3 - z^3"],
    ]
    for argv in commands:
        assert main([*argv, "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        jsonschema.validate(envelope, schema)
    # Exit codes: 0 success, 2 parse error, 3 precondition, 4 budget.
    assert main(["check", str(FIXTURES / "surface_node.poisson")]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.poisson"
    bad.write_text("chart w z\npoisson:\n")
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()
    jacobi_fail = tmp_path / "jacobi_fail.poisson"
    jacobi_fail.write_text("chart: x y z\npoisson:\n{x,y} = y\n{x,z} = x\n")
    assert main(["modular", str(jacobi_fail)]) == 3
    capsys.readouterr()
    assert main(["tjurina", "w*z*(w - z)", "--budget", "1"]) == 4
    capsys.readouterr()
    _pass(9, started, 30.0, "fixtures parse; JSON is schema-valid; exit codes 0/2/3/4")
