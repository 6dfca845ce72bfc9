from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import isqrt, lcm

import pytest

from poissonkit import (
    BasisSizeExceededError,
    Chart,
    Poly,
    Polyvector,
    PreconditionError,
    cohomology_table,
    contract,
    covolume,
    diagonal_quadratic_bivector,
    dpi_matrix,
    graded_basis,
    homogeneity_weight,
    new_poisson,
    parse_poly,
    parse_structure_file,
    rank_exact,
    schouten,
)
from poissonkit.graded_cohomology import _DerivativeTable, _dpi_columns, _echelon, _monomials_of_weighted_degree, _pack
from conftest import (
    CHART2,
    CHART3,
    CHART4,
    FIXTURES,
    random_diagonal_structure,
    random_poly,
    random_skew_matrix,
)
from oracles import bruteforce_dimension_table, diagonal_dimension_table, gaussian_rank


def symplectic2():
    return new_poisson(Polyvector.term(CHART2, (0, 1), Poly.constant(CHART2, 1)))


def hesse_structure():
    x, y, z = (Poly.variable(CHART3, i) for i in range(3))
    F = (x**3 + y**3 + z**3) * Fraction(1, 3) + x * y * z
    return new_poisson(contract(F, covolume(CHART3))), F


def rational_hesse_structure():
    """A Jacobian structure whose bivector has non-integer coefficients."""
    x, y, z = (Poly.variable(CHART3, i) for i in range(3))
    F = (x**3 + y**3 + z**3) * Fraction(1, 6) + x * y * z * Fraction(1, 2)
    return new_poisson(contract(F, covolume(CHART3)))


def basis_keys(basis):
    """The basis as ``(multi-index, exponent)`` pairs, in order, each exponent unpacked from its digits."""
    n, radix = basis.chart.n, basis.radix
    return [
        (index, tuple((p >> n) // radix**i % radix for i in range(n))) for index, packed in basis.groups for p in packed
    ]


def basis_elements(basis):
    """The basis as monomial polyvectors, in order."""
    chart = basis.chart
    return [
        Polyvector.term(chart, index, Poly.monomial(chart, exponent, 1))
        for index, exponent in basis_keys(basis)
    ]


def columns_of(rows, zeros=False):
    """The sparse columns ``{row: value}`` of a dense matrix given by its rows.

    Zero cells are left out unless ``zeros`` is set.
    """
    ncols = len(rows[0]) if rows else 0
    return [{r: row[c] for r, row in enumerate(rows) if zeros or row[c]} for c in range(ncols)]


def rational_diagonal_structure(rng):
    """A diagonal 4-chart whose skew matrix has rational, non-integer entries."""
    n = CHART4.n
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = Fraction(rng.randint(-3, 3), rng.randint(2, 5))
            matrix[j][i] = -matrix[i][j]
    return new_poisson(diagonal_quadratic_bivector(matrix, chart=CHART4))


class TestHomogeneityWeight:
    def test_constant_symplectic(self):
        assert homogeneity_weight(symplectic2()) == -2

    def test_diagonal_quadratic(self):
        P = new_poisson(diagonal_quadratic_bivector([[0, 1], [-1, 0]], chart=CHART2))
        assert homogeneity_weight(P) == 0

    def test_jacobian_cubic(self):
        # Quadratic coefficients on unit weights: coefficient degree 2 equals
        # m + 1 + 1, so m = 0 by the defining equation.
        P, _ = hesse_structure()
        assert homogeneity_weight(P) == 0

    def test_weighted_chart(self):
        chart = Chart(("w", "z"), (2, 3))
        P = new_poisson(Polyvector.term(chart, (0, 1), Poly.variable(chart, 0)))
        assert homogeneity_weight(P) == 2 - 2 - 3

    def test_inhomogeneous(self):
        P = new_poisson(Polyvector.term(CHART2, (0, 1), parse_poly("w + w^2", CHART2)))
        with pytest.raises(PreconditionError, match="not weight-homogeneous"):
            homogeneity_weight(P)

    def test_zero_bivector_convention(self):
        assert homogeneity_weight(new_poisson(Polyvector.zero(CHART2, 2))) == 0


class TestGradedBasis:
    def test_linear_functions(self):
        basis = graded_basis(CHART2, 0, 1)
        assert [str(e) for e in basis_elements(basis)] == ["w", "z"]

    def test_weight_formula(self):
        chart = Chart(("w", "z"), (2, 3))
        basis = graded_basis(chart, 1, -1)
        assert len(basis) > 0
        for (index, exponent) in basis_keys(basis):
            weight = chart.weighted_degree(exponent) - sum(chart.weights[i] for i in index)
            assert weight == -1

    def test_deterministic(self):
        a = graded_basis(CHART3, 2, 1)
        b = graded_basis(CHART3, 2, 1)
        assert basis_keys(a) == basis_keys(b) and basis_elements(a) == basis_elements(b)

    def test_empty_below_minimal_weight(self):
        assert len(graded_basis(CHART2, 2, -3)) == 0

    @pytest.mark.parametrize("cap,piece", [(200, "(k=1, w=1)"), (500, "(k=1, w=2)")])
    def test_a_table_past_the_cap_is_refused_before_any_piece_is_assembled(self, monkeypatch, cap, piece):
        # On the constant 8-chart the walk reaches the piece past the cap only
        # after assembling pieces of other diagonals; the refusal names the
        # same piece, the first past the cap in walk order.
        import poissonkit.graded_cohomology as module

        names = [f"x{i}" for i in range(8)]
        brackets = "\n".join(f"{{{a},{b}}} = 1" for a, b in itertools.combinations(names, 2))
        P = parse_structure_file(f"chart: {' '.join(names)}\npoisson:\n{brackets}\n").build()
        monkeypatch.setattr(module, "DEFAULT_BASIS_CAP", cap)
        monkeypatch.setattr(module, "_dpi_columns", lambda *args: pytest.fail("a piece was assembled"))
        with pytest.raises(BasisSizeExceededError, match=f"graded piece {re.escape(piece)} exceeds the basis cap {cap}"):
            cohomology_table(P, 8, 6)

    def test_cap_stops_the_enumeration(self):
        # w^e z^f of weight 10^12 under weights (5000, 1): 2 * 10^8
        # monomials, of which only the first cap + 1 are listed, and the z
        # exponents that leave a weight 5000 does not divide are skipped.
        with pytest.raises(BasisSizeExceededError, match="exceeds the basis cap 20000"):
            graded_basis(Chart(("w", "z"), (5000, 1)), 0, 10**12)
        with pytest.raises(BasisSizeExceededError, match="exceeds the basis cap 20000"):
            graded_basis(CHART2, 1, 10**12)

    def test_enumeration_matches_brute_force(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            weights = tuple(rng.choice((1, 2, 3, 4, 6, 10, 15)) for _ in range(n))
            chart = Chart(tuple(f"x{i}" for i in range(n)), weights)
            for degree in range(-1, 25):
                box = itertools.product(*(range(degree // w + 1) for w in weights))
                expected = sorted(
                    (e for e in box if chart.weighted_degree(e) == degree),
                    key=lambda e: (-sum(e), e[::-1]),
                )
                radix = degree + 2
                packed = [_pack(e, radix) << n for e in expected]
                assert _monomials_of_weighted_degree(chart, degree, len(expected), radix) == packed, (weights, degree)
                if expected:
                    assert len(_monomials_of_weighted_degree(chart, degree, len(expected) - 1, radix)) == len(expected)


class TestDpiMatrix:
    def test_zero_bivector_gives_zero_matrices(self):
        P = new_poisson(Polyvector.zero(CHART2, 2))
        for k in range(2):
            for w in range(-2, 3):
                columns = dpi_matrix(P, k, w)
                assert len(columns) == len(graded_basis(CHART2, k, w))
                assert all(column == {} for column in columns)

    def test_symplectic_functions_to_fields_is_injective(self):
        columns = dpi_matrix(symplectic2(), 0, 1)
        assert len(columns) == 2 and rank_exact(columns) == 2

    def test_composition_vanishes(self):
        P, _ = hesse_structure()
        for k in range(3):
            for w in range(0, 4):
                first = dpi_matrix(P, k, w)
                second = dpi_matrix(P, k + 1, w)
                for column in first:
                    product: dict[int, Fraction] = {}
                    for t, a in column.items():
                        for i, b in second[t].items():
                            product[i] = product.get(i, 0) + b * a
                    assert not any(product.values()), (k, w)

    def test_inhomogeneous_rejected(self):
        P = new_poisson(Polyvector.term(CHART2, (0, 1), parse_poly("w + w^2", CHART2)))
        with pytest.raises(PreconditionError):
            dpi_matrix(P, 0, 1)


class TestRankExact:
    """``rank_exact`` on the sparse columns of dense matrices, against ``gaussian_rank``."""

    def test_identity(self):
        assert rank_exact(columns_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_zero(self):
        assert rank_exact(columns_of([[0, 0], [0, 0]])) == 0
        assert rank_exact(columns_of([[0, 0], [0, 0]], zeros=True)) == 0

    def test_rank_one(self):
        assert rank_exact(columns_of([[1, 2], [2, 4]])) == 1

    def test_rational_entries(self):
        # Exactly singular: det = 1/2 - (1/3)(3/2) = 0.
        assert rank_exact(columns_of([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]])) == 1
        assert rank_exact(columns_of([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]])) == 2

    def test_agrees_with_gaussian_oracle(self, rng):
        for _ in range(40):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            matrix = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            assert rank_exact(columns_of(matrix)) == gaussian_rank(matrix)

    def test_single_lines_zero_and_mixed_rows(self):
        def rank(rows):
            assert rank_exact(columns_of(rows, zeros=True)) == gaussian_rank(rows)
            return rank_exact(columns_of(rows))

        assert rank([[0, Fraction(1, 2), 0]]) == 1
        assert rank([[0], [0], [Fraction(-3)]]) == 1
        assert rank([[0, 0, 0]]) == rank([[0], [0]]) == 0
        assert rank([[Fraction(0)] * 3] * 2) == 0
        # An int row beside a Fraction row: singular, then not.
        assert rank([[1, 2], [Fraction(1, 2), Fraction(1)]]) == 1
        assert rank([[1, 2], [Fraction(1, 2), Fraction(3, 2)]]) == 2
        assert rank([[2, Fraction(2, 3), 0], [3, 1, 0], [0, 0, Fraction(1, 7)]]) == 2

    def test_shapes_and_mixed_rows_agree_with_gaussian_oracle(self, rng):
        def cell():
            value = rng.randint(-3, 3) if rng.random() < 0.6 else 0
            return Fraction(value, rng.randint(1, 3)) if rng.random() < 0.4 else value

        for _ in range(40):
            n = rng.randint(1, 6)
            for nrows, ncols in ((1, n), (n, 1), (n, rng.randint(2, 6))):
                matrix = [[cell() for _ in range(ncols)] for _ in range(nrows)]
                for zeros in (False, True):
                    assert rank_exact(columns_of(matrix, zeros)) == gaussian_rank(matrix), matrix
                zero = [[0] * ncols for _ in range(nrows)]
                assert rank_exact(columns_of(zero, zeros=True)) == 0 == gaussian_rank(zero)

    def test_sparse_columns_against_gaussian_oracle(self):
        # Empty, zero, int and Fraction columns, alone and mixed; the oracle
        # ranks the dense rows of the same columns.
        def dense(columns):
            nrows = max((r + 1 for column in columns for r in column), default=0)
            return [[column.get(r, 0) for column in columns] for r in range(nrows)]

        cases = [
            [],
            [{}],
            [{}, {}],
            [{0: 0}, {2: Fraction(0)}],
            [{0: 3}],
            [{0: 2, 1: 4}, {0: 1, 1: 2}],
            [{0: 2, 1: 4}, {0: 1, 1: 3}],
            [{1: Fraction(1, 2)}, {1: Fraction(-3, 4)}],
            [{0: 1, 2: 2}, {0: Fraction(1, 3), 2: Fraction(2, 3)}, {1: 0, 2: 5}],
            [{0: 1, 1: 0}, {0: Fraction(1, 2), 1: Fraction(1, 7)}, {}, {3: Fraction(6, 3)}],
            [{0: 10**30}, {0: Fraction(1, 10**30)}, {0: 1, 1: 10**30 + 1}],
        ]
        for columns in cases:
            expected = gaussian_rank(dense(columns))
            assert rank_exact(columns) == expected

    def test_rebuilt_columns_are_left_as_they_are(self):
        # A plain list is ranked on int copies, all-int or not; _echelon consumes only those.
        columns = [{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 0}]
        assert rank_exact(columns) == 2
        assert columns == [{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 0}]
        columns = [{0: 2, 1: 4}, {0: 1, 1: 3}, {1: 5}]
        assert rank_exact(columns) == 2
        assert columns == [{0: 2, 1: 4}, {0: 1, 1: 3}, {1: 5}]


class TestCohomologyTable:
    def test_constant_symplectic_matches_de_rham(self):
        table = cohomology_table(symplectic2(), 2, 6)
        assert table.dim_h(0, 0) == 1
        for w in range(table.w_min, 7):
            if w != 0:
                assert table.dim_h(0, w) == 0
            assert table.dim_h(1, w) == 0
            assert table.dim_h(2, w) == 0
        assert table.euler_consistent()

    def test_zero_bivector_keeps_full_chain_dimensions(self):
        P = new_poisson(Polyvector.zero(CHART2, 2))
        table = cohomology_table(P, 2, 3)
        for entry in table.entries.values():
            assert entry.dim_h == entry.dim_chain
        assert table.euler_consistent()

    def test_jacobian_cubic_casimir_weights(self):
        P, F = hesse_structure()
        table = cohomology_table(P, 3, 6)
        assert table.dim_h(0, 1) == 0
        assert table.dim_h(0, 2) == 0
        assert table.dim_h(0, 3) == 1
        # Powers of the Casimir provide classes in weights 3j.
        assert schouten(P.pi, Polyvector.function(F * F)).is_zero
        assert table.dim_h(0, 6) >= 1
        assert table.euler_consistent()

    def test_determinism(self):
        P, _ = hesse_structure()
        a = cohomology_table(P, 2, 3)
        b = cohomology_table(P, 2, 3)
        assert a.entries == b.entries and a.euler_checks == b.euler_checks
        assert dpi_matrix(P, 1, 2) == dpi_matrix(P, 1, 2)  # entry-for-entry

    def test_euler_checks_on_nonzero_shift(self, rng):
        for _ in range(5):
            degree = rng.randint(0, 3)
            terms = {
                e: Fraction(rng.randint(-2, 2))
                for e in [(degree, 0), (degree - 1, 1) if degree else (0, 0), (0, degree)]
            }
            f = Poly(CHART2, {e: c for e, c in terms.items() if c and min(e) >= 0})
            if f.is_zero:
                f = Poly.monomial(CHART2, (degree, 0), 1)
            P = new_poisson(Polyvector.term(CHART2, (0, 1), f))
            table = cohomology_table(P, 2, 4)
            assert table.euler_consistent()

    def test_weighted_chart_table(self):
        chart = Chart(("w", "z"), (2, 3))
        P = new_poisson(Polyvector.term(chart, (0, 1), Poly.variable(chart, 0)))
        table = cohomology_table(P, 2, 4)
        assert table.euler_consistent()

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(3), Fraction(-2, 5)])
    def test_scaled_structure_has_the_same_table(self, rng, c):
        cases = [(fixture_structure("hesse_cubic"), 3, 3), (rational_diagonal_structure(rng), 4, 1)]
        for P, k_max, w_max in cases:
            scaled = new_poisson(P.pi * c)
            table = cohomology_table(P, k_max, w_max)
            other = cohomology_table(scaled, k_max, w_max)
            assert other.entries == table.entries
            assert other.euler_checks == table.euler_checks

    def test_integer_structure_builds_no_fraction(self, monkeypatch):
        import poissonkit.graded_cohomology as module
        import poissonkit.polyalg as polyalg

        def refuse(*args):
            raise AssertionError(f"Fraction{args} built on the integer path")

        P = fixture_structure("torus4")
        rational = rational_hesse_structure()
        monkeypatch.setattr(module, "Fraction", refuse)
        monkeypatch.setattr(polyalg, "Fraction", refuse)
        assert cohomology_table(P, 4, 3).euler_consistent()
        columns = dpi_matrix(P, 1, 0)
        assert columns and all(type(value) is int for column in columns for value in column.values())
        # A pi with halves gives d_pi entries that are not ints: they are built as Fractions.
        with pytest.raises(AssertionError, match="built on the integer path"):
            dpi_matrix(rational, 1, 1)

    def test_every_piece_is_ranked_through_rank_exact(self, monkeypatch):
        # Each piece with a nonempty source and target is one rank_exact call
        # on exactly the columns assembled for it, those left after clearing,
        # and no elimination runs besides the one rank_exact runs.  A piece
        # with an empty source or target is neither assembled nor ranked.
        import poissonkit.graded_cohomology as module

        events = []
        assembled = []
        assemble, rank, echelon = module._dpi_columns, module.rank_exact, module._echelon

        def assembling(table, source, target, cleared):
            assert cleared <= set(source.codes)
            columns = assemble(table, source, target, cleared)
            events.append(("piece", source.k, source.w, len(target), len(source), len(cleared), len(columns)))
            assembled.append(columns)
            return columns

        def ranking(columns):
            assert columns is assembled[-1]
            result = rank(columns)
            events.append(("rank", len(columns), result))
            return result

        def eliminating(columns):
            events.append(("echelon",))
            return echelon(columns)

        monkeypatch.setattr(module, "_dpi_columns", assembling)
        monkeypatch.setattr(module, "rank_exact", ranking)
        monkeypatch.setattr(module, "_echelon", eliminating)
        total_cleared = 0
        for P in (fixture_structure("hesse_cubic"), fixture_structure("sklyanin4"), symplectic2()):
            events.clear()
            n, m = P.chart.n, homogeneity_weight(P)
            table = cohomology_table(P, n, 3)
            assert len(events) % 3 == 0
            ranked = {}
            for start in range(0, len(events), 3):
                (kind, k, w, rows, cols, cleared, kept), inner, outer = events[start : start + 3]
                assert (kind, inner[0], outer[:2]) == ("piece", "echelon", ("rank", kept))
                assert rows and cols and kept == cols - cleared
                # Only an already ranked incoming piece clears, by its rank.
                assert cleared == 0 or cleared == ranked[(k - 1, w - m)][2]
                assert (k, w) not in ranked
                ranked[(k, w)] = (rows, cols, outer[2])
                total_cleared += cleared
            for (k, w), entry in table.entries.items():
                if (k, w) in ranked:
                    assert ranked[(k, w)] == entry.rank_certificate
                else:
                    rows = len(graded_basis(P.chart, k + 1, w + m))
                    assert entry.rank_certificate == (rows, entry.dim_chain, 0)
                    assert not (rows and entry.dim_chain)
                incoming = ranked.get((k - 1, w - m), (0, 0, 0))
                assert entry.dim_image_incoming == incoming[2]
        assert total_cleared > 0

    def test_render_text_is_aligned(self):
        table = cohomology_table(symplectic2(), 2, 2)
        lines = table.render_text().splitlines()
        assert len(lines) == 4
        assert len({len(line) for line in lines}) == 1

    def test_agrees_with_bruteforce_oracle(self, rng):
        for _ in range(3):
            degree = rng.randint(0, 3)
            coeffs = {}
            for a in range(degree + 1):
                value = Fraction(rng.randint(-2, 2))
                if value:
                    coeffs[(a, degree - a)] = value
            f = Poly(CHART2, coeffs)
            if f.is_zero:
                f = Poly.monomial(CHART2, (degree, 0), 1)
            P = new_poisson(Polyvector.term(CHART2, (0, 1), f))
            table = cohomology_table(P, 2, 4)
            oracle = bruteforce_dimension_table(P, 2, 4)
            for (k, w), dim in oracle.items():
                assert table.dim_h(k, w) == dim


def homogeneous_fixture_structures():
    out = []
    for path in sorted(FIXTURES.glob("*.poisson")):
        P = parse_structure_file(path.read_text()).build()
        try:
            homogeneity_weight(P)
        except PreconditionError:
            continue
        out.append((path.stem, P))
    return out


def fixture_structure(name):
    return parse_structure_file((FIXTURES / f"{name}.poisson").read_text()).build()


class TestDirectAssembly:
    """The columns assembled from monomial codes against schouten(pi, -) on built polyvectors."""

    def assert_images_match(self, P, weights):
        # The table holds scale * pi, so its columns are scale * d_pi, in
        # ints, keyed by the codes of the target elements.
        m = homogeneity_weight(P)
        n = P.chart.n
        table = _DerivativeTable(P, max(weights) + n * abs(m))
        for k in range(n + 1):
            for w in weights:
                source = graded_basis(P.chart, k, w, radix=table.radix)
                target = graded_basis(P.chart, k + 1, w + m, radix=table.radix)
                code_of = dict(zip(basis_keys(target), target.codes))
                columns = _dpi_columns(table, source, target)
                assert len(columns) == len(source)
                for key, element, column in zip(basis_keys(source), basis_elements(source), columns):
                    image = schouten(P.pi, element)
                    expected = {
                        code_of[(index, exponent)]: value * table.scale
                        for index, coeff in image.terms.items()
                        for exponent, value in coeff.terms.items()
                    }
                    assert column == expected, (key, str(image))
                    assert all(type(value) is int for value in column.values()), key
        return table

    def test_homogeneous_fixtures(self):
        structures = homogeneous_fixture_structures()
        assert len(structures) == 9
        for _, P in structures:
            w_min = -sum(P.chart.weights)
            self.assert_images_match(P, range(w_min, w_min + 6))

    def test_seeded_diagonal_charts(self, rng):
        for _ in range(3):
            self.assert_images_match(random_diagonal_structure(rng), range(-4, 1))

    def test_rational_structures(self, rng):
        assert self.assert_images_match(rational_hesse_structure(), range(-3, 3)).scale == 2
        for _ in range(2):
            table = self.assert_images_match(rational_diagonal_structure(rng), range(-4, 1))
            assert table.scale > 1

    @staticmethod
    def assert_columns_are_the_images(P, k, w):
        columns = dpi_matrix(P, k, w)
        source = graded_basis(P.chart, k, w)
        target = graded_basis(P.chart, k + 1, w + homogeneity_weight(P))
        row_of = {key: row for row, key in enumerate(basis_keys(target))}
        assert len(columns) == len(source)
        for element, column in zip(basis_elements(source), columns):
            image = schouten(P.pi, element)
            expected = {
                row_of[(index, exponent)]: value
                for index, coeff in image.terms.items()
                for exponent, value in coeff.terms.items()
            }
            assert column == expected
            # The Poly rule: an int when integral, a Fraction otherwise, never a zero.
            for value in column.values():
                assert value and type(value) is (int if Fraction(value).denominator == 1 else Fraction)

    def test_dpi_matrix_columns_are_the_images(self):
        P, _ = hesse_structure()
        self.assert_columns_are_the_images(P, 1, 1)

    def test_dpi_matrix_is_exact_for_a_rational_pi(self, rng):
        P = rational_hesse_structure()
        for k in range(3):
            for w in range(-1, 2):
                self.assert_columns_are_the_images(P, k, w)
        # {y, z} = 1/2 x^2 + 1/2 y z: the entries of d_pi are halves, not ints.
        assert Fraction(-1, 2) in {v for column in dpi_matrix(P, 1, 1) for v in column.values()}
        self.assert_columns_are_the_images(rational_diagonal_structure(rng), 1, -1)


def integer_columns(dense, nrows, ncols):
    """Sparse int columns of a dense rational matrix, each scaled by the lcm of its denominators."""
    columns = []
    for c in range(ncols):
        cells = [Fraction(dense[r][c]) for r in range(nrows)]
        scale = lcm(*(x.denominator for x in cells))
        columns.append({r: int(x * scale) for r, x in enumerate(cells) if x})
    return columns


def hadamard_bound(columns):
    """Product over the columns of their Euclidean norms, rounded up; bounds every minor."""
    bound = 1
    for column in columns:
        bound *= isqrt(sum(v * v for v in column.values())) + 1
    return bound


class TestBlockRank:
    """Block-sparse matrices ranked by one sparse elimination over their columns."""

    def random_block_sparse(self, rng):
        """A block-diagonal rational matrix with zero lines, rows and columns permuted."""
        blocks = []
        for _ in range(rng.randint(0, 4)):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            block = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)
                 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            if nrows >= 3 and rng.random() < 0.5:
                block[2] = [a + b for a, b in zip(block[0], block[1])]
            blocks.append(block)
        nrows = sum(len(b) for b in blocks) + rng.randint(0, 2)
        ncols = sum(len(b[0]) for b in blocks) + rng.randint(0, 2)
        dense = [[Fraction(0)] * ncols for _ in range(nrows)]
        r0 = c0 = 0
        for block in blocks:
            for i, row in enumerate(block):
                dense[r0 + i][c0 : c0 + len(row)] = row
            r0 += len(block)
            c0 += len(block[0])
        row_order = list(range(nrows))
        col_order = list(range(ncols))
        rng.shuffle(row_order)
        rng.shuffle(col_order)
        return [[dense[r][c] for c in col_order] for r in row_order], nrows, ncols

    def test_agrees_with_gaussian_oracle(self, rng):
        for _ in range(60):
            dense, nrows, ncols = self.random_block_sparse(rng)
            expected = gaussian_rank(dense)
            assert len(_echelon(integer_columns(dense, nrows, ncols))) == expected
            assert rank_exact(columns_of(dense)) == expected

    def test_empty_shapes(self):
        assert _echelon([]) == {}
        assert _echelon([{}, {}]) == {}
        assert rank_exact([]) == rank_exact([{}, {}]) == 0

    def test_blocks_sum(self):
        # Two 2x2 blocks, one singular, interleaved by the row/column order.
        dense = [
            [Fraction(1), 0, Fraction(2), 0],
            [0, Fraction(1, 2), 0, Fraction(1, 3)],
            [Fraction(2), 0, Fraction(4), 0],
            [0, Fraction(3, 2), 0, Fraction(1)],
        ]
        assert len(_echelon(integer_columns(dense, 4, 4))) == 2 == gaussian_rank(dense)


class TestSparseElimination:
    """``_echelon`` and ``rank_exact`` on the columns of dense, large-entry and rank-deficient matrices."""

    def test_echelon_stays_within_the_hadamard_bound(self, rng):
        # Each reduced column is primitive, hence a divisor of a minor of the
        # input.  Without the primitive step the entries double in length
        # with every elimination step and pass the bound at once.
        for _ in range(5):
            size = rng.randint(8, 12)
            dense = [[rng.randint(-10**12, 10**12) for _ in range(size)] for _ in range(size)]
            columns = integer_columns(dense, size, size)
            bound = hadamard_bound(columns)
            pivots = _echelon(integer_columns(dense, size, size))
            assert len(pivots) == size
            for r, (a, rest) in pivots.items():
                # Each pivot sits at its column's largest row.
                assert a and all(row < r and v for row, v in rest.items())
                assert max(abs(v) for v in (a, *rest.values())) <= bound

    def test_dense_large_entries_agree_with_gaussian_oracle(self, rng):
        for size in (1, 2, 5, 13, 40):
            dense = [[rng.randint(-10**12, 10**12) for _ in range(size)] for _ in range(size)]
            if size > 2:
                dense[-1] = [a - 3 * b for a, b in zip(dense[0], dense[1])]  # one dependent row
            expected = gaussian_rank(dense)
            assert expected == (size - 1 if size > 2 else size)
            assert len(_echelon(integer_columns(dense, size, size))) == expected
            assert rank_exact(columns_of(dense)) == expected

    def test_rank_deficient_products(self, rng):
        for _ in range(20):
            nrows, ncols, inner = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 5)
            left = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(nrows)]
            right = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(inner)]
            dense = [
                [sum(left[i][t] * right[t][j] for t in range(inner)) for j in range(ncols)]
                for i in range(nrows)
            ]
            expected = gaussian_rank(dense)
            assert expected <= inner
            assert len(_echelon(integer_columns(dense, nrows, ncols))) == expected
            # The same rows as Fractions, each scaled by a different rational.
            scaled = [[Fraction(x, i + 2) for x in row] for i, row in enumerate(dense)]
            assert rank_exact(columns_of(scaled)) == expected


class TestMonomialCodes:
    def test_weighted_chart_codes_are_distinct_at_the_smallest_radix(self):
        # The radix is one past the largest exponent, so some digit is radix - 1.
        chart = Chart(("w", "z"), (2, 3))
        for k in range(3):
            for w in range(-5, 12):
                # The keys are read at the default radix, the codes built at the smallest.
                keys = basis_keys(graded_basis(chart, k, w))
                top = max((max(e) for _, e in keys), default=0)
                basis = graded_basis(chart, k, w, radix=top + 1)
                assert len(set(basis.codes)) == len(basis.codes) == len(keys)
                for code, (index, exponent) in zip(basis.codes, keys):
                    assert code == sum(1 << i for i in index) + (_pack(exponent, top + 1) << chart.n)

    def test_cohomology_radix_leaves_room_for_every_image(self, monkeypatch):
        # An image exponent is at most a basis exponent plus deg(pi), and the
        # digit radix - 1 stays unused, so a borrow cannot alias a valid code.
        import poissonkit.graded_cohomology as module

        seen = []

        def recording(*args):
            basis = graded_basis(*args)
            seen.append(basis)
            return basis

        monkeypatch.setattr(module, "graded_basis", recording)
        for name in ("weighted_surface", "so3_linear", "symplectic4", "sklyanin4", "torus4"):
            P = fixture_structure(name)
            degree = max(sum(e) for coeff in P.pi.terms.values() for e in coeff.terms)
            seen.clear()
            cohomology_table(P, P.chart.n, 3)
            assert seen
            for basis in seen:
                top = max((x for _, e in basis_keys(basis) for x in e), default=0)
                assert top + degree < basis.radix - 1, (name, basis.k, basis.w)

    def test_table_bases_equal_bases_built_alone(self, monkeypatch, rng):
        # A table shares one {degree: (monomials, codes)} dict among its
        # pieces; every piece must come out as graded_basis builds it alone.
        import poissonkit.graded_cohomology as module

        seen = []

        def recording(chart, k, w, radix, by_degree):
            assert type(by_degree) is dict
            basis = graded_basis(chart, k, w, radix, by_degree)
            seen.append(basis)
            return basis

        chart = Chart(("a", "b", "c", "d"), tuple(rng.randint(1, 3) for _ in range(4)))
        weighted4 = new_poisson(diagonal_quadratic_bivector(random_skew_matrix(rng), chart=chart))
        structures = [fixture_structure("hesse_cubic"), fixture_structure("weighted_surface"), weighted4]
        monkeypatch.setattr(module, "graded_basis", recording)
        for P in structures:
            seen.clear()
            cohomology_table(P, P.chart.n, 4)
            assert len(seen) > P.chart.n
            for basis in seen:
                alone = graded_basis(P.chart, basis.k, basis.w, radix=basis.radix)
                assert basis.groups == alone.groups, (P.chart, basis.k, basis.w)
                assert basis.codes == alone.codes, (P.chart, basis.k, basis.w)

    @pytest.mark.parametrize("name", ["hesse_cubic", "sklyanin4", "weighted_surface"])
    def test_wrong_shift_breaks_homogeneity(self, name):
        P = fixture_structure(name)
        m = homogeneity_weight(P)
        n = P.chart.n
        for var in range(n):
            for step in (-1, 1):
                table = _DerivativeTable(P, 4 + n * abs(m))
                unit = step * (table.radix**var << n)
                table.by_x = [[(pair, packed + unit, c) for pair, packed, c in terms] for terms in table.by_x]
                raised = 0
                for k in range(n):
                    for w in range(4):
                        source = graded_basis(P.chart, k, w, radix=table.radix)
                        target = graded_basis(P.chart, k + 1, w + m, radix=table.radix)
                        try:
                            _dpi_columns(table, source, target)
                        except AssertionError as exc:
                            assert "homogeneity is broken" in str(exc)
                            raised += 1
                assert raised, (name, var, step)


class TestOracleOnLargerCharts:
    def assert_matches_bruteforce(self, P, k_max, w_max):
        table = cohomology_table(P, k_max, w_max)
        oracle = bruteforce_dimension_table(P, k_max, w_max)
        for (k, w), dim in oracle.items():
            assert table.dim_h(k, w) == dim, (k, w)

    def test_hesse_cubic(self):
        self.assert_matches_bruteforce(fixture_structure("hesse_cubic"), 3, 2)

    def test_so3_linear(self):
        self.assert_matches_bruteforce(fixture_structure("so3_linear"), 3, 2)

    def test_seeded_diagonal_chart(self, rng):
        self.assert_matches_bruteforce(random_diagonal_structure(rng), 4, 1)


class TestClearing:
    """Ranks of cleared pieces against the full columns of each piece, built afresh."""

    def assert_ranks_match_full_columns(self, P, w_max):
        # dpi_matrix assembles every column of a piece on its own, so no
        # pivot row of another piece can leave one out.
        n, m = P.chart.n, homogeneity_weight(P)
        table = cohomology_table(P, n, w_max)
        for (k, w), entry in table.entries.items():
            assert entry.rank_certificate[2] == rank_exact(dpi_matrix(P, k, w)), (k, w)
            incoming = rank_exact(dpi_matrix(P, k - 1, w - m)) if k else 0
            assert entry.dim_image_incoming == incoming, (k, w)

    def test_homogeneous_fixtures(self):
        for name, P in homogeneous_fixture_structures():
            self.assert_ranks_match_full_columns(P, -sum(P.chart.weights) + 7)

    def test_seeded_diagonal_and_weighted_charts(self, rng):
        for _ in range(2):
            self.assert_ranks_match_full_columns(random_diagonal_structure(rng), 3)
            chart = Chart(("a", "b", "c", "d"), tuple(rng.randint(1, 3) for _ in range(4)))
            self.assert_ranks_match_full_columns(new_poisson(diagonal_quadratic_bivector(random_skew_matrix(rng), chart=chart)), 3)

    def test_sklyanin4_eliminates_half_the_columns(self, monkeypatch):
        # Without clearing, --wmax 9 eliminates 22,569 columns; clearing
        # drops those at the pivot rows of the incoming pieces.
        import poissonkit.graded_cohomology as module

        eliminated = []
        echelon = module._echelon

        def counting(columns):
            eliminated.append(len(columns))
            return echelon(columns)

        monkeypatch.setattr(module, "_echelon", counting)
        table = cohomology_table(fixture_structure("sklyanin4"), 4, 9)
        assert table.euler_consistent()
        assert sum(eliminated) <= 11600

    def test_sklyanin4_pivots_stay_sparse_and_small(self, monkeypatch):
        # Pivoting on the largest monomial code ends with 83,537 pivot
        # entries of at most 25 bits through weight 9; the largest position
        # in the target basis, which orders the multi-index first, ended
        # with 106,450 entries of up to 89 bits.
        import poissonkit.graded_cohomology as module

        entries, bits = [], []
        echelon = module._echelon

        def measuring(columns):
            pivots = echelon(columns)
            for a, rest in pivots.values():
                entries.append(1 + len(rest))
                bits.append(max(abs(v) for v in (a, *rest.values())).bit_length())
            return pivots

        monkeypatch.setattr(module, "_echelon", measuring)
        cohomology_table(fixture_structure("sklyanin4"), 4, 9)
        assert sum(entries) <= 95000
        assert max(bits) <= 48


class TestDiagonalClosedForm:
    """Seeded diagonal structures against ``oracles.diagonal_dimension_table``.

    Diagonal pieces split into blocks by multidegree and do not fill in, so
    this checks the assembly's signs, the bookkeeping and the ranks at
    sizes the brute-force oracle cannot reach, not fill-heavy elimination.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_seeded_diagonal_charts(self, rng, n):
        chart = Chart(tuple(f"x{i}" for i in range(1, n + 1)))
        for denominators in ((1,), (1, 2, 3, 4)):
            lam = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    lam[i][j] = Fraction(rng.randint(-3, 3), rng.choice(denominators))
                    lam[j][i] = -lam[i][j]
            table = cohomology_table(new_poisson(diagonal_quadratic_bivector(lam, chart=chart)), n, 3)
            oracle = diagonal_dimension_table(lam, n, 3)
            assert table.entries.keys() == oracle.keys()
            for (k, w), dim in oracle.items():
                assert table.dim_h(k, w) == dim, (lam, k, w)
            if n == 6:
                assert max(entry.dim_chain for entry in table.entries.values()) > 10000

    def test_seeded_weighted_charts(self, rng):
        # Under chart weights m is still 0, and one table's pieces share each
        # weighted degree's monomials across multi-indices of different weights.
        for _ in range(12):
            n = rng.randint(2, 4)
            weights = [rng.randint(1, 3) for _ in range(n)]
            weights[rng.randrange(n)] = rng.randint(2, 3)  # so a weight-blind count differs
            chart = Chart(tuple(f"x{i}" for i in range(1, n + 1)), tuple(weights))
            lam = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    lam[i][j] = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                    lam[j][i] = -lam[i][j]
            table = cohomology_table(new_poisson(diagonal_quadratic_bivector(lam, chart=chart)), n, 6)
            oracle = diagonal_dimension_table(lam, n, 6, weights)
            assert table.weight_shift == 0 and table.entries.keys() == oracle.keys()
            for (k, w), dim in oracle.items():
                assert table.dim_h(k, w) == dim, (weights, lam, k, w)


class TestClosedForms:
    """Tables at --wmax 7, out of reach of the dense assembly and rank."""

    def test_symplectic4_only_constants(self):
        table = cohomology_table(fixture_structure("symplectic4"), 4, 7)
        for (k, w), entry in table.entries.items():
            assert entry.dim_h == (1 if (k, w) == (0, 0) else 0), (k, w)
        assert table.euler_consistent()

    def test_so3_casimirs_in_even_weights(self):
        table = cohomology_table(fixture_structure("so3_linear"), 3, 7)
        for w in range(table.w_min, 8):
            expected = 1 if w >= 0 and w % 2 == 0 else 0
            assert table.dim_h(0, w) == expected, w

    def test_sklyanin4_casimir_algebra(self):
        # H^0 is C[f1, f2] with f1, f2 quadrics: dim H^0_w = w/2 + 1 for
        # even w >= 0, and 0 otherwise.
        table = cohomology_table(fixture_structure("sklyanin4"), 4, 7)
        for w in range(table.w_min, 8):
            expected = w // 2 + 1 if w >= 0 and w % 2 == 0 else 0
            assert table.dim_h(0, w) == expected, w
        assert table.euler_consistent()

    def test_torus4_euler_consistent(self):
        assert cohomology_table(fixture_structure("torus4"), 4, 7).euler_consistent()

    def test_quintic_feigin_odesskii_member_has_one_quintic_casimir(self):
        # q_{5,1}(E) has one Casimir, of degree 5 (Odesskii, Elliptic
        # algebras, Russian Math. Surveys 2002), so no constant-free
        # function of degree 1 or 2 commutes with every coordinate.
        P = parse_structure_file(quintic_member_text()).build()
        table = cohomology_table(P, 0, 2)
        assert [table.dim_h(0, w) for w in range(3)] == [1, 0, 0]
        assert table.euler_consistent()


def quintic_member_text():
    """A rational member of the Feigin-Odesskii family q_{5,1} on C^5.

    {x0, x1} and {x0, x2} and their images under sigma: x_i -> x_{i+1},
    indices mod 5; a pair that wraps past x4 is listed in chart order,
    with its bracket negated.
    """
    brackets = {1: "x0*x1 - 5/2*x3^2 + 5*x2*x4", 2: "-5/2*x1^2 + 2*x0*x2 - 5*x3*x4"}
    lines = []
    for d, bracket in brackets.items():
        for i in range(5):
            shifted = re.sub(r"x(\d)", lambda v: f"x{(int(v.group(1)) + i) % 5}", bracket)
            lines.append(f"{{x{i},x{i + d}}} = {shifted}" if i + d < 5 else f"{{x{(i + d) % 5},x{i}}} = -({shifted})")
    return "chart: x0 x1 x2 x3 x4\npoisson:\n" + "\n".join(sorted(lines)) + "\n"


def monomials_of_degree(chart, degree):
    return [Poly.monomial(chart, e, 1) for e in itertools.product(range(degree + 1), repeat=chart.n) if sum(e) == degree]


class TestFirstOrderDeformations:
    """Tangents to the family of a Jacobian structure span its H^2_0 (the paper's deformation claim, first order).

    A tangent is the derivative of the family's bivector along one Casimir
    moved by one monomial; it lies in C^2_0, is a cocycle, and with the
    image of d_pi on C^1_0 it spans the kernel of d_pi on C^2_0.
    """

    @staticmethod
    def coordinates(basis, t):
        """The column of a bivector in ``basis``, keyed by position."""
        position = {key: row for row, key in enumerate(basis_keys(basis))}
        return {position[(index, exponent)]: value for index, coeff in t.terms.items() for exponent, value in coeff.terms.items()}

    def assert_tangents_span(self, P, tangents, dims):
        basis = graded_basis(P.chart, 2, 0)
        outgoing = dpi_matrix(P, 2, 0)
        image = dpi_matrix(P, 1, 0)
        kernel, incoming = len(basis) - rank_exact(outgoing), rank_exact(image)
        assert (len(basis), kernel, incoming, kernel - incoming) == dims
        columns = [self.coordinates(basis, t) for t in tangents]
        for column in columns:
            assert self.is_cocycle(outgoing, column)
        # Dropping one term of the longest tangent leaves the kernel.
        broken = dict(max(columns, key=len))
        broken.pop(next(iter(broken)))
        assert not self.is_cocycle(outgoing, broken)
        assert rank_exact(image + columns) == kernel

    @staticmethod
    def is_cocycle(outgoing, column):
        image = {}
        for j, c in column.items():
            for row, v in outgoing[j].items():
                image[row] = image.get(row, 0) + c * v
        return not any(image.values())

    def test_sklyanin4_tangents_span_h2_0(self):
        P = fixture_structure("sklyanin4")
        chart, volume = P.chart, covolume(P.chart)
        f1 = parse_poly("x0^2 + x1^2 + x2^2 + x3^2", chart)
        f2 = parse_poly("x1^2 + 2*x2^2 + 3*x3^2", chart)
        quadrics = monomials_of_degree(chart, 2)
        assert len(quadrics) == 10
        tangents = [contract(f2, contract(q, volume)) for q in quadrics] + [contract(q, contract(f1, volume)) for q in quadrics]
        self.assert_tangents_span(P, tangents, (60, 17, 15, 2))

    def test_hesse_cubic_tangents_span_h2_0(self):
        P = fixture_structure("hesse_cubic")
        cubics = monomials_of_degree(P.chart, 3)
        assert len(cubics) == 10
        self.assert_tangents_span(P, [contract(q, covolume(P.chart)) for q in cubics], (18, 10, 8, 2))

    def test_seeded_pencils_of_quadrics_tangents_span_h2_0(self, rng):
        # A parameter count predicts the same span as on sklyanin4: 17 - 15 = 2.
        volume, quadrics = covolume(CHART4), monomials_of_degree(CHART4, 2)
        for _ in range(2):
            f1, f2 = (sum((q * rng.randint(-3, 3) for q in quadrics), Poly.zero(CHART4)) for _ in range(2))
            P = new_poisson(contract(f2, contract(f1, volume)))
            tangents = [contract(f2, contract(q, volume)) for q in quadrics] + [contract(q, contract(f1, volume)) for q in quadrics]
            self.assert_tangents_span(P, tangents, (60, 17, 15, 2))


class TestSecondOrderDeformations:
    """The family of Jacobian structures J(g, h) = i_dh i_dg covolume stays Poisson at second order on ``sklyanin4``.

    For Casimirs moved by monomials, pi(s, u) = J(f1 + s q, f2 + u q') is
    Poisson for every s and u, and the su-coefficient of [pi(s, u), pi(s, u)]
    = 0 reads [J(q, f2), J(f1, q')] = -[pi, J(q, q')].  So the bracket of two
    first-order tangents is d_pi of a bivector of C^2_0: the obstruction to
    extending them to second order vanishes in H^3_0.
    """

    @staticmethod
    def setup():
        P = fixture_structure("sklyanin4")
        chart, volume = P.chart, covolume(P.chart)
        f1 = parse_poly("x0^2 + x1^2 + x2^2 + x3^2", chart)
        f2 = parse_poly("x1^2 + 2*x2^2 + 3*x3^2", chart)

        def jacobian(g, h):
            return contract(h, contract(g, volume))

        assert jacobian(f1, f2) == P.pi
        return P, f1, f2, jacobian, monomials_of_degree(chart, 2)

    def test_brackets_of_tangents_are_coboundaries(self):
        P, f1, f2, J, quadrics = self.setup()
        brackets = []
        for q, q2 in itertools.product(quadrics, repeat=2):
            bracket = schouten(J(q, f2), J(f1, q2))
            assert bracket == -schouten(P.pi, J(q, q2))
            brackets.append(bracket)
        assert len(brackets) == 100 and sum(not b.is_zero for b in brackets) == 90
        # Each bracket lies in the image of d_pi from C^2_0 in C^3_0.
        target = graded_basis(P.chart, 3, 0)
        image = dpi_matrix(P, 2, 0)
        columns = [TestFirstOrderDeformations.coordinates(target, b) for b in brackets]
        assert rank_exact(image + columns) == rank_exact(image) == 43

    def test_a_tangent_with_a_term_dropped_breaks_the_identity(self):
        P, f1, f2, J, quadrics = self.setup()
        q = quadrics[0]
        tangent = J(q, f2)
        index, coeff = next(iter(tangent.terms.items()))
        exponent = next(iter(coeff.terms))
        dropped = Polyvector(P.chart, 2, {**tangent.terms, index: coeff - Poly.monomial(P.chart, exponent, coeff.terms[exponent])})
        assert any(schouten(dropped, J(f1, q2)) != -schouten(P.pi, J(q, q2)) for q2 in quadrics)
