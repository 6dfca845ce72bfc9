"""Weight-graded Lichnerowicz cohomology via exact sparse matrix ranks.

For a weight-homogeneous Poisson structure the differential d_pi = [pi, -]
maps the finite-dimensional graded piece of degree k and weight w to the
piece of degree k+1 and weight w+m, where m is the structure's homogeneity
weight.  Every cohomology dimension is a rank of d_pi on one piece.

The matrices are assembled and ranked sparsely, in integers.  pi is scaled
once by the lcm s of its coefficient denominators; d_{s pi} = s d_pi has
the same ranks, and its columns are ``{row: int}``.  A monomial polyvector
x^e d_I is one int code, ``mask(I) + (sum_i e_i R^i << n)``, with the radix
R fixed once per table past every exponent that a touched piece or an image
can reach, so the codes of a piece are distinct and an exponent shift is
one int addition.  Each column, the image of one basis element, comes
straight from its code and a table of s pi's derivatives by the odd frame
symbols and by the chart variables, built once per structure: the image
terms are code offsets with int coefficients, tabulated once per
multi-index, so a key costs int additions and products and one
``{code: row}`` lookup per term.  No polyvector is built and no Schouten
bracket is evaluated per basis element.  The rank of a piece is one
fraction-free sparse elimination over its columns (:func:`_echelon`),
which keeps each reduced column primitive; :func:`rank_exact` clears the
denominators of a dense matrix's rows and runs the same elimination.
:func:`dpi_matrix` divides by s again and returns the exact rational
matrix of d_pi on one piece.

Weights: a monomial polyvector  x^e d_{i1}^...^d_{ik}  has weight
``wdeg(x^e) - (weights[i1] + ... + weights[ik])``.

The per-weight Euler-characteristic identity is checked along the diagonals
the differential actually follows, i.e. over the finite complexes
``C^0_{w0} -> C^1_{w0+m} -> ... -> C^n_{w0+nm}``; for m = 0 this is the
plain fixed-weight alternating-sum identity.

Two scope notes.  These tables are affine-chart data: for a structure that
is the cone over a projective one, the graded table is related to, but not
equal to, the cohomology of the projective quotient.  And each (k, w) piece
is independent of the others, so a caller may evaluate pieces concurrently;
the builder here runs them sequentially.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import BasisSizeExceededError, PreconditionError
from .multivec import MultiIndex, Polyvector
from .poisson import PoissonStructure
from .polyalg import Chart, Exponent, Poly

DEFAULT_BASIS_CAP = 20000

Key = tuple[MultiIndex, Exponent]


class _NotHomogeneous:
    __slots__ = ()

    def __repr__(self) -> str:
        return "NOT_HOMOGENEOUS"


NOT_HOMOGENEOUS = _NotHomogeneous()


def homogeneity_weight(P: PoissonStructure):
    """The m with d_pi mapping weight w to w+m, or NOT_HOMOGENEOUS.

    Every coefficient of d_i^d_j must be weighted-homogeneous of degree
    m + weights[i] + weights[j].  The zero bivector is homogeneous of every
    weight; 0 is returned for it by convention.
    """
    chart = P.chart
    m = None
    for (i, j), coeff in P.pi.terms.items():
        target = None
        for exponent in coeff.terms:
            d = chart.weighted_degree(exponent)
            if target is None:
                target = d
            elif target != d:
                return NOT_HOMOGENEOUS
        this_m = target - chart.weights[i] - chart.weights[j]
        if m is None:
            m = this_m
        elif m != this_m:
            return NOT_HOMOGENEOUS
    return 0 if m is None else m


@dataclass(frozen=True)
class GradedBasis:
    """Ordered monomial basis of the degree-k, weight-w graded piece.

    ``groups`` pairs each multi-index I (lex ascending) with its monomials
    x^e (grevlex descending), so two runs enumerate identically.  ``codes``
    holds one int per element in that order, ``mask(I) + (sum_i e_i
    radix^i << n)``, where ``mask(I)`` has bit i set for each i in I and
    ``radix`` exceeds every exponent of the piece.
    """

    chart: Chart
    k: int
    w: int
    radix: int
    groups: tuple[tuple[MultiIndex, tuple[Exponent, ...]], ...]
    codes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def keys(self) -> tuple[Key, ...]:
        """The basis as ``(multi-index, exponent)`` pairs, in order."""
        return tuple((index, exponent) for index, exponents in self.groups for exponent in exponents)

    @cached_property
    def elements(self) -> tuple[Polyvector, ...]:
        """The basis as monomial polyvectors, built from ``keys`` on first use."""
        return tuple(
            Polyvector.term(self.chart, index, Poly.monomial(self.chart, exponent, 1))
            for index, exponent in self.keys
        )


def _pack(exponent: Exponent, radix: int) -> int:
    """sum_i exponent[i] * radix^i; a negative entry borrows, as integer arithmetic does."""
    packed = 0
    for x in reversed(exponent):
        packed = packed * radix + x
    return packed


def _monomials_of_weighted_degree(chart: Chart, degree: int) -> list[Exponent]:
    """All exponent tuples of the given weighted degree, grevlex descending."""
    if degree < 0:
        return []
    weights = chart.weights
    out: list[Exponent] = []

    def rec(i: int, remaining: int, suffix: tuple[int, ...]):
        if i == 0:
            if remaining % weights[0] == 0:
                out.append((remaining // weights[0],) + suffix)
            return
        for e in range(remaining // weights[i] + 1):
            rec(i - 1, remaining - e * weights[i], (e,) + suffix)

    # e_{n-1} ascending, then e_{n-2}, ...: grevlex descending within one
    # total degree; the stable sort then puts higher total degrees first.
    rec(chart.n - 1, degree, ())
    out.sort(key=sum, reverse=True)
    return out


def graded_basis(
    chart: Chart, k: int, w: int, cap: int = DEFAULT_BASIS_CAP, radix: int | None = None
) -> GradedBasis:
    """Enumerate the monomial polyvectors of degree k and weight w.

    ``radix`` must exceed every exponent of the piece; by default it is
    ``w + sum(weights) + 1``, past the largest weighted degree of a monomial.
    """
    n = chart.n
    if radix is None:
        radix = max(w + sum(chart.weights), 0) + 1
    groups: list[tuple[MultiIndex, tuple[Exponent, ...]]] = []
    codes: list[int] = []
    if 0 <= k <= n:
        by_degree: dict[int, tuple[tuple[Exponent, ...], list[int]]] = {}
        for index in itertools.combinations(range(n), k):
            target = w + sum(chart.weights[i] for i in index)
            if target not in by_degree:
                monomials = tuple(_monomials_of_weighted_degree(chart, target))
                by_degree[target] = (monomials, [_pack(e, radix) << n for e in monomials])
            monomials, packed = by_degree[target]
            if not monomials:
                continue
            if len(codes) + len(monomials) > cap:
                raise BasisSizeExceededError(
                    f"graded piece (k={k}, w={w}) exceeds the basis cap {cap}"
                )
            mask = sum(1 << i for i in index)
            codes.extend([mask + p for p in packed])
            groups.append((index, monomials))
    return GradedBasis(chart, k, w, radix, tuple(groups), tuple(codes))


@dataclass(frozen=True)
class RationalMatrix:
    """A dense exact matrix, rows x cols, entries Fraction."""

    nrows: int
    ncols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.nrows or any(len(r) != self.ncols for r in self.entries):
            raise ValueError("matrix shape does not match entries")


class _DerivativeTable:
    """d_pi on monomial codes, from pi's partial derivatives tabulated once.

    In the odd-coordinate model of :mod:`poissonkit.multivec`, for a
    bivector pi and b = x^e d_I,

        [pi, b] = - sum_i (dpi/dtheta_i) ^ (db/dx_i)
                  - sum_i (db/dtheta_i) ^ (dpi/dx_i),

    with d/dtheta_i the left derivative by the frame symbol d_i.  This is
    :func:`poissonkit.multivec.schouten` with its signs for |pi| = 2.

    The table holds ``scale`` * pi, where ``scale`` is the lcm of the
    denominators of pi's coefficients, so every entry is an int; since
    d_{s pi} = s d_pi with s != 0, every rank is that of d_pi.
    ``by_theta[i]`` lists the terms ``(j, exponent, c)`` of dpi/dtheta_i
    = sum_j pi_ij d_j, and ``by_x[i]`` the terms ``((a, b), exponent, c)``
    of dpi/dx_i, each exponent packed as in :class:`GradedBasis` codes.

    ``radix`` is fixed from ``w_top``, the largest weight of a piece the
    caller touches: it is the largest weighted degree of a monomial in such
    a piece, plus the degree of pi, plus 2.  Adding an image's exponent
    shift to a code then never carries between digits, and a shift that
    leaves the piece, even by borrowing, reaches a code no piece holds.
    """

    __slots__ = ("scale", "radix", "by_theta", "by_x", "_moves")

    def __init__(self, P: PoissonStructure, w_top: int):
        chart = P.chart
        n = chart.n
        terms = [
            (a, b, exponent, value)
            for (a, b), coeff in P.pi.terms.items()
            for exponent, value in coeff.terms.items()
        ]
        self.scale = lcm(*(value.denominator for *_, value in terms))
        degree = max((sum(exponent) for _, _, exponent, _ in terms), default=0)
        self.radix = radix = max(w_top + sum(chart.weights), 0) + degree + 2
        self.by_theta: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.by_x: list[list[tuple[MultiIndex, int, int]]] = [[] for _ in range(n)]
        for a, b, exponent, value in terms:
            c = value.numerator * (self.scale // value.denominator)
            packed = _pack(exponent, radix) << n
            self.by_theta[a].append((b, packed, c))
            self.by_theta[b].append((a, packed, -c))
            for i, power in enumerate(exponent):
                if power:
                    self.by_x[i].append(((a, b), packed - (radix**i << n), power * c))
        self._moves: dict[MultiIndex, tuple[list, list]] = {}

    def moves(self, index: MultiIndex) -> tuple[list, list]:
        """The signed moves of [pi, x^e d_index] as code offsets, computed once per index.

        ``by_var[i]`` lists ``(delta, c)`` for the terms that differentiate
        x^e by x_i: each adds ``c * e_i`` at code ``+ delta``, with the -1 of
        the derivative already in ``delta``.  ``fixed`` lists ``(delta, c)``
        for the terms that differentiate pi: each adds ``c`` at code
        ``+ delta``.  A delta moves the multi-index bits and the exponent
        digits at once.
        """
        cached = self._moves.get(index)
        if cached is not None:
            return cached
        n = len(self.by_theta)
        by_var: list[list[tuple[int, int]]] = []
        for i, terms in enumerate(self.by_theta):
            # -(dpi/dtheta_i) ^ (e_i x^(e - delta_i) d_I)
            unit = self.radix**i << n
            out = []
            for j, packed, value in terms:
                if j in index:
                    continue
                below = sum(1 for r in index if r < j)
                out.append(((1 << j) + packed - unit, value if below % 2 else -value))
            by_var.append(out)
        fixed: list[tuple[int, int]] = []
        for pos, i in enumerate(index):
            rest = index[:pos] + index[pos + 1 :]
            # -((-1)^pos x^e d_rest) ^ (dpi/dx_i)
            for (a, b), packed, value in self.by_x[i]:
                if a in rest or b in rest:
                    continue
                inversions = sum(1 for r in rest for q in (a, b) if r > q)
                delta = (1 << a) + (1 << b) - (1 << i) + packed
                fixed.append((delta, value if (pos + inversions) % 2 else -value))
        self._moves[index] = (by_var, fixed)
        return by_var, fixed


def _dpi_columns(
    table: _DerivativeTable, source: GradedBasis, target: GradedBasis
) -> list[dict[int, int]]:
    """Sparse int columns {row: value} of ``table.scale`` * d_pi from ``source`` into ``target``."""
    rows = {code: row for row, code in enumerate(target.codes)}
    columns: list[dict[int, int]] = []
    codes = iter(source.codes)
    try:
        for index, exponents in source.groups:
            by_var, fixed = table.moves(index)
            # zip draws from ``exponents`` first, so ``codes`` stays in step with the groups.
            for exponent, code in zip(exponents, codes):
                column: dict[int, int] = {}
                for power, terms in zip(exponent, by_var):
                    if power:
                        for delta, c in terms:
                            row = rows[code + delta]
                            column[row] = column.get(row, 0) + power * c
                for delta, c in fixed:
                    row = rows[code + delta]
                    column[row] = column.get(row, 0) + c
                if 0 in column.values():
                    column = {row: value for row, value in column.items() if value}
                columns.append(column)
    except KeyError:
        raise AssertionError("image leaves the expected graded piece; homogeneity is broken") from None
    return columns


def dpi_matrix(P: PoissonStructure, k: int, w: int, cap: int = DEFAULT_BASIS_CAP) -> RationalMatrix:
    """Exact rational matrix of d_pi from the (k, w) piece to the (k+1, w+m) piece.

    Column j holds the coordinates of d_pi applied to the j-th source basis
    element, expanded in the target basis.  The integer columns of the
    derivative table are divided by its ``scale`` here, so the entries are
    those of d_pi itself, not of a multiple.
    """
    m = homogeneity_weight(P)
    if m is NOT_HOMOGENEOUS:
        raise PreconditionError("the Poisson structure is not weight-homogeneous")
    table = _DerivativeTable(P, max(w, w + m))
    source = graded_basis(P.chart, k, w, cap, table.radix)
    target = graded_basis(P.chart, k + 1, w + m, cap, table.radix)
    columns = _dpi_columns(table, source, target)
    entries = tuple(
        tuple(Fraction(column.get(row, 0), table.scale) for column in columns)
        for row in range(len(target))
    )
    return RationalMatrix(len(target), len(source), entries)


def _echelon(columns) -> dict[int, tuple[int, dict[int, int]]]:
    """Fraction-free sparse echelon form of integer columns ``{row: value}``.

    Each column is reduced against the pivots found so far, at its smallest
    row first.  Where that row r holds b and the pivot of r holds a, the
    column becomes (a * column - b * pivot) / gcd(a, b), which clears r, and
    is then made primitive; its entries stay bounded by the minors of the
    input.  A column whose smallest row has no pivot yet becomes that row's
    pivot; a column that reduces to zero was dependent.  The result maps
    each pivot row r to ``(a, rest)``: the pivot's entry at r and its
    entries at larger rows.  Its length is the rank.  The columns are
    consumed.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for column in columns:
        while column:
            r = min(column)
            b = column.pop(r)
            pivot = pivots.get(r)
            if pivot is None:
                pivots[r] = (b, column)
                break
            a, rest = pivot
            g = gcd(a, b)
            a //= g
            b //= g
            if a != 1:
                for row in column:
                    column[row] *= a
            for row, v in rest.items():
                x = column.get(row, 0) - b * v
                if x:
                    column[row] = x
                else:
                    del column[row]
            if column:
                g = gcd(*column.values())
                if g != 1:
                    for row in column:
                        column[row] //= g
    return pivots


def rank_exact(M) -> int:
    """Rank over the rationals of a :class:`RationalMatrix` or a sequence of rows.

    The cells are ints or ``Fraction``s.  Each row is scaled by the lcm of
    its denominators, which does not change the rank, and the integer rows
    are eliminated by :func:`_echelon` as the columns of the transpose.
    """
    rows = M.entries if isinstance(M, RationalMatrix) else M
    vectors = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        vectors.append({c: x.numerator * (scale // x.denominator) for c, x in enumerate(row) if x})
    return len(_echelon(vectors))


@dataclass(frozen=True)
class TableEntry:
    k: int
    w: int
    dim_chain: int
    dim_kernel: int
    dim_image_incoming: int
    dim_h: int
    rank_certificate: tuple[int, int, int]  # (rows, cols, rank) of the outgoing matrix


@dataclass(frozen=True)
class EulerCheck:
    """Alternating sums along one diagonal w0, w0+m, ..., w0+nm."""

    w0: int
    chain_sum: int
    cohomology_sum: int

    @property
    def consistent(self) -> bool:
        return self.chain_sum == self.cohomology_sum


@dataclass(frozen=True)
class CohomologyTable:
    """Graded cohomology dimensions with rank certificates.

    ``entries[(k, w)].dim_h`` is dim H^k in weight w.  ``euler_checks``
    records the alternating-sum identity along every differential diagonal
    starting in the displayed weight window.
    """

    structure: str
    chart: Chart
    weight_shift: int
    k_max: int
    w_min: int
    w_max: int
    entries: dict[tuple[int, int], TableEntry] = field(repr=False)
    euler_checks: tuple[EulerCheck, ...] = field(repr=False)

    def dim_h(self, k: int, w: int) -> int:
        return self.entries[(k, w)].dim_h

    def euler_consistent(self) -> bool:
        return all(check.consistent for check in self.euler_checks)

    def render_text(self) -> str:
        """Aligned plain-text table of dim H^k by weight."""
        weights = list(range(self.w_min, self.w_max + 1))
        header = ["k\\w"] + [str(w) for w in weights]
        rows = [header]
        for k in range(self.k_max + 1):
            rows.append(
                [f"H^{k}"] + [str(self.entries[(k, w)].dim_h) for w in weights]
            )
        widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        return "\n".join(lines)


def cohomology_table(
    P: PoissonStructure,
    k_max: int,
    w_max: int,
    w_min: int | None = None,
    cap: int = DEFAULT_BASIS_CAP,
) -> CohomologyTable:
    """Dimension table of graded Lichnerowicz cohomology.

    dim H^k_w = nullity of d_pi on (k, w) minus the rank of d_pi entering
    from (k-1, w-m).  The Euler identity is verified on every diagonal whose
    k=0 weight lies in the displayed window (this may evaluate pieces just
    outside the window; those are computed, not displayed).
    """
    chart = P.chart
    n = chart.n
    m = homogeneity_weight(P)
    if m is NOT_HOMOGENEOUS:
        raise PreconditionError("the Poisson structure is not weight-homogeneous")
    k_max = min(k_max, n)
    if w_min is None:
        w_min = -sum(chart.weights)

    # Every piece touched below has weight at most w_max + n|m|.
    table = _DerivativeTable(P, w_max + n * abs(m))
    bases: dict[tuple[int, int], GradedBasis] = {}
    ranks: dict[tuple[int, int], tuple[int, int, int]] = {}

    def basis(k: int, w: int) -> GradedBasis:
        key = (k, w)
        if key not in bases:
            bases[key] = graded_basis(chart, k, w, cap, table.radix)
        return bases[key]

    def rank_of(k: int, w: int) -> tuple[int, int, int]:
        """(rows, cols, rank) of d_pi from (k, w) to (k+1, w+m)."""
        if not 0 <= k <= n:
            return (0, 0, 0)
        key = (k, w)
        if key not in ranks:
            source = basis(k, w)
            target = basis(k + 1, w + m)
            columns = _dpi_columns(table, source, target)
            ranks[key] = (len(target), len(source), len(_echelon(columns)))
        return ranks[key]

    pieces: dict[tuple[int, int], TableEntry] = {}

    def piece(k: int, w: int) -> TableEntry:
        """Dimensions of (k, w), for the table and the Euler sums alike."""
        key = (k, w)
        if key not in pieces:
            dim_chain = len(basis(k, w))
            cert = rank_of(k, w)
            rank_in = rank_of(k - 1, w - m)[2] if k > 0 else 0
            kernel = dim_chain - cert[2]
            pieces[key] = TableEntry(
                k=k,
                w=w,
                dim_chain=dim_chain,
                dim_kernel=kernel,
                dim_image_incoming=rank_in,
                dim_h=kernel - rank_in,
                rank_certificate=cert,
            )
        return pieces[key]

    entries = {(k, w): piece(k, w) for k in range(k_max + 1) for w in range(w_min, w_max + 1)}
    checks = []
    for w0 in range(w_min, w_max + 1):
        chain_sum = 0
        cohomology_sum = 0
        for k in range(n + 1):
            entry = piece(k, w0 + k * m)
            sign = -1 if k % 2 else 1
            chain_sum += sign * entry.dim_chain
            cohomology_sum += sign * entry.dim_h
        checks.append(EulerCheck(w0=w0, chain_sum=chain_sum, cohomology_sum=cohomology_sum))

    return CohomologyTable(
        structure=str(P.pi),
        chart=chart,
        weight_shift=m,
        k_max=k_max,
        w_min=w_min,
        w_max=w_max,
        entries=entries,
        euler_checks=tuple(checks),
    )
