"""Weight-graded Lichnerowicz cohomology via exact sparse matrix ranks.

For a weight-homogeneous Poisson structure the differential d_pi = [pi, -]
maps the finite-dimensional graded piece of degree k and weight w to the
piece of degree k+1 and weight w+m, where m is the structure's homogeneity
weight.  Every cohomology dimension is a rank of d_pi on one piece.

The matrices are assembled and ranked sparsely, in integers.  pi is scaled
once by the lcm s of its coefficient denominators (``polyalg._over_z``);
d_{s pi} = s d_pi has the same ranks, and its columns are ``{code: int}``.
A monomial polyvector x^e d_I is one int code, ``mask(I) + (sum_i e_i R^i
<< n)``, with the radix R a power of two fixed once per table past every
exponent that a touched piece or an image can reach, so the codes of a piece
are distinct, an exponent shift is one int addition, and an exponent is read
off the code by a shift and a mask.  The code is an element's one
key, from assembly through elimination and clearing.  Each column, the
image of one basis element, comes straight from its code and a table of s
pi's derivatives by the odd frame symbols and by the chart variables,
built once per structure: the image terms are code offsets with int
coefficients, their wedge signs those of ``multivec._merge_sign``, merged
by offset and tabulated once per multi-index, so an entry costs int
additions and products.  The pieces of one table share one enumeration of
each weighted degree's packed exponents, summed as it recurses; no exponent
tuple is kept, and a piece's codes are derived where they are read.
No polyvector is built and no Schouten bracket is evaluated per basis
element.  Only :func:`dpi_matrix` keys rows by target-basis position, and
divides by s again to return d_pi itself.  :func:`rank_exact`, the rank
of every piece with a nonempty source and target, runs one fraction-free
sparse elimination (:func:`_echelon`), which pivots on each column's
largest row, here the largest code, and keeps each reduced column primitive.

A table first lists every piece it reads, in walk order, one
:class:`GradedBasis` each, so a piece past the basis cap is refused before
any elimination.  It then walks each diagonal C^0_{w0} -> C^1_{w0+m} -> ...
once, upward in k, records only the rank out of each piece, and reads
every entry off the bases and the ranks.  Each step ranks only the
columns it can still use: those at the pivot codes of the step before are
neither assembled nor eliminated.  The pivot codes of an echelon of
the image of d_{k-1} are basis elements whose span meets that image
only in 0 and fills C^k_w with it, and d_pi kills the image, so the other
columns have the same rank.  This is the clearing, or "twist", of
persistent homology (Chen and Kerber, EuroCG 2011; Bauer, J. Appl.
Comput. Topol. 2021).  A piece whose source or target basis is empty has
rank 0 and is neither assembled nor eliminated.  Each rank certificate
``(rows, cols, rank)`` keeps the piece's full source dimension as
``cols``, while the rank comes from the uncleared columns.

Weights: a monomial polyvector  x^e d_{i1}^...^d_{ik}  has weight
``wdeg(x^e) - (weights[i1] + ... + weights[ik])``.

The per-weight Euler-characteristic sums are taken along the diagonals
the differential actually follows, i.e. over the finite complexes
``C^0_{w0} -> C^1_{w0+m} -> ... -> C^n_{w0+nm}``; for m = 0 this is the
plain fixed-weight alternating sum.  Since dim H^k = dim C^k - r_k - r_{k-1},
with r_k the rank out of degree k, the alternating sums of dim H^k and of
dim C^k agree for any ranks: the identity confirms the table's bookkeeping
(each piece and incoming rank read along the right diagonal), not the ranks.

Two scope notes.  These tables are affine-chart data: for a structure that
is the cone over a projective one, the graded table is related to, but not
equal to, the cohomology of the projective quotient.  And diagonals are
independent: a caller may walk them concurrently; one table lists all
their pieces first, sharing its degree enumeration, then walks them in turn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import BasisSizeExceededError, PreconditionError
from .multivec import MultiIndex, _merge_sign
from .poisson import PoissonStructure
from .polyalg import Chart, Exponent, _div, _over_z

DEFAULT_BASIS_CAP = 20000


def homogeneity_weight(P: PoissonStructure) -> int:
    """The m with d_pi mapping weight w to w+m.

    Every coefficient of d_i^d_j must be weighted-homogeneous of degree
    m + weights[i] + weights[j]; otherwise PreconditionError is raised.
    The zero bivector is homogeneous of every weight; 0 is returned for it
    by convention.
    """
    chart = P.chart
    shifts = {
        chart.weighted_degree(exponent) - chart.weights[i] - chart.weights[j]
        for (i, j), coeff in P.pi.terms.items()
        for exponent in coeff.terms
    }
    if len(shifts) > 1:
        raise PreconditionError("the Poisson structure is not weight-homogeneous")
    return shifts.pop() if shifts else 0


@dataclass(frozen=True)
class GradedBasis:
    """Ordered monomial basis of the degree-k, weight-w graded piece.

    ``groups`` holds a pair ``(I, packed)`` for each multi-index I (lex
    ascending) that reaches a monomial: the exponents e of its monomials x^e
    (grevlex descending), so two runs enumerate identically, each packed as
    ``sum_i e_i radix^i << n`` and shared through ``by_degree`` with every
    multi-index of the table that reaches the same weighted degree.
    ``radix`` exceeds every exponent of the piece.
    """

    chart: Chart
    k: int
    w: int
    radix: int
    groups: tuple[tuple[MultiIndex, tuple[int, ...]], ...]
    size: int

    def __len__(self) -> int:
        return self.size

    @property
    def codes(self) -> list[int]:
        """One int per element, in order: ``mask(I) + packed``, with bit i of mask(I) set for each i in I."""
        return [mask + p for index, packed in self.groups for mask in [sum(1 << i for i in index)] for p in packed]


def _pack(exponent: Exponent, radix: int) -> int:
    """sum_i exponent[i] * radix^i; a negative entry borrows, as integer arithmetic does."""
    packed = 0
    for x in reversed(exponent):
        packed = packed * radix + x
    return packed


def _monomials_of_weighted_degree(chart: Chart, degree: int, limit: int, radix: int) -> list[int]:
    """The monomials of the given weighted degree, grevlex descending, each packed as ``sum_i e_i radix^i << n``.

    The code is added up digit by digit as the exponents are chosen.  When
    there are more than ``limit``, the enumeration stops at ``limit + 1`` of
    them, so the caller sees the excess without listing the rest.
    """
    if degree < 0:
        return []
    weights = chart.weights
    units = [radix**i << chart.n for i in range(chart.n)]
    # gcds[i] divides the weighted degree of every monomial in x_0..x_{i-1}, so
    # only the e_i with gcds[i] | remaining - e_i * weights[i] can lead to one.
    gcds = [0, *itertools.accumulate(weights[:-1], gcd)]
    # total degree -> packed exponents, in the order found
    by_total: dict[int, list[int]] = {}
    found = 0

    def rec(i: int, remaining: int, total: int, packed: int):
        nonlocal found
        if i == 0:
            if remaining % weights[0] == 0:
                e = remaining // weights[0]
                by_total.setdefault(total + e, []).append(packed + e * units[0])
                found += 1
            return
        w, g = weights[i], gcds[i]
        if g == 1:
            exponents = range(remaining // w + 1)
        else:
            h = gcd(w, g)
            if remaining % h:
                return
            step = g // h
            exponents = range(remaining // h * pow(w // h, -1, step) % step, remaining // w + 1, step)
        for e in exponents:
            rec(i - 1, remaining - e * w, total + e, packed + e * units[i])
            if found > limit:
                return

    # e_{n-1} ascending, then e_{n-2}, ...: grevlex descending within one
    # total degree; higher total degrees come first.
    rec(chart.n - 1, degree, 0, 0)
    return [p for total in sorted(by_total, reverse=True) for p in by_total[total]]


def graded_basis(
    chart: Chart,
    k: int,
    w: int,
    radix: int | None = None,
    by_degree: dict[int, tuple[int, ...]] | None = None,
) -> GradedBasis:
    """Enumerate the monomial polyvectors of degree k and weight w; past the basis cap it raises.

    ``radix`` must exceed every exponent of the piece; by default it is
    ``w + sum(weights) + 1``, past the largest weighted degree of a monomial.
    ``by_degree`` maps a weighted degree to its monomials' packed exponents;
    it is filled as degrees are enumerated, so the pieces of one table that
    pass the same dict, made for the same chart and radix, enumerate each
    degree once.  When w plus the k heaviest weights is below 0, no
    multi-index reaches a monomial, and the piece is empty without a
    multi-index visited.
    """
    if radix is None:
        radix = max(w + sum(chart.weights), 0) + 1
    by_degree = {} if by_degree is None else by_degree
    n, groups, size = chart.n, [], 0
    if 0 <= k <= n and w + sum(sorted(chart.weights)[n - k :]) >= 0:
        for index in itertools.combinations(range(n), k):
            target = w + sum(chart.weights[i] for i in index)
            packed = by_degree.get(target)
            if packed is None:
                packed = by_degree[target] = tuple(_monomials_of_weighted_degree(chart, target, DEFAULT_BASIS_CAP, radix))
            if packed:
                size += len(packed)
                if size > DEFAULT_BASIS_CAP:
                    raise BasisSizeExceededError(f"graded piece (k={k}, w={w}) exceeds the basis cap {DEFAULT_BASIS_CAP}")
                groups.append((index, packed))
    return GradedBasis(chart, k, w, radix, tuple(groups), size)


class _DerivativeTable:
    """d_pi on monomial codes, from pi's partial derivatives tabulated once.

    In the odd-coordinate model of :mod:`poissonkit.multivec`, for a
    bivector pi and b = x^e d_I,

        [pi, b] = - sum_i (dpi/dtheta_i) ^ (db/dx_i)
                  - sum_i (db/dtheta_i) ^ (dpi/dx_i),

    with d/dtheta_i the left derivative by the frame symbol d_i.  This is
    :func:`poissonkit.multivec.schouten` with its signs for |pi| = 2, and
    each wedge takes its sign from the same :func:`_merge_sign`: d_j ^ d_I
    in the first sum, and d_rest ^ d_a ^ d_b, times the (-1)^pos of
    removing i at ``pos`` of I, in the second.

    The table holds ``scale`` * pi, where ``scale`` is the lcm of the
    denominators of pi's coefficients (:func:`_over_z`), so every entry is
    an int; since d_{s pi} = s d_pi with s != 0, every rank is that of d_pi.
    ``by_theta[i]`` lists the terms ``(j, exponent, c)`` of dpi/dtheta_i
    = sum_j pi_ij d_j, and ``by_x[i]`` the terms ``((a, b), exponent, c)``
    of dpi/dx_i, each exponent packed as in :class:`GradedBasis` codes.

    ``radix`` is fixed from ``w_top``, the largest weight of a piece the
    caller touches: it is the smallest power of two at least the largest
    weighted degree of a monomial in such a piece, plus the degree of pi,
    plus 2.  Adding an image's exponent shift to a code then never carries
    between digits, and a shift that leaves the piece, even by borrowing,
    reaches a code no piece holds.  Digit i of a code is its bits from
    ``n + i * log2(radix)`` on, read by a shift and a mask.
    """

    __slots__ = ("scale", "radix", "by_theta", "by_x", "_moves")

    def __init__(self, P: PoissonStructure, w_top: int):
        chart = P.chart
        n = chart.n
        self.scale, terms = _over_z(
            {(a, b, exponent): value for (a, b), coeff in P.pi.terms.items() for exponent, value in coeff.terms.items()}
        )
        degree = max((sum(exponent) for _, _, exponent in terms), default=0)
        self.radix = radix = 1 << (max(w_top + sum(chart.weights), 0) + degree + 1).bit_length()
        self.by_theta: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.by_x: list[list[tuple[MultiIndex, int, int]]] = [[] for _ in range(n)]
        for (a, b, exponent), c in terms.items():
            packed = _pack(exponent, radix) << n
            self.by_theta[a].append((b, packed, c))
            self.by_theta[b].append((a, packed, -c))
            for i, power in enumerate(exponent):
                if power:
                    self.by_x[i].append(((a, b), packed - (radix**i << n), power * c))
        self._moves: dict[MultiIndex, list[tuple[int, tuple[tuple[int, int], ...], int]]] = {}

    def moves(self, index: MultiIndex) -> list[tuple[int, tuple[tuple[int, int], ...], int]]:
        """The moves of [pi, x^e d_index] as code offsets, computed once per index.

        Each move ``(delta, slope, constant)`` adds ``constant + sum c * e_i``
        at code ``+ delta``, over the pairs ``(offset, c)`` of ``slope``, with
        e_i read from the code as ``code >> offset & (radix - 1)``.  The
        slope collects the terms that differentiate x^e by x_i, with the -1
        of the derivative already in ``delta``, and lists only the variables
        with a nonzero c; the constant collects the terms that differentiate
        pi.  A delta moves the multi-index bits and the exponent digits at
        once, and terms that reach the same code share one move, so the
        offsets of one index are distinct.  A move whose value is nonzero
        lands on a code of the target piece: a slope term counts only where
        e_i > 0.
        """
        cached = self._moves.get(index)
        if cached is not None:
            return cached
        n = len(self.by_theta)
        bits = self.radix.bit_length() - 1
        # delta -> [slope_0, ..., slope_{n-1}, constant]
        merged: dict[int, list[int]] = {}
        for i, terms in enumerate(self.by_theta):
            # -(dpi/dtheta_i) ^ (e_i x^(e - delta_i) d_I)
            unit = self.radix**i << n
            for j, packed, value in terms:
                wedged = _merge_sign((j,), index)
                if wedged is not None:
                    move = merged.setdefault((1 << j) + packed - unit, [0] * (n + 1))
                    move[i] -= wedged[0] * value
        for pos, i in enumerate(index):
            rest = index[:pos] + index[pos + 1 :]
            # -((-1)^pos x^e d_rest) ^ (dpi/dx_i)
            for ab, packed, value in self.by_x[i]:
                wedged = _merge_sign(rest, ab)
                if wedged is not None:
                    delta = (1 << ab[0]) + (1 << ab[1]) - (1 << i) + packed
                    move = merged.setdefault(delta, [0] * (n + 1))
                    move[n] -= (-1) ** pos * wedged[0] * value
        moves = [
            (delta, tuple((n + i * bits, c) for i, c in enumerate(move[:n]) if c), move[n])
            for delta, move in merged.items()
            if any(move)
        ]
        self._moves[index] = moves
        return moves


class _IntColumns(list):
    """Sparse columns that hold only nonzero ints, as :func:`_dpi_columns` builds them.

    :func:`rank_exact` ranks such a list as it is, without checking its values.
    """


def _dpi_columns(
    table: _DerivativeTable, source: GradedBasis, target: GradedBasis, cleared=frozenset()
) -> _IntColumns:
    """Sparse int columns {target code: value} of ``table.scale`` * d_pi from ``source`` into ``target``.

    The source codes in ``cleared`` are left out: no column is built for them.
    """
    columns, digit = _IntColumns(), table.radix - 1
    for index, packed in source.groups:
        moves = table.moves(index)
        mask = sum(1 << i for i in index)
        for code in packed:
            code += mask
            if code in cleared:
                continue
            column: dict[int, int] = {}
            for delta, slope, value in moves:
                for offset, c in slope:
                    value += c * (code >> offset & digit)
                if value:
                    column[code + delta] = value
            columns.append(column)
    if not set(target.codes).issuperset(itertools.chain.from_iterable(columns)):
        raise AssertionError("image leaves the expected graded piece; homogeneity is broken")
    return columns


def dpi_matrix(P: PoissonStructure, k: int, w: int) -> list[dict[int, int | Fraction]]:
    """Sparse columns ``{row: value}`` of d_pi from the (k, w) piece to the (k+1, w+m) piece.

    Column j holds the coordinates of d_pi applied to the j-th source basis
    element, expanded in the target basis.  The integer columns of the
    derivative table are keyed by position and divided by its ``scale``
    here, so the entries are those of d_pi itself, not of a multiple: an
    ``int`` when integral, a ``Fraction`` otherwise, and zeros are absent.
    """
    m = homogeneity_weight(P)
    table = _DerivativeTable(P, max(w, w + m))
    by_degree: dict = {}
    source = graded_basis(P.chart, k, w, radix=table.radix, by_degree=by_degree)
    target = graded_basis(P.chart, k + 1, w + m, radix=table.radix, by_degree=by_degree)
    rows, scale = {code: row for row, code in enumerate(target.codes)}, table.scale
    columns = _dpi_columns(table, source, target)
    return [{rows[code]: value if scale == 1 else _div(value, scale) for code, value in column.items()} for column in columns]


def _echelon(columns) -> dict[int, tuple[int, dict[int, int]]]:
    """Fraction-free sparse echelon form of integer columns ``{row: value}``.

    Each column is reduced against the pivots found so far, at its largest
    row first.  Where that row r holds b and the pivot of r holds a, the
    column becomes (a * column - b * pivot) / gcd(a, b), which clears r, and
    is then made primitive; its entries stay bounded by the minors of the
    input.  A column whose largest row has no pivot yet becomes that row's
    pivot; a column that reduces to zero was dependent.  The result maps
    each pivot row r to ``(a, rest)``: the pivot's entry at r and its
    entries at smaller rows.  Its length is the rank.  The columns are
    consumed.

    On d_pi the rows are codes, so the pivot is the largest monomial, the
    multi-index last; target positions, which order the multi-index first,
    fill in more: the pieces of ``sklyanin4`` through weight 9 end with
    83,537 pivot entries of at most 25 bits, against 106,450 of 89 bits.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for column in columns:
        while column:
            r = max(column)
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


class Rank(int):
    """An exact rank that also carries ``pivot_rows``, the frozenset of pivot rows (column keys) of its elimination."""


def rank_exact(columns: list[dict[int, int | Fraction]]) -> Rank:
    """Rank over the rationals of sparse columns ``{row: value}``, values ints or ``Fraction``s.

    The rank is that of one run of :func:`_echelon`, and its ``pivot_rows``
    are that run's pivot rows: the image of the columns meets the span of
    the other rows' unit vectors only in 0.  Columns that
    :func:`_dpi_columns` built go straight to the elimination, which
    consumes them; their pivot rows are codes.  A plain list, such as
    :func:`dpi_matrix`'s with rows at positions, is left as it is: its
    columns are copied into ints, each scaled by the lcm of its
    denominators, which does not change the rank, and without its zeros
    (:func:`_over_z`).
    """
    if type(columns) is not _IntColumns:
        columns = [_over_z({row: v for row, v in column.items() if v})[1] for column in columns]
    pivot_rows = frozenset(_echelon(columns))
    rank = Rank(len(pivot_rows))
    rank.pivot_rows = pivot_rows
    return rank


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


def cohomology_table(P: PoissonStructure, k_max: int, w_max: int) -> CohomologyTable:
    """Dimension table of graded Lichnerowicz cohomology.

    The weights run from w_min = -sum(weights), the lowest weight of a
    nonzero piece, to ``w_max``.  dim H^k_w = nullity of d_pi on (k, w)
    minus the rank of d_pi entering from (k-1, w-m).  The Euler sums are
    taken on every diagonal whose k=0 weight lies in the displayed window
    (this may evaluate pieces just outside the window; those are computed,
    not displayed); they confirm the bookkeeping, not the ranks.

    Every piece the table reads is listed first, one :func:`graded_basis`
    each, in walk order, so a table with a piece past the basis cap is
    refused before any elimination.  Each diagonal w0 is then walked once,
    upward in k over the span the table reads: 0..n for an Euler diagonal,
    k-1..k for each displayed (k, w) with w - km = w0.  Each step records
    only the rank out of its piece, and its pivot rows clear the next
    step's columns.  Every entry and Euler sum is read off the bases and
    the ranks.
    """
    chart = P.chart
    n = chart.n
    m = homogeneity_weight(P)
    k_max = min(k_max, n)
    w_min = -sum(chart.weights)
    # Each Euler diagonal lists its pieces for k = 0..n whatever k_max is, so this is refused first.
    if (n + 1) * (w_max - w_min + 1) > DEFAULT_BASIS_CAP:
        raise BasisSizeExceededError(
            f"the table's {n + 1} x {w_max - w_min + 1} entries exceed the basis cap {DEFAULT_BASIS_CAP}"
        )
    window = range(w_min, w_max + 1)

    # Every piece touched below has weight at most w_max + n|m|.
    table = _DerivativeTable(P, w_max + n * abs(m))
    by_degree: dict[int, tuple[int, ...]] = {}
    # The pieces (k, w0 + km) that the table reads, as a k span per diagonal w0.
    spans = {w0: [0, n] for w0 in window}
    for k in range(k_max + 1):
        for w in window:
            span = spans.setdefault(w - k * m, [k, k])
            span[0], span[1] = min(span[0], k), max(span[1], k)

    # Every piece the walk reads, listed in walk order before any is assembled.
    bases = {
        (k, w0 + k * m): graded_basis(chart, k, w0 + k * m, table.radix, by_degree)
        for w0, (lo, hi) in spans.items()
        for k in range(max(lo - 1, 0), hi + 2)
    }
    # ranks[(k, w)] is the rank of d_pi out of (k, w), a plain int: its pivot rows clear only the next step.
    ranks: dict[tuple[int, int], int] = {}
    for w0, (lo, hi) in spans.items():
        cleared = frozenset()
        for k in range(max(lo - 1, 0), hi + 1):
            w = w0 + k * m
            source, target = bases[(k, w)], bases[(k + 1, w + m)]
            # A piece with an empty source or target has rank 0 and is neither assembled nor ranked.
            if len(source) and len(target):
                rank = rank_exact(_dpi_columns(table, source, target, cleared))
                cleared = rank.pivot_rows
            else:
                rank, cleared = 0, frozenset()
            ranks[(k, w)] = int(rank)

    def entry(k: int, w: int) -> TableEntry:
        dim, rank = len(bases[(k, w)]), ranks[(k, w)]
        incoming = ranks[(k - 1, w - m)] if k else 0
        return TableEntry(k, w, dim, dim - rank, incoming, dim - rank - incoming, (len(bases[(k + 1, w + m)]), dim, rank))

    # Each entry is built once: an Euler diagonal reads the displayed ones and builds only those past the window.
    entries = {(k, w): entry(k, w) for k in range(k_max + 1) for w in window}
    checks = []
    for w0 in window:
        walked = [entries.get((k, w0 + k * m)) or entry(k, w0 + k * m) for k in range(n + 1)]
        chain_sum = sum((-1) ** k * piece.dim_chain for k, piece in enumerate(walked))
        cohomology_sum = sum((-1) ** k * piece.dim_h for k, piece in enumerate(walked))
        checks.append(EulerCheck(w0=w0, chain_sum=chain_sum, cohomology_sum=cohomology_sum))

    return CohomologyTable(
        chart=chart,
        weight_shift=m,
        k_max=k_max,
        w_min=w_min,
        w_max=w_max,
        entries=entries,
        euler_checks=tuple(checks),
    )
