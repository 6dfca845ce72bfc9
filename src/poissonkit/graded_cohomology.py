"""Weight-graded Lichnerowicz cohomology via exact sparse matrix ranks.

For a weight-homogeneous Poisson structure the differential d_pi = [pi, -]
maps the finite-dimensional graded piece of degree k and weight w to the
piece of degree k+1 and weight w+m, where m is the structure's homogeneity
weight.  Every cohomology dimension is a rank of d_pi on one piece.

The matrices are assembled and ranked sparsely, in integers.  pi is scaled
once by the lcm s of its coefficient denominators; d_{s pi} = s d_pi has
the same ranks, and its columns are ``{row: int}``.  Each column, the image
of one monomial basis element x^e d_I, is computed straight from the
monomial key (I, e) and a table of s pi's derivatives by the odd frame
symbols and by the chart variables, built once per structure.  The signs
and target multi-indices depend on I alone, so they are tabulated once per
multi-index; a key then costs only exponent additions and int products.  No
polyvector is built and no Schouten bracket is evaluated per basis element.
The rank is the sum of the ranks of the blocks, the connected components of
the bipartite graph joining a row to a column wherever their entry is
nonzero; each block is densified and ranked by fraction-free Bareiss
elimination in :func:`rank_exact`, which takes a one-row or one-column
block's rank without eliminating.  The pieces are very sparse, so the
blocks stay small even when a basis holds thousands of elements.
:func:`dpi_matrix` divides by s again and returns the exact rational matrix
of d_pi on one piece.

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
from math import lcm
from operator import add

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

    Keys ``(multi-index, exponent)`` are ordered by multi-index (lex
    ascending), then by monomial (grevlex descending), so two runs enumerate
    identically.
    """

    chart: Chart
    k: int
    w: int
    keys: tuple[Key, ...]

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def elements(self) -> tuple[Polyvector, ...]:
        """The basis as monomial polyvectors, built from ``keys`` on first use."""
        return tuple(
            Polyvector.term(self.chart, index, Poly.monomial(self.chart, exponent, 1))
            for index, exponent in self.keys
        )

    def index_map(self) -> dict[Key, int]:
        return {key: pos for pos, key in enumerate(self.keys)}


def _monomials_of_weighted_degree(chart: Chart, degree: int) -> list[Exponent]:
    """All exponent tuples of the given weighted degree, deterministic order."""
    if degree < 0:
        return []
    n = chart.n
    weights = chart.weights
    out: list[Exponent] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == n - 1:
            if remaining % weights[i] == 0:
                out.append(prefix + (remaining // weights[i],))
            return
        for e in range(remaining // weights[i] + 1):
            rec(i + 1, remaining - e * weights[i], prefix + (e,))

    rec(0, degree, ())
    # grevlex descending within a fixed weighted degree
    out.sort(key=lambda e: (sum(e), tuple(-x for x in reversed(e))), reverse=True)
    return out


def graded_basis(chart: Chart, k: int, w: int, cap: int = DEFAULT_BASIS_CAP) -> GradedBasis:
    """Enumerate the monomial polyvectors of degree k and weight w."""
    if not 0 <= k <= chart.n:
        return GradedBasis(chart, k, w, ())
    keys: list[Key] = []
    monomials: dict[int, list[Exponent]] = {}
    for index in itertools.combinations(range(chart.n), k):
        target = w + sum(chart.weights[i] for i in index)
        if target not in monomials:
            monomials[target] = _monomials_of_weighted_degree(chart, target)
        for exponent in monomials[target]:
            keys.append((index, exponent))
            if len(keys) > cap:
                raise BasisSizeExceededError(
                    f"graded piece (k={k}, w={w}) exceeds the basis cap {cap}"
                )
    return GradedBasis(chart, k, w, tuple(keys))


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
    """d_pi on monomial keys, from pi's partial derivatives tabulated once.

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
    of dpi/dx_i.

    The signs and target multi-indices of [pi, x^e d_I] depend on I alone,
    not on e, so they are worked out once per multi-index (:meth:`moves`)
    and every key with that index only adds exponents and multiplies ints.
    """

    __slots__ = ("scale", "by_theta", "by_x", "_moves")

    def __init__(self, P: PoissonStructure):
        n = P.chart.n
        self.scale = lcm(
            *(value.denominator for coeff in P.pi.terms.values() for value in coeff.terms.values())
        )
        self.by_theta: list[list[tuple[int, Exponent, int]]] = [[] for _ in range(n)]
        self.by_x: list[list[tuple[MultiIndex, Exponent, int]]] = [[] for _ in range(n)]
        for (a, b), coeff in P.pi.terms.items():
            for exponent, value in coeff.terms.items():
                c = value.numerator * (self.scale // value.denominator)
                self.by_theta[a].append((b, exponent, c))
                self.by_theta[b].append((a, exponent, -c))
                for i, power in enumerate(exponent):
                    if power:
                        shift = exponent[:i] + (power - 1,) + exponent[i + 1 :]
                        self.by_x[i].append(((a, b), shift, power * c))
        self._moves: dict[MultiIndex, tuple[list, list]] = {}

    def moves(self, index: MultiIndex) -> tuple[list, list]:
        """The signed moves of [pi, x^e d_index], computed once per index.

        ``by_var[i]`` lists ``(target, shift, c)`` for the terms that
        differentiate x^e by x_i: each adds ``c * e_i`` at
        ``(target, e + shift)``, with the -1 of the derivative already in
        ``shift``.  ``fixed`` lists ``(target, shift, c)`` for the terms
        that differentiate pi: each adds ``c`` at ``(target, e + shift)``.
        """
        cached = self._moves.get(index)
        if cached is not None:
            return cached
        by_var: list[list[tuple[MultiIndex, Exponent, int]]] = []
        for i, terms in enumerate(self.by_theta):
            # -(dpi/dtheta_i) ^ (e_i x^(e - delta_i) d_I)
            out = []
            for j, shift, value in terms:
                if j in index:
                    continue
                below = sum(1 for r in index if r < j)
                shift = shift[:i] + (shift[i] - 1,) + shift[i + 1 :]
                out.append((tuple(sorted(index + (j,))), shift, value if below % 2 else -value))
            by_var.append(out)
        fixed: list[tuple[MultiIndex, Exponent, int]] = []
        for pos, i in enumerate(index):
            rest = index[:pos] + index[pos + 1 :]
            # -((-1)^pos x^e d_rest) ^ (dpi/dx_i)
            for pair, shift, value in self.by_x[i]:
                if pair[0] in rest or pair[1] in rest:
                    continue
                inversions = sum(1 for r in rest for q in pair if r > q)
                fixed.append(
                    (tuple(sorted(rest + pair)), shift, value if (pos + inversions) % 2 else -value)
                )
        self._moves[index] = (by_var, fixed)
        return by_var, fixed

    def image(self, index: MultiIndex, exponent: Exponent) -> dict[Key, int]:
        """The nonzero terms of [scale * pi, x^exponent d_index], by monomial key."""
        by_var, fixed = self.moves(index)
        out: dict[Key, int] = {}
        for i, power in enumerate(exponent):
            if not power:
                continue
            for target, shift, value in by_var[i]:
                key = (target, tuple(map(add, exponent, shift)))
                out[key] = out.get(key, 0) + power * value
        for target, shift, value in fixed:
            key = (target, tuple(map(add, exponent, shift)))
            out[key] = out.get(key, 0) + value
        return {key: value for key, value in out.items() if value}


def _dpi_columns(
    table: _DerivativeTable, source: GradedBasis, target: GradedBasis
) -> list[dict[int, int]]:
    """Sparse int columns {row: value} of ``table.scale`` * d_pi from ``source`` into ``target``."""
    lookup = target.index_map()
    columns: list[dict[int, int]] = []
    for index, exponent in source.keys:
        column: dict[int, int] = {}
        for key, value in table.image(index, exponent).items():
            row = lookup.get(key)
            if row is None:
                raise AssertionError(
                    "image leaves the expected graded piece; homogeneity is broken"
                )
            column[row] = value
        columns.append(column)
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
    source = graded_basis(P.chart, k, w, cap)
    target = graded_basis(P.chart, k + 1, w + m, cap)
    table = _DerivativeTable(P)
    columns = _dpi_columns(table, source, target)
    entries = tuple(
        tuple(Fraction(column.get(row, 0), table.scale) for column in columns)
        for row in range(len(target))
    )
    return RationalMatrix(len(target), len(source), entries)


def _block_rank(columns: list[dict[int, int]], nrows: int) -> int:
    """Rank of a sparse matrix given by its integer columns {row: value}.

    Rows joined by a column fall in one block (union-find over the rows), so
    the blocks are the connected components of the bipartite row/column
    nonzero graph, and the rank is the sum of the block ranks.  Each block
    is densified and ranked by one call of :func:`rank_exact`; its cells
    are ints, so no ``Fraction`` enters the rank.
    """
    parent = list(range(nrows))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for column in columns:
        rows = iter(column)
        first = next(rows, None)
        if first is None:
            continue
        root = find(first)
        for r in rows:
            other = find(r)
            if other != root:
                parent[other] = root
    blocks: dict[int, list[dict[int, int]]] = {}
    for column in columns:
        if column:
            blocks.setdefault(find(next(iter(column))), []).append(column)
    rank = 0
    for block in blocks.values():
        rows = sorted({r for column in block for r in column})
        rank += rank_exact([[column.get(r, 0) for column in block] for r in rows])
    return rank


def rank_exact(M) -> int:
    """Rank over the rationals by fraction-free Bareiss elimination.

    ``M`` is a :class:`RationalMatrix` or a sequence of rows.  A row whose
    cells are all ints is eliminated as it is; only a row with another
    cell (a ``Fraction``, say) is converted, and its denominators cleared,
    which does not change the rank.  A matrix with one row or one column
    has rank 1 if any cell is nonzero and 0 otherwise, with no elimination.
    """
    rows = list(M.entries if isinstance(M, RationalMatrix) else M)
    if not rows or not rows[0]:
        return 0
    if len(rows) == 1 or len(rows[0]) == 1:
        return 1 if any(x for row in rows for x in row) else 0
    work: list[list[int]] = []
    for row in rows:
        if all(type(x) is int for x in row):
            work.append(list(row))
        else:
            fracs = [Fraction(x) for x in row]
            scale = lcm(*(f.denominator for f in fracs))
            work.append([f.numerator * (scale // f.denominator) for f in fracs])
    nrows, ncols = len(work), len(work[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                work[r][c] = (work[r][c] * work[rank][col] - work[r][col] * work[rank][c]) // prev
            work[r][col] = 0
        prev = work[rank][col]
        rank += 1
        if rank == nrows:
            break
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

    table = _DerivativeTable(P)
    bases: dict[tuple[int, int], GradedBasis] = {}
    ranks: dict[tuple[int, int], tuple[int, int, int]] = {}

    def basis(k: int, w: int) -> GradedBasis:
        if not 0 <= k <= n:
            return GradedBasis(chart, max(k, 0), w, ())
        key = (k, w)
        if key not in bases:
            bases[key] = graded_basis(chart, k, w, cap)
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
            ranks[key] = (len(target), len(source), _block_rank(columns, len(target)))
        return ranks[key]

    def dim_h(k: int, w: int) -> int:
        dim_chain = len(basis(k, w))
        rank_out = rank_of(k, w)[2]
        rank_in = rank_of(k - 1, w - m)[2] if k > 0 else 0
        return dim_chain - rank_out - rank_in

    entries: dict[tuple[int, int], TableEntry] = {}
    for k in range(k_max + 1):
        for w in range(w_min, w_max + 1):
            dim_chain = len(basis(k, w))
            cert = rank_of(k, w)
            rank_in = rank_of(k - 1, w - m)[2] if k > 0 else 0
            kernel = dim_chain - cert[2]
            entries[(k, w)] = TableEntry(
                k=k,
                w=w,
                dim_chain=dim_chain,
                dim_kernel=kernel,
                dim_image_incoming=rank_in,
                dim_h=kernel - rank_in,
                rank_certificate=cert,
            )

    checks = []
    for w0 in range(w_min, w_max + 1):
        chain_sum = 0
        cohomology_sum = 0
        for k in range(n + 1):
            w = w0 + k * m
            sign = -1 if k % 2 else 1
            chain_sum += sign * len(basis(k, w))
            cohomology_sum += sign * dim_h(k, w)
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
