"""Independent oracles the property tests check the engine against.

Everything here deliberately avoids the code paths it certifies: ranks are
plain rational Gaussian elimination instead of Bareiss, Tjurina numbers come
from truncated-jet linear algebra instead of Groebner bases, standard
monomials are counted one by one instead of slice by slice, Krull
dimensions try every set of variables instead of searching for the
smallest one that meets every leading support, the Gebauer--Moeller M
test compares every pair of lcms instead of walking them by degree,
multivariate division reduces over Q in ``Fraction`` arithmetic instead of fraction-free
over Z, the cohomology table is rebuilt densely with fresh matrices and
no caching, or, for diagonal structures, counted from a closed form, and
polynomial text is printed by the earlier printer, which sorts on the grevlex
key and compares, negates and ``str``-s each coefficient.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from poissonkit import Chart, Poly, Polyvector, schouten
from poissonkit.poisson import PoissonStructure
from poissonkit.graded_cohomology import homogeneity_weight


def gaussian_rank(rows) -> int:
    """Rank by textbook rational Gaussian elimination."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    if not matrix or not matrix[0]:
        return 0
    nrows, ncols = len(matrix), len(matrix[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(nrows):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def univariate_gcd_degree(f: Poly, g: Poly, var: int) -> int:
    """Degree of gcd of two univariate polynomials by the Euclidean algorithm."""

    def coeffs(p: Poly) -> list[Fraction]:
        degree = max((e[var] for e in p.terms), default=-1)
        out = [Fraction(0)] * (degree + 1)
        for exponent, coeff in p.terms.items():
            out[exponent[var]] += coeff
        return out

    def strip(c):
        while c and not c[-1]:
            c.pop()
        return c

    a, b = strip(coeffs(f)), strip(coeffs(g))
    while b:
        # a mod b
        while len(a) >= len(b) and a:
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, value in enumerate(b):
                a[i + shift] -= factor * value
            strip(a)
        a, b = b, a
    return len(a) - 1


def _monomials_up_to(chart: Chart, degree: int):
    n = chart.n
    out = []

    def rec(i, remaining, prefix):
        if i == n - 1:
            for e in range(remaining + 1):
                out.append(prefix + (e,))
            return
        for e in range(remaining + 1):
            rec(i + 1, remaining - e, prefix + (e,))

    rec(0, degree, ())
    return out


def tjurina_jet_oracle(f: Poly, jet_order: int | None = None):
    """dim of the Jacobi ring by ranks of multiplication maps on jets.

    Counts the classes of jets of order M = 2*deg f (the ``jet_order``)
    inside the space of jets of order N = M + 2*deg f modulo multiples of
    the generators: rank of [generator multiples | low-order monomials]
    minus the rank of the generator multiples alone.  Both ranks come from
    one incremental echelon pass (:class:`_SparseEchelon`): the generator
    multiples go in first, then each low-order monomial counts if it raises
    the rank.  The headroom N - M leaves room for the membership
    certificates of low-degree elements of the ideal; a single shared cap
    would strand monomials near the truncation frontier and overcount.

    Valid for isolated singular points at desk scale; the caller is
    responsible for the isolatedness hypothesis.
    """
    chart = f.chart
    degree = max(map(sum, f.terms))
    low = 2 * degree if jet_order is None else jet_order
    high = low + 2 * degree
    gens = [f] + [f.diff(i) for i in range(chart.n)]
    gens = [g for g in gens if not g.is_zero]
    index = {m: i for i, m in enumerate(_monomials_up_to(chart, high))}
    echelon = _SparseEchelon()
    for g in gens:
        gdeg = max(map(sum, g.terms))
        for m in _monomials_up_to(chart, high - gdeg):
            product = g * Poly.monomial(chart, m, 1)
            echelon.insert({index[exponent]: coeff for exponent, coeff in product.terms.items()})
    return sum(echelon.insert({index[m]: Fraction(1)}) for m in _monomials_up_to(chart, low))


class _SparseEchelon:
    """Textbook rational Gaussian elimination, one sparse row at a time.

    ``rows[p]`` is a stored row whose first nonzero position is p, scaled so
    that entry is 1.  A new row is reduced by the stored row at its first
    nonzero position until that position is free; the positions it can gain
    all lie beyond the one it loses, so the reduction ends.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    def insert(self, row: dict[int, Fraction]) -> bool:
        """Add a row; True when it raises the rank."""
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = self.rows.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                self.rows[lead] = {c: v * inv for c, v in row.items()}
                return True
            factor = row[lead]
            for c, v in pivot.items():
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
        return False


def standard_monomial_count(leads, n: int):
    """Standard monomials of a monomial ideal by walking its bounding box.

    ``leads`` generate the ideal; returns None when some variable has no
    pure power among them (an unbounded staircase).
    """
    if any(not any(e) for e in leads):
        return 0
    bounds = []
    for i in range(n):
        pure = [e[i] for e in leads if all(e[j] == 0 for j in range(n) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    return sum(
        1
        for exponent in itertools.product(*(range(b) for b in bounds))
        if not any(all(a <= b for a, b in zip(e, exponent)) for e in leads)
    )


def subset_dimension(leads, n: int) -> int:
    """Krull dimension of a monomial ideal by trying every set of variables, largest first.

    -1 when a lead is 1; otherwise the size of the largest set S of
    variables such that no lead involves only variables of S.
    """
    if any(not any(e) for e in leads):
        return -1
    supports = [frozenset(i for i in range(n) if e[i]) for e in leads]
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            s = frozenset(subset)
            if not any(support <= s for support in supports):
                return size
    return 0


def m_criterion_all_pairs(lcms) -> list[tuple[int, ...]]:
    """The Gebauer--Moeller M test pair by pair: the lcms that no other lcm properly divides.

    Every lcm is tested against every other, as ``buchberger`` once did.
    """
    return [
        lcm
        for lcm in lcms
        if not any(other != lcm and all(a <= b for a, b in zip(other, lcm)) for other in lcms)
    ]


def division_over_q(p: Poly, divisors: list[Poly], key):
    """Textbook multivariate division over Q: quotient term maps and remainder term map.

    At each step the leading term of the work polynomial is divided by the
    first divisor whose leading term divides it, or moved to the remainder.
    """
    leads = [max(d.terms, key=key) for d in divisors]
    quotients: list[dict] = [{} for _ in divisors]
    remainder = {}
    work = {e: Fraction(c) for e, c in p.terms.items()}
    while work:
        exp = max(work, key=key)
        for i, lead in enumerate(leads):
            if all(a <= b for a, b in zip(lead, exp)):
                shift = tuple(b - a for a, b in zip(lead, exp))
                q = quotients[i][shift] = work[exp] / Fraction(divisors[i].terms[lead])
                for e, c in divisors[i].terms.items():
                    t = tuple(x + y for x, y in zip(e, shift))
                    value = work.get(t, 0) - q * c
                    if value:
                        work[t] = value
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[exp] = work.pop(exp)
    return quotients, remainder


def diagonal_modular_coefficients(lam) -> list[Fraction]:
    """Hand-expansion oracle: c_k = sum_{i<k} lam[i][k] - sum_{j>k} lam[k][j]."""
    n = len(lam)
    out = []
    for k in range(n):
        value = sum((Fraction(lam[i][k]) for i in range(k)), Fraction(0))
        value -= sum((Fraction(lam[k][j]) for j in range(k + 1, n)), Fraction(0))
        out.append(value)
    return out


def diagonal_dimension_table(lam, k_max: int, w_max: int, weights=None) -> dict[tuple[int, int], int]:
    """dim H^k_w in closed form for pi = sum_{i<j} lam[i][j] x_i x_j d_i^d_j, under chart ``weights``.

    With E_i = x_i d_i, a monomial polyvector x^a d_J is x^e E_J for
    e = a - 1_J: every e_i >= -1, e_i = -1 only for i in J, and its weight
    is w = sum_i weights[i] e_i, since E_i has weight 0.  So pi has weight
    0 under every weighting, and m = 0.  The E_i commute and
    E_i(x^e) = e_i x^e, so d_pi maps x^e E_J to a multiple of
    x^e v(e)^E_J, v(e)_j = sum_i lam[i][j] e_i.  On multidegree e the sets
    J are those containing S(e) = {i : e_i = -1}, so the complex is the
    Koszul complex of wedging with v(e) off S(e): acyclic unless
    v(e)_j = 0 for every j outside S(e), and otherwise of dimension
    C(n - |S(e)|, k - |S(e)|) in degree k.  Summing over e:

        dim H^k_w = sum over e >= -1 with sum_i weights[i] e_i = w and
                    v(e) = 0 off S(e) of C(n - |S(e)|, k - |S(e)|).

    Weights default to all 1.  The table runs from -sum(weights), the
    lowest weight of a nonzero piece, to ``w_max``.
    """
    n = len(lam)
    weights = tuple(weights or (1,) * n)

    def shifted(i: int, remaining: int):
        """Every (e_i, ..., e_{n-1}), each >= -1, with sum_{j >= i} weights[j] (e_j + 1) = remaining."""
        if i == n:
            if remaining == 0:
                yield ()
            return
        for f in range(remaining // weights[i] + 1):
            for rest in shifted(i + 1, remaining - f * weights[i]):
                yield (f - 1, *rest)

    table = {}
    for w in range(-sum(weights), w_max + 1):
        dims = [0] * (n + 1)
        for e in shifted(0, w + sum(weights)):
            s = e.count(-1)
            if all(sum(lam[i][j] * e[i] for i in range(n)) == 0 for j in range(n) if e[j] != -1):
                for k in range(s, n + 1):
                    dims[k] += comb(n - s, k - s)
        for k in range(k_max + 1):
            table[(k, w)] = dims[k]
    return table


def _dense_basis(chart: Chart, k: int, w: int):
    """Basis keys for the (k, w) piece, enumerated independently.

    Order differs from the engine's on purpose: multi-indices lex, exponents
    plain lex ascending.  Weights are >= 1, so every exponent of weighted
    degree d has total degree <= d and the bounded scan below is exhaustive.
    """
    keys = []
    for index in itertools.combinations(range(chart.n), k):
        target = w + sum(chart.weights[i] for i in index)
        if target < 0:
            continue
        for exponent in sorted(_monomials_up_to(chart, target)):
            if chart.weighted_degree(exponent) == target:
                keys.append((index, exponent))
    return keys


def bruteforce_dimension_table(P: PoissonStructure, k_max: int, w_max: int, w_min: int | None = None):
    """Graded cohomology dimensions the slow way: dense matrices, no reuse.

    Builds d_pi by applying schouten to every basis element and ranks each
    matrix with Gaussian elimination, recomputing everything per (k, w).
    """
    chart = P.chart
    n = chart.n
    m = homogeneity_weight(P)
    assert isinstance(m, int)
    if w_min is None:
        w_min = -sum(chart.weights)

    def matrix_rank_and_dims(k: int, w: int):
        source = _dense_basis(chart, k, w)
        target = _dense_basis(chart, k + 1, w + m) if k + 1 <= n else []
        lookup = {key: i for i, key in enumerate(target)}
        columns = []
        for index, exponent in source:
            element = Polyvector.term(chart, index, Poly.monomial(chart, exponent, 1))
            image = schouten(P.pi, element)
            column = [Fraction(0)] * len(target)
            for tindex, coeff in image.terms.items():
                for texp, value in coeff.terms.items():
                    column[lookup[(tindex, texp)]] += value
            columns.append(column)
        if not columns or not target:
            return len(source), 0
        rows = [[c[r] for c in columns] for r in range(len(target))]
        return len(source), gaussian_rank(rows)

    table = {}
    for k in range(k_max + 1):
        for w in range(w_min, w_max + 1):
            dim_chain, rank_out = matrix_rank_and_dims(k, w)
            rank_in = matrix_rank_and_dims(k - 1, w - m)[1] if k > 0 else 0
            table[(k, w)] = dim_chain - rank_out - rank_in
    return table


def _grevlex_key(exponent):
    return (sum(exponent), tuple(-e for e in reversed(exponent)))


def format_poly_reference(p: Poly) -> str:
    """Normal-form text of p by the earlier printer: descending grevlex, each coefficient compared and ``str``-ed."""
    terms = p.terms
    if not terms:
        return "0"
    names = p.chart.names
    pieces = []
    for exponent in sorted(terms, key=_grevlex_key, reverse=True):
        coeff = terms[exponent]
        mono = "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponent) if e])
        mag = -coeff if coeff < 0 else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if pieces:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
        else:
            pieces.append(body if coeff > 0 else "-" + body)
    return " ".join(pieces)
