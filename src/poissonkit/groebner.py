"""Buchberger-based Groebner engine over the rationals.

Supports ideal membership (normal forms), vector-space dimension of the
quotient ring (standard monomial counts), Krull dimension of the variety via
the combinatorial independent-set criterion on the leading-term ideal, and
Tjurina numbers of affine hypersurface singularities.

grevlex is the only monomial order: every invariant read from a basis here
(a quotient dimension, a Krull dimension) does not depend on the order.
Critical pairs wait in a heap under the normal selection strategy (smallest
grevlex lcm of leading terms, ties by generator index), so output is
deterministic for a fixed input sequence.  The Gebauer--Moeller
criteria discard pairs whose S-polynomials are known to reduce to zero
before any is formed, on packed exponent fields with no exponent tuple
(:class:`_Packing`).  A step budget (one step per reduction) guards against
blowup: exceeding it raises :class:`BudgetExceededError`; nothing is ever
silently truncated.

The ideals are rational, but the arithmetic is integer, on monomials
packed into ints (:class:`_Packing`, after Monagan and Pearce, CASC 2007).
One loop, :func:`_reduce`, does every reduction: it works on packed
integer term maps, fraction-free under one running integer multiplier, and
takes each leading term as the largest key, from a divisor table of
``(packed lead, lead coefficient, packed terms)``.  Buchberger keeps its
basis primitive over Z as such entries, and unpacks and makes it monic only
at output; :func:`division` and :func:`normal_form` scale their input to
integers and rebuild the rationals from the loop's steps.  Every reduction
takes the same leading terms in the same order as a reduction over Q with a
monic basis, so the step counts, the quotients and the remainders are the
same.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import BudgetExceededError, ChartMismatchError
from .polyalg import Chart, Exponent, Poly, _div, _over_z, _positive_primitive, _primitive_terms

DEFAULT_BUDGET = 10**6


class _Infinite:
    """Cardinality marker for unbounded staircases."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _Infinite()


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced, monic Groebner basis under grevlex, the engine's only order.

    ``gens`` is sorted by leading term (ascending), which makes the reduced
    basis a canonical representative of its ideal.
    """

    chart: Chart
    gens: tuple[Poly, ...]

    def leading_exponents(self) -> list[Exponent]:
        return [g.leading()[0] for g in self.gens]

    def __str__(self) -> str:
        return "{" + ", ".join(str(g) for g in self.gens) + "}"


class _StepCounter:
    """Reduction steps left of a budget, and how far the current phase got.

    ``phase`` names the phase that spends the steps, and ``done`` counts the
    ``units`` it has finished: in Buchberger S-pairs reduced, then
    generators inter-reduced; in :func:`division` the one division.
    """

    __slots__ = ("budget", "remaining", "phase", "units", "done")

    def __init__(self, budget: int):
        self.budget = budget
        self.remaining = budget
        self.enter("S-pair reduction", "S-pairs reduced")

    def enter(self, phase: str, units: str):
        self.phase = phase
        self.units = units
        self.done = 0

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError(
                f"Groebner step budget exceeded in {self.phase}: all {self.budget} steps spent, "
                f"{self.done} {self.units}; raise it with a larger budget"
            )


# A packing holds total degrees up to 2**_HEADROOM times the inputs' largest,
# so an S-pair lcm up to that degree needs no re-pack.
_HEADROOM = 2


class _Packing:
    """Monomials in n variables packed into one int each, for total degrees below ``limit``.

    Field i (bits i*w to i*w + w - 1) holds e_i in its low b = w - 1 bits;
    its top bit is a guard.  The fields F(e) = sum(e_i << i*w) pack to
    K(e) = (|e| << n*w) - F(e), so F(e) = -K(e) & ``low``, ascending K is
    ascending grevlex and K(a + b) = K(a) + K(b).  d divides e iff
    (F(e) - F(d)) & guards is 0: the difference borrows into a guard bit
    exactly when some d_i > e_i.  :meth:`lcm` reads the fieldwise max off
    the same borrows, a and b are coprime iff F(a) + F(b) is their lcm (a
    field sum has no carry), and :meth:`key` reads |e| as the digit sum
    F(e) % (2**w - 1), exact for the lcm of two packed monomials.
    """

    __slots__ = ("n", "w", "limit", "guards", "low", "shifts")

    def __init__(self, n: int, degree: int):
        self.limit = (degree + 1) << _HEADROOM
        b = (self.limit - 1).bit_length()
        self.n, self.w = n, b + 1
        self.low = (1 << n * self.w) - 1
        self.guards = self.low // ((1 << self.w) - 1) << b  # the repunit sum(1 << i*w), moved up to bit b
        self.shifts = range(0, n * self.w, self.w)

    def lcm(self, a: int, b: int) -> int:
        """F(lcm(a, b)): t keeps the guards of the fields where a_i >= b_i, and t - (t >> b) fills those fields."""
        t = ((a | self.guards) - b) & self.guards
        t -= t >> self.w - 1
        return a & t | b & ~t

    def key(self, fields: int) -> int:
        """K of the monomial with these fields."""
        return (fields % ((1 << self.w) - 1) << self.n * self.w) - fields

    def pack(self, e: Exponent) -> int:
        s = 0
        for x in reversed(e):
            s = s << self.w | x
        return (sum(e) << self.n * self.w) - s

    def unpack(self, k: int) -> Exponent:
        s, mask = -k & self.low, (1 << self.w) - 1
        return tuple([s >> shift & mask for shift in self.shifts])

    def terms(self, terms: dict) -> dict:
        return {self.pack(e): c for e, c in terms.items()}


def _sub_shift(work: dict, c: int, shift: int, terms: dict):
    """``work -= c * x^shift * terms`` on packed term maps, in place; cancelled terms are deleted."""
    for e, coeff in terms.items():
        e += shift
        acc = work.get(e, 0) - c * coeff
        if acc:
            work[e] = acc
        else:
            del work[e]


def _reduce(work: dict, m: int, table: list[tuple], guards: int, counter: _StepCounter, steps: list | None = None):
    """Reduce the packed integer term map ``work`` (consumed) by the divisor ``table``.

    ``work`` / ``m`` is the rational polynomial.  Each entry of ``table`` is
    ``(lead, A, terms)``: a divisor's packed leading monomial, its leading
    coefficient and its packed integer term map; ``guards`` is their
    packing's guard mask.  The loop is fraction-free: a step with work lead
    c and divisor lead coefficient A scales the work and m by A / gcd(A, c),
    then subtracts c / gcd(A, c) times the shifted divisor.  It spends one
    step of ``counter`` and, when ``steps`` is a list, appends
    ``(i, q, c, m)``: the first entry in ``table`` whose lead divides, the
    packed quotient monomial, and c and m as before the step.

    The work lead is ``max(work)``.  Returns ``(remainder, m)``: remainder /
    m is the rational remainder, its terms in descending grevlex order (a
    term moved at multiplier m_at is scaled by m / m_at at the end).
    """
    moved = []
    while work:
        exp = max(work)
        c = work[exp]
        for i, (lead, a, terms) in enumerate(table):
            if not (lead - exp) & guards:
                counter.spend()
                if steps is not None:
                    steps.append((i, exp - lead, c, m))
                common = math.gcd(c, a)
                scale = a // common
                if scale != 1:
                    m *= scale
                    for e in work:
                        work[e] *= scale
                _sub_shift(work, c // common, exp - lead, terms)
                break
        else:
            moved.append((exp, work.pop(exp), m))
    return {e: c * (m // m_at) for e, c, m_at in moved}, m


def division(p: Poly, divisors: list[Poly], budget: int = DEFAULT_BUDGET):
    """Multivariate division: p = sum quotients[i] * divisors[i] + remainder.

    No remainder term is divisible by any divisor's leading term.  The
    quotient trace certifies ideal membership whenever the remainder is 0.
    Each reduction step spends one step of ``budget``.

    The reduction is the fraction-free packed loop :func:`_reduce`: p is
    scaled once to integer coefficients and each divisor to its primitive
    part over Z, all packed at the width of their largest total degree.  The
    leading monomial falls at every step, so each quotient term is set once.
    A step with work lead c at multiplier m by a divisor with lead
    coefficient a has the quotient coefficient c / (a m), and the remainder
    is the loop's integer remainder over its final m: the same rationals a
    reduction over Q produces.
    """
    chart = p.chart
    primitive = [_primitive_terms(d.terms) for d in divisors]
    packing = _Packing(chart.n, max((sum(e) for terms in (p.terms, *primitive) for e in terms), default=0))
    m, work = _over_z(packing.terms(p.terms))
    table = [(lead := max(terms), terms[lead], terms) for terms in map(packing.terms, primitive)]
    counter = _StepCounter(budget)
    counter.enter("division", "divisions finished")
    steps: list = []
    remainder, m = _reduce(work, m, table, packing.guards, counter, steps)
    lead_coeffs = [d.terms[packing.unpack(lead)] for d, (lead, _, _) in zip(divisors, table)]
    quotients: list[dict] = [{} for _ in divisors]
    for i, q, c, m_at in steps:
        quotients[i][packing.unpack(q)] = _div(c, lead_coeffs[i] * m_at)
    return (
        [Poly._of(chart, q) for q in quotients],
        Poly._of(chart, {packing.unpack(e): _div(c, m) for e, c in remainder.items()}),
    )


def buchberger(gens: list[Poly], budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Critical pairs wait in a heap keyed ``(packed lcm, (i, j))``: normal
    selection with index tiebreak, so the run is deterministic for a fixed
    input sequence.  Each new element goes through the Gebauer--Moeller
    update (*On an installation of Buchberger's algorithm*, J. Symb. Comp.
    1988) on the leads' packed fields (:class:`_Packing`): its new pairs are
    grouped by lcm and the classes walked by ascending packed key, so by
    degree; a class that an earlier lcm divides is dropped (M), one pair per
    lcm is kept (F), and a class holding a pair with coprime leading terms
    is dropped whole (B); an old pair (i, j) is dropped when the new leading
    term divides its lcm and neither lcm(i, new) nor lcm(j, new) equals it
    (B_k); and elements whose leading term the new one divides form no
    further pairs.

    Elements are primitive packed term maps over Z in divisor-table entries.
    An S-polynomial is formed with integer cofactors in one pass, reduced by
    the live elements' table, which only ``add`` rebuilds, and a nonzero
    remainder joins the basis as the primitive part of its positive multiple.
    A new element with an lcm class too large for the packing re-packs the
    run wider before any pair is pushed; the order, and so the sequence,
    stays.  The run ends in one sweep over the live elements by ascending
    lead: one whose lead a kept lead divides is dropped, and each other is
    reduced by the kept ones' table, unpacked by field shifts and made monic.
    """
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        chart = gens[0].chart if gens else None
        if chart is None:
            raise ValueError("buchberger needs at least one polynomial to fix the chart")
        return GroebnerBasis(chart, ())
    chart = nonzero[0].chart
    for g in nonzero:
        if g.chart != chart:
            raise ChartMismatchError("generators live on different charts")
    counter = _StepCounter(budget)
    packing = _Packing(chart.n, max(sum(e) for g in nonzero for e in g.terms))

    basis: list[tuple] = []  # (packed leading monomial, its coefficient, packed term map), primitive over Z
    leads: list[int] = []  # the leading monomials' fields, -key & packing.low
    live: list[int] = []  # elements that still form pairs, ascending
    table: list[tuple] = []  # the divisor table of the live elements, basis[i] for i in live
    pairs: list = []  # heap of (K(lcm), (i, j))

    def repack(degree: int):
        nonlocal packing
        old, packing = packing, _Packing(chart.n, degree)
        basis[:] = [
            (packing.pack(old.unpack(k)), a, {packing.pack(old.unpack(e)): c for e, c in g.items()}) for k, a, g in basis
        ]
        leads[:] = [-k & packing.low for k, _, _ in basis]
        pairs[:] = [(packing.pack(old.unpack(k)), ij) for k, ij in pairs]  # same order, still a heap

    def add(g: dict, key: int):
        h = len(basis)
        basis.append((key, g[key], g))
        leads.append(-key & packing.low)
        while True:
            lead, fmax = leads[h], packing.lcm
            # The new pairs, grouped by lcm (F keeps a class's smallest index).
            classes: dict[int, list[int]] = {}
            for i in live:
                lcm = fmax(leads[i], lead)
                if lcm in classes:
                    classes[lcm].append(i)
                else:
                    classes[lcm] = [i]
            order = sorted(map(packing.key, classes))
            top = -(-order[-1] >> packing.n * packing.w) if order else 0  # the largest degree d: K = (d << nw) - F
            if top < packing.limit:
                break
            repack(top)
        guards, low = packing.guards, packing.low
        # B_k on the old pairs.
        kept = []
        for entry in pairs:
            lcm, (i, j) = -entry[0] & low, entry[1]
            if (lcm - lead) & guards or fmax(leads[i], lead) == lcm or fmax(leads[j], lead) == lcm:
                kept.append(entry)
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        # M: a class meets only the minimal ones before it, since a proper divisor has a smaller key.
        minimal: list[int] = []
        for key in order:
            lcm = -key & low
            for other in minimal:
                if not (lcm - other) & guards:
                    break
            else:
                minimal.append(lcm)
                members = classes[lcm]
                for i in members:
                    if leads[i] + lead == lcm:
                        break  # B
                else:
                    heapq.heappush(pairs, (key, (members[0], h)))
        live[:] = [i for i in live if (leads[i] - lead) & guards]
        live.append(h)
        table[:] = [basis[i] for i in live]

    for g in nonzero:
        terms = packing.terms(_primitive_terms(g.terms))
        add(terms, max(terms))
    while pairs:
        key, (i, j) = heapq.heappop(pairs)
        (k_i, a_i, g_i), (k_j, a_j, g_j) = basis[i], basis[j]
        common = math.gcd(a_i, a_j)
        shift, c_i = key - k_i, a_j // common
        s = {e + shift: c_i * c for e, c in g_i.items()}
        _sub_shift(s, a_i // common, key - k_j, g_j)
        remainder, m = _reduce(s, 1, table, packing.guards, counter)
        if remainder:
            add(_positive_primitive(remainder, m), next(iter(remainder)))
        counter.done += 1

    counter.enter("inter-reduction", "generators reduced")
    guards, unpack = packing.guards, packing.unpack
    kept: list[tuple] = []  # the divisor table of the generators kept so far
    monic: list[Poly] = []
    for key, _, g in sorted(table, key=lambda entry: entry[0]):
        if any(not (k - key) & guards for k, _, _ in kept):
            continue
        remainder, m = _reduce(g, 1, kept, guards, counter)
        g = _positive_primitive(remainder, m)
        a = g[key]
        kept.append((key, a, g))
        counter.done += 1
        terms = {unpack(e): c if a == 1 else _div(c, a) for e, c in g.items()}
        monic.append(Poly._of(chart, terms, unpack(key)))
    return GroebnerBasis(chart, tuple(monic))


def normal_form(p: Poly, G: GroebnerBasis, budget: int = DEFAULT_BUDGET) -> Poly:
    """Unique remainder of p modulo G: no term divisible by a leading term; one step of ``budget`` per reduction."""
    if p.chart != G.chart:
        raise ChartMismatchError("polynomial lives on a different chart")
    _, remainder = division(p, list(G.gens), budget)
    return remainder


def quotient_dimension(G: GroebnerBasis):
    """Number of standard monomials, or INFINITE when the staircase is unbounded.

    The quotient is finite-dimensional iff the leading-term ideal contains a
    pure power of every variable.  The count never lists the monomials: its
    cost grows with the number of leading terms, not with the staircase.
    """
    n = G.chart.n
    leads = G.leading_exponents()
    # The variables with a pure power among the leads, in one pass; the unit's lead is a power of each.
    powers = {i for e in leads if e.count(0) >= n - 1 for i in range(n) if e[i] or not any(e)}
    return _staircase_size(leads, n) if len(powers) == n else INFINITE


def _staircase_size(leads, n: int) -> int:
    """Exponents in N^n that no element of ``leads`` divides.

    ``leads`` must hold a pure power of every variable.  The staircase is
    sliced along the last variable: the slice at height t is the staircase
    of ``e[:-1]`` over the leads with ``e[-1] <= t``, so it changes only at
    those heights, and each run of equal slices counts once, times its width.
    In one variable the leads are pure powers and the count is the smallest.
    """
    if n == 1:
        return min(e[0] for e in leads)
    if any(not any(e) for e in leads):
        return 0  # the unit ideal, or a slice above the pure power
    heights = sorted({0, *(e[-1] for e in leads)})
    count = 0
    for low, high in zip(heights, heights[1:]):
        below = {e[:-1] for e in leads if e[-1] <= low}
        count += (high - low) * _staircase_size(below, n - 1)
    return count


def ideal_dimension(G: GroebnerBasis) -> int:
    """Krull dimension of the variety; -1 for the empty variety (1 in G).

    The dimension is the largest size of a set S of variables such that no
    leading term involves only variables from S, so it is n minus the size
    of the smallest set of variables that meets every leading term's
    support.  That set is searched depth first: each level branches on the
    variables of the smallest support the set so far misses, and a branch
    stops once it cannot beat the best set found.
    """
    n = G.chart.n
    leads = G.leading_exponents()
    if any(sum(e) == 0 for e in leads):
        return -1
    supports = sorted({frozenset(i for i in range(n) if e[i]) for e in leads}, key=len)
    best = n

    def search(chosen: frozenset):
        nonlocal best
        missed = next((s for s in supports if not s & chosen), None)
        if missed is None:
            best = len(chosen)
        elif len(chosen) + 1 < best:
            for i in missed:
                search(chosen | {i})

    search(frozenset())
    return n - best


def jacobian_ideal_basis(f: Poly, include_f: bool = True, budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """Groebner basis of (f, df/dx_1, ..., df/dx_n), or of the partials only.

    With f, its :func:`quotient_dimension` is the Tjurina number, INFINITE at a non-isolated singular point.
    """
    gens = [f] if include_f else []
    gens.extend(f.diff(i) for i in range(f.chart.n))
    return buchberger(gens, budget)
