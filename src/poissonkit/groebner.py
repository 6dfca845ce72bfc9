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
before any is formed.  A step budget (one step per reduction) guards against
blowup: exceeding it raises :class:`BudgetExceededError`; nothing is ever
silently truncated.

The ideals are rational, but the arithmetic is integer.  One loop,
:func:`_reduce`, does every reduction: it works on integer term maps,
fraction-free under one running integer multiplier, and pops each leading
term from a grevlex heap of the work exponents.  Buchberger keeps its basis
primitive over Z, reduces its S-polynomials and inter-reduces on that basis
through :func:`_reduce` directly, builds no rational quotient, and makes
the basis monic only at output; :func:`division` and :func:`normal_form`
scale their input to integers and rebuild the rationals from the loop's
steps.  Every reduction takes the same leading terms in the same order as a
reduction over Q with a monic basis, so the step counts, the quotients and
the remainders are the same.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import BudgetExceededError, ChartMismatchError
from .polyalg import Chart, Exponent, Poly, _div, _primitive_terms, _sub_mul, grevlex_desc, grevlex_key

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

    ``phase`` names the Buchberger phase that spends the steps, and ``done``
    counts the ``units`` it has finished: S-pairs reduced, then generators
    inter-reduced.
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


def _divides(d: Exponent, e: Exponent) -> bool:
    return all(map(operator.le, d, e))


def _monomial_quotient(e: Exponent, d: Exponent) -> Exponent:
    return tuple(map(operator.sub, e, d))


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _is_coprime(a: Exponent, b: Exponent, lcm: Exponent) -> bool:
    return tuple(map(operator.add, a, b)) == lcm


def _reduce(
    work: dict,
    m: int,
    leads: list[Exponent],
    divisors: list[dict],
    counter: _StepCounter | None = None,
    steps: list | None = None,
):
    """Reduce the integer term map ``work`` (consumed) by the integer ``divisors``.

    ``work`` / ``m`` is the rational polynomial and ``leads`` are the
    divisors' grevlex leading exponents.  The loop is fraction-free: a step
    with work lead c and divisor lead A scales the work and m by
    A / gcd(A, c), then subtracts c / gcd(A, c) times the shifted divisor.
    It spends one step of ``counter`` and, when ``steps`` is a list,
    appends ``(i, q_exp, c, m)`` with c and m as before the step.

    The work exponents wait in a heap under :func:`grevlex_desc`, so each
    lead is popped, not searched for.  A popped exponent that is no longer
    in ``work`` has cancelled and is skipped; a step inserts only exponents
    below the current lead, so each term leaves the heap once, in
    descending order.  Returns ``(remainder, m)``: remainder / m is the
    rational remainder, its terms in descending grevlex order (a term moved
    at multiplier m_at is scaled by m / m_at at the end).
    """
    int_leads = [d[e] for d, e in zip(divisors, leads)]
    heap = [(grevlex_desc(e), e) for e in work]
    heapq.heapify(heap)
    moved = []
    while heap:
        exp = heapq.heappop(heap)[1]
        c = work.get(exp)
        if c is None:
            continue
        for i, lead_exp in enumerate(leads):
            if all(map(operator.le, lead_exp, exp)):  # _divides, inlined in the hot loop
                if counter is not None:
                    counter.spend()
                q_exp = _monomial_quotient(exp, lead_exp)
                if steps is not None:
                    steps.append((i, q_exp, c, m))
                common = math.gcd(c, int_leads[i])
                scale = int_leads[i] // common
                if scale != 1:
                    m *= scale
                    for e in work:
                        work[e] *= scale
                for e in _sub_mul(work, c // common, q_exp, divisors[i]):
                    heapq.heappush(heap, (grevlex_desc(e), e))
                break
        else:
            moved.append((exp, work.pop(exp), m))
    return {e: c * (m // m_at) for e, c, m_at in moved}, m


def division(
    p: Poly,
    divisors: list[Poly],
    counter: _StepCounter | None = None,
):
    """Multivariate division: p = sum quotients[i] * divisors[i] + remainder.

    No remainder term is divisible by any divisor's leading term.  The
    quotient trace certifies ideal membership whenever the remainder is 0.

    The reduction is the fraction-free heap loop :func:`_reduce`: p is
    scaled once to integer coefficients and each divisor to its primitive
    part over Z.  The leading exponent falls at every step, so each
    quotient term is set once.  A step with work lead c at multiplier m by a
    divisor with lead coefficient a has the quotient coefficient c / (a m),
    and the remainder is the loop's integer remainder over its final m: the
    same rationals a reduction over Q produces.
    """
    chart = p.chart
    leads = [d.leading()[0] for d in divisors]
    m = math.lcm(*(c.denominator for c in p.terms.values()))
    work = {e: c.numerator * (m // c.denominator) for e, c in p.terms.items()}
    steps: list = []
    remainder, m = _reduce(work, m, leads, [_primitive_terms(d.terms) for d in divisors], counter, steps)
    lead_coeffs = [d.terms[e] for d, e in zip(divisors, leads)]
    quotients: list[dict] = [{} for _ in divisors]
    for i, q_exp, c, m_at in steps:
        quotients[i][q_exp] = _div(c, lead_coeffs[i] * m_at)
    return (
        [Poly._of(chart, q) for q in quotients],
        Poly._of(chart, {e: _div(c, m) for e, c in remainder.items()}),
    )


def _positive_primitive(remainder: dict, m: int) -> dict:
    """The primitive part of remainder / m over Z: a positive multiple of it."""
    return _primitive_terms(remainder if m > 0 else {e: -c for e, c in remainder.items()})


def buchberger(gens: list[Poly], budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Critical pairs wait in a heap keyed ``(grevlex_key(lcm), (i, j))``: normal
    selection with index tiebreak, so the run is deterministic for a fixed
    input sequence.  Each new element goes through the Gebauer--Moeller
    update (*On an installation of Buchberger's algorithm*, J. Symb. Comp.
    1988): of its new pairs, those whose lcm another new lcm properly
    divides are dropped (M), one pair per lcm is kept (F), and an lcm class
    holding a pair with coprime leading terms is dropped whole (B); an old
    pair (i, j) is dropped when the new leading term divides its lcm and
    neither lcm(i, new) nor lcm(j, new) equals it (B_k); and elements whose
    leading term the new one divides form no further pairs.  Leading
    exponents are computed once per element.

    Elements are kept as primitive term maps over Z and S-polynomials are
    formed with integer cofactors; :func:`_reduce` reduces them on that
    basis, and a nonzero remainder joins it as the primitive part of its
    positive multiple.  No rational quotient is built, and each element is
    made monic once, at output.
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

    basis: list[dict] = []  # term maps, primitive over Z
    leads: list[Exponent] = []
    live: list[int] = []  # elements that still form pairs, ascending
    pairs: list = []  # heap of (grevlex_key(lcm), (i, j), lcm)

    def add(g: dict, lead: Exponent):
        h = len(basis)
        basis.append(g)
        leads.append(lead)
        # B_k on the old pairs.
        kept = [
            entry
            for entry in pairs
            if not _divides(lead, entry[2])
            or _lcm(leads[entry[1][0]], lead) == entry[2]
            or _lcm(leads[entry[1][1]], lead) == entry[2]
        ]
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        # New pairs, grouped by lcm (F keeps the smallest index of a class).
        classes: dict[Exponent, list[int]] = {}
        for i in live:
            classes.setdefault(_lcm(leads[i], lead), []).append(i)
        for lcm, members in classes.items():
            if any(other != lcm and _divides(other, lcm) for other in classes):
                continue  # M
            if any(_is_coprime(leads[i], lead, lcm) for i in members):
                continue  # B
            heapq.heappush(pairs, (grevlex_key(lcm), (members[0], h), lcm))
        live[:] = [i for i in live if not _divides(lead, leads[i])]
        live.append(h)

    for g in nonzero:
        add(_primitive_terms(g.terms), g.leading()[0])
    while pairs:
        _, (i, j), lcm = heapq.heappop(pairs)
        a_i, a_j = basis[i][leads[i]], basis[j][leads[j]]
        common = math.gcd(a_i, a_j)
        s: dict = {}
        _sub_mul(s, -(a_j // common), _monomial_quotient(lcm, leads[i]), basis[i])
        _sub_mul(s, a_i // common, _monomial_quotient(lcm, leads[j]), basis[j])
        remainder, m = _reduce(s, 1, [leads[k] for k in live], [basis[k] for k in live], counter)
        if remainder:
            add(_positive_primitive(remainder, m), next(iter(remainder)))
        counter.done += 1

    # Minimalize: drop generators whose leading term another one divides.
    minimal: list[int] = []
    for i in sorted(live, key=lambda i: grevlex_key(leads[i])):
        if not any(_divides(leads[k], leads[i]) for k in minimal):
            minimal.append(i)
    # Reduce every generator modulo the others; the leading terms stay put.
    counter.enter("inter-reduction", "generators reduced")
    reduced = [basis[i] for i in minimal]
    minimal_leads = [leads[i] for i in minimal]
    for idx, g in enumerate(reduced):
        others = reduced[:idx] + reduced[idx + 1 :]
        if not others:
            continue
        remainder, m = _reduce(dict(g), 1, minimal_leads[:idx] + minimal_leads[idx + 1 :], others, counter)
        reduced[idx] = _positive_primitive(remainder, m)
        counter.done += 1
    monic = []
    for g, lead in zip(reduced, minimal_leads):
        a = g[lead]
        monic.append(Poly._of(chart, g if a == 1 else {e: _div(c, a) for e, c in g.items()}))
    return GroebnerBasis(chart, tuple(monic))


def normal_form(p: Poly, G: GroebnerBasis) -> Poly:
    """Unique remainder of p modulo G: no term divisible by a leading term."""
    if p.chart != G.chart:
        raise ChartMismatchError("polynomial lives on a different chart")
    if not G.gens:
        return p
    _, remainder = division(p, list(G.gens))
    return remainder


def quotient_dimension(G: GroebnerBasis):
    """Number of standard monomials, or INFINITE when the staircase is unbounded.

    The quotient is finite-dimensional iff the leading-term ideal contains a
    pure power of every variable.  The count never lists the monomials: its
    cost grows with the number of leading terms, not with the staircase.
    """
    n = G.chart.n
    leads = G.leading_exponents()
    for i in range(n):
        if not any(all(e[j] == 0 for j in range(n) if j != i) for e in leads):
            return INFINITE
    return _staircase_size(leads, n)


def _staircase_size(leads, n: int) -> int:
    """Exponents in N^n that no element of ``leads`` divides.

    ``leads`` must hold a pure power of every variable.  The staircase is
    sliced along the last variable: the slice at height t is the staircase
    of ``e[:-1]`` over the leads with ``e[-1] <= t``, so it changes only at
    those heights, and each run of equal slices counts once, times its width.
    """
    if any(not any(e) for e in leads):
        return 0  # the unit ideal, or a slice above the pure power
    if n == 0:
        return 1
    heights = sorted({0, *(e[-1] for e in leads)})
    count = 0
    for low, high in zip(heights, heights[1:]):
        below = {e[:-1] for e in leads if e[-1] <= low}
        count += (high - low) * _staircase_size(below, n - 1)
    return count


def ideal_dimension(G: GroebnerBasis) -> int:
    """Krull dimension of the variety; -1 for the empty variety (1 in G).

    Computed as the maximum size of a set S of variables such that no
    leading term involves only variables from S.
    """
    n = G.chart.n
    leads = G.leading_exponents()
    if any(sum(e) == 0 for e in leads):
        return -1
    supports = [frozenset(i for i in range(n) if e[i]) for e in leads]
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            s = frozenset(subset)
            if not any(support <= s for support in supports):
                return size
    return 0


def jacobian_ideal_basis(f: Poly, include_f: bool = True, budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """Groebner basis of (f, df/dx_1, ..., df/dx_n), or of the partials only.

    With f, its :func:`quotient_dimension` is the Tjurina number, INFINITE at a non-isolated singular point.
    """
    gens = [f] if include_f else []
    gens.extend(f.diff(i) for i in range(f.chart.n))
    if all(g.is_zero for g in gens):
        return GroebnerBasis(f.chart, ())
    return buchberger(gens, budget)
