"""The Groebner kernel's packed monomials, against tuple exponents and independent oracles.

``groebner._Packing`` packs an exponent vector into one int: its order must
be grevlex, its sum the monomial product, its guard-bit test divisibility,
and unpacking must return the vector.  On the exponent fields, the
guard-bit max must be the lcm, the field sum of coprime monomials their
lcm, and the digit sum the total degree.  A run whose S-pair lcm outgrows
the packing re-packs wider and must go on with the same reduction
sequence, and the Gebauer--Moeller update on the fields must push and pop
the pairs that the tuple-exponent update pushes and pops.  The layout
depends on the number of variables, so Buchberger and division are also
checked against sympy and ``division_over_q`` on 3- and 4-variable ideals.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import operator
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

from poissonkit import Chart, Poly, buchberger, groebner, modular_field, parse_poly, parse_structure_file
from poissonkit.cli import main
from poissonkit.groebner import _Packing, division
from poissonkit.polyalg import grevlex_key
from conftest import CHART2, CHART3, CHART4, random_diagonal_structure, random_poly
from oracles import division_over_q, m_criterion_all_pairs
from test_budget_steps import CURVES, succeeds_exactly_at


def exponent_vectors(rng, n: int, count: int) -> list[tuple[int, ...]]:
    """Seeded vectors in N^n: about a third of the entries 0, the rest small or up to 10**20."""
    choices = (lambda: 0, lambda: rng.randint(1, 9), lambda: rng.randint(1, 10**20))
    return [tuple(rng.choice(choices)() for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("headroom", [0, groebner._HEADROOM])
@pytest.mark.parametrize("n", range(1, 7))
def test_packing_matches_tuple_arithmetic(rng, monkeypatch, n, headroom):
    monkeypatch.setattr(groebner, "_HEADROOM", headroom)
    vectors = exponent_vectors(rng, n, 30)
    top = max(map(sum, vectors))
    vectors += [tuple(rng.randint(0, x) for x in e) for e in vectors]  # divisors of the first 30
    vectors += [(0,) * n] + [tuple(top if j == i else 0 for j in range(n)) for i in range(n)]
    # With the unit and the pure powers of degree `top`: at headroom 0 the
    # fields hold that degree and no more, so a power fills its field up to
    # the bit below the guard.
    packing, wide = _Packing(n, top), _Packing(n, 2 * top + 1)
    K = packing.pack
    for a in vectors:
        assert packing.unpack(K(a)) == a
        for b in vectors:
            assert (K(a) < K(b)) == (grevlex_key(a) < grevlex_key(b)), (a, b)
            assert (K(a) == K(b)) == (a == b)
            assert (not (K(b) - K(a)) & packing.guards) == all(map(operator.le, b, a)), (b, a)
            total = tuple(map(operator.add, a, b))
            assert wide.pack(a) + wide.pack(b) == wide.pack(total)
            assert wide.pack(total) - wide.pack(b) == wide.pack(a)
        for i in range(n):
            over = a[:i] + (a[i] + 1,) + a[i + 1 :]
            assert (wide.pack(over) - wide.pack(a)) & wide.guards, (over, a)


def fields_of(packing: _Packing, e) -> int:
    """F(e) = sum(e_i << i*w), written out from the layout rather than read off a key."""
    return sum(x << i * packing.w for i, x in enumerate(e))


def field_vectors(rng, n: int, b: int, count: int) -> list[tuple[int, ...]]:
    """Seeded vectors of b-bit fields: each entry 0, 2**b - 1 or a value between."""
    full = (1 << b) - 1
    choices = (lambda: 0, lambda: full, lambda: rng.randint(0, full))
    return [tuple(rng.choice(choices)() for _ in range(n)) for _ in range(count)]


def monomials_below(rng, packing: _Packing, count: int) -> list[tuple[int, ...]]:
    """Seeded exponent vectors of total degree below the packing's limit, some with zero entries."""
    n, out = packing.n, []
    for _ in range(count):
        total = rng.randrange(packing.limit)
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        e = [high - low for low, high in zip([0, *cuts], [*cuts, total])]
        out.append(tuple(0 if rng.random() < 0.3 else x for x in e))
    return out + [(0,) * n] + [tuple(packing.limit - 1 if j == i else 0 for j in range(n)) for i in range(n)]


@pytest.mark.parametrize("degree", [3, 10**20])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 100])
def test_field_ops_match_tuple_arithmetic(rng, n, degree):
    # At degree 3 the limit is 16, so the pure powers x_i^15 fill a field
    # up to 2**b - 1; at 10**20 the fields are wider than a machine word.
    packing = _Packing(n, degree)
    F = functools.partial(fields_of, packing)
    vectors = field_vectors(rng, n, packing.w - 1, 12 if n == 100 else 25)
    for a, c in itertools.product(vectors, repeat=2):
        lcm = tuple(map(max, a, c))
        assert packing.lcm(F(a), F(c)) == F(lcm), (a, c)
        assert (not (F(c) - F(a)) & packing.guards) == all(map(operator.le, a, c)), (a, c)
        assert (F(a) + F(c) == F(lcm)) == all(x == 0 or y == 0 for x, y in zip(a, c)), (a, c)
    for a in vectors:
        # Buchberger's output reads each field off its key by shift and mask, at fields of 0 and of 2**b - 1 too.
        assert packing.unpack(packing.key(F(a))) == a, a
    monomials = monomials_below(rng, packing, 12 if n == 100 else 25)
    for a, c in itertools.product(monomials, repeat=2):
        lcm = tuple(map(max, a, c))
        assert F(a) == -packing.pack(a) & packing.low
        assert F(lcm) % ((1 << packing.w) - 1) == sum(lcm), (a, c)
        assert packing.key(F(lcm)) == packing.pack(lcm), (a, c)


class _CountingPacking(_Packing):
    made: list = []

    __slots__ = ()

    def __init__(self, n, degree):
        self.made.append(degree)
        super().__init__(n, degree)


@pytest.mark.parametrize("text,point,budget", CURVES, ids=range(len(CURVES)))
def test_narrow_start_repacks_to_the_same_run(capsys, monkeypatch, text, point, budget):
    argv = ["tjurina", text, "--json"] + ([f"--point={point}"] if point else [])
    assert main(argv) == 0
    wide = json.loads(capsys.readouterr().out)["result"]
    monkeypatch.setattr(groebner, "_HEADROOM", 0)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"] == wide
    assert succeeds_exactly_at(capsys, argv[:2] + argv[3:], budget)


def test_narrow_start_repacks_most_curves(capsys, monkeypatch):
    # Headroom 0 sizes a run for the input degree only, so every S-pair lcm
    # of larger degree re-packs it.
    monkeypatch.setattr(groebner, "_HEADROOM", 0)
    monkeypatch.setattr(groebner, "_Packing", _CountingPacking)
    repacked = 0
    for text, point, _ in CURVES:
        _CountingPacking.made = []
        assert main(["tjurina", text] + ([f"--point={point}"] if point else [])) == 0
        assert _CountingPacking.made == sorted(_CountingPacking.made)
        repacked += len(_CountingPacking.made) > 1
    capsys.readouterr()
    assert repacked >= 10


@pytest.mark.parametrize(
    "literal,tau",
    [
        ("w^99999999999999999999 + z^2", 99999999999999999998),
        ("x^99999999999999999999 + y^2 + z^3", 199999999999999999996),
    ],
)
def test_brieskorn_pham_with_huge_exponents(capsys, literal, tau):
    # tau(sum x_i^a_i) = prod (a_i - 1): fields wider than a machine word.
    assert main(["tjurina", literal, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["tjurina"] == tau


# Three seeded 3-variable literals and the smallest budget under which
# ``tjurina`` succeeds, recorded with the tuple-exponent kernel.
BUDGETS_3 = [
    ("x^3 + y^4 + z^5 + -3*x^0*y^0*z^4 + -3*x^4*y^1*z^0", 52),
    ("x^4 + y^5 + z^6 + 1*x^3*y^2*z^0 + -2*x^0*y^3*z^0 + 1*x^2*y^1*z^1", 508),
    ("x^4 + y^5 + z^6 + -3*x^3*y^1*z^1 + 3*x^1*y^1*z^1 + 2*x^1*y^0*z^3", 394),
]


@pytest.mark.parametrize("text,budget", BUDGETS_3, ids=range(len(BUDGETS_3)))
def test_three_variable_budget_steps(capsys, text, budget):
    assert succeeds_exactly_at(capsys, ["tjurina", text], budget)


def sympy_basis(gens, chart):
    """Monic reduced grevlex basis from sympy, as canonical term maps."""
    symbols = sympy.symbols(chart.names)
    G = sympy.groebner([sympy.Poly(g.terms, *symbols, domain="QQ") for g in gens], *symbols, order="grevlex")
    out = []
    for g in G.polys:
        g = g.to_field()
        g = g.quo_ground(g.LC(order="grevlex"))
        out.append({m: Fraction(int(c.p), int(c.q)) for m, c in g.terms()})
    return canonical(out)


def canonical(term_maps):
    return sorted(sorted(t.items()) for t in term_maps)


def diagonal_chart_ideals(rng, count):
    """The pi_ij and zeta_i generators of seeded diagonal 4-charts: the report's rank-0 modular-leaf locus."""
    for _ in range(count):
        P = random_diagonal_structure(rng)
        yield [*P.pi.terms.values(), *modular_field(P).terms.values()]


def cubic_ideals(rng, count):
    """Two or three sparse cubics in 3 variables."""
    for _ in range(count):
        yield [random_poly(rng, CHART3, max_degree=3, max_terms=3, allow_zero=False) for _ in range(rng.randint(2, 3))]


class TestMoreVariablesAgainstOracles:
    def test_bases_match_sympy(self, rng):
        for gens in [*diagonal_chart_ideals(rng, 12), *cubic_ideals(rng, 25)]:
            if not gens:
                continue  # a zero skew matrix
            chart = gens[0].chart
            assert canonical(g.terms for g in buchberger(gens).gens) == sympy_basis(gens, chart), gens

    def test_division_matches_division_over_q(self, rng):
        for gens in [*diagonal_chart_ideals(rng, 8), *cubic_ideals(rng, 25)]:
            if not gens:
                continue  # a zero skew matrix
            chart = gens[0].chart
            for p in (gens[0] * gens[-1], random_poly(rng, chart, max_degree=5, max_terms=6)):
                quotients, r = division(p, gens)
                expected_quotients, expected_r = division_over_q(p, gens, grevlex_key)
                assert [q.terms for q in quotients] == expected_quotients and r.terms == expected_r, (p, gens)


def test_four_variable_literal_against_sympy():
    gens = [parse_poly(t, CHART4) for t in ("x1^2*x3 - x2*x4^2 + 1", "x2^3 - x1*x4 + x3^2", "x4^3 - 2*x1*x2*x3")]
    assert canonical(g.terms for g in buchberger(gens).gens) == sympy_basis(gens, CHART4)


def wide_monomial_ideals(rng, count):
    """Seeded monomial ideals in 30-60 variables, and the 40-variable block chart's rank-0 locus."""
    for _ in range(count):
        chart = Chart(tuple(f"x{i}" for i in range(rng.randint(30, 60))))
        gens = []
        for _ in range(rng.randint(10, 40)):
            exponent = [0] * chart.n
            for _ in range(rng.randint(1, 4)):
                exponent[rng.randrange(chart.n)] += 1
            gens.append(Poly.monomial(chart, exponent))
        yield gens
    chart = Chart(tuple(f"x{i}" for i in range(40)))
    block = "\n".join(f"{{x{i},x{i + 1}}} = x{i}*x{i + 1}" for i in range(0, 40, 2))
    P = parse_structure_file(f"chart: {' '.join(chart.names)}\npoisson:\n{block}\n").build()
    yield [*P.pi.terms.values(), *modular_field(P).terms.values()]


# The tuple-exponent Gebauer--Moeller update that ``buchberger`` ran before
# its update on packed fields, kept here as the reference for that one.


def _divides(d, e) -> bool:
    return all(map(operator.le, d, e))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _is_coprime(a, b, lcm) -> bool:
    return tuple(map(operator.add, a, b)) == lcm


def _m_criterion(lcms) -> list:
    """The lcms that no other one properly divides (M), walked in ascending total degree."""
    kept: list = []
    for _, same_degree in itertools.groupby(sorted(lcms, key=sum), key=sum):
        kept += [lcm for lcm in same_degree if not any(_divides(other, lcm) for other in kept)]
    return kept


def tuple_update_run(gens, m_test=_m_criterion):
    """Buchberger over Q on exponent tuples: the pairs it pushes (sorted) and pops (in order).

    The heap, the normal selection with index tiebreak, the B_k, M, F and B
    criteria and the reduction of each S-polynomial by the live elements in
    order are ``buchberger``'s, so both runs add the same leading terms.
    """
    chart = gens[0].chart
    basis, leads, live, heap, pushed, popped = [], [], [], [], [], []

    def add(g):
        h, lead = len(basis), g.leading()[0]
        basis.append(g)
        leads.append(lead)
        kept = [
            entry
            for entry in heap
            if not _divides(lead, entry[2])
            or _lcm(leads[entry[1][0]], lead) == entry[2]
            or _lcm(leads[entry[1][1]], lead) == entry[2]
        ]
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        classes: dict = {}
        for i in live:
            classes.setdefault(_lcm(leads[i], lead), []).append(i)
        for lcm in m_test(list(classes)):
            members = classes[lcm]
            if not any(_is_coprime(leads[i], lead, lcm) for i in members):
                heapq.heappush(heap, (grevlex_key(lcm), (members[0], h), lcm))
                pushed.append((members[0], h))
        live[:] = [i for i in live if not _divides(lead, leads[i])]
        live.append(h)

    for g in gens:
        if not g.is_zero:
            add(g)
    while heap:
        _, (i, j), lcm = heapq.heappop(heap)
        popped.append((i, j))
        s = sum(
            (
                Poly.monomial(chart, [x - y for x, y in zip(lcm, leads[k])], sign / Fraction(basis[k].terms[leads[k]]))
                * basis[k]
                for k, sign in ((i, 1), (j, -1))
            ),
            Poly.zero(chart),
        )
        _, remainder = division_over_q(s, [basis[k] for k in live], grevlex_key)
        if remainder:
            add(Poly(chart, remainder))
    return sorted(pushed), popped


def packed_update_run(monkeypatch, gens):
    """``buchberger``'s pushed pairs (sorted) and popped pairs (in order), and the packed keys pushed per new element."""
    pushed, popped, keys = [], [], {}

    def push(heap, entry):
        pushed.append(entry[1])
        keys.setdefault(entry[1][1], []).append(entry[0])
        heapq.heappush(heap, entry)

    def pop(heap):
        entry = heapq.heappop(heap)
        popped.append(entry[1])
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "heapq", SimpleNamespace(heappush=push, heappop=pop, heapify=heapq.heapify))
        buchberger(gens)
    return (sorted(pushed), popped), keys


def monomial_ideals(rng, n: int, count: int):
    """Seeded monomial ideals with exponents 0..3: every S-polynomial is 0, so only the criteria act."""
    chart = Chart(tuple(f"x{i}" for i in range(n)))
    for _ in range(count):
        yield [Poly.monomial(chart, [rng.randint(0, 3) for _ in range(n)]) for _ in range(rng.randint(1, 30))]


class TestMCriterionByDegree:
    """``add()`` walks the new lcm classes by packed key; the all-pairs M test must keep the same ones."""

    def test_kept_lcms_match_the_all_pairs_test(self, rng, monkeypatch):
        for n in (1, 2, 3, 6, 40):
            for gens in monomial_ideals(rng, n, 40):
                run, keys = packed_update_run(monkeypatch, gens)
                assert run == tuple_update_run(gens, m_criterion_all_pairs), gens
                for pushed in keys.values():
                    assert pushed == sorted(pushed), gens  # ascending key, so ascending degree

    def test_buchberger_pushes_the_same_pairs(self, rng, monkeypatch):
        ideals = [*diagonal_chart_ideals(rng, 6), *cubic_ideals(rng, 12), *wide_monomial_ideals(rng, 6)]
        for gens in ideals:
            if not gens:
                continue  # a zero skew matrix
            assert packed_update_run(monkeypatch, gens)[0] == tuple_update_run(gens), gens


def test_output_leads_are_the_grevlex_maxima(rng):
    for gens in [*diagonal_chart_ideals(rng, 6), *cubic_ideals(rng, 25), *wide_monomial_ideals(rng, 2)]:
        for g in buchberger(gens).gens if gens else ():
            assert g._lead == max(g.terms, key=grevlex_key), gens
            assert g.leading() == (g._lead, 1)


def test_basis_round_trips(round_trip):
    G = buchberger([parse_poly(t, CHART2) for t in ("w^2 - 3/2*z", "w*z + 1")])
    copied = round_trip(G)
    assert copied == G and str(copied) == str(G)
    assert [p.leading() for p in copied.gens] == [p.leading() for p in G.gens]


class TestFinishingSweep:
    """Buchberger's last pass drops generators whose lead a kept lead divides and reduces the rest."""

    @staticmethod
    def sweep(monkeypatch):
        """Record the generators entering the sweep and the reductions it makes."""
        entering, reductions = [], []
        reduce = groebner._reduce

        def sorted_spy(items, key=None):
            if key is not None:  # the sweep sorts ``live`` by lead; ``add()`` sorts its lcm keys with no key
                entering.append(len(items))
            return sorted(items, key=key)

        def reduce_spy(work, m, table, guards, counter, steps=None):
            if counter.phase == "inter-reduction":
                reductions.append(len(table))
            return reduce(work, m, table, guards, counter, steps)

        monkeypatch.setattr(groebner, "sorted", sorted_spy, raising=False)
        monkeypatch.setattr(groebner, "_reduce", reduce_spy)
        return entering, reductions

    @pytest.mark.parametrize(
        "texts,basis,entering",
        [
            # w divides w^2: w^2 + z enters the sweep beside w and z, and is dropped.
            (["w", "w^2 + z"], ["w", "z"], 3),
            # Equal leads: each new w^2 retires the one before it, so nothing is left to drop.
            (["w^2 + z", "w^2 - z", "w"], ["w", "z"], 2),
            (["w^2 - z", "w^3 + w*z + 1", "w^2*z - z^2"], ["w*z + 1/2", "w^2 - z", "z^2 + 1/2*w"], 4),
        ],
    )
    def test_dropping_divided_leads(self, monkeypatch, texts, basis, entering):
        entered, reductions = self.sweep(monkeypatch)
        G = buchberger([parse_poly(t, CHART2) for t in texts])
        assert sorted(map(str, G.gens)) == basis
        assert entered == [entering]
        # Each kept generator is reduced once, by the kept ones before it.
        assert reductions == list(range(len(G.gens)))

    def test_equal_and_dividing_leads_against_sympy(self, rng, monkeypatch):
        entering, reductions = self.sweep(monkeypatch)
        dropped = 0
        for gens in cubic_ideals(rng, 30):
            f, g = gens[0], gens[-1]
            chart = f.chart
            x = Poly.variable(chart, rng.randrange(chart.n))
            # When f's lead is above g's, x*f + g leads with x times it and 3*f + g with it; x^2*f always does.
            gens = [*gens, x * f + g, f * 3 + g, f * x * x]
            del entering[:], reductions[:]
            G = buchberger(gens)
            assert canonical(p.terms for p in G.gens) == sympy_basis(gens, chart), gens
            assert reductions == list(range(len(G.gens)))
            dropped += entering[0] - len(G.gens)
        assert dropped > 0
