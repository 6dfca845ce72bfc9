"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives on a :class:`Chart` (an ordered tuple of variable names
with positive integer weights) and is stored as a dictionary mapping
exponent tuples to nonzero exact coefficients: an ``int`` or a ``Fraction``,
never a ``float``.  The public constructor, scalar multiplication and every
coefficient division (:func:`_div`) turn an integral ``Fraction`` into an
``int``, so integer polynomials are computed in ``int`` arithmetic; an
``int`` and an equal ``Fraction`` compare, hash and print alike.  The zero
polynomial has an empty term map.

Only the public constructor validates.  Arithmetic wraps the term maps it
builds with the trusted :meth:`Poly._of`, and division reduces one mutable
term map in place (:func:`_sub_mul`), so a ``Poly`` is built only for the
results.

The module also provides the expression parser / pretty-printer used by the
CLI and the test suite, a multivariate gcd (the heuristic GCDHEU over Z,
certified by trial division, with primitive pseudo-remainder sequences as
the fallback), and the squarefreeness test that backs the reducedness
diagnostics.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, ChartMismatchError, ParseError, PreconditionError, UnknownIdentifierError

Exponent = tuple[int, ...]
Coeff = int | Fraction

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class _MinusInfinity:
    """Degree of the zero polynomial: below every integer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MINUS_INFINITY"

    def __lt__(self, other) -> bool:
        return other is not MINUS_INFINITY

    def __le__(self, other) -> bool:
        return True

    def __gt__(self, other) -> bool:
        return False

    def __ge__(self, other) -> bool:
        return other is MINUS_INFINITY


MINUS_INFINITY = _MinusInfinity()


@dataclass(frozen=True)
class Chart:
    """An affine coordinate chart: variable names plus positive weights.

    Weights default to 1 and define the weighted degree used by the graded
    cohomology tables; they do not affect plain arithmetic.
    """

    names: tuple[str, ...]
    weights: tuple[int, ...] = ()

    def __post_init__(self):
        names = tuple(self.names)
        if not names:
            raise ValueError("a chart needs at least one variable")
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid variable identifier: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be pairwise distinct: {names}")
        weights = tuple(self.weights) if self.weights else (1,) * len(names)
        if len(weights) != len(names):
            raise ValueError("weights must list one positive integer per variable")
        if any(not isinstance(w, int) or w <= 0 for w in weights):
            raise ValueError(f"weights must be positive integers: {weights}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"chart has no variable {name!r}") from None

    def weighted_degree(self, exponent: Exponent) -> int:
        return sum(w * e for w, e in zip(self.weights, exponent))

    def __repr__(self) -> str:
        if all(w == 1 for w in self.weights):
            return f"Chart({', '.join(self.names)})"
        ws = ", ".join(f"{v}:{w}" for v, w in zip(self.names, self.weights))
        return f"Chart({ws})"


def _exact(value):
    """An exact coefficient: an ``int`` when integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _div(a, b):
    """Exact quotient of two coefficients, normalised by :func:`_exact`."""
    return _exact(Fraction(a, b))


def _sub_mul(work: dict, c, shift: Exponent, terms: dict) -> None:
    """``work -= c * x^shift * terms`` in place; cancelled terms are deleted."""
    for exponent, coeff in terms.items():
        e = tuple(a + b for a, b in zip(exponent, shift))
        acc = work.get(e, 0) - c * coeff
        if acc:
            work[e] = acc
        else:
            del work[e]


# The one monomial order: grevlex, for leading terms, printing and every
# Groebner computation.  Key sorts ascending (1 minimal); the tiebreak negates
# reversed exponents.
def grevlex_key(exponent: Exponent):
    return (sum(exponent), tuple(-e for e in reversed(exponent)))


class Poly:
    """A sparse multivariate polynomial with exact rational coefficients.

    Immutable after construction; zero coefficients are never stored.  The
    public constructor validates every exponent and coefficient; arithmetic
    builds its results through the unchecked :meth:`_of`.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: dict[Exponent, Coeff] | None = None):
        cleaned: dict[Exponent, Coeff] = {}
        if terms:
            n = chart.n
            for exponent, coeff in terms.items():
                exponent = tuple(exponent)
                if len(exponent) != n or any(not isinstance(e, int) or e < 0 for e in exponent):
                    raise ValueError(f"bad exponent vector {exponent} for chart of dimension {n}")
                coeff = _exact(coeff)
                if coeff:
                    cleaned[exponent] = coeff
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _of(cls, chart: Chart, terms: dict[Exponent, Coeff]) -> Poly:
        """Wrap a term map the caller guarantees clean; it is neither checked nor copied."""
        p = object.__new__(cls)
        object.__setattr__(p, "chart", chart)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> Poly:
        return cls(chart)

    @classmethod
    def constant(cls, chart: Chart, value) -> Poly:
        return cls(chart, {(0,) * chart.n: value})

    @classmethod
    def variable(cls, chart: Chart, var: int | str) -> Poly:
        i = chart.index(var) if isinstance(var, str) else var
        if not 0 <= i < chart.n:
            raise IndexError(f"variable index {i} out of range")
        exponent = tuple(1 if j == i else 0 for j in range(chart.n))
        return cls(chart, {exponent: 1})

    @classmethod
    def monomial(cls, chart: Chart, exponent: Exponent, coeff=1) -> Poly:
        return cls(chart, {tuple(exponent): coeff})

    # -- predicates and views ---------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def weighted_degree(self):
        """Total weighted degree; MINUS_INFINITY for the zero polynomial."""
        if not self.terms:
            return MINUS_INFINITY
        return max(self.chart.weighted_degree(e) for e in self.terms)

    def total_degree(self):
        """Plain total degree (all weights 1); MINUS_INFINITY for zero."""
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[Exponent, Coeff]:
        """Leading (exponent, coefficient) under grevlex."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exponent = max(self.terms, key=grevlex_key)
        return exponent, self.terms[exponent]

    # -- arithmetic --------------------------------------------------------

    def _check_chart(self, other: Poly):
        if self.chart != other.chart:
            raise ChartMismatchError(f"charts differ: {self.chart!r} vs {other.chart!r}")

    def __add__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_chart(other)
        out = dict(self.terms)
        for exponent, coeff in other.terms.items():
            acc = out.get(exponent, 0) + coeff
            if acc:
                out[exponent] = acc
            else:
                out.pop(exponent, None)
        return Poly._of(self.chart, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._of(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            if not c:
                return Poly._of(self.chart, {})
            return Poly._of(self.chart, {e: _exact(c * v) for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_chart(other)
        out: dict[Exponent, Coeff] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc = out.get(e, 0) + ca * cb
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        return Poly._of(self.chart, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power needs a nonnegative integer, got {exponent!r}")
        result = Poly.constant(self.chart, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def diff(self, var: int | str) -> Poly:
        """Formal partial derivative with respect to one chart variable."""
        i = self.chart.index(var) if isinstance(var, str) else var
        if not 0 <= i < self.chart.n:
            raise IndexError(f"variable index {i} out of range")
        out: dict[Exponent, Coeff] = {}
        for exponent, coeff in self.terms.items():
            k = exponent[i]
            if k == 0:
                continue
            e = list(exponent)
            e[i] = k - 1
            out[tuple(e)] = coeff * k
        return Poly._of(self.chart, out)

    def shift(self, point) -> Poly:
        """Substitute x_i -> x_i + a_i (translate the point a to the origin)."""
        values = [_exact(v) for v in point]
        if len(values) != self.chart.n:
            raise ValueError("translation point must supply one value per variable")
        result = Poly.zero(self.chart)
        for exponent, coeff in self.terms.items():
            term = Poly.constant(self.chart, coeff)
            for i, e in enumerate(exponent):
                if e:
                    term = term * (Poly.variable(self.chart, i) + values[i]) ** e
            result = result + term
        return result

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------


def _format_monomial(chart: Chart, exponent: Exponent) -> str:
    parts = []
    for name, e in zip(chart.names, exponent):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Normal-form text: terms in descending grevlex order.

    ``parse_poly(format_poly(p), p.chart) == p`` holds for every p.
    """
    if p.is_zero:
        return "0"
    pieces = []
    for exponent in sorted(p.terms, key=grevlex_key, reverse=True):
        coeff = p.terms[exponent]
        mono = _format_monomial(p.chart, exponent)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# Parser
#
# expr     := ['-'] term (('+'|'-') ['-'] term)*
# term     := factor ('*' factor)*
# factor   := base ('^' uint)?
# base     := rational | ident | '(' expr ')'
# rational := int ('/' uint)?
#
# Whitespace is insignificant.  Identifiers: ASCII letter followed by
# letters/digits/underscore.  A single unary minus may prefix any term.
# Parentheses nest at most MAX_NESTING deep, so that the recursive descent
# stays well inside the interpreter's recursion limit.  Before a product or
# power is expanded, its term count is bounded from above; past MAX_TERMS the
# parser raises BudgetExceededError instead of expanding it.
# ---------------------------------------------------------------------------

MAX_NESTING = 100
MAX_TERMS = 2000

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", column=bad_at + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _PolyParser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        # The interpreter's limit on the digits of an int converted to str; 0 if none.
        self.digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str):
        _, _, pos = self.peek()
        raise ParseError(message, column=pos + 1)

    def integer(self, value: str, pos: int) -> int:
        """An int token as an int; one past the interpreter's digit limit is a parse error."""
        try:
            return int(value)
        except ValueError:
            raise ParseError(f"integer literal of {len(value)} digits is too long", column=pos + 1) from None

    def too_long(self, pos: int):
        raise ParseError(f"a coefficient has more than {self.digits} digits", column=pos + 1)

    def printable(self, p: Poly, pos: int) -> Poly:
        """p, unless a coefficient has more digits than the interpreter converts to str."""
        if self.digits:
            for c in p.terms.values():
                for x in (abs(c.numerator), c.denominator):
                    # 8^digits < 10^digits, so most values are ruled out by their length.
                    if x.bit_length() > 3 * self.digits and x >= 10**self.digits:
                        self.too_long(pos)
        return p

    def check_terms(self, bound: int, what: str):
        if bound > MAX_TERMS:
            raise BudgetExceededError(f"expression parser: {what} may have {bound} terms, more than {MAX_TERMS}")

    def expect_op(self, op: str):
        kind, value, _ = self.peek()
        if kind != "op" or value != op:
            self.fail(f"expected {op!r}")
        self.advance()

    def parse(self) -> Poly:
        p = self.expr()
        kind, value, _ = self.peek()
        if kind != "end":
            self.fail(f"unexpected token {value!r}")
        return p

    def expr(self) -> Poly:
        start = self.peek()[2]
        result = self.signed_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.signed_term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return self.printable(result, start)

    def signed_term(self) -> Poly:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.term()
        return self.term()

    def term(self) -> Poly:
        start = self.peek()[2]
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                rhs = self.factor()
                self.check_terms(len(result.terms) * len(rhs.terms), "a product")
                result = result * rhs
            else:
                return self.printable(result, start)

    def factor(self) -> Poly:
        start = self.peek()[2]
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                self.fail("expected a nonnegative integer exponent after '^'")
            self.advance()
            k, t, n = self.integer(value, pos), len(base.terms), self.chart.n
            if t > 1:
                d = base.total_degree()
                self.check_terms(min(math.comb(t - 1 + k, t - 1), math.comb(n + k * d, n)), f"a power ^{k}")
            if base.terms and self.digits:
                # The lex-largest term of base^k has the coefficient c^k, and
                # |c^k| >= 2^(k * bits) > 10^digits once 3 * k * bits > 10 * digits.
                c = base.terms[max(base.terms)]
                bits = max(abs(c.numerator), c.denominator).bit_length() - 1
                if 3 * k * bits > 10 * self.digits:
                    self.too_long(start)
            return base**k
        return base

    def base(self) -> Poly:
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            numerator = self.integer(value, pos)
            kind, value, _ = self.peek()
            if kind == "op" and value == "/":
                self.advance()
                kind, value, denominator_pos = self.peek()
                if kind != "int":
                    self.fail("expected an integer denominator after '/'")
                self.advance()
                denominator = self.integer(value, denominator_pos)
                if denominator == 0:
                    raise ParseError("zero denominator", column=pos + 1)
                return Poly.constant(self.chart, Fraction(numerator, denominator))
            return Poly.constant(self.chart, numerator)
        if kind == "ident":
            self.advance()
            if value not in self.chart.names:
                raise UnknownIdentifierError(f"unknown identifier {value!r}", column=pos + 1)
            return Poly.variable(self.chart, value)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", column=pos + 1)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        self.fail("expected a rational, identifier, or parenthesized expression")

def parse_poly(text: str, chart: Chart) -> Poly:
    """Parse an expression in the chart's variables to normal form."""
    return _PolyParser(text, chart).parse()


# ---------------------------------------------------------------------------
# Division, gcd, squarefreeness
# ---------------------------------------------------------------------------


def exact_divide(p: Poly, d: Poly) -> Poly:
    """Quotient p/d when d divides p exactly; raises ValueError otherwise."""
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    p._check_chart(d)
    lead_d, coeff_d = d.leading()
    quotient: dict[Exponent, Coeff] = {}
    work = dict(p.terms)
    while work:
        lead_r = max(work, key=grevlex_key)
        q_exp = tuple(a - b for a, b in zip(lead_r, lead_d))
        if any(e < 0 for e in q_exp):
            raise ValueError("polynomial division is not exact")
        q_coeff = quotient[q_exp] = _div(work[lead_r], coeff_d)
        _sub_mul(work, q_coeff, q_exp, d.terms)
    return Poly._of(p.chart, quotient)


def _max_var(p: Poly) -> int | None:
    """Highest variable index occurring in p, or None for constants."""
    best = None
    for exponent in p.terms:
        for i in range(p.chart.n - 1, -1, -1):
            if exponent[i]:
                best = i if best is None else max(best, i)
                break
    return best


def _to_univariate(p: Poly, var: int) -> dict[int, Poly]:
    """View p as a univariate polynomial in x_var with Poly coefficients."""
    chart = p.chart
    coeffs: dict[int, dict[Exponent, Coeff]] = {}
    for exponent, coeff in p.terms.items():
        k = exponent[var]
        e = list(exponent)
        e[var] = 0
        coeffs.setdefault(k, {})[tuple(e)] = coeff
    return {k: Poly._of(chart, t) for k, t in coeffs.items()}


def _from_univariate(chart: Chart, var: int, coeffs: dict[int, Poly]) -> Poly:
    terms: dict[Exponent, Coeff] = {}
    for k, c in coeffs.items():
        for exponent, coeff in c.terms.items():
            e = list(exponent)
            e[var] = k
            terms[tuple(e)] = coeff
    return Poly._of(chart, terms)


def _uni_degree(coeffs: dict[int, Poly]) -> int:
    return max(coeffs) if coeffs else -1


def _uni_scale(coeffs: dict[int, Poly], factor: Poly) -> dict[int, Poly]:
    return {k: product for k, c in coeffs.items() if not (product := c * factor).is_zero}


def _uni_sub(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    out = dict(a)
    for k, c in b.items():
        acc = out.get(k, None)
        acc = c.__neg__() if acc is None else acc - c
        if acc.is_zero:
            out.pop(k, None)
        else:
            out[k] = acc
    return out


def _pseudo_remainder(a: dict[int, Poly], b: dict[int, Poly], var: int) -> dict[int, Poly]:
    """prem(a, b): remainder of lc(b)^(deg a - deg b + 1) * a under division by b."""
    da, db = _uni_degree(a), _uni_degree(b)
    lb = b[db]
    r = dict(a)
    while True:
        dr = _uni_degree(r)
        if dr < db or dr < 0:
            break
        lr = r[dr]
        r = _uni_sub(_uni_scale(r, lb), {k + dr - db: c * lr for k, c in b.items()})
        r.pop(dr, None)
    return r


def _content(p: Poly, var: int) -> Poly:
    """Gcd of the coefficients of p viewed in x_var."""
    coeffs = list(_to_univariate(p, var).values())
    return gcd_multi(coeffs) if len(coeffs) > 1 else _normalize_monic(coeffs[0])


def _normalize_monic(p: Poly) -> Poly:
    if p.is_zero:
        return p
    _, lead_coeff = p.leading()
    return p * _div(1, lead_coeff)


def _primitive_terms(terms: dict) -> dict[Exponent, int]:
    """A nonzero term map scaled by a positive rational to coprime ints; one that is already so is returned as is."""
    denominators = math.lcm(*(c.denominator for c in terms.values()))
    numerators = math.gcd(*(c.numerator for c in terms.values()))
    if denominators == numerators == 1 and all(type(c) is int for c in terms.values()):
        return terms
    return {e: c.numerator * (denominators // c.denominator) // numerators for e, c in terms.items()}


def _primitive_over_z(p: Poly) -> Poly:
    """p scaled by a positive rational to integer coefficients with gcd 1."""
    return Poly._of(p.chart, _primitive_terms(p.terms))


def _gcd_pair(a: Poly, b: Poly) -> Poly:
    """Gcd by primitive-part recursion with a primitive PRS over Z.

    The fallback of :func:`gcd_multi` when the heuristic gcd gives up.
    Every pseudo-remainder is made primitive: its content in the lower
    variables is divided out and its coefficients are scaled to coprime
    integers, so coefficients do not grow from one remainder to the next
    (Brown and Traub, *On Euclid's algorithm and the theory of
    subresultants*, J. ACM 1971).
    """
    if a.is_zero:
        return _normalize_monic(b)
    if b.is_zero:
        return _normalize_monic(a)
    if a.is_constant or b.is_constant:
        return Poly.constant(a.chart, 1)
    var = max(_max_var(a), _max_var(b))
    ua, ub = _to_univariate(a, var), _to_univariate(b, var)
    if _uni_degree(ua) == 0 or _uni_degree(ub) == 0:
        # One operand does not involve the main variable: recurse on contents.
        return _gcd_pair(_content(a, var), _content(b, var))
    cont_a, cont_b = _content(a, var), _content(b, var)
    pa = _to_univariate(_primitive_over_z(exact_divide(a, cont_a)), var)
    pb = _to_univariate(_primitive_over_z(exact_divide(b, cont_b)), var)
    if _uni_degree(pa) < _uni_degree(pb):
        pa, pb = pb, pa
    while True:
        rem = _pseudo_remainder(pa, pb, var)
        if not rem:
            break
        rem_poly = _from_univariate(a.chart, var, rem)
        rem_poly = _primitive_over_z(exact_divide(rem_poly, _content(rem_poly, var)))
        pa, pb = pb, _to_univariate(rem_poly, var)
    gcd_pp = _from_univariate(a.chart, var, pb)
    gcd_pp = exact_divide(gcd_pp, _content(gcd_pp, var))
    return _normalize_monic(_gcd_pair(cont_a, cont_b) * gcd_pp)


# ---------------------------------------------------------------------------
# Heuristic gcd (GCDHEU) on integer term maps
#
# Char, Geddes and Gonnet, *GCDHEU: Heuristic polynomial GCD algorithm based
# on integer GCD computation*, J. Symb. Comp. 1989.  The highest variable is
# evaluated at an integer xi, the gcd of the images is computed recursively
# (down to math.gcd), and the candidate is read back from the symmetric
# xi-adic digits of that gcd.  For primitive inputs and
# xi >= 2*min(|a|_inf, |b|_inf) + 2, a candidate whose primitive part divides
# both inputs over Z is their gcd; a candidate that fails the trial division
# is discarded and xi grows.
# ---------------------------------------------------------------------------

HEU_TRIES = 6
# Give up before an image would need more bits than this (about 5000 digits).
HEU_MAX_BITS = 16_000


def _content_z(terms: dict) -> int:
    return math.gcd(*terms.values())


def _is_constant_terms(terms: dict) -> bool:
    return len(terms) == 1 and not any(next(iter(terms)))


def _positive_lead(terms: dict) -> dict:
    """The term map or its negative, whichever has a positive lex-leading coefficient."""
    if terms[max(terms)] > 0:
        return terms
    return {e: -c for e, c in terms.items()}


def _divide_z(a: dict, d: dict) -> bool:
    """True iff the integer term map d divides a in Z[x].

    Lex-order division that stops at the first quotient term outside the
    box deg_v(a) - deg_v(d), where no quotient term of an exact division lies.
    """
    lead_d = max(d)
    coeff_d = d[lead_d]
    room = [max(column) - max(other) for column, other in zip(zip(*a), zip(*d))]
    work = dict(a)
    while work:
        lead = max(work)
        shift = tuple(x - y for x, y in zip(lead, lead_d))
        if any(e < 0 or e > r for e, r in zip(shift, room)):
            return False
        q, r = divmod(work[lead], coeff_d)
        if r:
            return False
        _sub_mul(work, q, shift, d)
    return True


def _evaluate(terms: dict, var: int, xi: int) -> dict:
    """The term map with x_var replaced by the integer xi."""
    out: dict = {}
    powers = [1]
    for e, c in terms.items():
        k = e[var]
        if k:
            while len(powers) <= k:
                powers.append(powers[-1] * xi)
            c *= powers[k]
            e = e[:var] + (0,) + e[var + 1 :]
        acc = out.get(e, 0) + c
        if acc:
            out[e] = acc
        else:
            del out[e]
    return out


def _interpolate(gamma: dict, var: int, xi: int) -> dict:
    """The polynomial in x_var whose coefficients are the symmetric xi-adic digits of gamma."""
    out: dict = {}
    half = xi // 2
    k = 0
    while gamma:
        rest = {}
        for e, c in gamma.items():
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[e[:var] + (k,) + e[var + 1 :]] = digit
            if c != digit:
                rest[e] = (c - digit) // xi
        gamma = rest
        k += 1
    return out


def _heu_gcd(a: dict, b: dict) -> dict | None:
    """Gcd of two nonzero integer term maps over Z, or None when the heuristic gives up.

    The result has a positive lex-leading coefficient.  It is returned only
    after it has divided both inputs exactly, with xi at or above the
    CGG bound of the level.
    """
    ca, cb = _content_z(a), _content_z(b)
    content = math.gcd(ca, cb)
    if ca != 1:
        a = {e: c // ca for e, c in a.items()}
    if cb != 1:
        b = {e: c // cb for e, c in b.items()}
    if _is_constant_terms(a) or _is_constant_terms(b):
        return {(0,) * len(next(iter(a))): content}
    var = max(i for e in itertools.chain(a, b) for i, k in enumerate(e) if k)
    degree = max(e[var] for e in itertools.chain(a, b))
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(HEU_TRIES):
        if xi.bit_length() * degree > HEU_MAX_BITS:
            return None
        image_a, image_b = _evaluate(a, var, xi), _evaluate(b, var, xi)
        if image_a and image_b:
            gamma = _heu_gcd(image_a, image_b)
        else:  # xi is a root of the input of larger norm (never of the other)
            gamma = image_a or image_b
        if gamma is not None:
            candidate = _interpolate(gamma, var, xi)
            g = _content_z(candidate)
            candidate = _positive_lead({e: c // g for e, c in candidate.items()})
            if _divide_z(a, candidate) and _divide_z(b, candidate):
                return {e: c * content for e, c in candidate.items()} if content != 1 else candidate
        xi = xi * 73794 // 27011
    return None


def gcd_multi(ps: list[Poly]) -> Poly:
    """Gcd of a nonempty family, monic under the grevlex leading term.

    Zero entries are ignored; all-zero input is an error.  Each pairwise gcd
    runs the certified heuristic :func:`_heu_gcd` on the primitive integer
    parts, and the primitive PRS :func:`_gcd_pair` when the heuristic gives up.
    """
    if not ps:
        raise ValueError("gcd_multi needs at least one polynomial")
    nonzero = [p for p in ps if not p.is_zero]
    if not nonzero:
        raise ValueError("gcd_multi: all inputs are zero")
    chart = nonzero[0].chart
    g = _primitive_terms(nonzero[0].terms)
    for p in nonzero[1:]:
        if _is_constant_terms(g):
            break
        h = _heu_gcd(g, _primitive_terms(p.terms))
        if h is None:
            h = _primitive_terms(_gcd_pair(Poly._of(chart, g), p).terms)
        g = h
    return _normalize_monic(Poly._of(chart, g))


def nonreduced_factor(p: Poly) -> Poly:
    """gcd(p, dp/dx_1, ..., dp/dx_n), monic: constant exactly when p is reduced.

    The one definition of reducedness (squarefreeness) of a nonzero p; a
    constant p counts as reduced.
    """
    return gcd_multi([p, *(p.diff(i) for i in range(p.chart.n))])


def is_squarefree(p: Poly) -> bool:
    """True iff gcd(p, dp/dx_1, ..., dp/dx_n) is constant.

    Over characteristic zero this is exactly reducedness of the principal
    divisor cut out by p.  The verdict is for the polynomial ring; it agrees
    with the analytic notion for polynomial input.
    """
    if p.is_zero or p.is_constant:
        raise PreconditionError("squarefreeness needs a nonzero, nonconstant polynomial")
    return nonreduced_factor(p).is_constant
