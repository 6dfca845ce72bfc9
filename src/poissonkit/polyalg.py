"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives on a :class:`Chart` (an ordered tuple of variable names
with positive integer weights) and is stored as a dictionary mapping
exponent tuples to nonzero exact coefficients: an ``int`` or a ``Fraction``,
never a ``float``.  Every result holds an integral coefficient as an
``int``: the public constructor, sums, products, powers, derivatives,
scalar multiplication, the parser, every coefficient division
(:func:`_div`) and the polyvector kernel built on this module.  So integer
polynomials are computed in ``int`` arithmetic; an ``int`` and an equal
``Fraction`` compare, hash and print alike.  The zero polynomial has an
empty term map.

This module is the one home of term-map arithmetic: :func:`_add_scaled`,
:func:`_add_product` and :func:`_diff_terms` accumulate, leaving a
cancelled term as a 0, and :func:`_clean` drops the zeros and makes each
coefficient exact once; :func:`_over_z` is the one scaling of rationals
to ints, by the lcm of their denominators, and :func:`_positive_primitive`
the one primitive part over Z.  Only the public constructor validates.
Arithmetic wraps the term maps it builds with the trusted :meth:`Poly._of`,
so a ``Poly`` is built only for the results; the gcd's pseudo-remainders
and products are term maps built the same way.  Only the exact division
:func:`_quotient_z` reduces one mutable term map in place (:func:`_sub_mul`,
which deletes a cancelled term at once, because the division reads the
largest exponent left as its lead).  Exponent sums run through C-level ``map``.

The module also provides the expression parser / pretty-printer used by the
CLI and the test suite, and the multivariate gcd over Z behind the
non-reduced witness and the reducedness test off surfaces: the heuristic
GCDHEU, certified by trial division, with a primitive pseudo-remainder
sequence as the fallback; a gcd with a one-term map is read off the
exponents, with no evaluation.  Both run on integer term maps
``{exponent: int}``; only :func:`gcd_multi`'s result is a ``Poly``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, ChartMismatchError, ParseError, UnknownIdentifierError

Exponent = tuple[int, ...]
Coeff = int | Fraction

# The one identifier rule, for chart names, expression tokens and bracket lines.
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


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
        if len(names) > MAX_VARIABLES:
            raise ValueError(f"a chart has at most {MAX_VARIABLES} variables, got {len(names)}")
        for name in names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid variable identifier: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be pairwise distinct: {names}")
        weights = tuple(self.weights) if self.weights else (1,) * len(names)
        if len(weights) != len(names):
            raise ValueError("weights must list one positive integer per variable")
        if any(type(w) is not int or w <= 0 for w in weights):  # a bool is no weight
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


def _sub_mul(work: dict, c, shift: Exponent, terms: dict):
    """``work -= c * x^shift * terms`` in place; cancelled terms are deleted."""
    for exponent, coeff in terms.items():
        e = tuple(map(operator.add, exponent, shift))
        acc = work.get(e, 0) - c * coeff
        if acc:
            work[e] = acc
        else:
            del work[e]


def _add_scaled(target: dict, s, terms: dict):
    """``target += s * terms`` on term maps; a cancelled term stays as a 0 until :func:`_clean`."""
    for e, c in terms.items():
        target[e] = target.get(e, 0) + s * c


def _add_product(target: dict, s, a: dict, b: dict):
    """``target += s * a * b`` on term maps; a cancelled term stays as a 0 until :func:`_clean`."""
    for ea, ca in a.items():
        ca *= s
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            target[e] = target.get(e, 0) + ca * cb


def _diff_terms(terms: dict, i: int) -> dict:
    """The term map of d/dx_i, before :func:`_clean`."""
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in terms.items() if e[i]}


def _clean(terms: dict) -> dict:
    """An accumulated term map made clean: zeros dropped, each coefficient :func:`_exact`."""
    return {e: _exact(c) for e, c in terms.items() if c}


def _over_z(terms: dict) -> tuple[int, dict]:
    """``(s, s * terms)`` for s the lcm of the denominators, under any keys; a map of ints is returned as it is."""
    if all(type(c) is int for c in terms.values()):
        return 1, terms
    s = math.lcm(*(c.denominator for c in terms.values()))
    return s, {key: c.numerator * (s // c.denominator) for key, c in terms.items()}


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two clean term maps: a one-term factor shifts the other's exponents, sums go through :func:`_add_product`."""
    if len(b) == 1:
        ((eb, cb),) = b.items()
        return {tuple(map(operator.add, ea, eb)): _exact(ca * cb) for ea, ca in a.items()}
    if len(a) == 1:
        ((ea, ca),) = a.items()
        return {tuple(map(operator.add, ea, eb)): _exact(ca * cb) for eb, cb in b.items()}
    out: dict = {}
    _add_product(out, 1, a, b)
    return _clean(out)


def _pow_terms(terms: dict, k: int, one: Exponent) -> dict:
    """terms^k for k >= 0, ``one`` the zero exponent.

    A one-term base multiplies its exponent and raises its coefficient; a
    sum is squared and multiplied by :func:`_mul_terms`.
    """
    if len(terms) == 1:
        ((e, c),) = terms.items()
        return {tuple(x * k for x in e): _exact(c**k)}
    result, base = {one: 1}, terms
    while k:
        if k & 1:
            result = _mul_terms(result, base)
        if k > 1:
            base = _mul_terms(base, base)
        k >>= 1
    return result


# The one monomial order: grevlex, for leading terms, printing and every
# Groebner computation.  Key sorts ascending (1 minimal); the tiebreak negates
# reversed exponents.
def grevlex_key(exponent: Exponent):
    return (sum(exponent), tuple(map(operator.neg, reversed(exponent))))


class Poly:
    """A sparse multivariate polynomial with exact rational coefficients.

    Immutable after construction; zero coefficients are never stored.  The
    public constructor validates every exponent and coefficient; arithmetic
    builds its results through the unchecked :meth:`_of`.  The first
    ``str()`` keeps its text in the ``_text`` slot, so a polynomial that a
    report prints several times is formatted once, and the first
    :meth:`leading` keeps the leading exponent in the ``_lead`` slot, which
    :meth:`_of` fills when the caller knows it, as ``buchberger`` does.  Both
    live and die with the object; a copy or a pickle carries neither.
    """

    __slots__ = ("chart", "terms", "_text", "_lead")

    def __init__(self, chart: Chart, terms: dict[Exponent, Coeff] | None = None):
        cleaned: dict[Exponent, Coeff] = {}
        if terms:
            n = chart.n
            for exponent, coeff in terms.items():
                exponent = tuple(exponent)
                if len(exponent) != n or any(type(e) is not int or e < 0 for e in exponent):  # a bool is no exponent
                    raise ValueError(f"bad exponent vector {exponent} for chart of dimension {n}")
                coeff = _exact(coeff)
                if coeff:
                    cleaned[exponent] = coeff
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _of(cls, chart: Chart, terms: dict[Exponent, Coeff], lead: Exponent | None = None) -> Poly:
        """Wrap a term map the caller guarantees clean, and its leading exponent if known; neither is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "chart", chart)
        object.__setattr__(p, "terms", terms)
        if lead is not None:
            object.__setattr__(p, "_lead", lead)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly._of, (self.chart, self.terms)

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

    def leading(self) -> tuple[Exponent, Coeff]:
        """Leading (exponent, coefficient) under grevlex."""
        exponent = getattr(self, "_lead", None)
        if exponent is None:
            if not self.terms:
                raise ValueError("the zero polynomial has no leading term")
            exponent = max(self.terms, key=grevlex_key)
            object.__setattr__(self, "_lead", exponent)
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
        _add_scaled(out, 1, other.terms)
        return Poly._of(self.chart, _clean(out))

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
        return Poly._of(self.chart, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power needs a nonnegative integer, got {exponent!r}")
        return Poly._of(self.chart, _pow_terms(self.terms, exponent, (0,) * self.chart.n))

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
        return Poly._of(self.chart, _clean(_diff_terms(self.terms, i)))

    def shift(self, point) -> Poly:
        """Substitute x_i -> x_i + a_i (translate the point a to the origin).

        Each x_i^e becomes one binomial row of (x_i + a_i)^e, the terms
        C(e, j) a_i^(e-j) x_i^j, built once per (variable, exponent).  The
        expansion has at most sum over terms of prod (e_i + 1) terms, over
        the variables with a_i != 0; past MAX_TERMS, BudgetExceededError is
        raised before anything is expanded.
        """
        values = [_exact(v) for v in point]
        if len(values) != self.chart.n:
            raise ValueError("translation point must supply one value per variable")
        moved = [i for i, a in enumerate(values) if a]
        bound = 0
        for exponent in self.terms:
            size = 1
            for i in moved:
                size *= exponent[i] + 1
            bound += size
            if bound > MAX_TERMS:
                raise BudgetExceededError(
                    f"translation: the translated polynomial may have more than {MAX_TERMS} terms"
                )
        rows: dict[tuple[int, int], list[tuple[int, Coeff]]] = {}
        out: dict[Exponent, Coeff] = {}
        for exponent, coeff in self.terms.items():
            expanded = [(exponent, coeff)]
            for i in moved:
                e = exponent[i]
                if e:
                    row = rows.get((i, e))
                    if row is None:
                        a = values[i]
                        row = rows[(i, e)] = [(j, _exact(math.comb(e, j) * a ** (e - j))) for j in range(e + 1)]
                    expanded = [(x[:i] + (j,) + x[i + 1 :], c * b) for x, c in expanded for j, b in row]
            for e, c in expanded:
                out[e] = out.get(e, 0) + c
        return Poly._of(self.chart, _clean(out))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        text = getattr(self, "_text", None)
        if text is None:
            text = format_poly(self)
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------


def format_poly(p: Poly) -> str:
    """Normal-form text: terms in descending grevlex order.

    ``parse_poly(format_poly(p), p.chart) == p`` holds for every p.  Terms
    sort on the exponent alone: ascending (-|e|, reversed e) is descending
    grevlex.  Each coefficient is written from its numerator and denominator.
    """
    terms = p.terms
    if not terms:
        return "0"
    names = p.chart.names
    pieces = []
    for exponent in sorted(terms, key=lambda e: (-sum(e), e[::-1])):
        coeff = terms[exponent]
        num, den = coeff.numerator, coeff.denominator
        mag = -num if num < 0 else num
        mono = "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponent) if e])
        try:
            if den != 1:
                body = f"{mag}/{den}*{mono}" if mono else f"{mag}/{den}"
            elif not mono:
                body = f"{mag}"
            else:
                body = mono if mag == 1 else f"{mag}*{mono}"
        except ValueError:  # an int past the interpreter's digit limit has no text
            raise BudgetExceededError(f"a computed coefficient has more than {_digit_limit()} digits") from None
        if pieces:
            pieces.append(("- " if num < 0 else "+ ") + body)
        else:
            pieces.append("-" + body if num < 0 else body)
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
# parser raises BudgetExceededError instead of expanding it.  A chart has at
# most MAX_VARIABLES variables: several algorithms recurse once per variable.
# ---------------------------------------------------------------------------

MAX_NESTING = 100
MAX_VARIABLES = 100
MAX_TERMS = 2000

# The blanks that \s matches under re.ASCII, for str.strip.
_BLANKS = " \t\n\r\f\v"
_TOKEN_RE = re.compile(  # ASCII: \d is [0-9] and \s is [ \t\n\r\f\v], so any other character is bad
    rf"\s*(?:(?P<int>\d+)|(?P<ident>{_IDENT_RE.pattern})|(?P<op>[-+*/^()])|(?P<bad>\S))", re.ASCII
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", column=m.start(kind) + 1)
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _digit_limit() -> int:
    """The interpreter's limit on the digits of an int converted to str; 0 if none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _exceeds_digit_limit(values, digits: int) -> bool:
    """Whether a numerator or denominator of the rationals ``values`` passes ``digits`` digits."""
    # 8^digits < 10^digits, so most values are ruled out by their length.
    bits = 3 * digits
    for c in values if digits else ():
        if c.numerator.bit_length() > bits or c.denominator.bit_length() > bits:
            if abs(c.numerator) >= 10**digits or c.denominator >= 10**digits:
                return True
    return False


def _rational(text: str) -> Fraction:
    """``Fraction(text)`` for an ASCII literal such as ``-3/4`` or ``1.5e-3``; other text raises ValueError.

    A value with more digits than the interpreter's limit raises ParseError.
    A nonzero ``m e x`` with |x| - len(text) >= that limit is one; it is
    refused before ``Fraction`` would build 10**|x|.
    """
    if not text.isascii():  # Fraction() reads every Unicode digit and space
        raise ValueError(f"non-ASCII rational {text!r}")
    digits = _digit_limit()
    too_long = f"the rational {text.strip()!r} has more than {digits} digits"
    m = re.search(r"[eE][-+]?([\d_]+)\s*$", text)
    x = m.group(1).replace("_", "").lstrip("0") if m else ""
    if digits and (len(x) > len(str(digits + len(text))) or int(x or 0) - len(text) >= digits):
        raise ParseError(too_long)
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if _exceeds_digit_limit([value], digits):
        raise ParseError(too_long)
    return value


class _PolyParser:
    """Recursive descent over a token list; every rule returns a fresh term map.

    A number or an identifier is a one-term map, a product or power goes
    through :func:`_mul_terms` / :func:`_pow_terms`, a sum through
    :func:`_add_scaled` and :func:`_clean`, and :meth:`parse` wraps the one
    result in a ``Poly``.  An identifier in ``frames`` (the frame tokens of
    :func:`~poissonkit.multivec.parse_polyvector`) is no base outside
    parentheses: there it ends the term.

    Only a product, a power or a sum of two or more terms can grow a
    coefficient past a literal's digits, which ``int()`` bounds, so only
    those are scanned (:meth:`printable`), once per term or sum.
    """

    def __init__(self, tokens: list, chart: Chart, frames=()):
        self.tokens = tokens
        self.chart = chart
        self.frames = frames
        self.i = 0
        self.depth = 0
        self.digits = _digit_limit()
        self.one = (0,) * chart.n
        self.units: dict[str, Exponent] = {}  # an identifier's unit exponent, built when it is first read

    def fail(self, message: str):
        raise ParseError(message, column=self.tokens[self.i][2] + 1)

    def integer(self, value: str, pos: int) -> int:
        """An int token as an int; one past the interpreter's digit limit is a parse error."""
        try:
            return int(value)
        except ValueError:
            raise ParseError(f"integer literal of {len(value)} digits is too long", column=pos + 1) from None

    def too_long(self, pos: int):
        raise ParseError(f"a coefficient has more than {self.digits} digits", column=pos + 1)

    def printable(self, terms: dict, pos: int) -> dict:
        """terms, unless a coefficient has more digits than the interpreter converts to str."""
        if _exceeds_digit_limit(terms.values(), self.digits):
            self.too_long(pos)
        return terms

    def check_terms(self, bound: int, what: str):
        if bound > MAX_TERMS:
            raise BudgetExceededError(f"expression parser: {what} may have {bound} terms, more than {MAX_TERMS}")

    def parse(self) -> Poly:
        terms = self.expr()
        kind, value, _ = self.tokens[self.i]
        if kind != "end":
            self.fail(f"unexpected token {value!r}")
        return Poly._of(self.chart, terms)

    def expr(self) -> dict:
        tokens = self.tokens
        start = tokens[self.i][2]
        result: dict = {}
        sign, summed = 1, False
        while True:
            kind, value, _ = tokens[self.i]
            if kind == "op" and value == "-":
                self.i += 1
                sign = -sign
            _add_scaled(result, sign, self.term())
            kind, value, _ = tokens[self.i]
            if kind != "op" or (value != "+" and value != "-"):
                result = _clean(result)
                return self.printable(result, start) if summed else result
            self.i += 1
            sign = -1 if value == "-" else 1
            summed = True

    def term(self) -> dict:
        tokens = self.tokens
        start = tokens[self.i][2]
        result, grown = self.factor()
        while True:
            kind, value, _ = tokens[self.i]
            if kind != "op" or value != "*":
                return self.printable(result, start) if grown else result
            self.i += 1
            rhs, _ = self.factor()
            self.check_terms(len(result) * len(rhs), "a product")
            result = _mul_terms(result, rhs)
            grown = True

    def factor(self) -> tuple[dict, bool]:
        """A base, or a power of one; the flag says whether a power was raised."""
        tokens = self.tokens
        start = tokens[self.i][2]
        base = self.base()
        kind, value, _ = tokens[self.i]
        if kind != "op" or value != "^":
            return base, False
        self.i += 1
        kind, value, pos = tokens[self.i]
        if kind != "int":
            self.fail("expected a nonnegative integer exponent after '^'")
        self.i += 1
        k, t, n = self.integer(value, pos), len(base), self.chart.n
        if t > 1:
            d = max(map(sum, base))
            self.check_terms(min(math.comb(t - 1 + k, t - 1), math.comb(n + k * d, n)), f"a power ^{k}")
        if base and self.digits:
            # The lex-largest term of base^k has the coefficient c^k, and
            # |c^k| >= 2^(k * bits) > 10^digits once 3 * k * bits > 10 * digits.
            c = base[max(base)]
            bits = max(abs(c.numerator), c.denominator).bit_length() - 1
            if 3 * k * bits > 10 * self.digits:
                self.too_long(start)
        return _pow_terms(base, k, self.one), True

    def base(self) -> dict:
        kind, value, pos = self.tokens[self.i]
        if kind == "ident" and (self.depth or value not in self.frames):
            self.i += 1
            unit = self.units.get(value)
            if unit is None:
                if value not in self.chart.names:
                    raise UnknownIdentifierError(f"unknown identifier {value!r}", column=pos + 1)
                i = self.chart.names.index(value)
                unit = self.units[value] = self.one[:i] + (1,) + self.one[i + 1 :]
            return {unit: 1}
        if kind == "int":
            self.i += 1
            numerator = self.integer(value, pos)
            kind, value, _ = self.tokens[self.i]
            if kind == "op" and value == "/":
                self.i += 1
                kind, value, denominator_pos = self.tokens[self.i]
                if kind != "int":
                    self.fail("expected an integer denominator after '/'")
                self.i += 1
                denominator = self.integer(value, denominator_pos)
                if denominator == 0:
                    raise ParseError("zero denominator", column=pos + 1)
                numerator = _exact(Fraction(numerator, denominator))
            return {self.one: numerator} if numerator else {}
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", column=pos + 1)
            self.i += 1
            self.depth += 1
            inner = self.expr()
            kind, value, _ = self.tokens[self.i]
            if kind != "op" or value != ")":
                self.fail("expected ')'")
            self.i += 1
            self.depth -= 1
            return inner
        self.fail("expected a rational, identifier, or parenthesized expression")


def parse_poly(text: str, chart: Chart) -> Poly:
    """Parse an expression in the chart's variables to normal form."""
    return _PolyParser(_tokenize(text), chart).parse()


# ---------------------------------------------------------------------------
# Gcd and squarefreeness, on integer term maps
# ---------------------------------------------------------------------------


def _positive_primitive(terms: dict, m: int) -> dict:
    """The primitive part over Z of the int map terms / m, as a positive multiple; one already so is returned as is."""
    content = math.gcd(*terms.values()) * (-1 if m < 0 else 1)
    return terms if content == 1 else {e: c // content for e, c in terms.items()}


def _primitive_terms(terms: dict) -> dict[Exponent, int]:
    """A nonzero term map scaled by a positive rational to coprime ints; one that is already so is returned as is."""
    s, scaled = _over_z(terms)
    return _positive_primitive(scaled, s)


def _is_constant_terms(terms: dict) -> bool:
    return len(terms) == 1 and not any(next(iter(terms)))


def _positive_lead(terms: dict) -> dict:
    """The term map or its negative, whichever has a positive lex-leading coefficient."""
    if terms[max(terms)] > 0:
        return terms
    return {e: -c for e, c in terms.items()}


def _quotient_z(a: dict, d: dict) -> dict | None:
    """The quotient a/d of integer term maps when d divides a in Z[x], else None.

    Lex-order division that stops at the first quotient term outside the
    box deg_v(a) - deg_v(d), where no quotient term of an exact division lies.
    """
    lead_d = max(d)
    coeff_d = d[lead_d]
    room = [max(column) - max(other) for column, other in zip(zip(*a), zip(*d))]
    work = dict(a)
    quotient = {}
    while work:
        lead = max(work)
        shift = tuple(x - y for x, y in zip(lead, lead_d))
        if any(e < 0 or e > r for e, r in zip(shift, room)):
            return None
        q, r = divmod(work[lead], coeff_d)
        if r:
            return None
        quotient[shift] = q
        _sub_mul(work, q, shift, d)
    return quotient


# ---------------------------------------------------------------------------
# Heuristic gcd (GCDHEU)
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


def _evaluate(terms: dict, var: int, xi: int) -> dict:
    """The term map with x_var replaced by the integer xi, clean: :func:`_is_constant_terms` reads its length."""
    out: dict = {}
    powers = [1]
    for e, c in terms.items():
        k = e[var]
        if k:
            while len(powers) <= k:
                powers.append(powers[-1] * xi)
            c *= powers[k]
            e = e[:var] + (0,) + e[var + 1 :]
        out[e] = out.get(e, 0) + c
    return _clean(out)


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
    content = math.gcd(*a.values(), *b.values())
    a, b = _positive_primitive(a, 1), _positive_primitive(b, 1)
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
            candidate = _positive_lead(_positive_primitive(_interpolate(gamma, var, xi), 1))
            if _quotient_z(a, candidate) is not None and _quotient_z(b, candidate) is not None:
                return {e: c * content for e, c in candidate.items()} if content != 1 else candidate
        xi = xi * 73794 // 27011
    return None


# ---------------------------------------------------------------------------
# Primitive PRS, the fallback when the heuristic gives up
#
# Brown and Traub, *On Euclid's algorithm and the theory of subresultants*,
# J. ACM 1971.  The inputs are viewed as polynomials in their highest
# variable x_var.  Each is split into its content (the gcd of its
# coefficients, recursively, with the integer content) and its primitive
# part; every pseudo-remainder is made primitive the same way, so
# coefficients do not grow from one remainder to the next.
# ---------------------------------------------------------------------------


def _coefficient(p: dict, var: int, k: int) -> dict:
    """The coefficient of x_var^k in p, as a term map free of x_var."""
    return {e[:var] + (0,) + e[var + 1 :]: c for e, c in p.items() if e[var] == k}


def _content(p: dict, var: int) -> dict:
    """Gcd over Z of the coefficients of p in x_var, with a positive lex-leading coefficient."""
    degrees = iter({e[var] for e in p})
    g = _positive_lead(_coefficient(p, var, next(degrees)))
    for k in degrees:
        g = _gcd_terms(g, _coefficient(p, var, k))
    return g


def _pseudo_remainder(a: dict, b: dict, var: int) -> dict:
    """The remainder of lc(b)^s * a under division by b in x_var, s the number of steps."""
    db = max(e[var] for e in b)
    lead_b = _coefficient(b, var, db)
    r = a
    while r and (dr := max(e[var] for e in r)) >= db:
        # lc(b) * r - lc(r) * x_var^(dr - db) * b, which clears x_var^dr
        shifted = {e[:var] + (dr - db,) + e[var + 1 :]: c for e, c in r.items() if e[var] == dr}
        scaled: dict = {}
        _add_product(scaled, 1, lead_b, r)
        _add_product(scaled, -1, shifted, b)
        r = _clean(scaled)
    return r


def _prs_gcd(a: dict, b: dict) -> dict:
    """Gcd of two nonzero integer term maps over Z, integer contents included, with a positive lex-leading coefficient."""
    var = max((i for e in itertools.chain(a, b) for i, k in enumerate(e) if k), default=None)
    if var is None:
        return {next(iter(a)): math.gcd(*a.values(), *b.values())}
    content_a, content_b = _content(a, var), _content(b, var)
    pa, pb = _quotient_z(a, content_a), _quotient_z(b, content_b)
    if max(e[var] for e in pa) < max(e[var] for e in pb):
        pa, pb = pb, pa
    while rem := _pseudo_remainder(pa, pb, var):
        pa, pb = pb, _quotient_z(rem, _content(rem, var))
    return _mul_terms(_gcd_terms(content_a, content_b), _positive_lead(pb))


def _gcd_terms(a: dict, b: dict) -> dict:
    """Gcd of two nonzero integer term maps over Z, with a positive lex-leading coefficient."""
    if len(a) == 1 or len(b) == 1:  # x^(least exponents of both) times the gcd of all coefficients
        return {tuple(map(min, *a, *b)): math.gcd(*a.values(), *b.values())}
    return _heu_gcd(a, b) or _prs_gcd(a, b)


def gcd_multi(ps: list[Poly]) -> Poly:
    """Gcd of a nonempty family, monic under the grevlex leading term.

    Zero entries are ignored; all-zero input is an error.  The primitive
    integer parts are folded pairwise by :func:`_gcd_terms`: the certified
    heuristic :func:`_heu_gcd`, and the primitive PRS :func:`_prs_gcd` when
    the heuristic gives up.
    """
    if not ps:
        raise ValueError("gcd_multi needs at least one polynomial")
    nonzero = [p for p in ps if not p.is_zero]
    if not nonzero:
        raise ValueError("gcd_multi: all inputs are zero")
    g = _primitive_terms(nonzero[0].terms)
    for p in nonzero[1:]:
        if _is_constant_terms(g):
            break
        g = _gcd_terms(g, _primitive_terms(p.terms))
    lead = g[max(g, key=grevlex_key)]
    return Poly._of(nonzero[0].chart, {e: _div(c, lead) for e, c in g.items()})


def nonreduced_factor(p: Poly) -> Poly:
    """gcd(p, dp/dx_1, ..., dp/dx_n), monic: constant exactly when p is reduced.

    Reducedness (squarefreeness) of a nonzero p, a constant p counting as
    reduced: the test on charts of 4 or more variables, and on a surface the
    NOT_LOG_SYMPLECTIC witness only, since a surface report reads
    reducedness off the singular locus.
    """
    return gcd_multi([p, *(p.diff(i) for i in range(p.chart.n))])
