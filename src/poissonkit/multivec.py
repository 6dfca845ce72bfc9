"""Polyvector-field calculus: wedge, Schouten bracket, contraction, BV operator.

A degree-k polyvector is stored as a map from strictly increasing k-tuples of
frame indices (the d-multi-index) to polynomial coefficients.  Internally the
calculus runs on the odd-coordinate model: a k-vector is a polynomial in the
chart variables and odd frame symbols d_1, ..., d_n, so the Schouten bracket
and the divergence operator become combinations of the two kinds of partial
derivatives.

One kernel serves every operation: the bracket, the contraction (one sum of
the bracket's formula), the wedge, bv, the sum and the parser accumulate
into ``{index: {exponent: coeff}}`` term maps with the term-map arithmetic
of :mod:`poissonkit.polyalg`, then clean and wrap each coefficient once, so
an integral coefficient of every result is an ``int``.

Sign conventions (pinned by the test suite, recorded in ``SIGN_CONVENTIONS``):

* ``schouten(xi, f) = xi(f)`` for a vector field xi and function f, and the
  bracket restricts to the Lie bracket on vector fields;
* ``bv`` acts on components by
  ``bv(g d_{i1}^...^d_{ik}) = sum_j (-1)^(j-1) (dg/dx_{ij}) d_{i1}^..omit ij..^d_{ik}``,
  so on a vector field it is the usual divergence and
  ``lie_derivative(xi, covolume) = -bv(xi) * covolume``;
* consequently ``schouten(pi, f) = -hamiltonian(f)`` for a bivector pi, the
  sign that makes the homotopy formula
  ``L_{H_f} = d_pi o i_df + i_df o d_pi`` hold with the contraction
  ``contract(f, a) = i_df(a)`` below.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import ChartMismatchError, ParseError
from .polyalg import Chart, Poly, _add_product, _add_scaled, _clean, _diff_terms, _PolyParser, _tokenize

MultiIndex = tuple[int, ...]

SIGN_CONVENTIONS = {
    "schouten_vector_on_function": "[xi, f] = xi(f)",
    "schouten_antisymmetry": "[a, b] = -(-1)^((|a|-1)(|b|-1)) [b, a]",
    "bv_on_vector_field": "bv(xi) = div(xi), so that L_xi mu = -bv(xi) mu",
    "bv_on_surface_bivector": "bv(f dw^dz) = (df/dw) dz - (df/dz) dw",
    "lichnerowicz_on_function": "d_pi(f) = [pi, f] = -H_f",
    "hamiltonian": "H_f = i_df(pi); for pi = f dw^dz: H_w = f dz, H_z = -f dw",
    "contraction": "i_df(a) = sum_i (df/dx_i) * (left d-derivative of a); i_df(xi) = xi(f)",
}


class Polyvector:
    """A homogeneous alternating polyvector field of degree k on a chart.

    Immutable; zero coefficients are never stored, so the zero polyvector of
    any degree has an empty term map.
    """

    __slots__ = ("chart", "k", "terms")

    def __init__(self, chart: Chart, k: int, terms: dict[MultiIndex, Poly] | None = None):
        if not 0 <= k <= chart.n:
            raise ValueError(f"polyvector degree {k} out of range for dimension {chart.n}")
        cleaned: dict[MultiIndex, Poly] = {}
        if terms:
            for index, coeff in terms.items():
                index = tuple(index)
                if len(index) != k or any(
                    index[j] >= index[j + 1] for j in range(len(index) - 1)
                ):
                    raise ValueError(
                        f"multi-index {index} is not strictly increasing of length {k}"
                    )
                if index and not 0 <= index[0] <= index[-1] < chart.n:
                    raise ValueError(f"multi-index {index} out of range")
                if coeff.chart != chart:
                    raise ChartMismatchError("coefficient chart differs from polyvector chart")
                if not coeff.is_zero:
                    cleaned[index] = coeff
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Polyvector is immutable")

    def __reduce__(self):
        return Polyvector, (self.chart, self.k, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, k: int) -> Polyvector:
        return cls(chart, k)

    @classmethod
    def function(cls, f: Poly) -> Polyvector:
        return cls(f.chart, 0, {(): f})

    @classmethod
    def frame(cls, chart: Chart, i: int) -> Polyvector:
        """The coordinate vector field d_i."""
        return cls(chart, 1, {(i,): Poly.constant(chart, 1)})

    @classmethod
    def term(cls, chart: Chart, index: MultiIndex, coeff: Poly) -> Polyvector:
        return cls(chart, len(index), {tuple(index): coeff})

    # -- linear structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check_chart(self, other: Polyvector):
        if self.chart != other.chart:
            raise ChartMismatchError(f"charts differ: {self.chart!r} vs {other.chart!r}")

    def __add__(self, other: Polyvector) -> Polyvector:
        self._check_chart(other)
        if self.k != other.k:
            # The zero polyvector is degree-flexible: it adopts the other
            # summand's degree rather than raising.
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise ValueError(f"cannot add polyvectors of degrees {self.k} and {other.k}")
        acc = {index: dict(coeff.terms) for index, coeff in self.terms.items()}
        for index, coeff in other.terms.items():
            _add_scaled(acc.setdefault(index, {}), 1, coeff.terms)
        return _polyvector(self.chart, self.k, acc)

    def __sub__(self, other: Polyvector) -> Polyvector:
        return self + (-other)

    def __neg__(self) -> Polyvector:
        return self * -1

    def __mul__(self, factor) -> Polyvector:
        if not isinstance(factor, (int, Fraction, Poly)):
            return NotImplemented
        return Polyvector(self.chart, self.k, {i: factor * c for i, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polyvector):
            return NotImplemented
        if self.chart != other.chart:
            return False
        if self.is_zero and other.is_zero:
            return True  # zero is zero in every degree
        return self.k == other.k and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, self.k, frozenset((i, hash(c)) for i, c in self.terms.items())))

    def __str__(self) -> str:
        return format_polyvector(self)

    def __repr__(self) -> str:
        return f"Polyvector({format_polyvector(self)})"


def covolume(chart: Chart) -> Polyvector:
    """The standard top polyvector d_1^...^d_n with coefficient 1."""
    return Polyvector(chart, chart.n, {tuple(range(chart.n)): Poly.constant(chart, 1)})


def apply_vector_field(xi: Polyvector, f: Poly) -> Poly:
    """xi(f) for a degree-1 polyvector: the directional derivative, the function ``contract(f, xi)``."""
    if xi.k != 1:
        raise ValueError("apply_vector_field needs a degree-1 polyvector")
    return contract(f, xi).terms.get((), Poly.zero(xi.chart))


def _polyvector(chart: Chart, k: int, acc: dict) -> Polyvector:
    """The degree-k polyvector of accumulated term maps, each cleaned and wrapped once."""
    terms = {index: _clean(coeffs) for index, coeffs in acc.items()}
    return Polyvector(chart, k, {index: Poly._of(chart, t) for index, t in terms.items() if t})


# ---------------------------------------------------------------------------
# The graded operations
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1 << 14)
def _merge_sign(left: MultiIndex, right: MultiIndex):
    """Merge two strictly increasing index tuples; None if they collide.

    The sign is the parity of the shuffle that sorts left + right.  Cached:
    one bracket merges the same few index pairs many times.
    """
    if set(left) & set(right):
        return None
    inversions = sum(1 for i in left for j in right if i > j)
    merged = tuple(sorted(left + right))
    return (-1 if inversions % 2 else 1), merged


def wedge(a: Polyvector, b: Polyvector) -> Polyvector:
    """Graded-commutative wedge product.

    When deg a + deg b exceeds the chart dimension the result is the zero
    polyvector of the clamped degree n; the clamp is detectable by comparing
    ``result.k`` with ``a.k + b.k``.  Overflow never raises.
    """
    a._check_chart(b)
    n = a.chart.n
    degree = a.k + b.k
    if degree > n:
        return Polyvector.zero(a.chart, n)
    acc: dict = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged = _merge_sign(ia, ib)
            if merged is not None:
                _add_product(acc.setdefault(merged[1], {}), merged[0], ca.terms, cb.terms)
    return _polyvector(a.chart, degree, acc)


def _add_odd_sum(acc: dict, a: dict[MultiIndex, Poly], b: dict[MultiIndex, Poly], n: int, sign: int):
    """Add ``sign * sum_i (left d-derivative of a by d_i) ^ (db/dx_i)`` into acc.

    One of the two sums of the odd-coordinate Schouten formula, on the term
    maps a and b of two polyvectors on an n-chart.  The left derivative of
    ``coeff d_index`` by d_i is ``(-1)^pos coeff d_rest``, i at ``pos``.
    """
    for i in range(n):
        b_diffs = [(ib, d) for ib, cb in b.items() if (d := _diff_terms(cb.terms, i))]
        if not b_diffs:
            continue
        for index, ca in a.items():
            if i not in index:
                continue
            pos = index.index(i)
            rest = index[:pos] + index[pos + 1 :]
            theta_sign = -sign if pos % 2 else sign
            for ib, db in b_diffs:
                merged = _merge_sign(rest, ib)
                if merged is not None:
                    _add_product(acc.setdefault(merged[1], {}), theta_sign * merged[0], ca.terms, db)


def schouten(a: Polyvector, b: Polyvector) -> Polyvector:
    """Schouten-Nijenhuis bracket; degree |a| + |b| - 1.

    Extends the Lie bracket of vector fields and the action of vector fields
    on functions, with graded antisymmetry
    ``[a, b] = -(-1)^((|a|-1)(|b|-1)) [b, a]`` and the graded Leibniz rule
    ``[a, b^c] = [a, b]^c + (-1)^((|a|-1)|b|) b^[a, c]``.  Both sums of the
    odd-coordinate formula add into one term map.

    For ``schouten(a, a)`` the two sums are one sum, with the signs
    ``-(-1)^|a|`` and ``-1``: it is added twice over for even |a| (the
    Jacobi check ``[pi, pi]``), and the bracket is 0 for odd |a|.
    """
    a._check_chart(b)
    n, ka, kb = a.chart.n, a.k, b.k
    if ka + kb == 0:
        return Polyvector.zero(a.chart, 0)
    if ka + kb - 1 > n:
        return Polyvector.zero(a.chart, n)
    sign_ab = -1 if (ka - 1) % 2 else 1
    sign_ba = -1 if ((ka - 1) * (kb - 1) + (kb - 1)) % 2 == 0 else 1
    acc: dict = {}
    if a is b:
        if sign_ab + sign_ba:
            _add_odd_sum(acc, a.terms, a.terms, n, sign_ab + sign_ba)
    else:
        _add_odd_sum(acc, a.terms, b.terms, n, sign_ab)
        _add_odd_sum(acc, b.terms, a.terms, n, sign_ba)
    return _polyvector(a.chart, ka + kb - 1, acc)


def contract(f: Poly, a: Polyvector) -> Polyvector:
    """Contraction i_df(a) of a polyvector with the exact one-form df; degree |a| - 1.

    A graded derivation of the wedge product; on a vector field xi it
    returns xi(f).  Contracting a function gives the zero function.
    """
    if f.chart != a.chart:
        raise ChartMismatchError("function and polyvector live on different charts")
    if a.k == 0:
        return Polyvector.zero(a.chart, 0)
    acc: dict = {}
    _add_odd_sum(acc, a.terms, {(): f}, a.chart.n, 1)
    return _polyvector(a.chart, a.k - 1, acc)


def lie_derivative(xi: Polyvector, a: Polyvector) -> Polyvector:
    """Lie derivative along a vector field: schouten(xi, a)."""
    if xi.k != 1:
        raise ValueError(f"lie_derivative needs a degree-1 polyvector, got degree {xi.k}")
    return schouten(xi, a)


def bv(a: Polyvector) -> Polyvector:
    """Batalin-Vilkovisky operator for the standard covolume; degree |a| - 1.

    Componentwise,
    ``bv(g d_{i1}^...^d_{ik}) = sum_j (-1)^(j-1) (dg/dx_{ij}) d_{i1}^..omit..^d_{ik}``,
    the divergence on vector fields.  bv o bv = 0, and bv is a derivation of
    the Schouten bracket: ``bv[a,b] = [bv a, b] - (-1)^|a| [a, bv b]``.

    Rescaling the covolume by a nonzero constant leaves bv unchanged; the
    change-of-covolume identity for non-constant rescalings involves log g
    and lies outside the polynomial category, so it is not implemented.
    """
    if a.k == 0:
        return Polyvector.zero(a.chart, 0)
    acc: dict = {}
    for index, coeff in a.terms.items():
        for pos, i in enumerate(index):
            d = _diff_terms(coeff.terms, i)
            if d:
                _add_scaled(acc.setdefault(index[:pos] + index[pos + 1 :], {}), -1 if pos % 2 else 1, d)
    return _polyvector(a.chart, a.k - 1, acc)


# ---------------------------------------------------------------------------
# Text syntax: "w*z dw^dz + 3 dw"; a term is an optional product term of the
# expression syntax followed by frame tokens d<name> joined with '^'.  A sum
# used as a coefficient must be parenthesized: "(w + z) dw^dz".  Degree-0
# terms carry no frame tokens, and a term with neither part is an error.
# ---------------------------------------------------------------------------


def format_polyvector(a: Polyvector) -> str:
    if a.is_zero:
        return "0"
    chart = a.chart
    pieces = []
    for index in sorted(a.terms):
        coeff = a.terms[index]
        dstr = "^".join(f"d{chart.names[i]}" for i in index)
        body = str(coeff) if len(coeff.terms) == 1 else f"({coeff})"
        text = f"{body} {dstr}".strip()
        if not pieces:
            pieces.append(text)
        elif text.startswith("-"):
            pieces.append(f"- {text[1:]}")
        else:
            pieces.append(f"+ {text}")
    return " ".join(pieces)


def parse_polyvector(text: str, chart: Chart) -> Polyvector:
    """Parse the polyvector syntax; all terms must share one degree.

    One :class:`_PolyParser` walks the whole token list.  A term is an
    optional unary minus, then a coefficient (``parser.term()``, the constant 1
    when a frame token comes first), then its frame tokens, sorted by
    :func:`_merge_sign`; a term with neither coefficient nor frame token is a
    parse error.  The terms add into one term map per multi-index.
    """
    frames = {f"d{name}": i for i, name in enumerate(chart.names)}
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty polyvector expression")
    parser = _PolyParser(tokens, chart, frames)
    acc: dict = {}
    degree = None
    sign = 1
    while True:
        if tokens[parser.i][1] == "-":
            parser.i += 1
            sign = -sign
        if tokens[parser.i][1] in frames:
            coeff = {parser.one: 1}
        else:
            # A coefficient ends at a frame token, a sign or the end; any other
            # token is its error, found before the term's degree is compared.
            coeff = parser.term()
            kind, value, _ = tokens[parser.i]
            if kind != "end" and value != "+" and value != "-" and value not in frames:
                parser.fail(f"unexpected token {value!r}")
        index: MultiIndex = ()
        while (frame := frames.get(tokens[parser.i][1])) is not None:
            merged = _merge_sign(index, (frame,))
            if merged is None:
                parser.fail("repeated frame token in polyvector term")
            sign *= merged[0]
            index = merged[1]
            parser.i += 1
            if tokens[parser.i][1] == "^" and tokens[parser.i + 1][1] in frames:
                parser.i += 1
        if degree is None:
            degree = len(index)
        elif len(index) != degree:
            raise ParseError("polyvector terms have mixed degrees")
        _add_scaled(acc.setdefault(index, {}), sign, coeff)
        kind, value, _ = tokens[parser.i]
        if kind == "end":
            return _polyvector(chart, degree, acc)
        if value != "+" and value != "-":
            parser.fail(f"expected '+' or '-', got {value!r}")
        parser.i += 1
        sign = -1 if value == "-" else 1
