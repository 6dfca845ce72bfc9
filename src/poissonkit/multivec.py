"""Polyvector-field calculus: wedge, Schouten bracket, contraction, BV operator.

A degree-k polyvector is stored as a map from strictly increasing k-tuples of
frame indices (the d-multi-index) to polynomial coefficients.  Internally the
calculus runs on the odd-coordinate model: a k-vector is a polynomial in the
chart variables and odd frame symbols d_1, ..., d_n, so the Schouten bracket
and the divergence operator become combinations of the two kinds of partial
derivatives.

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

from fractions import Fraction

from .errors import ChartMismatchError, ParseError
from .polyalg import Chart, Poly, _tokenize, parse_poly

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
        acc = dict(self.terms)
        for index, coeff in other.terms.items():
            _add_term(acc, index, coeff)
        return Polyvector(self.chart, self.k, acc)

    def __sub__(self, other: Polyvector) -> Polyvector:
        return self + (-other)

    def __neg__(self) -> Polyvector:
        return self * -1

    def __mul__(self, factor) -> Polyvector:
        if isinstance(factor, (int, Fraction)):
            factor = Poly.constant(self.chart, factor)
        if not isinstance(factor, Poly):
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
    """xi(f) for a degree-1 polyvector: the directional derivative."""
    if xi.k != 1:
        raise ValueError("apply_vector_field needs a degree-1 polyvector")
    result = Poly.zero(xi.chart)
    for (i,), coeff in xi.terms.items():
        result = result + coeff * f.diff(i)
    return result


def _add_term(acc: dict[MultiIndex, Poly], index: MultiIndex, coeff: Poly):
    prev = acc.get(index)
    total = coeff if prev is None else prev + coeff
    if total.is_zero:
        acc.pop(index, None)
    else:
        acc[index] = total


# ---------------------------------------------------------------------------
# The graded operations
# ---------------------------------------------------------------------------


def _merge_sign(left: MultiIndex, right: MultiIndex):
    """Merge two strictly increasing index tuples; None if they collide.

    The sign is the parity of the shuffle that sorts left + right.
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
    acc: dict[MultiIndex, Poly] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged = _merge_sign(ia, ib)
            if merged is None:
                continue
            sign, index = merged
            product = ca * cb
            _add_term(acc, index, product if sign > 0 else -product)
    return Polyvector(a.chart, degree, acc)


def _theta_diff(a: Polyvector, i: int):
    """Left derivative by the odd frame symbol d_i, term by term.

    Yields ``(sign, rest, coeff)`` for each term ``coeff d_index`` of a whose
    index holds i: the derivative is ``sign * coeff d_rest``.
    """
    for index, coeff in a.terms.items():
        if i in index:
            pos = index.index(i)
            yield (-1 if pos % 2 else 1), index[:pos] + index[pos + 1 :], coeff


def _add_odd_sum(
    acc: dict[MultiIndex, Poly], a: Polyvector, b_terms: dict[MultiIndex, Poly], sign: int
):
    """Add ``sign * sum_i (left d-derivative of a by d_i) ^ (db/dx_i)`` into acc.

    One of the two sums of the odd-coordinate Schouten formula; ``b_terms``
    is the term map of b.
    """
    for i in range(a.chart.n):
        b_diffs = [(ib, d) for ib, cb in b_terms.items() if not (d := cb.diff(i)).is_zero]
        for theta_sign, rest, ca in _theta_diff(a, i):
            for ib, db in b_diffs:
                merged = _merge_sign(rest, ib)
                if merged is None:
                    continue
                merge_sign, index = merged
                product = ca * db
                _add_term(acc, index, product if sign * theta_sign * merge_sign > 0 else -product)


def schouten(a: Polyvector, b: Polyvector) -> Polyvector:
    """Schouten-Nijenhuis bracket; degree |a| + |b| - 1.

    Extends the Lie bracket of vector fields and the action of vector fields
    on functions, with graded antisymmetry
    ``[a, b] = -(-1)^((|a|-1)(|b|-1)) [b, a]`` and the graded Leibniz rule
    ``[a, b^c] = [a, b]^c + (-1)^((|a|-1)|b|) b^[a, c]``.  Both sums of the
    odd-coordinate formula add into one term map.
    """
    a._check_chart(b)
    ka, kb = a.k, b.k
    if ka + kb == 0:
        return Polyvector.zero(a.chart, 0)
    if ka + kb - 1 > a.chart.n:
        return Polyvector.zero(a.chart, a.chart.n)
    sign_ab = -1 if (ka - 1) % 2 else 1
    sign_ba = -1 if ((ka - 1) * (kb - 1) + (kb - 1)) % 2 == 0 else 1
    acc: dict[MultiIndex, Poly] = {}
    _add_odd_sum(acc, a, b.terms, sign_ab)
    _add_odd_sum(acc, b, a.terms, sign_ba)
    return Polyvector(a.chart, ka + kb - 1, acc)


def contract(f: Poly, a: Polyvector) -> Polyvector:
    """Contraction i_df(a) of a polyvector with the exact one-form df; degree |a| - 1.

    A graded derivation of the wedge product; on a vector field xi it
    returns xi(f).  Contracting a function gives the zero function.
    """
    if f.chart != a.chart:
        raise ChartMismatchError("function and polyvector live on different charts")
    if a.k == 0:
        return Polyvector.zero(a.chart, 0)
    acc: dict[MultiIndex, Poly] = {}
    _add_odd_sum(acc, a, {(): f}, 1)
    return Polyvector(a.chart, a.k - 1, acc)


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
    acc: dict[MultiIndex, Poly] = {}
    for index, coeff in a.terms.items():
        for pos, i in enumerate(index):
            d = coeff.diff(i)
            if d.is_zero:
                continue
            rest = index[:pos] + index[pos + 1 :]
            _add_term(acc, rest, d if pos % 2 == 0 else -d)
    return Polyvector(a.chart, a.k - 1, acc)


# ---------------------------------------------------------------------------
# Text syntax: "w*z dw^dz + 3 dw"; a coefficient expression followed by frame
# tokens d<name> joined with '^'.  A sum used as a coefficient must be
# parenthesized: "(w + z) dw^dz".  Degree-0 terms carry no frame tokens.
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
    """Parse the polyvector syntax; all terms must share one degree."""
    frame_tokens = {f"d{name}": i for i, name in enumerate(chart.names)}
    tokens = _tokenize(text)

    def is_frame(tok):
        return tok[0] == "ident" and tok[1] in frame_tokens

    i = 0

    def parse_term() -> Polyvector:
        nonlocal i
        sign = 1
        if tokens[i][0] == "op" and tokens[i][1] == "-":
            sign = -1
            i += 1
        start = i
        depth = 0
        while True:
            kind, value, _ = tokens[i]
            if kind == "end":
                break
            if kind == "op" and value == "(":
                depth += 1
            elif kind == "op" and value == ")":
                depth -= 1
            elif depth == 0 and (is_frame(tokens[i]) or (kind == "op" and value in "+-")):
                break
            i += 1
        coeff_text = text[tokens[start][2] : tokens[i][2]].strip()
        coeff = parse_poly(coeff_text, chart) if coeff_text else Poly.constant(chart, 1)
        index: list[int] = []
        while is_frame(tokens[i]):
            index.append(frame_tokens[tokens[i][1]])
            i += 1
            if tokens[i][0] == "op" and tokens[i][1] == "^" and is_frame(tokens[i + 1]):
                i += 1
        if len(set(index)) != len(index):
            raise ParseError("repeated frame token in polyvector term", column=tokens[i][2] + 1)
        perm_sign, sorted_index = _sort_sign(index)
        return Polyvector.term(chart, tuple(sorted_index), coeff * (sign * perm_sign))

    result: Polyvector | None = None
    while tokens[i][0] != "end":
        if result is None:
            term = parse_term()
        else:
            kind, value, p = tokens[i]
            if kind != "op" or value not in "+-":
                raise ParseError(f"expected '+' or '-', got {value!r}", column=p + 1)
            i += 1
            term = parse_term()
            if value == "-":
                term = -term
        if result is None:
            result = term
        else:
            if term.k != result.k:
                raise ParseError("polyvector terms have mixed degrees")
            result = result + term
    if result is None:
        raise ParseError("empty polyvector expression")
    return result


def _sort_sign(index: list[int]):
    """Sort an index list by adjacent swaps, tracking the permutation sign."""
    index = list(index)
    sign = 1
    for a in range(len(index)):
        for b in range(len(index) - 1 - a):
            if index[b] > index[b + 1]:
                index[b], index[b + 1] = index[b + 1], index[b]
                sign = -sign
    return sign, index
