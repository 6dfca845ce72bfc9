"""Declarative Poisson-structure files.

Line-oriented format with '#' comments::

    chart: w z
    weights: 1 1          # optional, defaults to all 1
    poisson:
    {w,z} = w*z

The poisson block holds either explicit bracket lines ``{v1,v2} = expr``
with v1 before v2 in chart order (unlisted pairs default to 0), or exactly
one builder directive::

    jacobian3 F = 1/3*(x^3 + y^3 + z^3) + x*y*z
    diagonal lambda = 0 1; -1 0

The diagonal matrix is row-major, rows separated by ';', entries by spaces
or commas.  Example files double as regression fixtures: parsing and then
re-serializing a structure reproduces the same bracket polynomials.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .poisson import (
    PoissonStructure,
    diagonal_quadratic_bivector,
    jacobian_bivector_3,
    new_poisson,
)
from .multivec import Polyvector
from .polyalg import Chart, Poly, parse_poly

_BRACKET_RE = re.compile(
    r"^\{\s*([A-Za-z][A-Za-z0-9_]*)\s*,\s*([A-Za-z][A-Za-z0-9_]*)\s*\}\s*=\s*(.+)$"
)
_JACOBIAN_RE = re.compile(r"^jacobian3\s+F\s*=\s*(.+)$")
_DIAGONAL_RE = re.compile(r"^diagonal\s+lambda\s*=\s*(.+)$")


@dataclass(frozen=True)
class StructureSpec:
    """Parsed structure file: a chart plus brackets or one builder directive."""

    chart: Chart
    brackets: tuple[tuple[int, int, Poly], ...]
    builder: tuple[str, object] | None = None

    def bivector(self) -> Polyvector:
        """The bivector this file describes, not yet checked for Jacobi."""
        if self.builder is not None:
            kind, payload = self.builder
            if kind == "jacobian3":
                return jacobian_bivector_3(payload)
            if kind == "diagonal":
                return diagonal_quadratic_bivector(payload, chart=self.chart)
            raise AssertionError(f"unknown builder {kind!r}")
        terms = {(i, j): p for i, j, p in self.brackets if not p.is_zero}
        return Polyvector(self.chart, 2, terms)

    def build(self) -> PoissonStructure:
        """Construct and validate the Poisson structure this file describes."""
        return new_poisson(self.bivector())


def parse_structure_file(text: str) -> StructureSpec:
    """Parse file text; errors carry 1-based line (and column) positions."""
    chart: Chart | None = None
    names: tuple[str, ...] | None = None
    weights: tuple[int, ...] | None = None
    in_poisson = False
    raw_brackets: list[tuple[int, int, Poly]] = []
    builder: tuple[str, object] | None = None
    seen_pairs: set[tuple[int, int]] = set()

    def current_chart(lineno: int) -> Chart:
        nonlocal chart
        if names is None:
            raise ParseError("the poisson block needs a preceding chart: line", line=lineno)
        if chart is None:
            chart = Chart(names, weights or ())
        return chart

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip())
        if line.startswith("chart:"):
            if names is not None:
                raise ParseError("duplicate chart: line", line=lineno)
            tokens = [t for t in re.split(r"[\s,]+", line[len("chart:") :].strip()) if t]
            if not tokens:
                raise ParseError("chart: needs at least one variable name", line=lineno)
            try:
                names = tuple(tokens)
                Chart(names)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            continue
        if line.startswith("weights:"):
            if names is None:
                raise ParseError("weights: must follow chart:", line=lineno)
            if in_poisson:
                raise ParseError("weights: must precede the poisson block", line=lineno)
            tokens = [t for t in re.split(r"[\s,]+", line[len("weights:") :].strip()) if t]
            try:
                weights = tuple(int(t) for t in tokens)
                Chart(names, weights)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            continue
        if line == "poisson:":
            if in_poisson:
                raise ParseError("duplicate poisson: line", line=lineno)
            current_chart(lineno)
            in_poisson = True
            continue
        if not in_poisson:
            raise ParseError(f"unexpected line before the poisson block: {line!r}", line=lineno)

        ch = current_chart(lineno)
        m = _BRACKET_RE.match(line)
        if m:
            if builder is not None:
                raise ParseError("bracket lines cannot follow a builder directive", line=lineno)
            v1, v2, expr = m.group(1), m.group(2), m.group(3)
            for v in (v1, v2):
                if v not in ch.names:
                    raise ParseError(f"unknown chart variable {v!r}", line=lineno)
            i, j = ch.index(v1), ch.index(v2)
            if i >= j:
                raise ParseError(
                    f"bracket pair must be listed in chart order with {v1!r} before {v2!r}",
                    line=lineno,
                )
            if (i, j) in seen_pairs:
                raise ParseError(f"duplicate bracket pair {{{v1},{v2}}}", line=lineno)
            seen_pairs.add((i, j))
            raw_brackets.append((i, j, _parse_expr(expr, ch, lineno, indent + m.start(3))))
            continue
        m = _JACOBIAN_RE.match(line)
        if m:
            if raw_brackets or builder is not None:
                raise ParseError("a builder directive must be the only poisson entry", line=lineno)
            if ch.n != 3:
                raise ParseError("jacobian3 needs a 3-variable chart", line=lineno)
            builder = ("jacobian3", _parse_expr(m.group(1), ch, lineno, indent + m.start(1)))
            continue
        m = _DIAGONAL_RE.match(line)
        if m:
            if raw_brackets or builder is not None:
                raise ParseError("a builder directive must be the only poisson entry", line=lineno)
            rows = []
            for row_text in m.group(1).split(";"):
                entries = [t for t in re.split(r"[\s,]+", row_text.strip()) if t]
                try:
                    rows.append([Fraction(t) for t in entries])
                except (ValueError, ZeroDivisionError):
                    raise ParseError(f"bad rational entry in lambda row: {row_text.strip()!r}", line=lineno) from None
            if len(rows) != ch.n or any(len(r) != ch.n for r in rows):
                raise ParseError(
                    f"lambda must be a {ch.n}x{ch.n} row-major matrix", line=lineno
                )
            builder = ("diagonal", rows)
            continue
        raise ParseError(f"unrecognized poisson entry: {line!r}", line=lineno)

    if names is None:
        raise ParseError("missing chart: line", line=1)
    if not in_poisson:
        raise ParseError("missing poisson: block", line=1)
    return StructureSpec(current_chart(0), tuple(raw_brackets), builder)


def _parse_expr(expr: str, chart: Chart, lineno: int, offset: int) -> Poly:
    """Parse ``expr``, which starts ``offset`` characters into its file line."""
    try:
        return parse_poly(expr, chart)
    except ParseError as exc:
        column = (exc.column or 1) + offset
        raise ParseError(f"in polynomial expression: {exc.message}", line=lineno, column=column) from None


def serialize_structure(P: PoissonStructure) -> str:
    """Canonical file text for a validated structure (explicit brackets)."""
    chart = P.chart
    lines = [
        "chart: " + " ".join(chart.names),
        "weights: " + " ".join(str(w) for w in chart.weights),
        "poisson:",
    ]
    for (i, j), coeff in sorted(P.pi.terms.items()):
        lines.append(f"{{{chart.names[i]},{chart.names[j]}}} = {coeff}")
    return "\n".join(lines) + "\n"
