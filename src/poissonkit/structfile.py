"""Declarative Poisson-structure files.

Line-oriented format with '#' comments::

    chart: w z
    weights: 1 1          # optional, defaults to all 1
    poisson:
    {w,z} = w*z

Each of the three header lines appears at most once, ``chart:`` names at
least two variables, and a ``weights:`` line lists one weight per variable.
The poisson block holds either explicit bracket lines ``{v1,v2} = expr``
with v1 before v2 in chart order (unlisted pairs default to 0), or exactly
one builder directive::

    jacobian3 F = 1/3*(x^3 + y^3 + z^3) + x*y*z
    diagonal lambda = 0 1; -1 0

The diagonal matrix is row-major, rows separated by ';', entries by spaces
or commas.  Example files double as regression fixtures: the bracket lines
that ``check --json`` reports for a file parse back to the same bivector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from .errors import ParseError
from .poisson import (
    PoissonStructure,
    diagonal_quadratic_bivector,
    new_poisson,
)
from .multivec import Polyvector, contract, covolume
from .polyalg import _IDENT_RE, Chart, Poly, _rational, parse_poly

_BRACKET_RE = re.compile(rf"^\{{\s*({_IDENT_RE.pattern})\s*,\s*({_IDENT_RE.pattern})\s*\}}\s*=\s*(.+)$")
_JACOBIAN_RE = re.compile(r"^jacobian3\s+F\s*=\s*(.+)$")
_DIAGONAL_RE = re.compile(r"^diagonal\s+lambda\s*=\s*(.+)$")


@dataclass(frozen=True)
class StructureSpec:
    """Parsed structure file: the bivector it describes, not yet checked for Jacobi."""

    pi: Polyvector

    def build(self) -> PoissonStructure:
        """Construct and validate the Poisson structure this file describes."""
        return new_poisson(self.pi)


def _tokens(text: str) -> list[str]:
    return [t for t in re.split(r"[\s,]+", text.strip()) if t]


def parse_structure_file(text: str) -> StructureSpec:
    """Parse file text; errors carry 1-based line (and column) positions.

    The bivector is made after the last line, so a parse error anywhere in
    the file wins over a builder's precondition (a non-skew lambda).
    """
    chart: Chart | None = None
    weighted = in_poisson = False
    brackets: dict[tuple[int, int], Poly] = {}
    builder: partial[Polyvector] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip())
        if line.startswith("chart:"):
            if chart is not None:
                raise ParseError("duplicate chart: line", line=lineno)
            tokens = _tokens(line[len("chart:") :])
            if not tokens:
                raise ParseError("chart: needs at least one variable name", line=lineno)
            try:
                chart = Chart(tuple(tokens))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if chart.n < 2:
                raise ParseError("a Poisson structure needs at least two variables", line=lineno)
            continue
        if line.startswith("weights:"):
            if chart is None:
                raise ParseError("weights: must follow chart:", line=lineno)
            if in_poisson:
                raise ParseError("weights: must precede the poisson block", line=lineno)
            if weighted:
                raise ParseError("duplicate weights: line", line=lineno)
            tokens = _tokens(line[len("weights:") :])
            if not tokens:
                raise ParseError("weights: needs one positive integer per variable", line=lineno)
            weights = []
            for t in tokens:
                try:
                    weights.append(int(t))
                except ValueError:
                    raise ParseError(
                        f"weights: needs one positive integer per variable, got {t!r}", line=lineno
                    ) from None
            try:
                chart = Chart(chart.names, tuple(weights))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            weighted = True
            continue
        if line == "poisson:":
            if in_poisson:
                raise ParseError("duplicate poisson: line", line=lineno)
            if chart is None:
                raise ParseError("the poisson block needs a preceding chart: line", line=lineno)
            in_poisson = True
            continue
        if not in_poisson:
            raise ParseError(f"unexpected line before the poisson block: {line!r}", line=lineno)

        m = _BRACKET_RE.match(line)
        if m:
            if builder is not None:
                raise ParseError("bracket lines cannot follow a builder directive", line=lineno)
            v1, v2, expr = m.group(1), m.group(2), m.group(3)
            for v in (v1, v2):
                if v not in chart.names:
                    raise ParseError(f"unknown chart variable {v!r}", line=lineno)
            i, j = chart.index(v1), chart.index(v2)
            if i >= j:
                raise ParseError(
                    f"bracket pair must be listed in chart order with {v1!r} before {v2!r}",
                    line=lineno,
                )
            if (i, j) in brackets:
                raise ParseError(f"duplicate bracket pair {{{v1},{v2}}}", line=lineno)
            brackets[(i, j)] = _parse_expr(expr, chart, lineno, indent + m.start(3))
            continue
        m = _JACOBIAN_RE.match(line) or _DIAGONAL_RE.match(line)
        if not m:
            raise ParseError(f"unrecognized poisson entry: {line!r}", line=lineno)
        if brackets or builder is not None:
            raise ParseError("a builder directive must be the only poisson entry", line=lineno)
        if m.re is _JACOBIAN_RE:
            if chart.n != 3:
                raise ParseError("jacobian3 needs a 3-variable chart", line=lineno)
            F = _parse_expr(m.group(1), chart, lineno, indent + m.start(1))
            builder = partial(contract, F, covolume(chart))
            continue
        rows = []
        for row_text in m.group(1).split(";"):
            try:
                rows.append([_rational(t) for t in _tokens(row_text)])
            except ParseError as exc:
                raise ParseError(f"lambda entry: {exc.message}", line=lineno) from None
            except ValueError:
                raise ParseError(f"bad rational entry in lambda row: {row_text.strip()!r}", line=lineno) from None
        if len(rows) != chart.n or any(len(r) != chart.n for r in rows):
            raise ParseError(f"lambda must be a {chart.n}x{chart.n} row-major matrix", line=lineno)
        builder = partial(diagonal_quadratic_bivector, rows, chart)

    if chart is None:
        raise ParseError("missing chart: line", line=1)
    if not in_poisson:
        raise ParseError("missing poisson: block", line=1)
    if builder is not None:
        return StructureSpec(builder())
    return StructureSpec(Polyvector(chart, 2, {pair: p for pair, p in brackets.items() if not p.is_zero}))


def _parse_expr(expr: str, chart: Chart, lineno: int, offset: int) -> Poly:
    """Parse ``expr``, which starts ``offset`` characters into its file line."""
    try:
        return parse_poly(expr, chart)
    except ParseError as exc:
        column = (exc.column or 1) + offset
        # Same class as the inner error, so an unknown identifier stays an UnknownIdentifierError.
        raise type(exc)(f"in polynomial expression: {exc.message}", line=lineno, column=column) from None
