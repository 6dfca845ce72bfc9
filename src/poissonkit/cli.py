"""Command-line surface: check, modular, report, cohomology, tjurina.

Every command reads a declarative structure file (tjurina also accepts a
bare polynomial expression), computes, and prints either a human-readable
summary or, with ``--json``, a report envelope with the keys ``version``,
``command``, ``input_digest``, ``conventions``, ``result``, ``timing_ms``.
The JSON output validates against the schema shipped as
``poissonkit/schema.json``.

Exit codes: 0 success, 2 parse error, 3 violated mathematical precondition,
4 resource budget exceeded.  A reader that closes stdout early
(``... --json | head -c 50``) ends the command with exit 0, no traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .diagnostics import StructureAnalysis, Verdict
from .errors import (
    BudgetExceededError,
    ParseError,
    PreconditionError,
)
from .graded_cohomology import cohomology_table
from .groebner import DEFAULT_BUDGET, INFINITE, jacobian_ideal_basis, quotient_dimension
from .multivec import SIGN_CONVENTIONS, Polyvector, lie_derivative
from .poisson import dmodule_generators, jacobiator, modular_field, pfaffian
from .polyalg import Chart, Poly, _digit_limit, _exceeds_digit_limit, _tokenize, parse_poly
from .structfile import StructureSpec, parse_structure_file


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _envelope(command: str, digest: str, result: dict, started: float) -> dict:
    return {
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "conventions": dict(SIGN_CONVENTIONS),
        "result": result,
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }


def _structure_payload(pi: Polyvector) -> dict:
    chart = pi.chart
    brackets = {
        f"{{{chart.names[i]},{chart.names[j]}}}": str(coeff)
        for (i, j), coeff in sorted(pi.terms.items())
    }
    return {
        "chart": list(chart.names),
        "weights": list(chart.weights),
        "brackets": brackets,
    }


def _read_input(path: Path) -> tuple[str, str]:
    """Text and digest of an input file; bytes that are not UTF-8 are a parse error."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8"), _digest(data)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(f"{path} is not UTF-8 text", line=line, column=column) from None


def _is_file(path: Path) -> bool:
    """Path.is_file, except that a name the OS cannot even look up is not a file."""
    try:
        return path.is_file()
    except OSError:  # e.g. a literal expression longer than the file-name limit
        return False


def _load_spec(path: str) -> tuple[StructureSpec, str]:
    text, digest = _read_input(Path(path))
    return parse_structure_file(text), digest


def _finite_or_marker(value):
    return "INFINITE" if value is INFINITE else value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(args) -> dict:
    started = time.perf_counter()
    spec, digest = _load_spec(args.file)
    pi = spec.bivector()
    obstruction = jacobiator(pi)
    result = {
        "jacobi_ok": obstruction.is_zero,
        "jacobiator": str(obstruction),
        "structure": _structure_payload(pi),
    }
    return _envelope("check", digest, result, started)


def cmd_modular(args) -> dict:
    started = time.perf_counter()
    spec, digest = _load_spec(args.file)
    P = spec.build()
    zeta = modular_field(P)
    symmetry = lie_derivative(zeta, P.pi)
    result = {
        "modular_field": str(zeta),
        "lie_zeta_pi_is_zero": symmetry.is_zero,
        "structure": _structure_payload(P.pi),
    }
    return _envelope("modular", digest, result, started)


def cmd_report(args) -> dict:
    started = time.perf_counter()
    spec, digest = _load_spec(args.file)
    P = spec.build()
    analysis = StructureAnalysis(P, args.budget)
    f, reduced = analysis.pfaffian, analysis.reduced
    verdict = analysis.verdict
    locus = None
    if P.chart.n >= 4:
        basis, dimension = analysis.zero_leaf_locus
        locus = {"ideal": [str(g) for g in basis.gens], "dimension": dimension}
    witness = None
    if verdict == Verdict.NOT_LOG_SYMPLECTIC:
        witness = {"nonreduced_factor": str(analysis.nonreduced_factor)}
    elif verdict == Verdict.OBSTRUCTED_BY_MODULAR_LEAVES:
        witness = locus  # the obstruction is the locus itself
    surface = None
    if P.chart.n == 2:
        surface = {
            "singular_ideal": [str(g) for g in analysis.jacobian_basis.gens],
            "singular_dimension": analysis.singular_dimension,
            "tjurina_total": _finite_or_marker(analysis.tjurina_total),
            "multiple_components": not reduced,
            "open_leaf": analysis.open_leaf,
            "h2": None,
        }
        if reduced:
            surface["h2"] = {
                "formula": f"b2(U) + {analysis.tjurina_total}",
                "tjurina_total": analysis.tjurina_total,
                "quasi_homogeneous": analysis.quasi_homogeneous,
                "formula_asserted": analysis.quasi_homogeneous,
                "dim_h2": None,
            }
    generators = [
        {
            "coordinate": str(g.source),
            "scalar": str(g.scalar_part),
            "vector": str(g.vector_part),
        }
        for g in dmodule_generators(P, analysis.modular_field)
    ]
    result = {
        "structure": _structure_payload(P.pi),
        "pfaffian": str(f),
        "pfaffian_squarefree": reduced,
        "log_symplectic": reduced,
        "verdict": verdict.value,
        "witness": witness,
        "zero_leaf_locus": locus,
        "surface": surface,
        "modular_field": str(analysis.modular_field),
        "dmodule_generators": generators,
    }
    return _envelope("report", digest, result, started)


def cmd_cohomology(args) -> dict:
    started = time.perf_counter()
    spec, digest = _load_spec(args.file)
    P = spec.build()
    k_max = args.kmax if args.kmax is not None else P.chart.n
    table = cohomology_table(P, k_max, args.wmax)
    if table.w_max < table.w_min:
        raise ParseError(f"--wmax {table.w_max} is below the table's w_min {table.w_min}: the window is empty")
    entries = [
        {
            "k": e.k,
            "w": e.w,
            "dim_chain": e.dim_chain,
            "dim_kernel": e.dim_kernel,
            "dim_image_incoming": e.dim_image_incoming,
            "dim_h": e.dim_h,
            "rank_certificate": {
                "rows": e.rank_certificate[0],
                "cols": e.rank_certificate[1],
                "rank": e.rank_certificate[2],
            },
        }
        for (_, _), e in sorted(table.entries.items())
    ]
    checks = [
        {
            "w0": c.w0,
            "chain_sum": c.chain_sum,
            "cohomology_sum": c.cohomology_sum,
            "consistent": c.consistent,
        }
        for c in table.euler_checks
    ]
    result = {
        "structure": _structure_payload(P.pi),
        "weight_shift": table.weight_shift,
        "k_max": table.k_max,
        "w_min": table.w_min,
        "w_max": table.w_max,
        "entries": entries,
        "euler_checks": checks,
        "euler_consistent": table.euler_consistent(),
        "table_text": table.render_text(),
    }
    return _envelope("cohomology", digest, result, started)


def _exponent_past(literal: str, limit: int) -> bool:
    """Whether a decimal literal ``m e x`` has |x| - len(literal) >= limit.

    Then a nonzero m e x has a numerator or denominator of more than
    ``limit`` digits.  Fraction(literal) would build 10**|x| first.
    """
    m = re.search(r"[eE][-+]?([\d_]+)\s*$", literal)
    x = m.group(1).replace("_", "").lstrip("0") if m else ""
    return len(x) > len(str(limit + len(literal))) or int(x or 0) - len(literal) >= limit


def cmd_tjurina(args) -> dict:
    started = time.perf_counter()
    source = args.file_or_poly
    path = Path(source)
    if _is_file(path):
        text, digest = _read_input(path)
        if re.search(r"^\s*chart:", text, re.MULTILINE):
            spec = parse_structure_file(text)
            P = spec.build()
            f = pfaffian(P)
            if f.is_zero or f.is_constant:
                raise PreconditionError(
                    "the Pfaffian is constant; there is no degeneracy curve to measure"
                )
            chart = P.chart
        else:
            f, chart = _poly_from_text(text.strip())
    else:
        digest = _digest(source.encode("utf-8"))
        f, chart = _poly_from_text(source)
    point = None
    if args.point:
        digits = _digit_limit()
        coordinates = args.point.split(",")
        if digits and any(_exponent_past(t, digits) for t in coordinates):
            raise ParseError(f"--point {args.point!r} gives a coefficient of more than {digits} digits")
        try:
            point = [Fraction(t.strip()) for t in coordinates]
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad --point value {args.point!r}") from None
        if len(point) != chart.n:
            raise ParseError(
                f"--point needs {chart.n} coordinates in chart order {chart.names}"
            )
        f = f.shift(point)
        if _exceeds_digit_limit([*point, *f.terms.values()], digits):
            raise ParseError(f"--point {args.point!r} gives a coefficient of more than {digits} digits")
    basis = jacobian_ideal_basis(f, include_f=True, budget=args.budget)
    tau = quotient_dimension(basis)
    result = {
        "poly": str(f),
        "chart": list(chart.names),
        "point": [str(v) for v in point] if point is not None else None,
        "tjurina": _finite_or_marker(tau),
        "groebner_basis": [str(g) for g in basis.gens],
    }
    return _envelope("tjurina", digest, result, started)


def _poly_from_text(text: str) -> tuple[Poly, Chart]:
    """Parse a bare polynomial; the chart is its identifiers sorted by name."""
    names = sorted({value for kind, value, _ in _tokenize(text) if kind == "ident"})
    if not names:
        raise PreconditionError("the Tjurina number needs a nonconstant polynomial")
    chart = Chart(tuple(names))
    f = parse_poly(text, chart)
    if f.is_zero or f.is_constant:
        raise PreconditionError("the Tjurina number needs a nonconstant polynomial")
    return f, chart


# ---------------------------------------------------------------------------
# Rendering and entry point
# ---------------------------------------------------------------------------


def _render_human(envelope: dict) -> str:
    command = envelope["command"]
    result = envelope["result"]
    lines = [f"poissonkit {command} (v{envelope['version']})"]
    if command == "check":
        lines.append("jacobi: " + ("PASS" if result["jacobi_ok"] else "FAIL"))
        if not result["jacobi_ok"]:
            lines.append(f"jacobiator: {result['jacobiator']}")
    elif command == "modular":
        lines.append(f"modular field: {result['modular_field']}")
        lines.append(f"L_zeta pi = 0: {result['lie_zeta_pi_is_zero']}")
    elif command == "report":
        lines.append(f"pfaffian: {result['pfaffian']}")
        lines.append(f"reduced (squarefree): {result['pfaffian_squarefree']}")
        lines.append(f"log symplectic: {result['log_symplectic']}")
        lines.append(f"verdict: {result['verdict']}")
        if result["witness"]:
            lines.append(f"witness: {result['witness']}")
        if result["surface"]:
            s = result["surface"]
            lines.append(
                "surface: singular ideal "
                + "{" + ", ".join(s["singular_ideal"]) + "}"
                + f", dimension {s['singular_dimension']}, tjurina {s['tjurina_total']}"
            )
            if s["h2"]:
                lines.append(f"dim H^2 = {s['h2']['formula']}")
        lines.append(f"modular field: {result['modular_field']}")
        for g in result["dmodule_generators"]:
            lines.append(
                f"D-ideal generator for {g['coordinate']}: ({g['scalar']}) + ({g['vector']})"
            )
    elif command == "cohomology":
        lines.append(f"weight shift m = {result['weight_shift']}")
        lines.append(result["table_text"])
        lines.append(f"euler consistent: {result['euler_consistent']}")
    elif command == "tjurina":
        lines.append(f"poly: {result['poly']}")
        if result["point"]:
            lines.append(f"translated point: {', '.join(result['point'])}")
        lines.append(f"tjurina: {result['tjurina']}")
    return "\n".join(lines)


def _nonnegative_int(text: str) -> int:
    """The argparse type of ``--budget`` and ``--kmax``: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="poissonkit",
        description="Exact diagnostics for polynomial Poisson structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit the JSON report envelope")
        p.add_argument(
            "--budget",
            type=_nonnegative_int,
            default=DEFAULT_BUDGET,
            help="Groebner reduction-step budget (default 10^6)",
        )

    p = sub.add_parser("check", help="validate [pi,pi] = 0 and report the jacobiator")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("modular", help="print the modular vector field")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_modular)

    p = sub.add_parser("report", help="full holonomicity / log-symplectic diagnostics")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("cohomology", help="weight-graded Lichnerowicz cohomology table")
    p.add_argument("file")
    p.add_argument("--kmax", type=_nonnegative_int, default=None, help="largest polyvector degree (default n)")
    p.add_argument("--wmax", type=int, default=6, help="largest weight (default 6)")
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("tjurina", help="global or translated-local Tjurina number")
    p.add_argument("file_or_poly", help="structure file, polynomial file, or literal expression")
    p.add_argument("--point", default=None, help='translate this point to the origin: "a,b,..."')
    # By default argparse reads "-1,0" as an unknown option, so "--point -1,0"
    # would fail; any token that starts like a negative number is a value here.
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    common(p)
    p.set_defaults(func=cmd_tjurina)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        envelope = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(envelope, indent=2) if args.json else _render_human(envelope)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early.  Point fd 1 at devnull so that the
        # interpreter's exit flush of what is still buffered cannot raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def entrypoint():
    raise SystemExit(main())
