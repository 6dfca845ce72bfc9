"""Command-line surface: check, modular, report, cohomology, tjurina.

Every command reads a declarative structure file (tjurina also accepts a
bare polynomial expression), computes, and prints either a human-readable
summary or, with ``--json``, a report envelope with the keys ``version``,
``command``, ``input_digest``, ``conventions``, ``result``, ``timing_ms``.
The envelope prints as one compact line (``python -m json.tool``
pretty-prints it), and it validates against the schema shipped as
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
from .polyalg import _BLANKS, Chart, Poly, _PolyParser, _digit_limit, _exceeds_digit_limit, _rational, _tokenize
from .structfile import StructureSpec, parse_structure_file


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


def _load_spec(path: str) -> tuple[StructureSpec, str]:
    text, digest = _read_input(Path(path))
    return parse_structure_file(text), digest


def _finite_or_marker(value):
    return "INFINITE" if value is INFINITE else value


# ---------------------------------------------------------------------------
# Commands: each returns the input digest and the envelope's result payload
# ---------------------------------------------------------------------------


def cmd_check(args) -> tuple[str, dict]:
    spec, digest = _load_spec(args.file)
    obstruction = jacobiator(spec.pi)
    result = {
        "jacobi_ok": obstruction.is_zero,
        "jacobiator": str(obstruction),
        "structure": _structure_payload(spec.pi),
    }
    return digest, result


def cmd_modular(args) -> tuple[str, dict]:
    spec, digest = _load_spec(args.file)
    P = spec.build()
    zeta = modular_field(P)
    symmetry = lie_derivative(zeta, P.pi)
    result = {
        "modular_field": str(zeta),
        "lie_zeta_pi_is_zero": symmetry.is_zero,
        "structure": _structure_payload(P.pi),
    }
    return digest, result


def cmd_report(args) -> tuple[str, dict]:
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
    return digest, result


def cmd_cohomology(args) -> tuple[str, dict]:
    spec, digest = _load_spec(args.file)
    P = spec.build()
    k_max = args.kmax if args.kmax is not None else P.chart.n
    table = cohomology_table(P, k_max, args.wmax)
    if table.w_max < table.w_min:
        raise ParseError(f"--wmax {table.w_max} is below the table's w_min {table.w_min}: the window is empty")
    # table.entries is in (k, w) order already.
    entries = [
        {**vars(e), "rank_certificate": dict(zip(("rows", "cols", "rank"), e.rank_certificate))}
        for e in table.entries.values()
    ]
    checks = [{**vars(c), "consistent": c.consistent} for c in table.euler_checks]
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
    return digest, result


def cmd_tjurina(args) -> tuple[str, dict]:
    source = args.file_or_poly
    if os.path.isfile(source):  # False for a literal past the file-name limit or with a NUL too
        text, digest = _read_input(Path(source))
        if re.search(r"^\s*chart:", text, re.MULTILINE | re.ASCII):
            spec = parse_structure_file(text)
            P = spec.build()
            f = pfaffian(P)
            if f.is_constant:  # the zero polynomial is constant too
                raise PreconditionError(
                    "the Pfaffian is constant; there is no degeneracy curve to measure"
                )
            chart = P.chart
        else:
            f, chart = _poly_from_text(text.strip(_BLANKS))
    else:
        digest = _digest(source.encode("utf-8"))
        f, chart = _poly_from_text(source)
    point = None
    if args.point is not None:
        too_long = f"--point {args.point!r} gives a coefficient of more than {_digit_limit()} digits"
        try:
            point = [_rational(t) for t in args.point.split(",")]
        except ParseError:
            raise ParseError(too_long) from None
        except ValueError:
            raise ParseError(f"bad --point value {args.point!r}") from None
        if len(point) != chart.n:
            raise ParseError(
                f"--point needs {chart.n} coordinates in chart order {chart.names}"
            )
        try:
            f = f.shift(point)
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"--point {args.point!r}: {exc}") from None
        if _exceeds_digit_limit(f.terms.values(), _digit_limit()):
            raise ParseError(too_long)
    basis = jacobian_ideal_basis(f, include_f=True, budget=args.budget)
    tau = quotient_dimension(basis)
    result = {
        "poly": str(f),
        "chart": list(chart.names),
        "point": [str(v) for v in point] if point is not None else None,
        "tjurina": _finite_or_marker(tau),
        "groebner_basis": [str(g) for g in basis.gens],
    }
    return digest, result


def _poly_from_text(text: str) -> tuple[Poly, Chart]:
    """Parse a bare polynomial; the chart is its identifiers sorted by name."""
    tokens = _tokenize(text)
    names = sorted({value for kind, value, _ in tokens if kind == "ident"})
    if not names:
        raise PreconditionError("the Tjurina number needs a nonconstant polynomial")
    try:
        chart = Chart(tuple(names))
    except ValueError as exc:  # more variables than a chart holds
        raise ParseError(str(exc)) from None
    f = _PolyParser(tokens, chart).parse()
    if f.is_constant:  # the zero polynomial is constant too
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
    p._negative_number_matcher = re.compile(r"^-\.?\d", re.ASCII)
    common(p)
    p.set_defaults(func=cmd_tjurina)

    parser.commands = sub.choices  # each command's name -> its own parser
    return parser


def _arguments(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsing a known command's arguments with its own parser alone.

    That parser reports their usage errors as it does under the full parser; arguments it leaves
    over, and a missing or unknown command, go to the full parser, which reports them.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or extra:
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    args = _arguments(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    try:
        digest, result = args.func(args)
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
    envelope = {
        "version": __version__,
        "command": args.command,
        "input_digest": digest,
        "conventions": dict(SIGN_CONVENTIONS),
        "result": result,
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    # One compact line: the C encoder serves json.dumps only without indent.
    text = json.dumps(envelope) if args.json else _render_human(envelope)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early.  Point fd 1 at devnull so that the
        # interpreter's exit flush of what is still buffered cannot raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def entrypoint():
    raise SystemExit(main())
