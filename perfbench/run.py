"""Benchmark of the poissonkit CLI: seeded workloads, checked outputs, metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload report-mix --seed 1 --seconds 20 --trace 0

Each job calls ``poissonkit.cli.main([..., "--json"])`` in this process,
one job at a time, under a per-job deadline enforced with ``SIGALRM``.  A
run repeats whole passes of the seeded job list until ``--seconds`` have
elapsed; every pass holds the same jobs, so the metrics do not depend on
how many passes fit.  Every job's ``result`` payload is compared with the
result recorded on the seed commit (``expected.json``) and with closed
forms where they exist.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and the same pass under the outside-in tracer (``tracer.py``),
and prints the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
EXPECTED = BENCH_DIR / "expected.json"

SETUP_REPEATS = 9


class JobDeadline(BaseException):
    """Raised by the timer signal; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise JobDeadline()


@dataclass
class Outcome:
    label: str
    seconds: float
    ok: bool
    wrong: bool
    reason: str = ""
    timed_out: bool = False


def result_digest(result) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def closed_form_failures(job: workloads.Job, result: dict) -> list[str]:
    """Independent checks with known answers; each failure is a message."""
    failures = []
    for check in job.checks:
        if check == "euler":
            if not (result["euler_consistent"] and all(c["consistent"] for c in result["euler_checks"])):
                failures.append("Euler characteristic check failed")
        elif check == "weight_shift_0":
            if result["weight_shift"] != 0:
                failures.append(f"diagonal structure has weight shift {result['weight_shift']}, not 0")
        elif check == "symplectic4":
            for e in result["entries"]:
                want = 1 if (e["k"], e["w"]) == (0, 0) else 0
                if e["dim_h"] != want:
                    failures.append(f"symplectic4 H^{e['k']}_{e['w']} = {e['dim_h']}, not {want}")
        elif check == "so3_casimirs":
            for e in result["entries"]:
                want = 1 if e["w"] >= 0 and e["w"] % 2 == 0 else 0
                if e["k"] == 0 and e["dim_h"] != want:
                    failures.append(f"so3 H^0_{e['w']} = {e['dim_h']}, not {want}")
        elif check == "not_log_symplectic":
            if result["verdict"] != "NotLogSymplectic":
                failures.append(f"repeated factor gave verdict {result['verdict']}")
        elif isinstance(check, tuple) and check[0] == "tjurina":
            if result["tjurina"] != check[1]:
                failures.append(f"tjurina {result['tjurina']}, closed form {check[1]}")
        else:
            raise ValueError(f"unknown check {check!r}")
    return failures


def check_output(job: workloads.Job, text: str, expected: dict) -> str:
    """Empty string when the job's output is correct, else the reason."""
    try:
        result = json.loads(text)["result"]
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
    failures = closed_form_failures(job, result)
    record = expected.get(job.key)
    if record is None:
        failures.append("no expected result recorded for this input")
    elif "result_sha256" in record:
        if result_digest(result) != record["result_sha256"]:
            failures.append("result differs from the recorded result")
    else:
        # The job missed the deadline when expectations were recorded; only
        # the fields an independent oracle fixed are known.
        for name, value in record.get("oracle_fields", {}).items():
            if result.get(name) != value:
                failures.append(f"{name} = {result.get(name)!r}, oracle says {value!r}")
    return "; ".join(failures)


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


def run_job(cli, job: workloads.Job, deadline: float, expected: dict) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job.resolved_argv(WORK_DIR))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobDeadline:
        seconds = time.perf_counter() - started
        return Outcome(job.label, seconds, False, False, f"missed the {deadline:g} s deadline", timed_out=True)
    except SystemExit as exc:  # argparse exits on a usage error
        code = exc.code
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        return Outcome(job.label, time.perf_counter() - started, False, False, f"raised {exc!r}")
    seconds = time.perf_counter() - started
    if code != 0:
        return Outcome(job.label, seconds, False, False, f"exit code {code}: {err.getvalue().strip()[:200]}")
    reason = check_output(job, out.getvalue(), expected)
    return Outcome(job.label, seconds, not reason, bool(reason), reason)


def run_pass(cli, jobs, deadline, expected, tracer: Tracer | None = None) -> list[Outcome]:
    outcomes = []
    for job in jobs:
        if tracer is not None:
            first_span, counters = len(tracer.names), dict(tracer.counters)
        outcome = run_job(cli, job, deadline, expected)
        if tracer is not None and outcome.timed_out:
            # How far a job got before its timer fired depends on the host's
            # speed, so its counts are dropped; its time is kept.
            tracer.drop_counts(first_span, counters)
        outcomes.append(outcome)
    return outcomes


def set_up(workload: str, seed: int):
    """Import the package, generate the inputs, load expectations, run one warm-up job."""
    for name in [n for n in sys.modules if n == "poissonkit" or n.startswith("poissonkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("poissonkit.cli")
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    jobs = workloads.pass_jobs(workload, seed, expected)
    warmup = workloads.warmup_job(workload)
    workloads.write_inputs([*jobs, warmup], WORK_DIR)
    outcome = run_job(cli, warmup, workloads.DEADLINE_S[workload], expected)
    if not outcome.ok:
        raise SystemExit(f"warm-up job {warmup.label!r} failed: {outcome.reason}")
    return cli, jobs, expected


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(outcomes: list[Outcome], wall: float, setup_times: list[float]) -> tuple[dict, list[str]]:
    times = sorted(o.seconds for o in outcomes)
    ok = sum(o.ok for o in outcomes)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "jobs_per_s": metric(ok / wall, "1/s"),
        "ok_share": metric(ok / len(outcomes), "share"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"job_s.p50 {statistics.median(times):.6f} s over {len(times)} jobs in {wall:.3f} s",
        f"failed_share {1 - ok / len(outcomes):.6f} ({len(outcomes) - ok} of {len(outcomes)} jobs)",
        f"setup_s median of {len(setup_times)} set-ups: " + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    beyond = len(times) - int(0.9 * len(times))
    if beyond >= 10:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
        notes.append(f"job_s.p90 {p90:.6f} s ({beyond} samples beyond it)")
    else:
        notes.append(f"job_s.p90 omitted: {len(times)} samples leave {beyond} beyond it, fewer than 10")
    return metrics, notes


def _rank_exact_before(counters, caller, args):
    matrix = args[0]
    rows = matrix.entries if hasattr(matrix, "entries") else matrix
    counters["matrix_cells"] += sum(len(r) for r in rows)
    counters["matrix_nnz"] += sum(1 for r in rows for x in r if x)


def _graded_basis_after(counters, caller, args, result):
    counters["basis_elements"] += len(result)


def _division_after(counters, caller, args, result):
    if caller == "groebner.buchberger":
        counters["division_in_buchberger"] += 1
        counters["division_zero_in_buchberger"] += result[1].is_zero


HOOKS = {
    "graded_cohomology.rank_exact": (_rank_exact_before, None),
    "graded_cohomology.graded_basis": (None, _graded_basis_after),
    "groebner.division": (None, _division_after),
}


def per_layer(tracer: Tracer, jobs, plain: list[Outcome], traced: list[Outcome]) -> dict:
    s = tracer.summary()
    count, total, self_time, child = s["count"], s["total"], s["self"], s["child"]
    c = tracer.counters

    def busy(name):
        return total[name] - child[(name, "trace.bookkeeping")]

    ct = "graded_cohomology.cohomology_table"
    reports = sum(1 for j, o in zip(jobs, traced) if j.argv[0] == "report" and not o.timed_out)
    both = [(p.seconds, t.seconds) for p, t in zip(plain, traced) if p.ok and t.ok]
    plain_s = sum(p for p, _ in both)
    traced_s = sum(t for _, t in both)
    values = {
        "graded_cohomology.rank_exact_s": (busy("graded_cohomology.rank_exact"), "s"),
        "graded_cohomology.rank_exact.calls": (count["graded_cohomology.rank_exact"], "count"),
        "graded_cohomology.matrix_cells": (c["matrix_cells"], "count"),
        "graded_cohomology.matrix_nnz": (c["matrix_nnz"], "count"),
        "graded_cohomology.nnz_share": (c["matrix_nnz"] / c["matrix_cells"] if c["matrix_cells"] else 0.0, "share"),
        "graded_cohomology.assembly_s": (
            busy(ct) - child[(ct, "graded_cohomology.graded_basis")] - child[(ct, "graded_cohomology.rank_exact")],
            "s",
        ),
        "graded_cohomology.graded_basis_s": (busy("graded_cohomology.graded_basis"), "s"),
        "graded_cohomology.basis_elements": (c["basis_elements"], "count"),
        "poisson.lichnerowicz.calls": (count["poisson.lichnerowicz"], "count"),
        "poisson.lichnerowicz_s": (busy("poisson.lichnerowicz"), "s"),
        "multivec.schouten.calls": (count["multivec.schouten"], "count"),
        "multivec.schouten_s": (busy("multivec.schouten"), "s"),
        "groebner.buchberger.calls": (count["groebner.buchberger"], "count"),
        "groebner.buchberger_s": (busy("groebner.buchberger"), "s"),
        "groebner.division.calls": (count["groebner.division"], "count"),
        "groebner.division_s": (busy("groebner.division"), "s"),
        "groebner.pair_select_s": (
            busy("groebner.buchberger") - child[("groebner.buchberger", "groebner.division")],
            "s",
        ),
        "groebner.division.zero_share": (
            c["division_zero_in_buchberger"] / c["division_in_buchberger"] if c["division_in_buchberger"] else 0.0,
            "share",
        ),
        "groebner.normal_form_s": (busy("groebner.normal_form"), "s"),
        "groebner.quotient_dimension_s": (busy("groebner.quotient_dimension"), "s"),
        "polyalg.gcd_multi.calls": (count["polyalg.gcd_multi"], "count"),
        "polyalg.gcd_multi_s": (busy("polyalg.gcd_multi"), "s"),
        "polyalg.is_squarefree.calls": (count["polyalg.is_squarefree"], "count"),
        "polyalg.is_squarefree_s": (busy("polyalg.is_squarefree"), "s"),
        "polyalg.poly_constructed": (c["polyalg.poly_constructed"], "count"),
        "diagnostics.pfaffian_per_report": (count["poisson.pfaffian"] / reports if reports else 0.0, "count"),
        "diagnostics.squarefree_per_report": (count["polyalg.is_squarefree"] / reports if reports else 0.0, "count"),
        "diagnostics.buchberger_per_report": (count["groebner.buchberger"] / reports if reports else 0.0, "count"),
        "cli.self_s": (sum(v for k, v in self_time.items() if k.startswith("cli.")), "s"),
        "structfile.parse_s": (busy("structfile.parse_structure_file"), "s"),
        "structfile.build_s": (busy("structfile.StructureSpec.build"), "s"),
        "trace.spans": (tracer.span_count(), "count"),
        "trace.overhead_share": ((traced_s - plain_s) / plain_s if plain_s else 0.0, "share"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "poissonkit" / "__init__.py", EXPECTED) if not p.is_file()]
    if missing:
        print("error: run from the root of a poissonkit checkout; missing " + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = workloads.DEADLINE_S[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        cli, jobs, expected = set_up(args.workload, args.seed)
        setup_times.append(time.perf_counter() - started)

    if args.trace:
        plain = run_pass(cli, jobs, deadline, expected)
        tracer = Tracer()
        tracer.install(HOOKS)
        try:
            traced = run_pass(cli, jobs, deadline, expected, tracer)
        finally:
            tracer.uninstall()
        outcomes = traced
        metrics = per_layer(tracer, jobs, plain, traced)
        notes = [f"traced one pass of {len(jobs)} jobs; {tracer.span_count()} spans"]
        wrong = any(o.wrong for o in plain)
    else:
        outcomes = []
        started = time.perf_counter()
        while True:
            outcomes.extend(run_pass(cli, jobs, deadline, expected))
            wall = time.perf_counter() - started
            if wall >= args.seconds:
                break
        metrics, notes = end_to_end(outcomes, wall, setup_times)
        notes.insert(0, f"{len(outcomes) // len(jobs)} passes of {len(jobs)} jobs")
        wrong = False

    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.label[:120]} after {o.seconds:.3f} s: {o.reason}")
    print(f"workload {args.workload}, seed {args.seed}, deadline {deadline:g} s")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    wrong = wrong or any(o.wrong for o in outcomes)
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(outcomes),
                "failed": sum(not o.ok for o in outcomes),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
