"""Record the expected result of every job the benchmark can run.

Run once, from the root of a checkout of the commit whose outputs are the
reference; it writes ``perfbench/expected.json`` and needs sympy::

    python3 perfbench/record.py

For each job it stores the SHA-256 of the ``result`` payload (the envelope
without ``timing_ms`` and the other metadata) and the median wall time of
several runs, which ``workloads.py`` uses to stratify the draw.  The runs
must give the same result.  A job still running at ``RECORD_CAP_FACTOR``
times its workload's deadline, or at ``RECORD_CAP_S``, is stored as
``{"outcome": "deadline"}``.

Every result is cross-checked against ``tests/oracles.py`` and sympy where
that is affordable; each line of output names the oracle that agreed, or
says MISMATCH.  For each generated report surface the squarefreeness that
sympy computes is stored too, so a job that missed the deadline can still
be checked once it completes.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import statistics
import sys
import time

import workloads
from run import EXPECTED, ROOT, SRC, WORK_DIR, JobDeadline, _on_alarm, result_digest

RECORD_CAP_FACTOR = 5
RECORD_CAP_S = 120.0
# A job is timed REPEATS times (3 times if it takes a second or more) and
# the median is stored; the draw bins jobs by it, so one noisy time would
# put a job in the wrong bin.
REPEATS = 5


def execute(cli, job: workloads.Job, cap: float):
    """(seconds, exit code or "deadline", result or None)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job.resolved_argv(WORK_DIR))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobDeadline:
        return time.perf_counter() - started, "deadline", None
    seconds = time.perf_counter() - started
    if code != 0:
        raise SystemExit(f"{job.label}: exit code {code}: {err.getvalue()}")
    return seconds, code, json.loads(out.getvalue())["result"]


def all_jobs():
    seen = {}
    for workload in workloads.WORKLOADS:
        for job in [workloads.warmup_job(workload), *workloads.fixed_jobs(workload), *workloads.pool(workload)]:
            seen.setdefault(job.key, (workload, job))
    return list(seen.values())


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def sympy_squarefree(expr: str) -> bool:
    import sympy

    w, z = sympy.symbols("w z")
    poly = sympy.Poly(sympy.sympify(expr.replace("^", "**"), locals={"w": w, "z": z}), w, z)
    return all(mult == 1 for _, mult in sympy.sqf_list(poly)[1])


def sympy_tjurina(expr: str, point: str | None):
    """Standard monomials of (f, f_w, f_z) under grevlex, or "INFINITE"."""
    import sympy

    w, z = sympy.symbols("w z")
    f = sympy.sympify(expr.replace("^", "**"), locals={"w": w, "z": z})
    if point:
        p, q = (sympy.Rational(t) for t in point.split(","))
        f = sympy.expand(f.subs({w: w + p, z: z + q}, simultaneous=True))
    basis = sympy.groebner([f, sympy.diff(f, w), sympy.diff(f, z)], w, z, order="grevlex")
    leads = [sympy.Poly(g, w, z).monoms(order="grevlex")[0] for g in basis.exprs]
    if any(e == (0, 0) for e in leads):
        return 0
    pure_w = [e[0] for e in leads if e[1] == 0]
    pure_z = [e[1] for e in leads if e[0] == 0]
    if not pure_w or not pure_z:
        return "INFINITE"
    return sum(
        1
        for i in range(min(pure_w))
        for j in range(min(pure_z))
        if not any(a <= i and b <= j for a, b in leads)
    )


def oracle_check(job: workloads.Job, result) -> tuple[str, dict]:
    """(verdict text or "", fields an oracle fixed) for one job."""
    import oracles
    from poissonkit.structfile import parse_structure_file

    argv = job.argv
    if argv[0] == "report" and job.file_text.startswith("# generated surface"):
        expr = job.file_text.split("=", 1)[1].strip()
        squarefree = sympy_squarefree(expr)
        fields = {
            "pfaffian_squarefree": squarefree,
            "verdict": "SurfaceHolonomic" if squarefree else "NotLogSymplectic",
        }
        if result is None:
            return "", fields
        bad = [k for k, v in fields.items() if result[k] != v]
        return ("MISMATCH " + ",".join(bad)) if bad else "sympy sqf_list agrees", fields
    if argv[0] == "tjurina" and result is not None:
        point = next((a.split("=", 1)[1] for a in argv if a.startswith("--point=")), None)
        tau = sympy_tjurina(argv[1], point)
        return ("sympy groebner agrees" if tau == result["tjurina"] else f"MISMATCH sympy {tau}"), {}
    if argv[0] == "cohomology" and result is not None:
        P = parse_structure_file(job.file_text).build()
        wmax = int(argv[argv.index("--wmax") + 1])
        if P.chart.n == 4 and wmax > 1:
            return "", {}
        table = oracles.bruteforce_dimension_table(P, result["k_max"], wmax)
        got = {(e["k"], e["w"]): e["dim_h"] for e in result["entries"]}
        return ("brute-force table agrees" if table == got else "MISMATCH brute-force table"), {}
    return "", {}


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import poissonkit.cli as cli

    signal.signal(signal.SIGALRM, _on_alarm)
    expected = {}
    jobs = all_jobs()
    workloads.write_inputs([job for _, job in jobs], WORK_DIR)
    for workload, job in jobs:
        cap = min(RECORD_CAP_FACTOR * workloads.DEADLINE_S[workload], RECORD_CAP_S)
        seconds, code, result = execute(cli, job, cap)
        record = {"label": job.label, "baseline_s": round(seconds, 4)}
        if code == "deadline":
            record["outcome"] = "deadline"
        else:
            record["result_sha256"] = result_digest(result)
            times = [seconds]
            for _ in range(REPEATS - 1 if seconds < 1 else 2):
                again, _, other = execute(cli, job, cap)
                if result_digest(other) != record["result_sha256"]:
                    raise SystemExit(f"{job.label}: the result changed between two runs")
                times.append(again)
            seconds = statistics.median(times)
            record["baseline_s"] = round(seconds, 4)
        note, fields = oracle_check(job, result)
        if fields:
            record["oracle_fields"] = fields
        expected[job.key] = record
        print(f"{seconds:9.3f} s  {code!s:8}  {job.label[:90]}  {note}", flush=True)
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
