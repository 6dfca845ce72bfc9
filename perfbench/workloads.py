"""Seeded job generators for the three benchmark workloads.

Every workload draws its jobs from a fixed *pool*.  The pool is generated
once from ``POOL_SEED`` and its expected results were recorded on the seed
commit (``expected.json``, written by ``record.py``).  The run seed then
draws one pass of jobs from the pool:

* fixed jobs (shipped fixtures) appear in every pass;
* generated jobs are a stratified sample: pool entries are binned by the
  wall time they took when the expectations were recorded (eighth-octave
  bins, plus one bin for the entries that miss the deadline), each bin
  contributes the same number of jobs to every pass, and the seed chooses
  which entries of the bin run.

Stratifying keeps the cost and the failure share of a pass the same for
every seed, so runs with different seeds measure the same amount of work,
while the seed still changes the inputs the program sees.  Entries that
missed the deadline keep their natural share of the pool: they are the
known gcd defect and must show in the failed share.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

POOL_SEED = 1707_06035

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

WORKLOADS = ("cohomology-ladder", "report-mix", "tjurina-ladder")

# Per-job deadlines in seconds, each far from every completing job's
# recorded time (expected.json): the slowest cohomology job took 14 s and
# the slowest Tjurina curve 3.1 s.  The slowest completing report took
# 0.6 s, while the gcd runaways were all still running at 20 s.
DEADLINE_S = {"cohomology-ladder": 120.0, "report-mix": 4.0, "tjurina-ladder": 15.0}

# Generated jobs per pass, by workload.
GENERATED_PER_PASS = {"cohomology-ladder": 12, "report-mix": 48, "tjurina-ladder": 117}

# Time bins of the stratified draw: a bin spans a factor 2 ** (1 / 8).
BINS_PER_OCTAVE = 8

# The warm-up job of set-up: one cheap job of the workload's command.
WARMUP = {
    "cohomology-ladder": ("cohomology", "weighted_surface", ("--wmax", "1")),
    "report-mix": ("report", "surface_node", ()),
    "tjurina-ladder": ("tjurina", None, ("w^3 + z^4",)),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` names its input file as ``{file}``."""

    argv: tuple[str, ...]
    file_name: str | None = None
    file_text: str | None = None
    label: str = ""
    checks: tuple = ()

    @property
    def key(self) -> str:
        blob = json.dumps([self.argv, self.file_text], separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]

    def resolved_argv(self, work_dir: Path) -> list[str]:
        path = str(work_dir / self.file_name) if self.file_name else ""
        return [a.replace("{file}", path) for a in self.argv] + ["--json"]


def _fixture_job(command: str, name: str, extra=(), checks=()) -> Job:
    text = (FIXTURES / f"{name}.poisson").read_text(encoding="utf-8")
    label = " ".join([command, name, *extra])
    return Job((command, "{file}", *extra), f"{name}.poisson", text, label, tuple(checks))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _skew_lambda(rng: random.Random) -> str:
    """A 4x4 skew integer matrix, entries in [-3, 3], three or more nonzero."""
    while True:
        upper = {(i, j): rng.randint(-3, 3) for i in range(4) for j in range(i + 1, 4)}
        if sum(1 for v in upper.values() if v) >= 3:
            break
    rows = [[0] * 4 for _ in range(4)]
    for (i, j), v in upper.items():
        rows[i][j], rows[j][i] = v, -v
    return "; ".join(" ".join(str(x) for x in row) for row in rows)


def _lambda_text(lam: str) -> str:
    return f"# generated diagonal quadratic 4-chart\nchart: x1 x2 x3 x4\npoisson:\ndiagonal lambda = {lam}\n"


def _linear_factor(rng: random.Random) -> str:
    while True:
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        if a or b:
            return _sum_text([(a, "w"), (b, "z"), (c, "1")])


def _quadratic_factor(rng: random.Random) -> str:
    while True:
        cs = [rng.randint(-3, 3) for _ in range(6)]
        if any(cs[:3]):
            return _sum_text(zip(cs, ("w^2", "w*z", "z^2", "w", "z", "1")))


def _sum_text(terms) -> str:
    parts = [str(c) if m == "1" else f"{c}*{m}" for c, m in terms if c]
    return "(" + " + ".join(parts) + ")"


def _surface(rng: random.Random) -> tuple[str, bool]:
    """f = product of 1-4 random linear or quadratic factors; sometimes one repeats."""
    factors = [
        _quadratic_factor(rng) if rng.random() < 0.15 else _linear_factor(rng)
        for _ in range(rng.randint(1, 4))
    ]
    repeated = rng.random() < 0.25
    if repeated:
        factors.append(rng.choice(factors))
    return "*".join(factors), repeated


def _curve(rng: random.Random) -> tuple[str, int, int, int]:
    """w^a + z^b, 3 <= a <= b <= 9, plus 0-3 random monomials of degree at most b."""
    a = rng.randint(3, 9)
    b = rng.randint(a, 9)
    terms = [f"w^{a}", f"z^{b}"]
    seen = {(a, 0), (0, b), (0, 0)}
    extra = 0
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randint(0, a), rng.randint(0, b)
        if (i, j) in seen or i + j > b:
            continue
        seen.add((i, j))
        terms.append(f"{rng.choice((-3, -2, -1, 1, 2, 3))}*w^{i}*z^{j}")
        extra += 1
    return " + ".join(terms), a, b, extra


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def _pfaffian(lam: str) -> int:
    m = [[int(x) for x in row.split()] for row in lam.split(";")]
    return m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]


def _lambda_pool(count: int, nondegenerate: bool = False) -> list[str]:
    """Seeded skew matrices; ``report`` needs a nonzero Pfaffian, so it asks for one."""
    rng = random.Random(POOL_SEED + 1)
    out: list[str] = []
    while len(out) < count:
        lam = _skew_lambda(rng)
        if not nondegenerate or _pfaffian(lam):
            out.append(lam)
    return out


def fixed_jobs(workload: str) -> list[Job]:
    """Jobs of every pass: the shipped fixtures."""
    if workload == "cohomology-ladder":
        # The ladder puts as many jobs below the cluster of generated
        # --wmax 1 jobs (see pool) as above it, so the median job is in the
        # middle of that cluster.
        jobs = []
        ladder = (("symplectic4", 3), ("torus4", 3), ("hesse_cubic", 3), ("so3_linear", 3), ("weighted_surface", 2))
        for name, top in ladder:
            checks = {"symplectic4": ("symplectic4",), "so3_linear": ("so3_casimirs",)}.get(name, ())
            for wmax in range(1, top + 1):
                jobs.append(_fixture_job("cohomology", name, ("--wmax", str(wmax)), ("euler", *checks)))
        return jobs
    if workload == "report-mix":
        names = (
            "surface_cusp",
            "surface_node",
            "surface_nonreduced",
            "surface_symplectic",
            "weighted_surface",
            "symplectic4",
            "torus4",
        )
        return [
            _fixture_job("report", n, (), ("not_log_symplectic",) if n == "surface_nonreduced" else ())
            for n in names
        ]
    return []


def pool(workload: str) -> list[Job]:
    """The generated jobs a pass may draw from, in a fixed order."""
    if workload == "cohomology-ladder":
        # Five times as many entries at --wmax 1 as at --wmax 2, so a pass
        # holds about ten --wmax 1 jobs of similar cost and its median job
        # (job_s.p50) is one of them, not a lone job.
        jobs = []
        for n, lam in enumerate(_lambda_pool(30)):
            for wmax in (1, 2) if n < 6 else (1,):
                jobs.append(
                    Job(
                        ("cohomology", "{file}", "--wmax", str(wmax)),
                        f"lambda{n}.poisson",
                        _lambda_text(lam),
                        f"cohomology lambda=[{lam}] --wmax {wmax}",
                        ("euler", "weight_shift_0"),
                    )
                )
        return jobs
    if workload == "report-mix":
        jobs = [
            Job(("report", "{file}"), f"nondegenerate-lambda{n}.poisson", _lambda_text(lam), f"report lambda=[{lam}]")
            for n, lam in enumerate(_lambda_pool(12, nondegenerate=True))
        ]
        rng = random.Random(POOL_SEED + 2)
        for n in range(120):
            f, repeated = _surface(rng)
            text = f"# generated surface\nchart: w z\npoisson:\n{{w,z}} = {f}\n"
            checks = ("not_log_symplectic",) if repeated else ()
            jobs.append(Job(("report", "{file}"), f"surface{n}.poisson", text, f"report {{w,z}} = {f}", checks))
        return jobs
    if workload == "tjurina-ladder":
        rng = random.Random(POOL_SEED + 3)
        jobs = []
        for _ in range(320):
            f, a, b, extra = _curve(rng)
            argv: tuple[str, ...] = ("tjurina", f)
            if rng.random() < 0.25:
                point = f"{rng.randint(-1, 1)},{rng.randint(-1, 1)}"
                argv += (f"--point={point}",)  # "--point -1,0" would read -1,0 as an option
            checks = (("tjurina", (a - 1) * (b - 1)),) if extra == 0 else ()
            jobs.append(Job(argv, label=" ".join(argv), checks=checks))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Stratified draw
# ---------------------------------------------------------------------------


def _stratum(record: dict, deadline: float) -> str:
    if record.get("outcome") == "deadline" or record["baseline_s"] >= deadline:
        return "deadline"
    return f"bin{math.floor(BINS_PER_OCTAVE * math.log2(max(record['baseline_s'], 1e-4)))}"


def _allocate(sizes: dict[str, int], total: int) -> dict[str, int]:
    """Largest-remainder allocation of ``total`` draws proportional to ``sizes``."""
    whole = sum(sizes.values())
    quotas = {s: total * n / whole for s, n in sizes.items()}
    counts = {s: int(q) for s, q in quotas.items()}
    for s in sorted(quotas, key=lambda s: (-(quotas[s] - counts[s]), s))[: total - sum(counts.values())]:
        counts[s] += 1
    return counts


def strata(workload: str, expected: dict) -> dict[str, list[Job]]:
    """Pool entries grouped by recorded wall time; duplicate inputs count once."""
    out: dict[str, list[Job]] = {}
    for job in {job.key: job for job in pool(workload)}.values():
        out.setdefault(_stratum(expected[job.key], DEADLINE_S[workload]), []).append(job)
    return out


def pass_jobs(workload: str, seed: int, expected: dict) -> list[Job]:
    """The jobs of one pass for ``seed``, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    bins = strata(workload, expected)
    counts = _allocate({s: len(jobs) for s, jobs in bins.items()}, GENERATED_PER_PASS[workload])
    drawn = [job for s in sorted(bins) for job in rng.sample(bins[s], counts[s])]
    jobs = fixed_jobs(workload) + drawn
    rng.shuffle(jobs)
    return jobs


def warmup_job(workload: str) -> Job:
    command, fixture, extra = WARMUP[workload]
    if fixture is None:
        return Job((command, *extra), label=" ".join((command, *extra)))
    return _fixture_job(command, fixture, extra)


def write_inputs(jobs: list[Job], work_dir: Path) -> None:
    work_dir.mkdir(parents=True, exist_ok=True)
    texts: dict[str, str] = {}
    for job in jobs:
        if job.file_name:
            if texts.setdefault(job.file_name, job.file_text) != job.file_text:
                raise ValueError(f"two different inputs are both named {job.file_name}")
            (work_dir / job.file_name).write_text(job.file_text, encoding="utf-8")
