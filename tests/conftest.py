from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from poissonkit import (
    Chart,
    Poly,
    Polyvector,
    contract,
    covolume,
    diagonal_quadratic_bivector,
    new_poisson,
)

DEFAULT_SEED = 20260810

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        action="store",
        type=int,
        default=DEFAULT_SEED,
        help="seed for the randomized property suites",
    )


@pytest.fixture
def rng(request):
    return random.Random(request.config.getoption("--seed"))


@pytest.fixture(params=["copy", "deepcopy", "pickle"])
def round_trip(request):
    """``copy.copy``, ``copy.deepcopy`` or a ``pickle`` round trip."""
    return {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}[request.param]


@pytest.fixture(scope="session")
def session_seed(request):
    return request.config.getoption("--seed")


CHART2 = Chart(("w", "z"))
CHART3 = Chart(("x", "y", "z"))
CHART4 = Chart(("x1", "x2", "x3", "x4"))


def random_poly(rng, chart, max_degree=3, max_terms=2, allow_zero=True):
    """Small random polynomial with coefficients in {-3..3}/{1,2}."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exponent = [0] * chart.n
        for _ in range(rng.randint(0, max_degree)):
            exponent[rng.randrange(chart.n)] += 1
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        key = tuple(exponent)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    p = Poly(chart, {e: c for e, c in terms.items() if c})
    if not allow_zero and p.is_zero:
        return Poly.constant(chart, rng.randint(1, 3))
    return p


def random_polyvector(rng, chart, k=None, max_terms=2, max_degree=3):
    if k is None:
        k = rng.randint(0, chart.n)
    indices = list(itertools.combinations(range(chart.n), k))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        index = rng.choice(indices)
        p = random_poly(rng, chart, max_degree=max_degree)
        terms[index] = terms[index] + p if index in terms else p
    return Polyvector(chart, k, {i: c for i, c in terms.items() if not c.is_zero})


def random_surface_structure(rng, chart=CHART2, max_degree=3):
    f = random_poly(rng, chart, max_degree=max_degree, allow_zero=False)
    return new_poisson(Polyvector.term(chart, (0, 1), f))


def random_cubic_structure(rng, chart=CHART3):
    """Jacobian structure of a random (not necessarily homogeneous) cubic."""
    f = random_poly(rng, chart, max_degree=3, max_terms=4, allow_zero=False)
    return new_poisson(contract(f, covolume(chart)))


def random_skew_matrix(rng, n=4):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = Fraction(rng.randint(-3, 3))
            rows[i][j] = value
            rows[j][i] = -value
    return rows


def random_diagonal_structure(rng, chart=CHART4):
    return new_poisson(diagonal_quadratic_bivector(random_skew_matrix(rng, chart.n), chart=chart))


def structure_text(structure: dict) -> str:
    """Structure-file text with explicit brackets for the ``structure`` payload of a ``--json`` result."""
    lines = [
        "chart: " + " ".join(structure["chart"]),
        "weights: " + " ".join(map(str, structure["weights"])),
        "poisson:",
        *(f"{pair} = {expr}" for pair, expr in structure["brackets"].items()),
    ]
    return "\n".join(lines) + "\n"


def so3_structure():
    x, y, z = (Poly.variable(CHART3, i) for i in range(3))
    pi = Polyvector(CHART3, 2, {(1, 2): x, (0, 2): -y, (0, 1): z})
    return new_poisson(pi)
