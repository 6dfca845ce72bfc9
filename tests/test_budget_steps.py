"""The Groebner kernel's reduction sequence, pinned by the smallest budget that succeeds.

Buchberger spends one budget step per reduction step, so the smallest
``--budget`` under which a command succeeds counts the reductions it makes.
The numbers below were recorded with the reduction over Q that kept a monic
basis.  They must not move when the arithmetic changes: a primitive integer
basis and fraction-free division reduce the same leading terms in the same
order.  The curves are 20 seeded ``tjurina-ladder`` curves with at least one
extra monomial (``random_curve``); the surfaces are the ``report-mix``
surfaces whose gcd once ran away.
"""

from __future__ import annotations

import pytest

from poissonkit.cli import main
from test_sympy_oracle import RUNAWAYS

# (curve, --point, smallest budget)
CURVES = [
    ('w^3 + z^8 + 1*w^3*z^2 + 2*w^1*z^5', '0,1', 38),
    ('w^7 + z^7 + -1*w^4*z^1', None, 3),
    ('w^4 + z^9 + 1*w^2*z^3 + -2*w^3*z^6', None, 31),
    ('w^6 + z^8 + -2*w^4*z^1', '0,1', 12),
    ('w^3 + z^5 + -1*w^0*z^1', None, 1),
    ('w^7 + z^9 + -2*w^1*z^7 + -3*w^3*z^0', None, 29),
    ('w^7 + z^7 + -3*w^2*z^0', None, 1),
    ('w^4 + z^7 + 2*w^2*z^3', None, 4),
    ('w^5 + z^9 + 3*w^1*z^5', None, 5),
    ('w^5 + z^8 + 1*w^1*z^4 + -1*w^5*z^2', '0,-1', 45),
    ('w^7 + z^9 + 1*w^0*z^3 + -2*w^2*z^4 + 2*w^2*z^6', '0,0', 115),
    ('w^9 + z^9 + -1*w^4*z^4 + -3*w^3*z^1 + 1*w^3*z^4', '0,-1', 204),
    ('w^7 + z^8 + 1*w^1*z^3 + -2*w^5*z^3', '-1,1', 138),
    ('w^5 + z^8 + 3*w^5*z^2 + -3*w^0*z^2', None, 5),
    ('w^7 + z^8 + -3*w^2*z^4', '-1,1', 21),
    ('w^4 + z^4 + -2*w^1*z^0', '1,1', 5),
    ('w^9 + z^9 + 1*w^2*z^7', '-1,-1', 46),
    ('w^4 + z^5 + 1*w^0*z^1 + -3*w^2*z^3', None, 16),
    ('w^6 + z^7 + -1*w^2*z^1', '-1,1', 20),
    ('w^5 + z^7 + -2*w^2*z^2 + -3*w^1*z^0', '-1,1', 46),
]

# Smallest budget of ``report`` on each RUNAWAYS surface, in order.
RUNAWAY_BUDGETS = [113, 70, 102, 106, 113]


def succeeds_exactly_at(capsys, argv, budget) -> bool:
    ok = main([*argv, "--budget", str(budget)]) == 0
    short = main([*argv, "--budget", str(budget - 1)]) == 4
    capsys.readouterr()
    return ok and short


@pytest.mark.parametrize("text,point,budget", CURVES, ids=range(len(CURVES)))
def test_tjurina_budget_steps(capsys, text, point, budget):
    argv = ["tjurina", text] + ([f"--point={point}"] if point else [])
    assert succeeds_exactly_at(capsys, argv, budget)


@pytest.mark.parametrize("n", range(len(RUNAWAY_BUDGETS)))
def test_report_budget_steps(capsys, tmp_path, n):
    path = tmp_path / "surface.poisson"
    path.write_text(f"chart: w z\npoisson:\n{{w,z}} = {RUNAWAYS[n][0]}\n")
    assert succeeds_exactly_at(capsys, ["report", str(path)], RUNAWAY_BUDGETS[n])


@pytest.mark.parametrize(
    "budget,message",
    [
        (10, "in S-pair reduction: all 10 steps spent, 3 S-pairs reduced"),
        (37, "in inter-reduction: all 37 steps spent, 3 generators reduced"),
    ],
)
def test_budget_error_names_phase_and_steps(capsys, budget, message):
    text, point, _ = CURVES[0]
    assert main(["tjurina", text, f"--point={point}", "--budget", str(budget)]) == 4
    err = capsys.readouterr().err
    assert f"budget exceeded: Groebner step budget exceeded {message}; raise it with a larger budget" in err
