"""Golden digests of every CLI ``result`` payload on the shipped fixtures.

Each fixture runs through ``check``, ``modular``, ``report``,
``cohomology --wmax 3`` and ``tjurina``.  A ``--json`` case records the
exit code and the SHA-256 of ``json.dumps(result, sort_keys=True)``; the
rest of the envelope (``timing_ms`` above all) is left out.  A human case,
keyed ``human <command> <fixture>``, records the exit code and the SHA-256
of the whole human-readable output, which holds no timing.  A failing exit
code has no output and records ``null``.

The digests in ``golden_digests.json`` were recorded before the diagnostics
were rebuilt around one analysis per structure, so any change to a payload
shows up here.  To record them again after a deliberate change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from poissonkit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"

COMMANDS = {
    "check": [],
    "modular": [],
    "report": [],
    "cohomology": ["--wmax", "3"],
    "tjurina": [],
}
CASES = [
    (command, path.name)
    for path in sorted(FIXTURES.glob("*.poisson"))
    for command in COMMANDS
]


def golden_entry(command: str, fixture: str, human: bool = False) -> dict:
    """Exit code and output digest of one CLI run, made in this process."""
    out = io.StringIO()
    argv = [command, str(FIXTURES / fixture), *COMMANDS[command]]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv if human else [*argv, "--json"])
    digest = None
    if code == 0:
        text = out.getvalue() if human else json.dumps(json.loads(out.getvalue())["result"], sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
    return {"exit": code, "sha256": digest}


def _key(command: str, fixture: str, human: bool = False) -> str:
    return f"human {command} {fixture}" if human else f"{command} {fixture}"


@pytest.mark.parametrize("command,fixture", CASES)
def test_result_matches_golden_digest(command, fixture):
    expected = json.loads(DIGESTS.read_text())[_key(command, fixture)]
    assert golden_entry(command, fixture) == expected, (
        f"`poissonkit {command}` on {fixture} no longer matches its golden digest"
    )


@pytest.mark.parametrize("command,fixture", CASES)
def test_human_output_matches_golden_digest(command, fixture):
    expected = json.loads(DIGESTS.read_text())[_key(command, fixture, human=True)]
    assert golden_entry(command, fixture, human=True) == expected, (
        f"`poissonkit {command}` on {fixture} no longer prints its golden human output"
    )


def test_every_case_has_a_digest():
    keys = [_key(*case, human=human) for case in CASES for human in (False, True)]
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(keys)


if __name__ == "__main__":
    table = {
        _key(*case, human=human): golden_entry(*case, human=human)
        for case in CASES
        for human in (False, True)
    }
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
