"""Every pinned output byte, replayed in tier-1: the commands and digests of
tests/pins.py.  The CI workflow checks the pins by running this suite."""

import contextlib
import hashlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from degenstirling import cli

from .pins import API_SERIES, PINS

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def _replay(command: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if command is API_SERIES:
            exec(compile(command, "api-series", "exec"), {})
            code = 0
        else:
            code = cli.main(shlex.split(command))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "command, digest", PINS,
    ids=["api-series" if command is API_SERIES else command for command, _ in PINS])
def test_pinned_output(command, digest):
    code, out, err = _replay(command)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_the_workflow_checks_the_same_pins():
    # CI checks every pin by running the whole tier-1 suite, which replays
    # them; a digest written out in the workflow would be a second copy
    text = WORKFLOW.read_text()
    assert not re.search(r"[0-9a-fA-F]{64}", text)
    tier_1 = ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q"
              " --continue-on-collection-errors")
    assert f"\n        run: {tier_1}\n" in text


def test_release_gate_pin_holds_without_asserts():
    # python -O strips assert statements: the release gate prints the same bytes
    digest = dict(PINS)["verify --order 6"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-O", "-m", "degenstirling.cli", "verify", "--order", "6"]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
