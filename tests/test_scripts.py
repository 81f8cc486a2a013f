"""Each experiment script under scripts/ imports and prints its usage."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(script), *args],
        env=env, capture_output=True, text=True, timeout=120, cwd=cwd,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_golden_suite_rejects_bad_tolerance(tmp_path):
    # a usage error: exit 2 with one error line, before any report directory
    outdir = tmp_path / "reports"
    proc = run_script(
        ROOT / "scripts" / "run_golden_suite.py", "--tol", "0", "--outdir", str(outdir)
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not outdir.exists()


@pytest.mark.parametrize(
    "script, args",
    [
        ("rate_sweep.py", ("--tol", "0")),
        ("rate_sweep.py", ("--ps", "x")),
        ("ring_decay.py", ("--fn", "nope")),
    ],
)
def test_script_rejects_bad_input(script, args):
    # a usage error is exit 2 with one error line; exit 1 means a failed check
    proc = run_script(ROOT / "scripts" / script, *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
