"""Each experiment script under scripts/ imports and prints its usage."""

import csv
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


@pytest.mark.parametrize(
    "script, args",
    [
        ("rate_sweep.py", ("--tol", "0")),
        ("rate_sweep.py", ("--ps", "x")),
        ("rate_sweep.py", ("--qs", "x")),
        ("body_digest.py", ()),
        ("body_digest.py", ("--cli-seeds", "1,x")),
        ("field_cost.py", ("--repeats", "0")),
    ],
)
def test_script_rejects_bad_input(script, args):
    # a usage error is exit 2 with one error line; exit 1 means a failed check
    proc = run_script(ROOT / "scripts" / script, *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_rate_sweep_writes_one_field_per_column():
    # the default function text poly:0,0,1 holds commas, so it must be quoted
    proc = run_script(ROOT / "scripts" / "rate_sweep.py", "--ps", "2", "--qs", "0,1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = csv.reader(proc.stdout.splitlines())
    assert header == "fn,p,q,beta,beta_stderr,first_product,last_product,verdict".split(",")
    assert all(len(row) == 8 for row in rows)
    assert [row[:3] for row in rows] == [
        ["poly:0,0,1", "2.0", "0.0"],
        ["poly:0,0,1", "2.0", "1.0"],
    ]


def test_body_digest_is_reproducible():
    # two interpreters hashing the same cli-probes ops print the same digest
    outs = [run_script(ROOT / "scripts" / "body_digest.py", "--cli-seeds", "1")
            for _ in range(2)]
    for proc in outs:
        assert proc.returncode == 0, proc.stderr
    (line,) = outs[0].stdout.splitlines()
    assert line.startswith("cli-probes seed 1 ") and len(line.split()[-1]) == 64
    assert outs[0].stdout == outs[1].stdout
