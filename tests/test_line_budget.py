"""The line budget of ROADMAP item 9, counted as `wc -l` counts."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("pattern, budget", [("src/hardylab/*.py", 3100), ("scripts/*.py", 210)])
def test_line_budget(pattern, budget):
    files = sorted(ROOT.glob(pattern))
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert files and lines <= budget, f"{pattern}: {lines} lines, budget {budget}"
