#!/usr/bin/env python3
"""Run the golden suite and write JSON-lines + CSV reports.

Usage:
    python scripts/run_golden_suite.py [--tol 1e-7] [--outdir reports/]
"""

import argparse
import sys
import time
from pathlib import Path

from hardylab.golden import golden_suite
from hardylab.quadrature import QuadratureSpec
from hardylab.report import entry_passed, write_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-7)
    ap.add_argument("--outdir", default="reports")
    args = ap.parse_args()

    try:
        spec = QuadratureSpec(rel_tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    report = golden_suite(spec)
    elapsed = time.monotonic() - t0

    write_report(report, "json", str(outdir / "golden.jsonl"))
    write_report(report, "csv", str(outdir / "golden.csv"))

    checked = sum(1 for e in report.entries if entry_passed(e) is not None)
    failed = sum(1 for e in report.entries if entry_passed(e) is False)
    print(f"{len(report.entries)} entries ({checked} checked), {failed} failures, "
          f"{elapsed:.1f}s, reports in {outdir}/")
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
