#!/usr/bin/env python3
"""Print SHA-256 digests of report bodies, to compare two source trees.

--golden hashes the golden suite's JSON-lines body (`body_lines`, the meta
record excluded), then its CSV report (`golden-csv`).  --cli-seeds hashes, per
seed, every op of the benchmark's cli-probes list (built by
perfbench/workloads.py, which is only read): its argv, exit code, stdout
without the meta line, and stderr.  Equal digests
from two checkouts mean byte-identical bodies.

Usage:
    python scripts/body_digest.py --golden --cli-seeds 5,11,12
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from hardylab.cli import main as cli_main
from hardylab.golden import golden_suite
from hardylab.quadrature import QuadratureSpec
from hardylab.report import body_lines, write_report

ROOT = Path(__file__).resolve().parent.parent


def golden_digests() -> tuple[str, str]:
    report = golden_suite(QuadratureSpec())
    body = "".join(line + "\n" for line in body_lines(report))
    csv_text = write_report(report, "csv", None)
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (body, csv_text))


def cli_digest(seed: int) -> str:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import cli_probe_ops

    h = hashlib.sha256()
    for op in cli_probe_ops(seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(op["argv"]))
        body = out.getvalue().splitlines()[1:]
        h.update((json.dumps([op["argv"], code, body, err.getvalue()]) + "\n").encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--golden", action="store_true", help="hash the golden suite body")
    ap.add_argument("--cli-seeds", default=None, help="comma-separated cli-probes seeds")
    args = ap.parse_args()

    seeds: list[int] = []
    if args.cli_seeds is not None:
        try:
            seeds = [int(text) for text in args.cli_seeds.split(",")]
        except ValueError:
            print(f"error: --cli-seeds: expected integers such as 5,11, got "
                  f"'{args.cli_seeds}'", file=sys.stderr)
            return 2
    if not args.golden and not seeds:
        print("error: nothing to hash; give --golden or --cli-seeds", file=sys.stderr)
        return 2
    if args.golden:
        json_digest, csv_digest = golden_digests()
        print(f"golden {json_digest}")
        print(f"golden-csv {csv_digest}")
    for seed in seeds:
        print(f"cli-probes seed {seed} {cli_digest(seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
