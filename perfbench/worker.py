"""One pass of a workload in a fresh interpreter.

Started by ``run.py`` once per pass.  It imports numpy and hardylab, builds
the workload's op list, times every op on its own, checks every op's output
and prints one JSON object with the timings, the verdicts and the digest of
the report bodies.  With ``--trace 1`` it wraps the package's public
functions first (see ``tracer.py``) and adds the per-layer statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from datetime import datetime, timezone

import checks
from tracer import Tracer, per_layer_metrics
from workloads import cli_probe_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401  (part of set-up)

    import hardylab
    import hardylab.cli
    import hardylab.golden
    import hardylab.report  # noqa: F401

    return hardylab


def _golden_pass(hardylab, thunks, timings):
    """Run the golden entries serially, then render JSON-lines and CSV."""
    entries, raised = [], []
    for thunk in thunks:
        start = time.perf_counter()
        try:
            entries.append(thunk())
        except Exception as exc:  # an op that raises counts as failed
            raised.append(f"{type(exc).__name__}: {exc}")
        timings.append(time.perf_counter() - start)
    report = hardylab.report.SuiteReport(
        timestamp=datetime.now(timezone.utc).isoformat(),
        config={"suite": "golden", "rel_tol": hardylab.QuadratureSpec().rel_tol, "jobs": 1},
        entries=entries,
    )
    write_report = hardylab.report.write_report
    return write_report(report, "json", None), write_report(report, "csv", None), raised


def _cli_pass(hardylab, ops, timings):
    """Run each op as an in-process CLI call, capturing its streams."""
    outputs = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = hardylab.cli.main(list(op["argv"]))
            except Exception as exc:  # an op that raises counts as failed
                code = None
                err.write(f"raised {type(exc).__name__}: {exc}")
        timings.append(time.perf_counter() - start)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    hardylab = _import_package()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    if args.workload == "golden":
        ops = hardylab.golden.golden_entries(hardylab.QuadratureSpec())
    else:
        ops = cli_probe_ops(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    timings: list[float] = []
    start = time.perf_counter()
    if args.workload == "golden":
        rendered = _golden_pass(hardylab, ops, timings)
    else:
        rendered = _cli_pass(hardylab, ops, timings)
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tol = hardylab.QuadratureSpec().rel_tol
    if args.workload == "golden":
        verdict = checks.check_golden(*rendered, n_entries=len(ops))
    else:
        verdict = checks.check_cli_ops(ops, rendered, tol)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": timings,
        "rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": verdict.failed,
        "problems": verdict.problems,
        "failures": verdict.failures[:20],
        "digest": hashlib.sha256(verdict.body.encode()).hexdigest(),
    }
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer)
        result["absent"] = tracer.absent
        tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
