"""hardylab benchmark: the golden and cli-probes workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload golden --seed 1 --seconds 50 --trace 0

Each pass runs the workload's whole op list in a fresh interpreter
(``worker.py``).  A run makes ``MIN_PASSES`` passes, and more until the
next one would end after ``--seconds``.  ``wall_s`` is the fastest pass and each
op's latency its fastest time over the passes: every pass does the same
work, so the minimum sheds the slowdowns a shared machine imposes.  Set-up
is timed in every pass and in extra set-up-only interpreters, so
``setup_s`` is a median of at least ``SETUP_SAMPLES`` values.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it makes one untraced and one traced pass and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object, ``{"correct", "attempted", "failed", "metrics"}``, whose metrics are
those BENCHMARK.json lists; the op latency percentiles are printed above it
but not listed, because their run-to-run spread on a shared machine is too
wide to bound.

Report bodies (meta records excluded) are hashed in every pass.  Digests
must agree between the passes of a run and with every earlier run of the
same source tree, workload and seed in this checkout; they are kept in
``.perfbench_out/digests.json`` and never compared across source trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("golden", "cli-probes")
MIN_PASSES = 2
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0  # every run ends well within 180 s


class BenchError(RuntimeError):
    pass


def _source_hash() -> str:
    """Hash of the package and benchmark sources: the digest store's key."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "hardylab"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def _spawn(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run one worker interpreter and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass overran the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_digests(args: argparse.Namespace, passes: list[dict]) -> list[str]:
    """Digests must agree across passes and with earlier runs of this source."""
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        return [f"report bodies differ between passes: {sorted(digests)}"]
    digest = digests.pop()
    path = os.path.join(OUT, "digests.json")
    store = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    # golden has fixed inputs, so every run of a source tree must agree
    seed = "-" if args.workload == "golden" else args.seed
    key = f"{_source_hash()}:{args.workload}:{seed}"
    print(f"digest {args.workload} seed {seed}: {digest}")
    if key in store and store[key] != digest:
        return [f"report bodies differ from an earlier run: {store[key]} vs {digest}"]
    store[key] = digest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=0, sort_keys=True)
    return []


def _decile(values: list[float], k: int) -> float:
    """k-th decile (k = 5 is the median) by the inclusive method."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def _end_to_end(passes: list[dict], setups: list[float]) -> dict[str, tuple[float, str]]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    op_s = [min(times) for times in zip(*(p["op_s"] for p in passes))]
    print(f"{len(passes)} pass(es) of {len(op_s)} ops, walls "
          f"{[round(p['wall_s'], 3) for p in passes]} s; {len(setups)} set-ups; "
          f"latency percentiles over {len(op_s)} ops, each op's fastest pass")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (min(p["wall_s"] for p in passes), "s"),
        "op_p50_s": (_decile(op_s, 5), "s"),
        "op_p90_s": (_decile(op_s, 9), "s"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }


def _run(args: argparse.Namespace, names: list[str]) -> tuple[dict, list[dict], list[str]]:
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        plain = _spawn(args, deadline)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        traced = _spawn(args, deadline, "--trace-out", trace_path)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        passes = [plain, traced]
        layer = {k: tuple(v) for k, v in traced["per_layer"].items()}
        layer["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        for name in traced["absent"]:
            print(f"absent: {name} is not defined by this version of the package")
        metrics = {name: layer[name] for name in names if name in layer}
        for name in names:
            if name not in layer:
                print(f"absent: metric {name}")
    else:
        passes = [_spawn(args, deadline)]
        while (len(passes) < MIN_PASSES
               or time.monotonic() - start + passes[-1]["wall_s"] * 1.2 + 1.0 <= args.seconds):
            passes.append(_spawn(args, deadline))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(args, deadline, "--setup-only")["setup_s"])
        metrics = _end_to_end(passes, setups)
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    problems += _check_digests(args, passes)
    for msg in passes[-1]["failures"]:
        print(f"failed op: {msg}")
    return metrics, passes, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hardylab", "__init__.py")):
        print("error: src/hardylab not found; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    try:
        metrics, passes, problems = _run(args, names)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in problems:
        print(f"problem: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
