"""Output checks: each op's report is parsed and judged from outside.

An op fails when it raises, exits nonzero, reports ``converged=false`` or
``passed=false``, returns a rate verdict other than
``consistent-with-theorem``, or misses a closed-form oracle by more than
``ORACLE_FACTOR * tol`` relative.  A *problem* is different: it means the
output itself is malformed (missing or extra records, a summary that does
not add up, an exit code that contradicts the report, a command line the
CLI rejected as a usage error), so the run's output cannot be trusted and
the benchmark reports ``correct: false``.

The body each check returns (every record except ``meta``, plus the exit
code and error text of ops that printed no report) is what the determinism
digest covers.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

ORACLE_FACTOR = 10.0
RATE_OK = "consistent-with-theorem"
RECORD_OF_COMMAND = {"mean": "mean", "deriv": "deriv", "rate": "rate", "lemma1": "ring-limit"}
KNOWN_RECORDS = {"identity", "rate", "ring-limit", "monotonicity", "log-convexity",
                 "membership-scan", "mean", "deriv"}


@dataclass
class Verdict:
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    body: str = ""


def _record_fails(rec: dict) -> str | None:
    if rec.get("converged") is False:
        return "converged=false"
    if rec.get("passed") is False:
        return "passed=false"
    if rec.get("record") == "rate" and rec.get("verdict") != RATE_OK:
        return f"rate verdict {rec.get('verdict')}"
    return None


def _parse_report(text: str, problems: list[str], where: str) -> list[dict] | None:
    """meta, records..., summary; None (with a problem noted) if malformed."""
    try:
        recs = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        problems.append(f"{where}: unparsable JSON-lines ({exc})")
        return None
    if len(recs) < 2 or recs[0].get("record") != "meta" or recs[-1].get("record") != "summary":
        problems.append(f"{where}: report lacks its meta or summary record")
        return None
    body, summary = recs[1:-1], recs[-1]
    failures = sum(1 for r in body if r.get("passed") is False)
    if summary.get("entries") != len(body) or summary.get("failures") != failures:
        problems.append(f"{where}: summary does not match the records")
    if summary.get("overall_pass") != (failures == 0):
        problems.append(f"{where}: overall_pass contradicts the records")
    return recs


def _body_text(text: str) -> str:
    return "\n".join(text.splitlines()[1:]) + "\n"


def _misses(value: float, oracle: float, tol: float) -> bool:
    return not abs(value - oracle) <= ORACLE_FACTOR * tol * max(1.0, abs(oracle))


def _mean_oracle(o: dict) -> float:
    """Closed forms for c * z^n (n = 0 is a constant): the weighted mean
    |c|^p r^{np} (1-r^2)^q and its r-derivative."""
    a, n, p, q, r = o["abs_c"] ** o["p"], o["n"], o["p"], o["q"], o["r"]
    rho = 1.0 - r * r
    mean = a * r ** (n * p) * rho**q
    if o["kind"] == "mean":
        return mean
    d_rn = n * p * r ** (n * p - 1.0) if n else 0.0
    d_rho = -2.0 * q * r * rho ** (q - 1.0) if q else 0.0
    return a * (d_rn * rho**q + r ** (n * p) * d_rho)


def _oracle_miss(rec: dict, oracle: dict | None, tol: float) -> str | None:
    if oracle is None:
        return None
    if oracle["kind"] == "lemma1":
        if _misses(rec["target"], oracle["target"], tol):
            return f"ring-limit target {rec['target']!r} vs closed form {oracle['target']!r}"
        return None
    expected = _mean_oracle(oracle)
    if _misses(rec["value"], expected, tol):
        return f"{oracle['kind']} {rec['value']!r} vs closed form {expected!r}"
    return None


def check_cli_ops(ops: list[dict], outputs: list[tuple], tol: float) -> Verdict:
    """Judge in-process CLI ops from their exit codes and JSON-lines output."""
    v = Verdict()
    parts = []
    for i, (op, (code, out, err)) in enumerate(zip(ops, outputs)):
        where = f"op {i} ({' '.join(op['argv'][:3])})"
        reason = None
        if code == 2 and "usage:" in err:
            v.problems.append(f"{where}: the CLI rejected the command line: {err.strip()[-200:]}")
        if not out:
            if code == 0:
                v.problems.append(f"{where}: exit 0 without a report")
            reason = f"exit {code}: {err.strip()[:200]}"
            parts.append(f"exit={code} {err.strip()}\n")
        else:
            parts.append(_body_text(out))
            recs = _parse_report(out, v.problems, where)
            if recs is not None:
                body = recs[1:-1]
                expected = [RECORD_OF_COMMAND[op["argv"][0]]]
                if [r.get("record") for r in body] != expected:
                    v.problems.append(f"{where}: records {[r.get('record') for r in body]}"
                                      f", expected {expected}")
                if (code == 0) != recs[-1].get("overall_pass"):
                    v.problems.append(f"{where}: exit {code} contradicts overall_pass")
                for rec in body:
                    reason = reason or _record_fails(rec) or _oracle_miss(rec, op["oracle"], tol)
                if code != 0:
                    reason = reason or f"exit {code}"
        if reason is not None:
            v.failed += 1
            v.failures.append(f"{where}: {reason}")
    v.body = "".join(parts)
    return v


def check_golden(json_text: str, csv_text: str, raised: list[str], n_entries: int) -> Verdict:
    """Judge the golden report: one record per entry that returned, plus the summary."""
    v = Verdict(failed=len(raised), failures=list(raised))
    recs = _parse_report(json_text, v.problems, "golden")
    if recs is not None:
        body = recs[1:-1]
        if len(body) + len(raised) != n_entries:
            v.problems.append(f"golden: {len(body)} records for {n_entries} entries")
        for i, rec in enumerate(body):
            if rec.get("record") not in KNOWN_RECORDS:
                v.problems.append(f"golden: record {i} has unknown kind {rec.get('record')!r}")
            reason = _record_fails(rec)
            if reason is not None:
                v.failed += 1
                v.failures.append(f"golden record {i} ({rec.get('record')} "
                                  f"{rec.get('tag', '')} {rec.get('fn')}): {reason}")
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        if len(rows) != len(body):
            v.problems.append(f"golden: CSV has {len(rows)} rows for {len(body)} records")
        for i, (row, rec) in enumerate(zip(rows, body)):
            for col in ("lhs", "rhs", "value", "beta"):
                if isinstance(rec.get(col), float) and not _same_float(row[col], rec[col]):
                    v.problems.append(f"golden: CSV row {i} column {col} differs from JSON")
    v.body = _body_text(json_text) + csv_text
    return v


def _same_float(text: str, value: float) -> bool:
    parsed = float(text)
    return parsed == value or (math.isnan(parsed) and math.isnan(value))
