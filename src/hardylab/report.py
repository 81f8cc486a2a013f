"""Machine-readable reports: JSON-lines (one record per check) and CSV.

Floats are serialised with ``repr`` (shortest round-trip form, at most 17
significant digits), so identical runs produce byte-identical bodies and a
parsed report reproduces every value bit-for-bit.  A non-finite float (an
infinite ring-limit slope, a NaN fitted exponent) is written as JSON null and
as an empty CSV cell, so every line is strict JSON.  The timestamp lives only
in the meta record; the body is deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any

from . import __version__
from .asymptotics import (
    LogConvexityResult,
    MembershipScanResult,
    MonotonicityResult,
    RateProbeResult,
)
from .identities import IdentityReport, RingLimitReport
from .parsing import format_complex
from .quadrature import IntegralResult

TOOL_NAME = "hardylab"

CSV_COLUMNS = [
    "record",
    "tag",
    "fn",
    "p",
    "q",
    "r",
    "lhs",
    "rhs",
    "abs_residual",
    "rel_residual",
    "budget",
    "value",
    "error_estimate",
    "beta",
    "verdict",
    "classification",
    "slope",
    "passed",
]


@dataclass
class SuiteReport:
    timestamp: str
    config: dict[str, Any]
    entries: list[Any] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        ok = True
        for entry in self.entries:
            passed = entry_passed(entry)
            if passed is not None:
                ok = ok and passed
        return ok


@dataclass(frozen=True)
class MeanEntry:
    """A plain mean or derivative value with its quadrature diagnostics."""

    record: str  # "mean" or "deriv"
    fn: str
    p: float
    q: float
    r: float
    result: IntegralResult


def entry_passed(entry: Any) -> bool | None:
    """Pass/fail of one entry; None marks informational records."""
    if isinstance(entry, IdentityReport):
        return entry.passed
    if isinstance(entry, RateProbeResult):
        return entry.verdict == "consistent-with-theorem"
    if isinstance(entry, RingLimitReport):
        return entry.consistent
    if isinstance(entry, (MonotonicityResult, LogConvexityResult)):
        return entry.passed
    if isinstance(entry, MeanEntry):
        return entry.result.converged
    if isinstance(entry, MembershipScanResult):
        return None
    raise TypeError(f"unknown report entry {type(entry).__name__}")


def entry_record(entry: Any) -> dict[str, Any]:
    if isinstance(entry, IdentityReport):
        rec = {
            "record": "identity",
            "tag": entry.identity,
            "fn": entry.fn,
            "p": entry.p,
            "q": entry.q,
            "r": entry.r,
            "lhs": entry.lhs,
            "rhs": entry.rhs,
            "abs_residual": entry.abs_residual,
            "rel_residual": entry.rel_residual,
            "budget": entry.budget,
            "tolerance": entry.tolerance,
            "converged": entry.converged,
            "passed": entry.passed,
        }
        for key, value in entry.info.items():
            rec[f"info_{key}"] = value
        return rec
    if isinstance(entry, RateProbeResult):
        return {
            "record": "rate",
            "fn": entry.fn,
            "p": entry.p,
            "q": entry.q,
            "radii": list(entry.radii),
            "d_values": list(entry.d_values),
            "products": list(entry.products),
            "norm_d_values": list(entry.norm_d_values),
            "beta": entry.beta,
            "beta_stderr": entry.beta_stderr,
            "verdict": entry.verdict,
            "passed": entry_passed(entry),
        }
    if isinstance(entry, RingLimitReport):
        return {
            "record": "ring-limit",
            "fn": entry.fn,
            "p": entry.p,
            "q": entry.q,
            "z0": format_complex(entry.z0),
            "kernel": entry.kernel,
            "r": entry.r,
            "eps": list(entry.eps),
            "values": list(entry.values),
            "target": entry.target,
            "residuals": list(entry.residuals),
            "slope": entry.slope,
            "passed": entry.consistent,
        }
    if isinstance(entry, MonotonicityResult):
        return {
            "record": "monotonicity",
            "fn": entry.fn,
            "p": entry.p,
            "radii": list(entry.radii),
            "values": list(entry.values),
            "max_violation": entry.max_violation,
            "passed": entry.passed,
        }
    if isinstance(entry, LogConvexityResult):
        return {
            "record": "log-convexity",
            "fn": entry.fn,
            "p": entry.p,
            "radii": list(entry.radii),
            "values": list(entry.values),
            "min_second_difference": entry.min_second_difference,
            "passed": entry.passed,
        }
    if isinstance(entry, MembershipScanResult):
        return {
            "record": "membership-scan",
            "fn": entry.fn,
            "p": entry.p,
            "q": entry.q,
            "radii": list(entry.radii),
            "values": list(entry.values),
            "classification": entry.classification,
            "sup_estimate": entry.sup_estimate,
            "passed": None,
        }
    if isinstance(entry, MeanEntry):
        return {
            "record": entry.record,
            "fn": entry.fn,
            "p": entry.p,
            "q": entry.q,
            "r": entry.r,
            "value": entry.result.value,
            "error_estimate": entry.result.error_estimate,
            "nodes": entry.result.nodes,
            "levels": entry.result.levels,
            "converged": entry.result.converged,
            "passed": entry.result.converged,
        }
    raise TypeError(f"unknown report entry {type(entry).__name__}")


def _json_default(obj: Any) -> Any:
    raise TypeError(f"not JSON-serialisable: {obj!r}")


def _finite_or_none(value: Any) -> Any:
    """The value with every non-finite float, also inside lists and dicts, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    return value


def _dump_record(rec: dict[str, Any]) -> str:
    return json.dumps(_finite_or_none(rec), default=_json_default, allow_nan=False)


def body_lines(report: SuiteReport) -> list[str]:
    """Deterministic JSON-lines body (everything except the meta record)."""
    lines = [_dump_record(entry_record(e)) for e in report.entries]
    failures = sum(1 for e in report.entries if entry_passed(e) is False)
    lines.append(
        _dump_record(
            {
                "record": "summary",
                "entries": len(report.entries),
                "failures": failures,
                "overall_pass": report.overall_pass,
            }
        )
    )
    return lines


def json_lines(report: SuiteReport) -> list[str]:
    meta = {
        "record": "meta",
        "tool": TOOL_NAME,
        "version": __version__,
        "timestamp": report.timestamp,
        "config": report.config,
    }
    return [_dump_record(meta)] + body_lines(report)


def csv_text(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=CSV_COLUMNS, extrasaction="ignore", lineterminator="\n"
    )
    writer.writeheader()
    for entry in report.entries:
        rec = _finite_or_none(entry_record(entry))
        if isinstance(entry, IdentityReport):
            rec.setdefault("value", "")
        if isinstance(entry, MeanEntry):
            rec.setdefault("tag", rec["record"])
        row = {}
        for col in CSV_COLUMNS:
            val = rec.get(col, "")
            row[col] = repr(val) if isinstance(val, float) else val
        writer.writerow(row)
    return buf.getvalue()


def write_report(report: SuiteReport, fmt: str, path: str | None) -> str:
    """Render the report and optionally write it to a file; returns the text."""
    if fmt == "json":
        text = "\n".join(json_lines(report)) + "\n"
    elif fmt == "csv":
        text = csv_text(report)
    else:
        raise ValueError(f"unknown report format '{fmt}'")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
