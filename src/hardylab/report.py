"""Machine-readable reports: JSON-lines (one record per check) and CSV.

A record is its result's dataclass fields in order, after a ``record`` kind:
a nested ``IntegralResult`` is inlined, an ``info`` dict becomes
``info_<key>`` keys, and ``passed`` (None for informational records) comes
last unless it is a field.  Floats are serialised with ``repr`` (shortest
round-trip form, at most 17 significant digits), so identical runs produce
byte-identical bodies and a parsed report reproduces every value
bit-for-bit.  A non-finite float (an infinite ring-limit slope, a NaN fitted
exponent) is written as JSON null and as an empty CSV cell, so every line is
strict JSON.  The timestamp lives only in the meta record; the body is
deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
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
        return not any(entry.passed is False for entry in self.entries)


@dataclass(frozen=True)
class MeanEntry:
    """A plain mean or derivative value with its quadrature diagnostics."""

    record: str  # "mean" or "deriv"
    fn: str
    p: float
    q: float
    r: float
    result: IntegralResult

    @property
    def passed(self) -> bool:
        return self.result.converged


# record kind of each entry type; None: the entry names its own (``record``)
RECORD_KINDS: dict[type, str | None] = {
    IdentityReport: "identity",
    RateProbeResult: "rate",
    RingLimitReport: "ring-limit",
    MonotonicityResult: "monotonicity",
    LogConvexityResult: "log-convexity",
    MembershipScanResult: "membership-scan",
    MeanEntry: None,
}


@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _plain(value: Any) -> Any:
    """The value as JSON: complex as text, a non-finite float as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _fill(rec: dict[str, Any], result: Any) -> None:
    for name in _field_names(type(result)):
        value = getattr(result, name)
        if isinstance(value, IntegralResult):
            _fill(rec, value)
        elif isinstance(value, dict):
            for key, item in value.items():
                rec[f"{name}_{key}"] = _plain(item)
        else:
            rec[name] = _plain(value)


def entry_record(entry: Any) -> dict[str, Any]:
    """One entry's record; TypeError for an entry type with no record kind."""
    try:
        kind = RECORD_KINDS[type(entry)]
    except KeyError:
        raise TypeError(f"unknown report entry {type(entry).__name__}") from None
    rec: dict[str, Any] = {} if kind is None else {"record": kind}
    _fill(rec, entry)
    rec.setdefault("passed", entry.passed)
    return rec


def _dump_record(rec: dict[str, Any]) -> str:
    return json.dumps(rec, allow_nan=False)


def body_lines(report: SuiteReport) -> list[str]:
    """Deterministic JSON-lines body (everything except the meta record)."""
    lines = [_dump_record(entry_record(e)) for e in report.entries]
    failures = sum(1 for e in report.entries if e.passed is False)
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
        "config": _plain(report.config),
    }
    return [_dump_record(meta)] + body_lines(report)


def csv_text(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=CSV_COLUMNS, extrasaction="ignore", lineterminator="\n"
    )
    writer.writeheader()
    for entry in report.entries:
        rec = entry_record(entry)
        if isinstance(entry, MeanEntry):
            rec["tag"] = rec["record"]
        writer.writerow(rec)  # csv writes a float with repr and None as ""
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
