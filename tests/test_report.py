import csv
import io
import json

import pytest

from hardylab.asymptotics import (
    logconvexity_check,
    membership_scan,
    monotonicity_check,
    rate_probe,
)
from hardylab.fields import MeanParams
from hardylab.functions import Polynomial
from hardylab.identities import (
    check_area_limit_identity,
    check_growth_identity,
    ring_limit_probe,
)
from hardylab.quadrature import (
    QuadratureSpec,
    circle_mean,
    circle_mean_deriv,
    kernel_log_r_over_abs,
)
from hardylab.report import (
    MeanEntry,
    SuiteReport,
    body_lines,
    csv_text,
    entry_record,
    json_lines,
    write_report,
)

SPEC = QuadratureSpec()


def small_report():
    f = Polynomial((0, 0, 1))
    params = MeanParams(2, 0)
    entries = [
        check_growth_identity(f, params, 0.8, SPEC),
        rate_probe(f, params, SPEC, radii=tuple(1 - 2.0**-j for j in range(2, 8))),
        ring_limit_probe(
            Polynomial((1, 1)), params, 0.0, kernel_log_r_over_abs(0.9), 0.9, SPEC,
            tuple(2.0**-j for j in range(5, 10)),
        ),
        membership_scan(f, params, SPEC, radii=tuple(1 - 2.0**-j for j in range(1, 8))),
        MeanEntry("mean", "poly:0,0,1", 2, 0, 0.8, circle_mean(f, params, 0.8, SPEC)),
    ]
    return SuiteReport(timestamp="2026-01-01T00:00:00+00:00", config={"demo": 1}, entries=entries)


def test_json_lines_parse_back():
    rep = small_report()
    lines = json_lines(rep)
    recs = [json.loads(line) for line in lines]
    assert recs[0]["record"] == "meta"
    assert recs[-1]["record"] == "summary"
    assert recs[-1]["overall_pass"] is True
    kinds = {r["record"] for r in recs}
    assert {"identity", "rate", "ring-limit", "membership-scan", "mean"} <= kinds
    # repr round-trip: parsed floats match the computed values exactly
    identity = next(r for r in recs if r["record"] == "identity")
    assert identity["lhs"] == rep.entries[0].lhs


def test_scan_is_informational():
    rep = small_report()
    assert rep.entries[3].passed is None
    assert rep.overall_pass


def test_csv_matches_json_values():
    rep = small_report()
    jrecs = [json.loads(line) for line in body_lines(rep)]
    rows = list(csv.DictReader(io.StringIO(csv_text(rep))))
    assert len(rows) == len(rep.entries)
    identity_row = rows[0]
    identity_rec = jrecs[0]
    for col in ("lhs", "rhs", "abs_residual", "budget"):
        assert float(identity_row[col]) == identity_rec[col]


def test_write_report_to_file(tmp_path):
    rep = small_report()
    path = tmp_path / "out.csv"
    text = write_report(rep, "csv", str(path))
    assert path.read_text() == text


IDENTITY_KEYS = ["record", "tag", "fn", "p", "q", "r", "lhs", "rhs", "abs_residual",
                 "rel_residual", "budget", "tolerance", "converged", "passed"]
MEAN_KEYS = ["record", "fn", "p", "q", "r", "value", "error_estimate", "nodes", "levels",
             "converged", "passed"]
RECORD_KEYS = [
    IDENTITY_KEYS,
    IDENTITY_KEYS + ["info_lhs_order", "info_rhs_order", "info_lhs_spread", "info_rhs_spread"],
    ["record", "fn", "p", "q", "radii", "d_values", "products", "norm_d_values", "beta",
     "beta_stderr", "verdict", "passed"],
    ["record", "fn", "p", "q", "z0", "kernel", "r", "eps", "values", "target", "residuals",
     "slope", "passed"],
    ["record", "fn", "p", "radii", "values", "max_violation", "passed"],
    ["record", "fn", "p", "radii", "values", "min_second_difference", "passed"],
    ["record", "fn", "p", "q", "radii", "values", "classification", "sup_estimate", "passed"],
    MEAN_KEYS,
    MEAN_KEYS,
    ["record", "entries", "failures", "overall_pass"],
]


def test_record_schema_is_pinned():
    """Every record kind's keys, in order, and the CSV header: the report
    bodies are a stable format, so a key may not move or vanish."""
    f, params = Polynomial((0, 0, 1)), MeanParams(2, 0)
    entries = [
        check_growth_identity(f, params, 0.8, SPEC),
        check_area_limit_identity(f, params, SPEC, (0.5, 0.6, 0.7)),
        rate_probe(f, params, SPEC, radii=tuple(1 - 2.0**-j for j in range(2, 6))),
        ring_limit_probe(
            Polynomial((1, 1)), params, 0.0, kernel_log_r_over_abs(0.9), 0.9, SPEC,
            (0.25, 0.125, 0.0625),
        ),
        monotonicity_check(f, 2, SPEC),
        logconvexity_check(f, 2, SPEC),
        membership_scan(f, params, SPEC, radii=(0.5, 0.75, 0.875)),
        MeanEntry("mean", "poly:0,0,1", 2, 0, 0.8, circle_mean(f, params, 0.8, SPEC)),
        MeanEntry("deriv", "poly:0,0,1", 2, 0, 0.8, circle_mean_deriv(f, params, 0.8, SPEC)),
    ]
    rep = SuiteReport(timestamp="2026-01-01T00:00:00+00:00", config={}, entries=entries)
    assert [list(json.loads(line)) for line in body_lines(rep)] == RECORD_KEYS
    text = csv_text(rep)
    assert text.splitlines()[0] == (
        "record,tag,fn,p,q,r,lhs,rhs,abs_residual,rel_residual,budget,value,"
        "error_estimate,beta,verdict,classification,slope,passed"
    )
    tags = [row["tag"] for row in csv.DictReader(io.StringIO(text))]
    assert tags == ["growth", "area-limit", "", "", "", "", "", "mean", "deriv"]
    with pytest.raises(TypeError, match="unknown report entry"):
        entry_record(object())
