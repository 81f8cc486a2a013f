import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardylab.identities as identities
from hardylab.cli import build_parser, main
from hardylab.identities import evaluate_radius


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_mean_const_weighted(capsys):
    code, out, _ = run_cli(
        capsys, "mean", "--fn", "const:1", "--p", "3", "--q", "2", "--r", "0.5"
    )
    assert code == 0
    recs = records(out)
    assert recs[1]["record"] == "mean"
    assert recs[1]["value"] == pytest.approx(0.5625, rel=1e-12)


def test_identity_growth_monomial(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity", "--fn", "poly:0,0,1", "--p", "2", "--q", "0", "--r", "0.8",
        "--check", "growth",
    )
    assert code == 0
    rec = records(out)[1]
    assert rec["rel_residual"] <= 1e-8
    assert rec["lhs"] == pytest.approx(2 * math.pi * 4 * 0.8**4, rel=1e-10)


def test_identity_multiple_checks(capsys):
    code, out, _ = run_cli(
        capsys,
        "identity", "--fn", "poly:1,1", "--p", "2", "--q", "1", "--r", "0.7",
        "--check", "growth,log-r,log-unit,weighted-area",
    )
    assert code == 0
    recs = records(out)
    tags = [r["tag"] for r in recs if r["record"] == "identity"]
    assert tags == ["growth", "log-r", "log-unit", "weighted-area"]


def test_identity_checks_share_one_radius(capsys):
    # a zero 5e-7 inside |z| = r at p < 1: every check must move to the same
    # radius, the one the mean derivative needs; the circle mean and its
    # derivative 1.5e-6 from the zero take tanh-sinh arcs, so all five
    # checks converge and pass there
    code, out, _ = run_cli(
        capsys,
        "identity", "--fn", "poly:-0.5,1", "--p", "0.5", "--q", "0", "--r", "0.5000005",
        "--check", "growth,log-r,log-unit,weighted-area,hardy-stein",
    )
    assert code == 0
    checks = [rec for rec in records(out) if rec["record"] == "identity"]
    assert len(checks) == 5
    assert all(rec["converged"] for rec in checks)
    assert {rec["r"] for rec in checks} == {0.5000015}


def test_area_limit_reports_the_radius_it_integrated(capsys):
    # the schedule 1..3 ends at r = 0.875, where the zero of blaschke:0.875
    # moves the radius to 0.875001, as it does for a finite-r check
    _, out, _ = run_cli(
        capsys,
        "identity", "--fn", "blaschke:0.875", "--p", "1.5", "--q", "0",
        "--check", "area-limit", "--r-schedule", "1..3",
    )
    (area,) = [rec for rec in records(out) if rec["record"] == "identity"]
    _, out, _ = run_cli(
        capsys,
        "identity", "--fn", "blaschke:0.875", "--p", "1.5", "--q", "0",
        "--check", "growth", "--r", "0.875",
    )
    (growth,) = [rec for rec in records(out) if rec["record"] == "identity"]
    assert area["r"] == growth["r"] == 0.875001


def test_deriv_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "deriv", "--fn", "poly:0,0,1", "--p", "2", "--q", "0", "--r", "0.8"
    )
    assert code == 0
    assert records(out)[1]["value"] == pytest.approx(2.048, rel=1e-12)


def test_lemma1_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "lemma1", "--fn", "poly:1,1", "--p", "2", "--r", "0.9",
        "--z0", "0", "--kernel", "log-r", "--eps-schedule", "6..12",
    )
    assert code == 0
    rec = records(out)[1]
    assert rec["record"] == "ring-limit"
    assert rec["target"] == pytest.approx(2 * math.pi)
    assert rec["passed"]


def test_rate_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "rate", "--fn", "poly:0,0,1", "--p", "2", "--q", "0", "--r-schedule", "2..8",
    )
    assert code == 0
    rec = records(out)[1]
    assert rec["verdict"] == "consistent-with-theorem"


# at p < 1 the derivative rejects only a zero within 1e-6 of its own circle;
# a zero on the circle halfway to the rim, |z| = r + (1 - r)/2, is no obstacle

def test_deriv_below_p_one_with_a_zero_halfway_to_the_rim(capsys):
    code, out, _ = run_cli(capsys, "deriv", "--fn", "poly:-0.75,1", "--p", "0.5", "--r", "0.5")
    assert code == 0
    rec = records(out)[1]
    assert rec["converged"]
    assert rec["value"] == pytest.approx(0.11210878901618665, rel=1e-12)


def test_rate_below_p_one_with_a_zero_halfway_to_the_last_radius_rim(capsys):
    # the last radius is 1 - 2^-5 and the zero sits at 1 - 2^-6
    code, out, _ = run_cli(
        capsys, "rate", "--fn", "poly:-0.984375,1", "--p", "0.5", "--r-schedule", "2..5"
    )
    assert code == 0
    rec = records(out)[1]
    assert len(rec["radii"]) == 4
    assert rec["verdict"] == "consistent-with-theorem"


# ---------------------------------------------------------------- exit codes

@pytest.mark.parametrize(
    "argv",
    [
        ("identity", "--fn", "poly:0,0,1", "--p", "2", "--r", "0.8", "--check", "bogus"),
        ("mean", "--fn", "blaschke:1.2", "--p", "2", "--r", "0.5"),
        ("mean", "--fn", "poly:1,zzz", "--p", "2", "--r", "0.5"),
        ("mean", "--fn", "poly:1,1", "--p", "-1", "--r", "0.5"),
        ("mean", "--fn", "poly:1,1", "--p", "2", "--r", "1.5"),
        ("mean", "--fn", "poly:1,1", "--p", "2"),
        ("suite", "--golden", "--theta-min", "1"),
        ("suite",),
        ("rate", "--fn", "binom:2", "--p", "1", "--q", "0"),
        ("identity", "--fn", "poly:0,1", "--p", "2", "--check", "area-limit",
         "--r-schedule", "5..6"),
        # each subcommand accepts only the flags it reads
        ("rate", "--fn", "poly:0,1", "--p", "2", "--r", "0.9"),
        ("mean", "--fn", "poly:0,1", "--p", "2", "--r", "0.5", "--r-schedule", "2..5"),
        ("lemma1", "--fn", "poly:1,1", "--p", "2", "--r", "0.9", "--r-schedule", "2..5"),
        ("suite", "--golden", "--r", "0.5"),
        ("identity", "--fn", "poly:0,1", "--p", "2", "--check", "growth", "--r", "0.8",
         "--r-schedule", "2..5"),
        ("identity", "--fn", "poly:0,1", "--p", "2", "--check", "area-limit", "--r", "0.8",
         "--r-schedule", "1..3"),
        ("mean", "--fn", "poly:0,1", "--p", "2", "--r", "0.5", "--theta-min", "32"),
        # no abbreviations, so `rate --r X` cannot read as `--r-schedule X`
        ("rate", "--fn", "poly:0,1", "--p", "2", "--r-sched", "2..5"),
        ("identity", "--fn", "poly:0,1", "--p", "2", "--r", "0.8", "--check", "growth",
         "--tol", "inf"),
        ("mean", "--fn", "const:nan", "--p", "2", "--r", "0.5"),
        # Hardy-Stein is the q = 0 identity
        ("identity", "--fn", "poly:0,1", "--p", "2", "--q", "1", "--r", "0.8",
         "--check", "hardy-stein"),
        # an empty tag list would pass vacuously
        ("identity", "--fn", "poly:1,1", "--p", "2", "--check="),
        ("identity", "--fn", "poly:1,1", "--p", "2", "--check=,"),
        # a repeated tag would report one check twice
        ("identity", "--fn", "poly:0,1", "--p", "2", "--r", "0.8", "--check", "growth,growth"),
        # an empty schedule is malformed, not the default
        ("rate", "--fn", "poly:0,1", "--p", "2", "--r-schedule="),
        ("identity", "--fn", "poly:0,1", "--p", "2", "--check", "area-limit",
         "--r-schedule="),
        ("lemma1", "--fn", "poly:1,1", "--p", "2", "--r", "0.9", "--eps-schedule="),
    ],
)
def test_usage_and_config_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.strip()


def test_identity_validates_every_tag_before_computing(capsys, monkeypatch):
    # hardy-stein rejects q = 1 after growth and weighted-area in the list:
    # the call must exit 2 without building a disk mesh for either of them
    def no_disk(*args, **kwargs):
        raise AssertionError("a disk integral was computed")

    # identities imports disk_integrals, so its name there is the one it calls
    monkeypatch.setattr(identities, "disk_integrals", no_disk)
    evaluate_radius.cache_clear()
    code, _, err = run_cli(
        capsys,
        "identity", "--fn", "poly:-0.5,1", "--p", "0.5", "--q", "1", "--r", "0.5000005",
        "--check", "growth,weighted-area,hardy-stein",
    )
    assert code == 2
    assert "hardy-stein" in err


def test_unknown_identity_tag_names_the_known_ones(capsys):
    # without --r: the unknown tag is the error reported, not the missing radius
    code, _, err = run_cli(capsys, "identity", "--fn", "poly:1,1", "--p", "2", "--check",
                           "growth,frobnicate")
    assert code == 2
    assert "unknown identity tag 'frobnicate' (expected one of growth, log-r," in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


# ------------------------------------------------------------ output formats

def test_json_and_csv_carry_identical_numbers(capsys, tmp_path):
    args = ("identity", "--fn", "poly:0,0,1", "--p", "2", "--q", "0", "--r", "0.8",
            "--check", "growth,log-r")
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    code2, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0 and code2 == 0
    jrecs = [r for r in records(out_json) if r["record"] == "identity"]
    crecs = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(jrecs) == len(crecs)
    for jr, cr in zip(jrecs, crecs):
        for col in ("lhs", "rhs", "abs_residual", "rel_residual", "budget"):
            assert float(cr[col]) == jr[col]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize(
    "argv,key",
    [
        (("lemma1", "--fn", "const:0.4992-0.5448i", "--p", "0.5", "--q", "0.0",
          "--r", "0.75", "--z0=0.0+0.0i", "--kernel", "log-r", "--eps-schedule", "4..12"),
         "slope"),
        (("rate", "--fn", "binom:0.9", "--p", "2", "--q", "1", "--r-schedule", "2..4"),
         "beta"),
    ],
    ids=["infinite-slope", "nan-beta"],
)
def test_non_finite_values_are_null_in_json_and_empty_in_csv(capsys, argv, key):
    _, out, _ = run_cli(capsys, *argv)
    recs = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert recs[1][key] is None
    _, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert next(csv.DictReader(io.StringIO(out_csv)))[key] == ""


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.jsonl"
    code, out, err = run_cli(
        capsys,
        "mean", "--fn", "const:2", "--p", "2", "--r", "0.5", "--out", str(path),
    )
    assert code == 0
    assert not out
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert recs[1]["value"] == pytest.approx(4.0)


def test_repeat_runs_byte_identical_modulo_timestamp(capsys):
    args = ("identity", "--fn", "blaschke:0.5", "--p", "1.5", "--q", "0.5",
            "--r", "0.8", "--check", "growth,weighted-area")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    body1 = out1.strip().splitlines()[1:]
    body2 = out2.strip().splitlines()[1:]
    assert body1 == body2


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    # a usage error first, so a parser left in a bad state would show below
    assert run_cli(capsys, "mean", "--fn", "const:1", "--p", "2", "--r", "x")[0] == 2
    args = ("mean", "--fn", "poly:1,1", "--p", "2", "--q", "0.5", "--r", "0.7")
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, err2 = run_cli(capsys, *args)
    assert code1 == code2 == 0 and err1 == err2 == ""
    recs1, recs2 = records(out1), records(out2)
    for recs in (recs1, recs2):
        del recs[0]["timestamp"]
    assert recs1 == recs2
    assert out1.splitlines()[1:] == out2.splitlines()[1:]


def test_python_dash_m_runs_the_cli():
    # `python -m hardylab` works from a source checkout, without installing
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hardylab", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: hardylab")
