"""Command-line front end.

Subcommands: mean, deriv, identity, lemma1, rate, suite.  Each accepts only
the flags it reads, spelt in full; within identity, --r needs a finite-r tag
and --r-schedule needs area-limit.  Reports go to stdout (and optionally
--out) as JSON-lines or CSV.  Exit code 0 when every check passes, 1 on a
check failure or non-convergence, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from functools import lru_cache

from .asymptotics import DEFAULT_RATE_SCHEDULE, rate_probe
from .fields import MeanParams
from .identities import (
    DEFAULT_EPS_SCHEDULE,
    DEFAULT_R_SCHEDULE as DEFAULT_LIMIT_SCHEDULE,
    IDENTITY_TAGS,
    ring_limit_probe,
    run_identity_check,
    validate_identity_check,
)
from .golden import golden_suite
from .parsing import FunctionParseError, parse_complex, parse_function
from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    circle_mean,
    circle_mean_deriv,
    kernel_by_name,
)
from .report import MeanEntry, SuiteReport, write_report


class ConfigError(ValueError):
    pass


def _parse_schedule(
    text: str | None, kind: str, default: tuple[float, ...]
) -> tuple[float, ...]:
    """`j0..j1` -> geometric schedule (radii 1 - 2^-j or epsilons 2^-j);
    default when the flag is absent, but an empty value is malformed."""
    if text is None:
        return default
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ConfigError(f"schedule: expected 'j0..j1', got '{text}'") from None
    if not 0 < lo <= hi <= 40:
        raise ConfigError(f"schedule: need 0 < j0 <= j1 <= 40, got {lo}..{hi}")
    if kind == "radius":
        return tuple(1.0 - 2.0**-j for j in range(lo, hi + 1))
    return tuple(2.0**-j for j in range(lo, hi + 1))


def _build_spec(args: argparse.Namespace) -> QuadratureSpec:
    try:
        return QuadratureSpec() if args.tol is None else QuadratureSpec(rel_tol=args.tol)
    except ValueError as exc:
        raise ConfigError(f"quadrature: {exc}") from None


def _mean_params(args: argparse.Namespace) -> MeanParams:
    try:
        return MeanParams(args.p, args.q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _radius(args: argparse.Namespace) -> float:
    if args.r is None:
        raise ConfigError("r: this subcommand requires --r")
    if not 0.0 < args.r < 1.0:
        raise ConfigError(f"r: must satisfy 0 < r < 1, got {args.r}")
    return args.r


def _new_report(args: argparse.Namespace, command: str) -> SuiteReport:
    config = {
        "command": command,
        "fn": args.fn,
        "p": args.p,
        "q": args.q,
        "tol": args.tol,
    }
    return SuiteReport(
        timestamp=datetime.now(timezone.utc).isoformat(),
        config={k: v for k, v in config.items() if v is not None},
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and building it formats help for every flag."""
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Weighted circle means of analytic functions: values, "
        "identity checks, ring-limit and growth-rate probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help, fn=True, r=False, r_schedule=False):
        # no abbreviations: `rate --r X` must not read as `--r-schedule X`
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        if fn:
            sp.add_argument("--fn", required=True, help="function description, e.g. poly:0,0,1")
            sp.add_argument("--p", type=float, required=True)
            sp.add_argument("--q", type=float, default=0.0)
        if r:
            sp.add_argument("--r", type=float, default=None)
        if r_schedule:
            sp.add_argument("--r-schedule", default=None, help="j0..j1 for radii 1 - 2^-j")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)
        return sp

    subcommand("mean", "weighted circle mean at radius r", r=True)
    subcommand("deriv", "derivative of the circle mean at radius r", r=True)

    sp = subcommand("identity", "check one or more integral identities", r=True, r_schedule=True)
    sp.add_argument(
        "--check",
        default="growth",
        help="comma-separated identity tags: " + ",".join(IDENTITY_TAGS),
    )

    sp = subcommand("lemma1", "ring-integral limit probe around a point", r=True)
    sp.add_argument("--z0", default="0", help="ring centre (origin or a zero of f)")
    sp.add_argument(
        "--kernel",
        choices=("log-r", "log-unit", "one-minus-abs-sq"),
        default="log-r",
    )
    sp.add_argument("--eps-schedule", default=None, help="j0..j1 for eps = 2^-j")

    subcommand("rate", "growth-rate probe along r -> 1", r_schedule=True)

    sp = subcommand("suite", "run the golden suite", fn=False)
    sp.add_argument("--golden", action="store_true", help="run the curated golden suite")

    return parser


def _execute(args: argparse.Namespace) -> SuiteReport:
    spec = _build_spec(args)
    if args.command == "suite":
        if not args.golden:
            raise ConfigError("suite: only --golden is available")
        return golden_suite(spec)

    f = parse_function(args.fn)
    params = _mean_params(args)
    report = _new_report(args, args.command)

    if args.command in ("mean", "deriv"):
        r = _radius(args)
        integral = circle_mean if args.command == "mean" else circle_mean_deriv
        report.entries.append(
            MeanEntry(args.command, args.fn, params.p, params.q, r, integral(f, params, r, spec))
        )
    elif args.command == "identity":
        tags = [t.strip() for t in args.check.split(",") if t.strip()]
        if not tags:
            raise ConfigError("check: expected at least one identity tag")
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ConfigError(f"check: duplicate identity tag '{tag}'")
        finite_r = any(t != "area-limit" for t in tags)
        if args.r is not None and not finite_r:
            raise ConfigError("r: area-limit reads --r-schedule, not --r")
        if args.r_schedule is not None and "area-limit" not in tags:
            raise ConfigError("r-schedule: only the area-limit check reads it")
        radii = _parse_schedule(args.r_schedule, "radius", DEFAULT_LIMIT_SCHEDULE)
        # every tag's preconditions before any tag's integrals
        for tag in tags:
            validate_identity_check(tag, f, params, radii)
        r = _radius(args) if finite_r else None
        for tag in tags:
            report.entries.append(run_identity_check(tag, f, params, r, spec, radii))
    elif args.command == "lemma1":
        r = _radius(args)
        z0 = parse_complex(args.z0, "z0")
        kernel = kernel_by_name(args.kernel, r)
        eps = _parse_schedule(args.eps_schedule, "eps", DEFAULT_EPS_SCHEDULE)
        report.entries.append(ring_limit_probe(f, params, z0, kernel, r, spec, eps))
    elif args.command == "rate":
        radii = _parse_schedule(args.r_schedule, "radius", DEFAULT_RATE_SCHEDULE)
        report.entries.append(rate_probe(f, params, spec, radii))
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {args.command}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0) and 2
    try:
        report = _execute(args)
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, FunctionParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = write_report(report, args.format, args.out)
    if not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
