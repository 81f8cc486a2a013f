"""Boundary behaviour probes: growth rate of the mean derivative as r -> 1,
classical monotonicity and log-convexity of the unweighted means, and a
numerical membership scan.

Each probe is a verdict over one radial profile: circle means, and for the
rate probe mean derivatives, from one circle batch along its schedule, cut
before the first radius where a mean or derivative did not converge.  A cut
profile never passes: monotonicity and log-convexity fail, the scan is
inconclusive, and each record holds the converged prefix.

The o(1/(1-r)) growth statement is unfalsifiable from finitely many radii,
so the probe tests a finite surrogate: |(1-r) D(r)| must decrease over the
tail of the schedule and end below half its starting value, and the fitted
log-log exponent of |D| must stay below 1 by more than twice its standard
error.  The verdict vocabulary is "consistent-with-theorem", never
"verified".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import MeanParams
from .functions import AnalyticFunction, MembershipHint, MembershipRequiredError, membership_hint
from .parsing import render_function
from .quadrature import QuadratureSpec, circle_integrals

VERDICT_CONSISTENT = "consistent-with-theorem"
VERDICT_INCONSISTENT = "inconsistent"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_RATE_SCHEDULE = tuple(1.0 - 2.0**-j for j in range(2, 11))
DEFAULT_SCAN_SCHEDULE = tuple(1.0 - 2.0**-j for j in range(1, 13))
# 16 radii each: equispaced over [0.08, 0.93], and geometric over [0.12, 0.93]
DEFAULT_MONOTONICITY_GRID = tuple(0.08 + (0.93 - 0.08) * k / 15 for k in range(16))
DEFAULT_GEOMETRIC_GRID = tuple(0.12 * ((0.93 / 0.12) ** (1.0 / 15)) ** k for k in range(16))


@dataclass(frozen=True)
class RateProbeResult:
    fn: str
    p: float
    q: float
    radii: tuple[float, ...]
    d_values: tuple[float, ...]
    products: tuple[float, ...]
    norm_d_values: tuple[float, ...]
    beta: float
    beta_stderr: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_CONSISTENT


def _check_schedule(radii: Sequence[float], least: int, message: str) -> None:
    """Raise ValueError(message), before any integral, unless the schedule
    has at least `least` radii and they strictly increase."""
    if len(radii) < least or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(message)


def _profile(
    f: AnalyticFunction,
    params: MeanParams,
    radii: Sequence[float],
    spec: QuadratureSpec,
    rows: Sequence[str] = ("W",),
) -> tuple[tuple[float, ...], list[list[float]], bool]:
    """Radial profile along a schedule from one circle batch of the rows'
    fields, "W" (means) or "dW/dr" (mean derivatives): (radii, one list of
    values per row, whether it covers the whole schedule), cut before the
    first radius where a row did not converge.  A radius that fails before
    the cut raises its error; one past it is never reached."""
    batch = circle_integrals(f, params, radii, spec, rows)
    kept = list(itertools.takewhile(lambda res: all(x.converged for x in res), batch))
    values = [[res[k].value for res in kept] for k in range(len(rows))]
    return tuple(radii[:len(kept)]), values, len(kept) == len(radii)


def _rate_verdict(
    radii: Sequence[float], d_vals: Sequence[float], products: Sequence[float]
) -> tuple[str, float, float]:
    """Verdict on a rate profile, with the fitted exponent of |D| and its
    standard error."""
    if len(radii) < 4:
        return VERDICT_INCONCLUSIVE, math.nan, math.nan
    mags = [abs(x) for x in products]
    if max(mags) <= 1e-13:
        # derivative identically zero (constants at q = 0): trivially consistent
        return VERDICT_CONSISTENT, 0.0, 0.0
    tail = mags[-4:]
    decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    # |(1-r) D| may pass through an early minimum where D changes sign; the
    # decay requirement applies to the eventually-decreasing suffix
    start = len(mags) - 1
    while start > 0 and mags[start - 1] > mags[start]:
        start -= 1
    halved = mags[-1] < 0.5 * mags[start]
    d_tail = [abs(d) for d in d_vals[-4:]]
    if min(d_tail) <= 0.0:
        return VERDICT_INCONCLUSIVE, math.nan, math.nan
    # least-squares slope of log |D| in log 1/(1-r), and its standard error
    xs, ys = np.log([1.0 / (1.0 - r) for r in radii[-4:]]), np.log(d_tail)
    beta, intercept = np.polyfit(xs, ys, 1)
    sigma2 = float(np.sum((ys - (beta * xs + intercept)) ** 2)) / (len(xs) - 2)
    beta, se = float(beta), math.sqrt(sigma2 / float(np.sum((xs - xs.mean()) ** 2)))
    if decreasing and halved and beta + 2.0 * se < 1.0:
        return VERDICT_CONSISTENT, beta, se
    return VERDICT_INCONSISTENT, beta, se


def rate_probe(
    f: AnalyticFunction,
    params: MeanParams,
    spec: QuadratureSpec,
    radii: tuple[float, ...] = DEFAULT_RATE_SCHEDULE,
) -> RateProbeResult:
    """Sample D(r) = d(mean^p)/dr along the schedule and judge whether
    (1-r) D(r) is consistent with decay."""
    _check_schedule(radii, 1, "rate probe needs at least one radius, strictly increasing")
    if membership_hint(f, params.p, params.q) != MembershipHint.MEMBER:
        raise MembershipRequiredError("rate probe requires membership_hint(f, p, q) = member")
    used_r, (means, d_vals), _ = _profile(f, params, radii, spec, ("W", "dW/dr"))
    products = [(1.0 - r) * d for r, d in zip(used_r, d_vals)]
    verdict, beta, se = _rate_verdict(used_r, d_vals, products)
    return RateProbeResult(
        fn=render_function(f),
        p=params.p,
        q=params.q,
        radii=used_r,
        d_values=tuple(d_vals),
        products=tuple(products),
        norm_d_values=tuple(
            d / params.p * m ** (1.0 / params.p - 1.0) if m > 0 else math.nan
            for d, m in zip(d_vals, means)
        ),
        beta=beta,
        beta_stderr=se,
        verdict=verdict,
    )


# --------------------------------------------------------------------------
# classical sanity checks (q = 0)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityResult:
    fn: str
    p: float
    radii: tuple[float, ...]
    values: tuple[float, ...]
    max_violation: float
    passed: bool


@dataclass(frozen=True)
class LogConvexityResult:
    fn: str
    p: float
    radii: tuple[float, ...]
    values: tuple[float, ...]
    min_second_difference: float
    passed: bool


def monotonicity_check(
    f: AnalyticFunction,
    p: float,
    spec: QuadratureSpec,
    radii: tuple[float, ...] = DEFAULT_MONOTONICITY_GRID,
) -> MonotonicityResult:
    """Unweighted means must be nondecreasing in r (slack 1e-10)."""
    _check_schedule(radii, 16, "monotonicity grid needs at least 16 radii, strictly increasing")
    used, (means,), whole = _profile(f, MeanParams(p, 0.0), radii, spec)
    vals = tuple(m ** (1.0 / p) for m in means)
    worst = max([0.0] + [a - b for a, b in zip(vals, vals[1:])])
    return MonotonicityResult(
        fn=render_function(f),
        p=float(p),
        radii=used,
        values=vals,
        max_violation=float(worst),
        passed=whole and worst <= 1e-10 * max([1.0, *vals]),
    )


def logconvexity_check(
    f: AnalyticFunction,
    p: float,
    spec: QuadratureSpec,
    radii: tuple[float, ...] = DEFAULT_GEOMETRIC_GRID,
) -> LogConvexityResult:
    """log of the unweighted mean must be convex in log r: discrete second
    differences on a geometric grid stay above -1e-8."""
    _check_schedule(radii, 3, "log-convexity grid needs at least 3 radii, strictly increasing")
    used, (means,), whole = _profile(f, MeanParams(p, 0.0), radii, spec)
    vals = tuple(m ** (1.0 / p) for m in means)
    if min(vals, default=1.0) <= 0.0:
        raise ValueError("log-convexity check needs strictly positive means on the grid")
    logs = [math.log(v) for v in vals]
    second = [logs[i + 1] - 2.0 * logs[i] + logs[i - 1] for i in range(1, len(logs) - 1)]
    worst = min(second, default=math.nan)
    return LogConvexityResult(
        fn=render_function(f),
        p=float(p),
        radii=used,
        values=vals,
        min_second_difference=float(worst),
        passed=whole and worst >= -1e-8,
    )


# --------------------------------------------------------------------------
# membership scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipScanResult:
    fn: str
    p: float
    q: float
    radii: tuple[float, ...]
    values: tuple[float, ...]
    classification: str
    sup_estimate: float
    passed = None  # informational: a scan neither passes nor fails


def membership_scan(
    f: AnalyticFunction,
    params: MeanParams,
    spec: QuadratureSpec,
    radii: tuple[float, ...] = DEFAULT_SCAN_SCHEDULE,
) -> MembershipScanResult:
    """Observe the weighted means along the schedule and classify the tail.

    Diverging: the last mean exceeds 10x the first.  Bounded: the running
    supremum moved by less than 1e-3 relative over the last step (covers
    means that decrease toward the boundary, where the sup is interior).
    Inconclusive otherwise, and whenever a mean did not converge.
    """
    _check_schedule(radii, 2, "membership scan needs at least two radii, strictly increasing")
    used, (means,), whole = _profile(f, params, radii, spec)
    vals = tuple(m ** (1.0 / params.p) for m in means)
    sups = np.maximum.accumulate(vals or (math.nan,))
    if whole and vals[-1] > 10.0 * max(vals[0], 1e-300):
        cls = "diverging"
    elif whole and abs(sups[-1] - sups[-2]) <= 1e-3 * max(sups[-1], 1e-300):
        cls = "bounded"
    else:
        cls = "inconclusive"
    return MembershipScanResult(
        fn=render_function(f),
        p=params.p,
        q=params.q,
        radii=used,
        values=vals,
        classification=cls,
        sup_estimate=float(sups[-1]),
    )
