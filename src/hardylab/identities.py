"""Left/right assembly and residual reporting for the Green-type identities.

Every checker builds both sides of one identity from independent quadrature
routes and reports the residual next to a combined error budget; the pass
criterion is budget-dominated, so an honest coarse mesh cannot produce a
false failure.  Finite-r identities are the primary surface; the r -> 1
limit form is probed by Richardson extrapolation along r = 1 - 2^-j with an
empirically fitted order.  Its area side integrates each piece of the disk
once: the disk of the first radius, then the annulus between each pair of
consecutive radii, one mesh per piece carrying both G (1-|z|^2) and W, all
from one disk_integrals call.  The extrapolated sequence is the running sum
of the pieces, so its differences are the annulus integrals themselves.

The five finite-r checks at one (f, p, q, r) share one memoised bundle,
`evaluate_radius`: one usable radius, the circle mean of W and its
derivative from one circle of W and dW/dr rows, the area integrals of G
under the four radial kernels and of W, all from one disk mesh, and
|f(0)|^p.  Each identity is a row of FINITE_ROWS, algebra over that bundle,
run by _finite_check; the integrals a row reads decide the record's converged
flag.  The circle side and the disk side of the bundle stay independent
routes, so sharing them does not make the two sides of an identity agree by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fields import MeanParams
from .functions import (
    AnalyticFunction,
    CircleProximityError,
    MembershipHint,
    MembershipRequiredError,
    _unit_disk_zeros,
    eval_at,
    membership_hint,
    nearest_zero,
    zeros_in_disk,
)
from .parsing import render_function
from .quadrature import (
    KERNEL_LOG_ONE_OVER_ABS,
    KERNEL_ONE,
    KERNEL_ONE_MINUS_ABS_SQ,
    IntegralResult,
    Kernel,
    TWO_PI,
    QuadratureError,
    QuadratureSpec,
    circle_integrals,
    disk_integrals,
    kernel_log_r_over_abs,
    ring_integrals,
)

IDENTITY_TAGS = (
    "growth",
    "log-r",
    "log-unit",
    "weighted-area",
    "area-limit",
    "hardy-stein",
)

DEFAULT_R_SCHEDULE = tuple(1.0 - 2.0**-j for j in range(1, 11))

# radius bundles kept by evaluate_radius; in the golden suite's order every
# revisit of a point (its later Hardy-Stein check) hits with 8 of them
BUNDLE_CACHE_SIZE = 32


@dataclass(frozen=True)
class IdentityReport:
    tag: str
    fn: str
    p: float
    q: float
    r: float
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    budget: float
    tolerance: float
    converged: bool
    passed: bool
    info: dict = field(default_factory=dict)


def usable_radius(f: AnalyticFunction, r: float, p: float) -> float:
    """Perturb r upward by 1e-6 while a zero sits on a guard ring.

    Covers both the zero-enumeration guard (1e-8) and, when p < 1, the wider
    ring the mean-derivative integrand needs (1e-6)."""
    for _ in range(8):
        clear = True
        try:
            zeros_in_disk(f, r)
        except CircleProximityError:
            clear = False
        if clear and p < 1.0:
            clear = all(
                abs(abs(z.location) - r) >= 1.1e-6 for z in _unit_disk_zeros(f)
            )
        if clear:
            return r
        r = min(r + 1e-6, 1.0 - 1e-9)
    raise CircleProximityError(f"could not find a usable radius near {r}")


def _report(
    tag: str, f: AnalyticFunction, params: MeanParams, r: float, lhs: float, rhs: float,
    budget: float, spec: QuadratureSpec, converged: bool, info: dict | None = None,
) -> IdentityReport:
    abs_res = abs(lhs - rhs)
    rel_res = abs_res / max(1.0, abs(lhs))
    passed = converged and abs_res <= max(budget, spec.rel_tol * max(1.0, abs(lhs)))
    return IdentityReport(
        tag=tag,
        fn=render_function(f),
        p=params.p,
        q=params.q,
        r=r,
        lhs=float(lhs),
        rhs=float(rhs),
        abs_residual=float(abs_res),
        rel_residual=float(rel_res),
        budget=float(budget),
        tolerance=spec.rel_tol,
        converged=bool(converged),
        passed=bool(passed),
        info=info or {},
    )


@dataclass(frozen=True)
class RadiusBundle:
    """The circle-side and disk-side integrals the finite-r checks share at
    one usable radius r: |f(0)|^p, the circle mean of W, its r-derivative,
    the area integrals of G under the four radial kernels, and the area
    integral of W."""

    r: float
    f0p: float
    mean: IntegralResult
    deriv: IntegralResult
    g_one: IntegralResult
    g_log_r: IntegralResult
    g_log_unit: IntegralResult
    g_one_minus_abs_sq: IntegralResult
    w_one: IntegralResult


@lru_cache(maxsize=BUNDLE_CACHE_SIZE)
def evaluate_radius(
    f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> RadiusBundle:
    """Integrals of the finite-r checks at (f, params, r), from one disk mesh
    and one circle.

    Memoised, so the checks at one point share a single evaluation."""
    r = usable_radius(f, r, params.p)
    kernels = (KERNEL_ONE, kernel_log_r_over_abs(r), KERNEL_LOG_ONE_OVER_ABS,
               KERNEL_ONE_MINUS_ABS_SQ)
    (disk,) = disk_integrals(f, params, (r,), kernels, (KERNEL_ONE,), spec)
    circle = next(circle_integrals(f, params, (r,), spec, ("W", "dW/dr")))
    # the fields in row order: the circle's W and dW/dr, then the disk's rows
    return RadiusBundle(r, abs(eval_at(f, 0.0)) ** params.p, *circle, *disk)


def _growth(b: RadiusBundle) -> tuple:
    """2 pi r * d(mean)/dr against the plain area integral of G over D_r."""
    d, g = b.deriv, b.g_one
    lhs = TWO_PI * b.r * d.value
    return lhs, g.value, TWO_PI * b.r * d.error_estimate + g.error_estimate, (d, g)


def _log_r(b: RadiusBundle) -> tuple:
    """Circle integral of W minus 2 pi |f(0)|^p against the log(r/|z|)-kernel
    area integral of G over D_r."""
    cm, g = b.mean, b.g_log_r
    lhs = TWO_PI * cm.value - TWO_PI * b.f0p
    return lhs, g.value, TWO_PI * cm.error_estimate + g.error_estimate, (cm, g)


def _log_unit(b: RadiusBundle) -> tuple:
    """Three-term boundary expression against the log(1/|z|)-kernel area
    integral of G over D_r."""
    r, cm, d, g = b.r, b.mean, b.deriv, b.g_log_unit
    lhs = TWO_PI * cm.value - TWO_PI * r * math.log(r) * d.value - TWO_PI * b.f0p
    budget = (
        TWO_PI * cm.error_estimate
        + TWO_PI * r * abs(math.log(r)) * d.error_estimate
        + g.error_estimate
    )
    return lhs, g.value, budget, (cm, d, g)


def _weighted_area(b: RadiusBundle) -> tuple:
    """(1-|z|^2)-kernel area integral of G plus 4x the area integral of W
    against the boundary flux r * int[(1-r^2) dW/dr + 2 r W] d theta."""
    r, cm, d, g, w = b.r, b.mean, b.deriv, b.g_one_minus_abs_sq, b.w_one
    lhs = g.value + 4.0 * w.value
    rhs = TWO_PI * r * ((1.0 - r * r) * d.value + 2.0 * r * cm.value)
    budget = (
        g.error_estimate
        + 4.0 * w.error_estimate
        + TWO_PI * r * (1.0 - r * r) * d.error_estimate
        + TWO_PI * 2.0 * r * r * cm.error_estimate
    )
    return lhs, rhs, budget, (g, w, cm, d)


def _hardy_stein(b: RadiusBundle) -> tuple:
    """Unweighted circle mean against |f(0)|^p plus the normalised
    log(r/|z|)-kernel area integral of |f|^{p-2}|f'|^2 (the q = 0 case of the
    log-r identity divided by 2 pi)."""
    cm, g, f0p = b.mean, b.g_log_r, b.f0p
    return cm.value, f0p + g.value / TWO_PI, cm.error_estimate + g.error_estimate / TWO_PI, (cm, g)


# one row per finite-r identity: from the bundle it returns
# (lhs, rhs, budget, the integrals it reads), and those integrals' flags are
# the record's converged flag
FINITE_ROWS = {"growth": _growth, "log-r": _log_r, "log-unit": _log_unit,
               "weighted-area": _weighted_area, "hardy-stein": _hardy_stein}


def _finite_check(
    tag: str, f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> IdentityReport:
    b = evaluate_radius(f, params, r, spec)
    lhs, rhs, budget, reads = FINITE_ROWS[tag](b)
    converged = all(res.converged for res in reads)
    return _report(tag, f, params, b.r, lhs, rhs, budget, spec, converged)


def check_growth_identity(
    f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> IdentityReport:
    return _finite_check("growth", f, params, r, spec)


def check_log_r_identity(
    f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> IdentityReport:
    return _finite_check("log-r", f, params, r, spec)


def check_log_unit_identity(
    f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> IdentityReport:
    return _finite_check("log-unit", f, params, r, spec)


def check_weighted_area_identity(
    f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> IdentityReport:
    return _finite_check("weighted-area", f, params, r, spec)


def check_hardy_stein(
    f: AnalyticFunction, p: float, r: float, spec: QuadratureSpec
) -> IdentityReport:
    return _finite_check("hardy-stein", f, MeanParams(p, 0.0), r, spec)


# --------------------------------------------------------------------------
# r -> 1 extrapolation
# --------------------------------------------------------------------------

def _richardson(values: list[float]) -> tuple[float, float, float]:
    """Extrapolated limit of a sequence on a step-halving schedule.

    One fitted-order elimination on the last three points (the order is
    fitted, never assumed), then a second elimination at the next fitted
    order using the trailing pair of extrapolants; the size of that final
    correction is the reported spread.  Returns (limit, fitted order, spread).
    """

    def one(v3: list[float]) -> tuple[float, float]:
        d1 = v3[1] - v3[0]
        d2 = v3[2] - v3[1]
        if d2 == 0.0:
            return v3[2], math.inf
        ratio = d1 / d2
        if ratio <= 1.0:
            # not yet in the asymptotic regime: fall back to the last value
            return v3[2], float("nan")
        order = math.log2(ratio)
        return v3[2] + d2 / (ratio - 1.0), order

    lim, order = one(values[-3:])
    if len(values) < 4:
        return lim, order, abs(values[-1] - lim)
    lim_prev, _ = one(values[-4:-1])
    spread = max(abs(lim - lim_prev), 1e-3 * abs(values[-1] - lim))
    # the second elimination presumes a clean h^beta + h^{beta+1} expansion;
    # slowly-converging sequences (small fitted order) violate it and the
    # step would amplify noise, so it only applies when the order is strong
    # and the correction is no larger than the first-stage one
    if math.isfinite(order) and order >= 0.8 and lim != lim_prev:
        ratio2 = 2.0 ** (order + 1.0)
        correction = (lim - lim_prev) / (ratio2 - 1.0)
        if abs(correction) <= abs(lim - values[-1]):
            refined = lim + correction
            spread = max(abs(refined - lim), 1e-3 * abs(values[-1] - refined))
            lim = refined
    return lim, order, spread


def _area_limit_radii(
    f: AnalyticFunction, params: MeanParams, radii: tuple[float, ...]
) -> list[float]:
    """The radii area-limit integrates to, after usable_radius has moved
    them; raises ValueError unless there are at least three, strictly
    increasing inside (0, 1), and f may belong to the space."""
    if len(radii) < 3:
        raise ValueError(
            f"area-limit check needs at least 3 radii to extrapolate, got {len(radii)}"
        )
    if not all(0.0 < r < 1.0 for r in radii):
        raise ValueError(f"area-limit radii must lie in (0, 1), got {radii}")
    if membership_hint(f, params.p, params.q) == MembershipHint.NON_MEMBER:
        raise MembershipRequiredError(
            "area-limit check requires membership_hint != non-member"
        )
    used = [usable_radius(f, r, params.p) for r in radii]
    if any(b <= a for a, b in zip(used, used[1:])):
        raise ValueError(
            f"area-limit radii must be strictly increasing, got {tuple(used)}"
        )
    return used


def check_area_limit_identity(
    f: AnalyticFunction,
    params: MeanParams,
    spec: QuadratureSpec,
    radii: tuple[float, ...] = DEFAULT_R_SCHEDULE,
) -> IdentityReport:
    """r -> 1 limit form: twice the circle integral of W against the
    (1-|z|^2)-kernel G integral plus 4x the W integral, both extrapolated
    along the radius schedule, which needs at least three radii, strictly
    increasing inside (0, 1) after usable_radius has moved them.

    The area side is integrated piece by piece: the disk of the first radius,
    then each annulus between consecutive radii, so no part of the disk is
    integrated twice and the differences Richardson works on are exactly the
    annulus integrals.  Each piece is one mesh of G and W, all from one
    disk_integrals call, which stops before a failing circle's radius and
    raises its error.  The rhs sequence is the running sum of the pieces,
    and its error the sum of every piece's error so far.  The record carries
    the last radius integrated."""
    used = _area_limit_radii(f, params, radii)
    circles, error = [], None
    try:
        for (cm,) in circle_integrals(f, params, used, spec):
            circles.append(cm)
    except (ValueError, QuadratureError) as exc:  # raised after the pieces before it
        error = exc
    pieces = disk_integrals(
        f, params, used[:len(circles)], (KERNEL_ONE_MINUS_ABS_SQ,), (KERNEL_ONE,), spec
    ) if circles else []
    if error is not None:
        raise error
    lhs_vals, rhs_vals, converged = [], [], True
    area = area_err = 0.0
    for r, cm, (g, w) in zip(used, circles, pieces):
        area += g.value + 4.0 * w.value
        area_err += g.error_estimate + 4.0 * w.error_estimate
        lhs_vals.append(2.0 * TWO_PI * cm.value)
        rhs_vals.append(area)
        converged = converged and cm.converged and g.converged and w.converged
    lhs, lhs_order, lhs_spread = _richardson(lhs_vals)
    rhs, rhs_order, rhs_spread = _richardson(rhs_vals)
    budget = 2.0 * TWO_PI * cm.error_estimate + area_err + lhs_spread + rhs_spread
    return _report(
        "area-limit", f, params, r, lhs, rhs, budget, spec, converged,
        info={
            "lhs_order": float(lhs_order),
            "rhs_order": float(rhs_order),
            "lhs_spread": float(lhs_spread),
            "rhs_spread": float(rhs_spread),
        },
    )


def run_identity_check(
    tag: str,
    f: AnalyticFunction,
    params: MeanParams,
    r: float,
    spec: QuadratureSpec,
    radii: tuple[float, ...] = DEFAULT_R_SCHEDULE,
) -> IdentityReport:
    validate_identity_check(tag, f, params, radii)
    if tag == "area-limit":
        return check_area_limit_identity(f, params, spec, radii)
    return _finite_check(tag, f, params, r, spec)


def validate_identity_check(
    tag: str,
    f: AnalyticFunction,
    params: MeanParams,
    radii: tuple[float, ...] = DEFAULT_R_SCHEDULE,
) -> None:
    """Raise the ValueError that run_identity_check would raise on these
    inputs, before any integral is computed."""
    if tag not in IDENTITY_TAGS:
        raise ValueError(
            f"unknown identity tag '{tag}' (expected one of {', '.join(IDENTITY_TAGS)})"
        )
    if tag == "hardy-stein" and params.q != 0:
        raise ValueError(f"hardy-stein: needs q = 0, got q = {params.q}")
    if tag == "area-limit":
        _area_limit_radii(f, params, radii)


# --------------------------------------------------------------------------
# ring-limit probe
# --------------------------------------------------------------------------

DEFAULT_EPS_SCHEDULE = tuple(2.0**-j for j in range(4, 15))


@dataclass(frozen=True)
class RingLimitReport:
    fn: str
    p: float
    q: float
    z0: complex
    kernel: str
    r: float
    eps: tuple[float, ...]
    values: tuple[float, ...]
    target: float
    residuals: tuple[float, ...]
    slope: float
    passed: bool


def ring_limit_probe(
    f: AnalyticFunction,
    params: MeanParams,
    z0: complex,
    kernel: Kernel,
    r: float,
    spec: QuadratureSpec,
    eps_schedule: tuple[float, ...] = DEFAULT_EPS_SCHEDULE,
) -> RingLimitReport:
    """Ring integrals on a shrinking epsilon schedule around z0.

    z0 must be the origin or a zero of f.  The limit target is
    2 pi |f(0)|^p at the origin under a log kernel (whose -W dK/dn term
    carries that point mass) and 0 otherwise: at an off-origin zero, and at
    the origin under the smooth kernel 1 - |z|^2.  The measured log-log
    decay slope of the residual is reported alongside.  The probe
    passes when the residual halves over the schedule with a positive
    slope, or when every residual already sits within rel_tol of the target
    (exact ring values, as for a constant at q = 0).
    """
    if not eps_schedule:
        raise ValueError("ring-limit probe needs at least one eps")
    z0 = complex(z0)
    if z0 != 0:
        dist, _ = nearest_zero(f, z0)
        if dist > 1e-8:
            raise ValueError(f"z0 = {z0} is neither the origin nor a zero of f")
    eps = tuple(sorted(eps_schedule, reverse=True))
    values = tuple(ring_integrals(f, params, z0, eps, kernel, r, spec))
    if z0 == 0 and kernel.singular_at_origin:
        target = TWO_PI * abs(eval_at(f, 0.0)) ** params.p
    else:
        target = 0.0
    residuals = tuple(abs(v - target) for v in values)
    floor = 1e-13 * max(max(residuals), 1e-300)
    pts = [(math.log(e), math.log(res)) for e, res in zip(eps, residuals) if res > floor]
    if len(pts) >= 2:
        xs, ys = np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = math.inf  # residuals at the noise floor everywhere
    exact = max(residuals) <= spec.rel_tol * max(1.0, abs(target))
    decaying = residuals[-1] < 0.5 * residuals[0] and (slope > 0.05 or slope == math.inf)
    return RingLimitReport(
        fn=render_function(f),
        p=params.p,
        q=params.q,
        z0=z0,
        kernel=kernel.name,
        r=float(r),
        eps=eps,
        values=values,
        target=float(target),
        residuals=residuals,
        slope=slope,
        passed=bool(exact or decaying),
    )
