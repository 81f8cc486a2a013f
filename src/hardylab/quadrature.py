"""Singularity-aware quadrature on circles, rings, and disks.

Circle integrals use the equispaced periodic rule with node doubling (it
converges geometrically for integrands analytic in a strip around the real
angle, and node reuse makes doubling cheap).  Disk integrals use a polar
product mesh: radial cells with Gauss-Legendre nodes, each circle of nodes
integrated by the same adaptive periodic rule.

Radial cells are graded geometrically

  * toward the origin for logarithmic kernels,
  * toward the modulus of every zero of f whose local mass exponent makes the
    integrand non-smooth there (G scales like |z-z0|^{kp-2} at a zero of
    order k, which is 2D-integrable but pointwise unbounded when kp < 2),
  * toward the outer rim when the weight (1-|z|^2)^q, or a zero, pole or
    boundary singularity of f, lives just outside the domain.

Disk cells have one angular rule for every feature whose angle is known in
closed form: off-origin zeros with kp < 2 (for G), and zeros, poles and the
binomial singularity on or outside the rim.  A radial cell that passes
within 0.2 |w| of such a feature w splits its circles at the features'
angles and grades each arc geometrically toward its ends, down to the
angular scale dist/|w|; this converges exponentially where the uniform rule
would need O(s/dist) nodes.  The graded pieces are cut in two, four, ...
until they change by at most the cell tolerance in sum, so the arc rule
estimates its own error as the periodic rule does.  Each pass gathers the
Gauss nodes of all its arcs into one angle array and makes a single field
call, so its cost is per point, not per arc.  Every other cell uses the
periodic rule.
Only circle means start from node floors coeff * s / dist(feature).

Within a cell, node contributions are combined by compensated summation and
cells are combined with a fixed binary reduction tree, so results are
bit-identical between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .accum import kahan_sum, tree_sum
from .fields import (
    GUARD_RADIUS,
    MeanParams,
    g_values,
    grad_w_values,
    radial_deriv_w_values,
    w_values,
)
from .functions import AnalyticFunction, Zero, feature_moduli, zeros_in_disk

TWO_PI = 2.0 * math.pi

# fixed mesh policy: angular doubling cap, uniform radial cells, Gauss nodes
# per radial cell (and per angular arc), disk refinement levels
N_THETA_MAX = 1 << 20
N_RADIAL_BASE = 8
N_GAUSS = 10
MAX_LEVELS = 5


class QuadratureError(RuntimeError):
    """Mesh construction or refinement failed."""


class GeometryError(ValueError):
    """Requested contour leaves the admissible domain."""


class RadiusNearZeroError(ValueError):
    """A zero of f lies too close to the integration circle; perturb r."""


def _next_pow2(n: float) -> int:
    return 1 << max(0, int(math.ceil(n)) - 1).bit_length()


@dataclass(frozen=True)
class QuadratureSpec:
    """Mesh and tolerance policy for circle, ring, and disk integrals.

    Singular radii (zero locations, the origin under log kernels, rim
    proximity) are derived from the integrand automatically.
    """

    rel_tol: float = 1e-7
    n_theta_init: int = 32
    max_grade_depth: int = 40

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("tolerance must be positive")
        if self.n_theta_init < 16 or self.n_theta_init & (self.n_theta_init - 1):
            raise ValueError("n_theta_init must be a power of two >= 16")
        if not 1 <= self.max_grade_depth <= 40:
            raise ValueError("grading depth must lie in [1, 40]")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    nodes: int
    levels: int
    converged: bool


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """Radial kernel K(|z|); grad K = K'(s) * (x, y)/s."""

    name: str
    singular_at_origin: bool = False

    def radial(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def radial_deriv(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class _LogROverAbs(Kernel):
    r: float = 1.0

    def radial(self, s):
        return np.log(self.r / s)

    def radial_deriv(self, s):
        return -1.0 / s


@dataclass(frozen=True)
class _LogOneOverAbs(Kernel):
    def radial(self, s):
        return -np.log(s)

    def radial_deriv(self, s):
        return -1.0 / s


@dataclass(frozen=True)
class _One(Kernel):
    def radial(self, s):
        return np.ones_like(s)

    def radial_deriv(self, s):
        return np.zeros_like(s)


@dataclass(frozen=True)
class _OneMinusAbsSq(Kernel):
    def radial(self, s):
        return 1.0 - s * s

    def radial_deriv(self, s):
        return -2.0 * s


KERNEL_ONE = _One("one")
KERNEL_ONE_MINUS_ABS_SQ = _OneMinusAbsSq("one-minus-abs-sq")
KERNEL_LOG_ONE_OVER_ABS = _LogOneOverAbs("log-unit", singular_at_origin=True)


def kernel_log_r_over_abs(r: float) -> Kernel:
    return _LogROverAbs("log-r", singular_at_origin=True, r=float(r))


def kernel_by_name(name: str, r: float) -> Kernel:
    table = {
        "one": lambda: KERNEL_ONE,
        "one-minus-abs-sq": lambda: KERNEL_ONE_MINUS_ABS_SQ,
        "log-unit": lambda: KERNEL_LOG_ONE_OVER_ABS,
        "log-r": lambda: kernel_log_r_over_abs(r),
    }
    if name not in table:
        raise ValueError(f"unknown kernel '{name}'")
    return table[name]()


# --------------------------------------------------------------------------
# periodic rule with doubling
# --------------------------------------------------------------------------

def _circle_quad(
    fn: Callable[[np.ndarray], np.ndarray],
    n0: int,
    rel_tol: float,
    abs_tol: float,
    ref_floor: float = 1.0,
) -> tuple[float, float, int, int, bool]:
    """Integral of fn over [0, 2pi) by the equispaced rule with doubling.

    Stops when the doubling increment drops below
    max(abs_tol, rel_tol * max(ref_floor, |value|, 1e-6 * L1)); the L1 term
    keeps the criterion meaningful for signed integrands with cancellation.
    Returns (value, last increment, nodes used, doublings, converged).
    """
    n = n0
    theta = TWO_PI * np.arange(n) / n
    vals = np.asarray(fn(theta), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("non-finite integrand value on circle")
    total = (TWO_PI / n) * float(np.sum(vals))
    l1 = (TWO_PI / n) * float(np.sum(np.abs(vals)))
    nodes = n
    doublings = 0
    while True:
        mid = TWO_PI * (np.arange(n) + 0.5) / n
        vals = np.asarray(fn(mid), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite integrand value on circle")
        new_total = 0.5 * total + (math.pi / n) * float(np.sum(vals))
        l1 = 0.5 * l1 + (math.pi / n) * float(np.sum(np.abs(vals)))
        delta = abs(new_total - total)
        total = new_total
        nodes += n
        n *= 2
        doublings += 1
        if delta <= max(abs_tol, rel_tol * max(ref_floor, abs(total), 1e-6 * l1)):
            return total, delta, nodes, doublings, True
        if n >= N_THETA_MAX:
            return total, delta, nodes, doublings, False


def _circle_floor(s: float, features: Sequence[tuple[float, float, float]], n_init: int) -> int:
    demand = float(n_init)
    for mod, coeff, _angle in features:
        d = max(abs(s - mod), 1e-6)
        demand = max(demand, coeff * s / d)
    return min(1 << 18, _next_pow2(demand))


# --------------------------------------------------------------------------
# circle means
# --------------------------------------------------------------------------

def _check_radius(r: float) -> float:
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must satisfy 0 < r < 1, got {r}")
    return r


def _circle_mean(
    field: Callable[[AnalyticFunction, MeanParams, np.ndarray], np.ndarray],
    f: AnalyticFunction,
    params: MeanParams,
    r: float,
    spec: QuadratureSpec,
) -> IntegralResult:
    """(1/2pi) * integral of field(r e^{i theta}) d theta."""

    def fn(theta):
        return field(f, params, r * np.exp(1j * theta))

    n0 = _circle_floor(r, feature_moduli(f), spec.n_theta_init)
    total, delta, nodes, doublings, conv = _circle_quad(fn, n0, 0.5 * spec.rel_tol, 0.0)
    return IntegralResult(total / TWO_PI, delta / TWO_PI, nodes, doublings, conv)


def circle_mean(
    f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> IntegralResult:
    """(1/2pi) * integral of W(r e^{i theta}) d theta."""
    return _circle_mean(w_values, f, params, _check_radius(r), spec)


def circle_mean_deriv(
    f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> IntegralResult:
    """d/dr of the circle mean, by differentiating under the integral."""
    r = _check_radius(r)
    if params.p < 1.0:
        for zero in zeros_in_disk(f, min(1.0 - 1e-12, r + 0.5 * (1 - r))):
            if abs(abs(zero.location) - r) < 1e-6:
                raise RadiusNearZeroError(
                    f"zero at {zero.location} within 1e-6 of |z| = {r} with p < 1"
                )
    return _circle_mean(radial_deriv_w_values, f, params, r, spec)


# --------------------------------------------------------------------------
# radial meshes
# --------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _grade_policy(mass_exp: float, tol: float, max_depth: int, log_bump: bool) -> tuple[float, int]:
    """Geometric ratio and depth so the truncated mass (ratio^depth)^mass_exp
    drops well below tol (the extra margin absorbs log factors and the
    Gauss rule's O(1) error share on the innermost cell)."""
    target = max(1e-4 * tol, 1e-18)
    m = max(mass_exp, 0.3)
    depth = int(math.ceil(math.log(target) / (m * math.log(0.5)))) + (1 if log_bump else 0)
    if depth <= max_depth:
        return 0.5, max(depth, 2)
    ratio = target ** (1.0 / (max_depth * m))
    return min(0.5, max(0.05, ratio)), max_depth


def _radial_partition(
    lo: float,
    hi: float,
    sings: Sequence[tuple[float, float, bool]],
    end_scales: tuple[float | None, float | None],
    spec: QuadratureSpec,
    level: int,
) -> list[tuple[float, float]]:
    """Breakpoints of [lo, hi]: uniform base cells, geometric ladders toward
    each singular radius, geometric approach to an endpoint whose nearest
    singularity sits just outside.  `level` splits every cell 2^level-fold."""
    pts = {lo, hi}
    for k in range(1, N_RADIAL_BASE):
        pts.add(lo + (hi - lo) * k / N_RADIAL_BASE)
    for s0, mass_exp, log_bump in sings:
        if not lo <= s0 <= hi:
            continue
        pts.add(s0)
        ratio, depth = _grade_policy(mass_exp, spec.rel_tol, spec.max_grade_depth, log_bump)
        for sign, span in ((1.0, hi - s0), (-1.0, s0 - lo)):
            if span <= 1e-14:
                continue
            for k in range(1, depth + 1):
                pts.add(s0 + sign * span * ratio**k)
    for end, scale, inward in ((lo, end_scales[0], 1.0), (hi, end_scales[1], -1.0)):
        if scale is None:
            continue
        span = hi - lo
        k = 1
        while span * 0.5**k > 0.6 * scale and k <= spec.max_grade_depth:
            pts.add(end + inward * span * 0.5**k)
            k += 1
    ordered = sorted(x for x in pts if lo <= x <= hi)
    merged = [ordered[0]]
    for x in ordered[1:]:
        # relative dedupe: geometric ladders toward the origin reach ~1e-22,
        # so an absolute gap would truncate them and strand singular mass
        if x - merged[-1] > 1e-14 * max(abs(x), 1e-300):
            merged.append(x)
    if merged[-1] != hi:
        merged.append(hi)
    cells = []
    splits = 1 << level
    for a, b in zip(merged[:-1], merged[1:]):
        if not b > a:
            continue
        step = (b - a) / splits
        for j in range(splits):
            cells.append((a + j * step, a + (j + 1) * step))
    return cells


# --------------------------------------------------------------------------
# disk integration
# --------------------------------------------------------------------------

class _CellCollision(Exception):
    pass


def _cell_theta(
    gfun: Callable[[np.ndarray], np.ndarray],
    s_nodes: np.ndarray,
    weights: np.ndarray,
    n0: int,
    tol_abs: float,
) -> tuple[float, float, int, bool]:
    """Cell value sum_i weights_i * (theta-integral of g on circle s_i)."""
    n = n0
    theta = TWO_PI * np.arange(n) / n
    mat = np.asarray(gfun(s_nodes[:, None] * np.exp(1j * theta)[None, :]), dtype=float)
    if not np.all(np.isfinite(mat)):
        raise _CellCollision
    h = (TWO_PI / n) * mat.sum(axis=1)
    value = kahan_sum(weights * h)
    nodes = mat.size
    while True:
        mid = TWO_PI * (np.arange(n) + 0.5) / n
        mat = np.asarray(gfun(s_nodes[:, None] * np.exp(1j * mid)[None, :]), dtype=float)
        if not np.all(np.isfinite(mat)):
            raise _CellCollision
        h = 0.5 * h + (math.pi / n) * mat.sum(axis=1)
        new_value = kahan_sum(weights * h)
        delta = abs(new_value - value)
        value = new_value
        nodes += mat.size
        n *= 2
        if delta <= tol_abs:
            return value, delta, nodes, True
        if n >= N_THETA_MAX:
            return value, delta, nodes, False


def _graded_segment(a: float, b: float, scale_a: float, scale_b: float) -> list[float]:
    """Breakpoints of [a, b] geometric toward both ends, down to the given scales."""
    span = b - a
    pts = {a, b}
    for k in range(1, 64):
        frac = span * 0.5**k
        if frac <= 0.6 * max(scale_a, 1e-18 * span):
            break
        pts.add(a + frac)
    for k in range(1, 64):
        frac = span * 0.5**k
        if frac <= 0.6 * max(scale_b, 1e-18 * span):
            break
        pts.add(b - frac)
    return sorted(pts)


def _cell_theta_banded(
    gfun: Callable[[np.ndarray], np.ndarray],
    s_nodes: np.ndarray,
    weights: np.ndarray,
    angle_scales: Sequence[tuple[float, float]],
    splits: int,
    tol_abs: float,
) -> tuple[float, float, int, bool]:
    """Cell value for a radial cell that passes close to angular features.

    The circle is split into arcs between the features' angles and each arc
    is integrated by composite Gauss-Legendre graded geometrically toward its
    endpoints, down to each feature's angular scale; this converges
    exponentially where the uniform periodic rule would need O(s/d) nodes.
    Every graded piece is cut into `splits` equal parts, and the cuts double
    until the pieces' values change by at most tol_abs in sum.
    """
    glx, glw = _gauss_rule(N_GAUSS)
    angles = sorted((a % TWO_PI, sc) for a, sc in angle_scales)
    edges: list[float] = []
    for j, (a_j, sc_j) in enumerate(angles):
        b_j, sc_b = angles[j + 1] if j + 1 < len(angles) else (angles[0][0] + TWO_PI, angles[0][1])
        edges += _graded_segment(a_j, b_j, sc_j, sc_b)[int(j > 0):]
    lo_t, width = np.array(edges[:-1]), np.diff(edges)

    def rule(k: int) -> tuple[np.ndarray, int]:
        half = np.repeat(0.5 * width / k, k)
        mids = (lo_t[:, None] + width[:, None] * ((np.arange(k) + 0.5) / k)[None, :]).ravel()
        th = mids[:, None] + half[:, None] * glx[None, :]
        mat = np.asarray(gfun(s_nodes[:, None] * np.exp(1j * th.ravel())[None, :]), dtype=float)
        if not np.all(np.isfinite(mat)):
            raise _CellCollision
        # (n_s, n_arcs, n_gauss) @ glw gives each arc's Gauss sum per radial
        # node; the k cuts of each graded piece are summed back together
        arc_sums = (mat.reshape(len(s_nodes), len(half), N_GAUSS) @ glw) * half
        return arc_sums.reshape(len(s_nodes), len(width), k).sum(axis=2), mat.size

    pieces, nodes = rule(splits)
    while True:
        splits *= 2
        new_pieces, used = rule(splits)
        # compared piece by piece, so errors of opposite sign cannot cancel
        delta = float(np.sum(np.abs(weights[:, None] * (new_pieces - pieces))))
        pieces = new_pieces
        nodes += used
        value = kahan_sum(weights * pieces.sum(axis=1))
        if delta <= tol_abs:
            return value, delta, nodes, True
        if len(width) * splits * N_GAUSS >= N_THETA_MAX:
            return value, delta, nodes, False


def _disk_once(
    gfun: Callable[[np.ndarray], np.ndarray],
    kernel: Kernel,
    lo: float,
    hi: float,
    sings: Sequence[tuple[float, float, bool]],
    end_scales: tuple[float | None, float | None],
    peaks: Sequence[tuple[float, float]],
    spec: QuadratureSpec,
    level: int,
    theta_tol_cell: float,
) -> tuple[float, float, int, bool]:
    glx, glw = _gauss_rule(N_GAUSS)
    work = [(a, b, 0) for a, b in _radial_partition(lo, hi, sings, end_scales, spec, level)]
    cell_values: list[float] = []
    theta_err = 0.0
    nodes = 0
    all_conv = True
    n0 = spec.n_theta_init << min(level, 3)
    while work:
        a, b, depth = work.pop(0)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s = mid + half * glx
        w = glw * half
        weights = w * kernel.radial(s) * s
        # radial cells passing close to a peak (modulus, angle) get the
        # graded-arc angular rule instead of the periodic one
        band_scales = []
        for s0, theta0 in peaks:
            d = float(np.min(np.abs(s - s0)))
            if d < 0.2 * s0:
                band_scales.append((theta0, max(d / s0, 1e-15)))
        try:
            if band_scales:
                val, derr, used, conv = _cell_theta_banded(
                    gfun, s, weights, band_scales, 1, theta_tol_cell
                )
            else:
                val, derr, used, conv = _cell_theta(gfun, s, weights, n0, theta_tol_cell)
        except _CellCollision:
            # a node landed on a singular point: subdivide and retry
            if depth >= spec.max_grade_depth:
                raise QuadratureError(
                    f"cell subdivision depth cap reached on [{a}, {b}]"
                ) from None
            work.insert(0, (mid, b, depth + 1))
            work.insert(0, (a, mid, depth + 1))
            continue
        cell_values.append(val)
        theta_err += derr
        nodes += used
        all_conv = all_conv and conv
    return tree_sum(cell_values), theta_err, nodes, all_conv


def _zero_singularities(
    zeros: Sequence[Zero], p: float, mass_shift: float, kernel: Kernel
) -> list[tuple[float, float, bool]]:
    """Radial grading directives: (radius, local mass exponent, log bump).

    The 2D mass of G within distance d of a zero of order k scales like
    d^{kp} (for W like d^{kp+2}); a log kernel at the origin adds one level.
    """
    sings = []
    for z in zeros:
        s0 = abs(z.location)
        log_bump = kernel.singular_at_origin and s0 == 0.0
        sings.append((s0, z.order * p + mass_shift, log_bump))
    if kernel.singular_at_origin and all(abs(z.location) > 0 for z in zeros):
        # pure log singularity over a smooth field: mass ~ d^2 log(1/d)
        sings.append((0.0, 2.0, True))
    return sings


def _boundary_scale(
    params: MeanParams, r: float, features: Sequence[tuple[float, float, float]]
) -> float | None:
    """Analyticity scale just outside |z| = r, if the rim needs grading:
    the gap to the nearest zero, pole or boundary singularity within 0.2."""
    scales = [1.0 - r] if params.q > 0.0 and r >= 0.6 else []
    scales += [m - r for m, _c, _a in features if 0.0 < m - r < 0.2]
    return min(scales, default=None)


def _sharp_zero_angles(
    zeros: Sequence[Zero], p: float, mass_shift: float
) -> tuple[tuple[float, float], ...]:
    """Off-origin zeros where the field is unbounded (kp + mass_shift < 2)."""
    return tuple(
        (abs(z.location), math.atan2(z.location.imag, z.location.real))
        for z in zeros
        if abs(z.location) > 0 and z.order * p + mass_shift < 2.0
    )


def _disk_integral(
    field: Callable[[AnalyticFunction, MeanParams, np.ndarray], np.ndarray],
    mass_shift: float,
    f: AnalyticFunction,
    params: MeanParams,
    r: float,
    kernel: Kernel,
    spec: QuadratureSpec,
    s_lo: float,
    force_level: int | None,
) -> IntegralResult:
    """Integral of kernel(|z|) * field(z) over the disk (or annulus) of radius r.

    mass_shift is the field's extra local mass exponent at a zero (0 for G,
    2 for W).  Cells near a feature of f on or outside the rim, or near an
    interior zero where the field is unbounded (kp + mass_shift < 2, so G
    only), get the graded-arc angular rule.
    """
    r = _check_radius(r)
    zeros = zeros_in_disk(f, r)
    sings = _zero_singularities(zeros, params.p, mass_shift, kernel)
    features = feature_moduli(f)
    boundary_scale = _boundary_scale(params, r, features)
    peaks = [(m, a) for m, _c, a in features if m >= r]
    peaks += _sharp_zero_angles(zeros, params.p, mass_shift)

    def gfun(z):
        return field(f, params, z)

    lo_scale = None
    if s_lo > 0.0:
        below = [s_lo - s0 for s0, _, _ in sings if s0 < s_lo]
        if below:
            lo_scale = min(below)
    end_scales = (lo_scale, boundary_scale)
    if force_level is not None:
        theta_tol = 0.125 * 0.25 * spec.rel_tol
        value, terr, nodes, conv = _disk_once(
            gfun, kernel, s_lo, r, sings, end_scales, peaks, spec, force_level, theta_tol,
        )
        return IntegralResult(value, terr, nodes, force_level, conv)
    prev = None
    nodes_total = 0
    err = math.inf
    value = math.nan
    for level in range(MAX_LEVELS):
        hint = max(1.0, abs(prev)) if prev is not None else 1.0
        theta_tol = 0.125 * 0.25 * spec.rel_tol * hint
        value, terr, nodes, cells_conv = _disk_once(
            gfun, kernel, s_lo, r, sings, end_scales, peaks, spec, level, theta_tol,
        )
        nodes_total += nodes
        if prev is not None:
            err = abs(value - prev) + terr
            if err <= spec.rel_tol * max(1.0, abs(value)) and cells_conv:
                return IntegralResult(value, err, nodes_total, level, True)
        prev = value
    return IntegralResult(value, err, nodes_total, MAX_LEVELS - 1, False)


def disk_integral_G(
    f: AnalyticFunction,
    params: MeanParams,
    r: float,
    kernel: Kernel,
    spec: QuadratureSpec,
    s_lo: float = 0.0,
    force_level: int | None = None,
) -> IntegralResult:
    """Integral of kernel(|z|) * G(z) over the disk (or annulus) of radius r."""
    return _disk_integral(g_values, 0.0, f, params, r, kernel, spec, s_lo, force_level)


def disk_integral_W(
    f: AnalyticFunction,
    params: MeanParams,
    r: float,
    weight: Kernel,
    spec: QuadratureSpec,
    s_lo: float = 0.0,
    force_level: int | None = None,
) -> IntegralResult:
    """Integral of weight(|z|) * W(z); weight is ONE or ONE_MINUS_ABS_SQ."""
    if weight.name not in ("one", "one-minus-abs-sq"):
        raise ValueError("disk_integral_W supports weights ONE and ONE_MINUS_ABS_SQ")
    return _disk_integral(w_values, 2.0, f, params, r, weight, spec, s_lo, force_level)


# --------------------------------------------------------------------------
# ring integrals
# --------------------------------------------------------------------------

def ring_integral(
    f: AnalyticFunction,
    params: MeanParams,
    z0: complex,
    eps: float,
    kernel: Kernel,
    r: float,
    spec: QuadratureSpec,
) -> float:
    """Contour integral over |z - z0| = eps of K dW/dn - W dK/dn.

    The normal points away from z0; d ell = eps d psi.
    """
    r = _check_radius(r)
    z0 = complex(z0)
    eps = float(eps)
    if kernel.name not in ("log-r", "log-unit", "one-minus-abs-sq"):
        raise ValueError(f"ring integral does not support kernel '{kernel.name}'")
    if eps <= 10.0 * GUARD_RADIUS:
        raise GeometryError(f"ring radius {eps} must exceed 10x the field guard radius")
    if abs(z0) + eps >= r:
        raise GeometryError(
            f"ring around {z0} with radius {eps} leaves the disk of radius {r}"
        )
    if kernel.singular_at_origin and z0 != 0 and abs(abs(z0) - eps) < 1e-12:
        raise GeometryError("ring passes through the kernel singularity at the origin")

    def fn(psi):
        direction = np.exp(1j * psi)
        z = z0 + eps * direction
        gx, gy = grad_w_values(f, params, z)
        dwdn = gx * direction.real + gy * direction.imag
        s = np.abs(z)
        dkdn = kernel.radial_deriv(s) * (np.conj(z) * direction).real / s
        w = w_values(f, params, z)
        return (kernel.radial(s) * dwdn - w * dkdn) * eps

    total, _delta, _nodes, _doublings, conv = _circle_quad(
        fn, spec.n_theta_init, 0.25 * spec.rel_tol, 1e-300, ref_floor=0.0
    )
    if not conv:
        raise QuadratureError("ring integral did not converge within the doubling cap")
    return total
