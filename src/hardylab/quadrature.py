"""Singularity-aware quadrature on circles, rings, and disks.

One engine, _cells_theta, integrates every circle, ring and radial disk cell
over the angle.  A cell has radial nodes s, rows of weights and an integrand
of s and the unit-circle node u: a disk cell's integrand is a field at s u, a
circle mean is a cell with one radial node of weight 1, and a ring a cell
whose integrand is the flux through |z - z0| = s.  The engine halves the step
of a trapezoid rule in t, each level adding the odd multiples of the new
step.  A periodic cell takes theta = t.  As W and G are analytic between the
moduli |w| of f's features (feature_moduli: its singular points, and its
off-origin zeros unless p is even), its n-step error on |z| = s falls like
exp(-n eta), eta = min |ln(|w|/s)| (Trefethen & Weideman, SIAM Review 56,
2014), so it starts at the power of two >= n_min / 2, n_min =
ln(1e3/rel_tol) / eta <= 4 N_THETA_INIT (disk cells at least 4, circles at
least N_THETA_INIT): no change is taken below n_min, where a mode can alias
onto the mean.  At even p, |f|^p = (f conj f)^{p/2} is real-analytic at a
zero, and on |z| = s the product of |z - a|^p over the off-origin zeros a is
a trigonometric polynomial of degree band = (p/2) * their number with
orders (fourier_band), which n steps integrate exactly only for n > band:
n_min gains band + 1.  A cell within 0.2 |w| of a feature w of known angle
(disk cells: off-origin zeros with kp < 2 for G, and features on or outside
the rim; circle means: any feature; rings: none) splits the circle at the
features' angles into tanh-sinh arcs, which converge double-exponentially
where the periodic rule would need O(s/dist) nodes.  The cells of a batch
refine in the same rounds, the cells of one arc count and start sharing
their field calls, and stop one by one with the bits of lone runs.  A
circle's rows read W, dW/dr or both, one wd_values stack.  Node
contributions are combined by compensated summation and cells by a fixed
binary tree, so results are bit-identical between runs.

A disk integral is a polar product mesh of radial cells with the 21
Gauss-Kronrod nodes that embed the 10 Gauss-Legendre ones.  A cell's
estimate is |K21 - G10| plus its angular estimate plus the rounding floor
KRONROD_ROUNDING |K21|, and a kernel's is the sum over cells.  Within
rel_tol * max(1, |value|) it is the result; else each round bisects the
cells that carry the excess, worst first (QUADPACK's QAG, Piessens et al.
1983), but none whose angular rule ended unconverged, for MAX_LEVELS
rounds or until a round lowers no unconverged kernel's estimate.  A stack
of kernels shares one mesh as weight rows, of G, of W, or of both from one
gw_values call per batch.  Radial
cells are graded geometrically toward the origin for log kernels, toward
the modulus of every zero of f where the integrand is not smooth (G scales
like |z-z0|^{kp-2} at a zero of order k; at even p only a zero at the origin
is graded toward), and toward the rim when the weight (1-|z|^2)^q, or a
feature of f, lies just outside.
The pieces of a radius list, the disk of its first radius and the annuli
between consecutive radii, refine in one engine batch per round, each with
its own mesh, peaks, tolerances and stop, so with the bits of a lone piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .accum import kahan_rows, tree_sum
from .fields import (
    MeanParams, g_values, grad_w_values, gw_values, radial_deriv_w_values, w_values, wd_values,
)
from .functions import (
    AnalyticFunction, Zero, _unit_disk_zeros, feature_moduli, fourier_band, zeros_in_disk,
)

TWO_PI = 2.0 * math.pi

# fixed mesh policy: initial angular steps and doubling cap (per arc), uniform
# radial cells, disk refinement rounds, and the depth cap of geometric radial
# grading and cell splitting
N_THETA_INIT = 32
N_THETA_MAX = 1 << 20
N_RADIAL_BASE = 8
MAX_LEVELS = 5  # disk rounds: the partition, then up to 4 of bisection
MAX_GRADE_DEPTH = 40
# tanh-sinh arcs: t in [-ARC_T, ARC_T], where the end weights are below 1e-35,
# and the rounding floor of an arc estimate per unit of sum |pieces| / (1 - s)
ARC_T = 4.0
ARC_ROUNDING = 4e-15
# the rounding floor of a disk estimate per unit of sum |Kronrod value| over
# its cells: once the angular rule is exact, |K21 - G10| and the angular
# changes are rounding noise, which can fall below the rounding of the value
KRONROD_ROUNDING = 16 * 2.0**-52
# cap on the points of one field call over a batch of cells
BATCH_POINTS = 1 << 14


class QuadratureError(RuntimeError):
    """Mesh construction or refinement failed."""


class GeometryError(ValueError):
    """Requested contour leaves the admissible domain."""


class RadiusNearZeroError(ValueError):
    """A zero of f lies too close to the integration circle; perturb r."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Relative tolerance of circle, ring, and disk integrals, finite in (0, 1).

    The mesh policy is fixed by the module constants; singular radii (zero
    locations, the origin under log kernels, rim proximity) are derived from
    the integrand automatically.
    """

    rel_tol: float = 1e-7

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"tolerance must satisfy 0 < tol < 1, got {self.rel_tol}")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    nodes: int
    levels: int  # a circle's doublings of its first step count; a disk's bisection rounds
    converged: bool


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """Radial kernel K(|z|) and its derivative K'(s); grad K = K'(s) * (x, y)/s."""

    name: str
    radial: Callable[[np.ndarray], np.ndarray]
    radial_deriv: Callable[[np.ndarray], np.ndarray]
    singular_at_origin: bool = False


KERNEL_ONE = Kernel("one", np.ones_like, np.zeros_like)
KERNEL_ONE_MINUS_ABS_SQ = Kernel("one-minus-abs-sq", lambda s: 1.0 - s * s, lambda s: -2.0 * s)
KERNEL_LOG_ONE_OVER_ABS = Kernel("log-unit", lambda s: -np.log(s), lambda s: -1.0 / s, True)


def kernel_log_r_over_abs(r: float) -> Kernel:
    r = float(r)
    return Kernel("log-r", lambda s: np.log(r / s), lambda s: -1.0 / s, True)


def kernel_by_name(name: str, r: float) -> Kernel:
    for kernel in (KERNEL_ONE, KERNEL_ONE_MINUS_ABS_SQ, KERNEL_LOG_ONE_OVER_ABS):
        if kernel.name == name:
            return kernel
    if name != "log-r":
        raise ValueError(f"unknown kernel '{name}'")
    return kernel_log_r_over_abs(r)


# --------------------------------------------------------------------------
# the angular engine: nested trapezoid rules in theta or in tanh-sinh arcs
# --------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _unit_nodes(n: int, offsets: tuple[float, ...]) -> np.ndarray:
    """e^{i theta} at theta = 2 pi (j + o) / n, j < n, per offset o; shared, so read-only."""
    nodes = np.concatenate([np.exp(1j * (TWO_PI * (np.arange(n) + o) / n)) for o in offsets])
    nodes.flags.writeable = False
    return nodes


@lru_cache(maxsize=16)
def _arc_nodes(n: int, offsets: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """x and dx/dt of the tanh-sinh map x = (1 + tanh(pi/2 sinh t)) / 2 of
    [-ARC_T, ARC_T] onto [0, 1], at t = ARC_T (2 (j + o) / n - 1), j < n, per
    offset o, as (offsets, n); shared, so read-only."""
    t = ARC_T * (2.0 * (np.arange(n) + np.array(offsets)[:, None]) / n - 1.0)
    e = np.exp(-math.pi * np.sinh(t))
    x, dx = 1.0 / (1.0 + e), math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    x.flags.writeable = dx.flags.writeable = False
    return x, dx


def _cells_theta(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    s_nodes: np.ndarray,
    weights: np.ndarray,
    n0: int,
    tol_abs: Sequence[float] | np.ndarray,
    rel_tol: float = 0.0,
    peaks: Sequence[Sequence[tuple[float, float]]] = (),
    fields: Sequence[int] | None = None,
    starts: Sequence[int] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Values of many cells: values[c, k] is sum_i weights[c, k, i] *
    (integral over theta of integrand(s_nodes[c, i], u), u = e^{i theta}),
    or of its field fields[k] when it returns a stack of fields (row k never
    sums the other fields under zero weights: a zero term in kahan_rows can
    apply a pending carry).

    A cell with a radial node within 0.2 |w| of its peaks[c] (|w|, angle) takes
    tanh-sinh arcs between those angles, t in [-ARC_T, ARC_T], from 2 n0
    steps; the others are periodic, from starts[c] steps (n0 without starts;
    all powers of two; _starts makes them from the moduli of f's features
    and, at even p, the band of its zeros), and a cell joins the round that
    reaches its start.
    Each round adds the midpoints, a group (the cells of one arc count and
    start) in field calls of whole cells up to BATCH_POINTS points, or of one
    periodic cell over it; a featured cell over it takes slices of its steps.
    A periodic cell stops once every row's change is within
    max(tol_abs[k], rel_tol * max(|value_k|, 1e-6 L1_k)), L1_k the row over
    |integrand|.  A featured cell sums its changes over arcs and radial
    nodes, so errors of opposite sign cannot cancel.  Its estimate is twice
    its last change, as a halved tanh-sinh step about squares the error
    (inf in its first round, whose change can be small by luck), plus
    ARC_ROUNDING sum |pieces| / (1 - s) per radial node, for the rounding of
    1 - z and 1 - |z|^2 near the rim; it converges once that is within
    max(tol_abs[k], rel_tol * |value_k|), and stops unconverged once its
    change is below that floor.  Every cell stops at N_THETA_MAX steps per
    arc, and at a non-finite node as a collision, with 0 nodes.  Returns
    (values, deltas, nodes, conv, doublings) per cell; tol_abs may be per cell.
    """
    n_cells, n_k, n_s = weights.shape
    # by_row turns per-field sums (cells, n_f, ...) into rows (cells, n_k, ...)
    n_f, index = (1, None) if fields is None else (max(fields) + 1, np.asarray(fields))
    by_row = (lambda a: a) if index is None else (lambda a: a[:, index])
    values, deltas = np.zeros((2, n_cells, n_k))
    conv, (nodes, doublings) = np.zeros((n_cells, n_k), bool), np.zeros((2, n_cells), np.int64)
    tol_abs = np.broadcast_to(np.asarray(tol_abs, dtype=float), (n_cells, n_k))
    feats: list[set[float]] = [set() for _ in range(n_cells)]
    for s0, theta0 in set().union(*peaks):  # each peak once, over the cells it is theirs
        idx = np.array([c for c, own in enumerate(peaks) if (s0, theta0) in own])
        for c in idx[np.abs(s_nodes[idx] - s0).min(axis=1) < 0.2 * s0].tolist():
            feats[c].add(theta0 % TWO_PI)
    # the cells still refining, with their running sums: a group per arc count and start
    arcs, groups = [sorted(angles) for angles in feats], []
    keys = [(len(a), starts[c] if starts and not a else n0) for c, a in enumerate(arcs)]
    for key in sorted(set(keys)):
        m, idx = key[0], [c for c, k in enumerate(keys) if k == key]
        g = {"cells": np.array(idx), "s": s_nodes[:, :, None], "w": weights, "tol": tol_abs}
        if len(idx) < n_cells:  # indexing copies; a batch of one kind skips it
            g.update(s=s_nodes[idx, :, None], w=weights[idx], tol=tol_abs[idx])
        if m:
            a = [arcs[c] for c in idx]
            span = [[b - x for x, b in zip(row, row[1:] + [row[0] + TWO_PI])] for row in a]
            a, span = np.array([a, span])[:, :, None, :, None, None]
            g.update(a=a, span=span,
                     floor=ARC_ROUNDING * np.abs(g["w"]) / (1.0 - g["s"].swapaxes(1, 2)))
        groups.append((m, key[1], g))
    # the groups refining, and those waiting for their start
    groups, pending, n = [], groups, min((start for _, start, _ in groups), default=n0)
    # rows holding inf - inf are collisions
    with np.errstate(invalid="ignore"):
        while groups or pending:
            groups += [group for group in pending if group[1] <= n]
            pending = [group for group in pending if group[1] > n]
            # a group's first round, at its start, takes both offsets
            offsets = [(0.0, 0.5) if start == n else (0.5,) for _, start, _ in groups]
            parts: list[list[tuple]] = [[] for _ in groups]
            for (m, _, g), o, group_parts in zip(groups, offsets, parts):
                # runs of whole cells of up to BATCH_POINTS per field call; a
                # featured cell over it takes k slices of its steps, one call each
                size = n_s * (2 * m or 1) * n * len(o)
                k = min(n, 1 << ((size - 1) // BATCH_POINTS).bit_length()) if m else 1
                take, width = max(BATCH_POINTS // size, 1), 2 * n // k
                for c in (slice(j, j + take) for j in range(0, len(g["cells"]), take)):
                    s = g["s"][c]
                    for cut in (slice(q * width, (q + 1) * width) for q in range(k)):
                        u = _unit_nodes(n, o) if not m else np.exp(
                            1j * (g["a"][c] + g["span"][c] * _arc_nodes(2 * n, o)[0][:, cut])
                        ).reshape(len(s), 1, -1)
                        # (cells, fields, radial nodes, arcs, offsets, steps): a sum per offset
                        mat = np.asarray(integrand(s, u), dtype=float).reshape(
                            n_f, len(s), n_s, max(m, 1), len(o), -1).swapaxes(0, 1)
                        # a non-finite node makes its sum non-finite
                        sums = (mat * _arc_nodes(2 * n, o)[1][:, cut] if m else mat).sum(axis=5)
                        part = (np.isfinite(sums).all(axis=(1, 2, 3, 4)), sums,
                                np.abs(mat).sum(axis=5) if rel_tol and not m else sums)
                        if cut.start:  # a later slice of the same featured cell
                            prior = group_parts.pop()
                            part = (part[0] & prior[0],) + (sums + prior[1],) * 2
                        group_parts.append(part)
                        del u, mat  # free these before the next call makes its own
            kept = []
            for (m, t0, g), part, o in zip(groups, parts, offsets):
                finite, *sums = map(np.concatenate, zip(*part)) if part[1:] else part[0]
                if not finite.all():
                    g = {key: arr[finite] for key, arr in g.items()}
                    sums = [arr[finite] for arr in sums]
                step = ARC_T / n if m else TWO_PI / n
                delta, ok, settled = (_arc_round if m else _periodic_round)(
                    g, *sums, step, len(o) == 2, rel_tol, by_row)
                done = settled.all(axis=1) | ((4 if m else 2) * n >= N_THETA_MAX)
                if done.any():
                    sel = slice(None) if done.all() else done  # a whole group needs no gathers
                    stop = g["cells"][sel]
                    values[stop], deltas[stop], conv[stop] = g["value"][sel], delta[sel], ok[sel]
                    nodes[stop], doublings[stop] = n_s * (4 * m or 2) * n, (n // t0).bit_length()
                if not done.all():
                    kept.append((m, t0, {k: a[~done] for k, a in g.items()} if done.any() else g))
            groups, n = kept, 2 * n
    return values, deltas, nodes, conv, doublings


def _periodic_round(g, sums, abs_sums, step, first, rel_tol, by_row):
    """One round of periodic cells: (change, converged, settled) per row."""
    w, sums, abs_sums = g["w"], sums[:, :, :, 0], abs_sums[:, :, :, 0]
    if first:
        g["h"], g["l1"] = step * sums[..., 0], step * abs_sums[..., 0]
        g["value"] = kahan_rows(w * by_row(g["h"]))
    g["h"] = 0.5 * g["h"] + (0.5 * step) * sums[..., -1]
    new = kahan_rows(w * by_row(g["h"]))
    delta, g["value"] = np.abs(new - g["value"]), new
    bound = g["tol"]
    if rel_tol:
        g["l1"] = 0.5 * g["l1"] + (0.5 * step) * abs_sums[..., -1]
        l1_rows = (np.abs(w) * by_row(g["l1"])).sum(axis=2)
        bound = np.maximum(bound, rel_tol * np.maximum(np.abs(new), 1e-6 * l1_rows))
    ok = delta <= bound
    return delta, ok, ok


def _arc_round(g, sums, _abs_sums, step, first, rel_tol, by_row):
    """One round of featured cells, pieces g["h"][c, f, i, j] of arc j, field f,
    radial node i: (estimate, converged, settled) per row; estimate = 2 change + floor."""
    w, sums = g["w"][:, :, :, None], sums * g["span"][:, None, ..., 0]
    if first:
        g["h"] = step * sums[..., 0]
    pieces = 0.5 * g["h"] + (0.5 * step) * sums[..., -1]
    change = np.abs(w * by_row(pieces - g["h"])).sum(axis=(2, 3))
    floor = (g["floor"] * by_row(np.abs(pieces).sum(axis=3))).sum(axis=2)
    g["h"], g["value"] = pieces, kahan_rows(g["w"] * by_row(pieces.sum(axis=3)))
    top = change + math.inf if first else change
    estimate = 2.0 * top + floor
    ok = estimate <= np.maximum(g["tol"], rel_tol * np.abs(g["value"]))
    return estimate, ok, ok | (top <= floor)


def _starts(s: np.ndarray, moduli: Sequence[float], band: int, spec: QuadratureSpec,
            floor: int) -> np.ndarray:
    """The first step count of each periodic cell with radial nodes s[c]:
    the power of two >= n_min / 2, at least floor.  n_min = ln(1e3 /
    rel_tol) / eta, eta = min |ln(s / m)| over the moduli m, taken as at
    most 4 N_THETA_INIT, plus band + 1 for a Fourier band > 0: the modes
    above it decay like exp(-(mode - band) eta), and n steps are exact on
    the modes up to band only for n > band."""
    ln = math.log(1e3 / spec.rel_tol)
    eta = np.abs(np.log(np.divide.outer(s, moduli))).min(axis=(1, 2), initial=math.inf)
    n_min = ln / np.maximum(eta, ln / (4 * N_THETA_INIT)) + (band + (band > 0))
    return np.maximum(floor, 2 ** np.ceil(np.log2(np.maximum(n_min, 2) / 2))).astype(int)


# --------------------------------------------------------------------------
# circle means
# --------------------------------------------------------------------------

def _check_radius(r: float) -> float:
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must satisfy 0 < r < 1, got {r}")
    return r


def circle_integrals(
    f: AnalyticFunction,
    params: MeanParams,
    radii: Sequence[float],
    spec: QuadratureSpec,
    rows: Sequence[str] = ("W",),
) -> Iterator[tuple[IntegralResult, ...]]:
    """Circle means of the rows' fields, "W" (circle_mean) or "dW/dr"
    (circle_mean_deriv), at each radius of a schedule: one IntegralResult per
    row, yielded in schedule order; a radius that fails raises its error when
    the iteration reaches it.

    The circles are one batch; those within 0.2 |w| of a feature w of f
    split at the features' angles into tanh-sinh arcs.  W alone is w_values,
    dW/dr alone its row of wd_values, and both rows one wd_values stack, so a
    circle refines until every row meets its tolerance."""
    index = [("W", "dW/dr").index(row) for row in rows]  # the rows of wd_values
    field = {(0,): w_values, (1,): radial_deriv_w_values}.get(tuple(index), wd_values)
    radii, error = list(radii), None
    for k, r in enumerate(radii):
        try:
            radii[k] = r = _check_radius(r)
            if 1 in index and params.p < 1.0:
                for zero in _unit_disk_zeros(f):
                    if abs(abs(zero.location) - r) < 1e-6:
                        raise RadiusNearZeroError(
                            f"zero at {zero.location} within 1e-6 of |z| = {r} with p < 1"
                        )
        except ValueError as exc:
            radii, error = radii[:k], exc
            break

    tol, features = 0.5 * spec.rel_tol, feature_moduli(f, params.p) if radii else ()
    s_nodes = np.array(radii).reshape(-1, 1)
    band = fourier_band(f, params.p)
    starts = _starts(s_nodes, [m for m, _ in features], band, spec, N_THETA_INIT)
    batch = _cells_theta(
        lambda s, u: field(f, params, s * u), s_nodes, np.ones((len(radii), len(index), 1)),
        N_THETA_INIT, [tol] * len(index), tol, [features] * len(radii),
        index if len(index) > 1 else None, starts.tolist(),
    )
    for totals, deltas, nodes, convs, doublings in zip(*(a.tolist() for a in batch)):
        if not nodes:
            raise QuadratureError("non-finite integrand value on circle")
        yield tuple(IntegralResult(total / TWO_PI, delta / TWO_PI, nodes, doublings, conv)
                    for total, delta, conv in zip(totals, deltas, convs))
    if error is not None:
        raise error


def circle_mean(
    f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> IntegralResult:
    """(1/2pi) * integral of W(r e^{i theta}) d theta."""
    return next(circle_integrals(f, params, (r,), spec))[0]


def circle_mean_deriv(
    f: AnalyticFunction, params: MeanParams, r: float, spec: QuadratureSpec
) -> IntegralResult:
    """d/dr of the circle mean, by differentiating under the integral."""
    return next(circle_integrals(f, params, (r,), spec, ("dW/dr",)))[0]


# --------------------------------------------------------------------------
# radial meshes
# --------------------------------------------------------------------------

# the 21-node Gauss-Kronrod rule on [-1, 1] that embeds 10-node Gauss-Legendre,
# from Laurie's algorithm (Math. Comp. 66, 1997): per node x >= 0, its Kronrod
# weight and its Gauss weight (0 at the Kronrod-only nodes).  The Gauss nodes
# interlace with the others, so they sit at the odd indices of the mirrored
# rule (nodes, Kronrod weights, Gauss weights on the same nodes).
_KRONROD_HALF = np.array([
    (0.0, 0.14944555400291754, 0.0),
    (0.14887433898163122, 0.14773910490133768, 0.2955242247147528),
    (0.2943928627014604, 0.14277593857705984, 0.0),
    (0.4333953941292473, 0.13470921731147412, 0.2692667193099965),
    (0.5627571346686044, 0.12349197626206553, 0.0),
    (0.6794095682990242, 0.10938715880229785, 0.219086362515982),
    (0.7808177265864169, 0.09312545458369725, 0.0),
    (0.8650633666889842, 0.07503967481091967, 0.1494513491505804),
    (0.9301574913557082, 0.05475589657435174, 0.0),
    (0.9739065285171717, 0.03255816230796481, 0.06667134430868814),
    (0.995657163025808, 0.011694638867372105, 0.0),
]).T
KRONROD_RULE = tuple(
    np.concatenate([sign * col[:0:-1], col]) for sign, col in zip((-1.0, 1.0, 1.0), _KRONROD_HALF)
)


def _grade_policy(mass_exp: float, tol: float, log_bump: bool) -> tuple[float, int]:
    """Geometric ratio and depth so the truncated mass (ratio^depth)^mass_exp
    drops well below tol (the extra margin absorbs log factors and the
    Gauss rule's O(1) error share on the innermost cell)."""
    target = max(1e-4 * tol, 1e-18)
    m = max(mass_exp, 0.3)
    depth = int(math.ceil(math.log(target) / (m * math.log(0.5)))) + (1 if log_bump else 0)
    if depth <= MAX_GRADE_DEPTH:
        return 0.5, max(depth, 2)
    ratio = target ** (1.0 / (MAX_GRADE_DEPTH * m))
    return min(0.5, max(0.05, ratio)), MAX_GRADE_DEPTH


def _radial_partition(lo: float, hi: float, sings: Sequence[tuple[float, float, bool]],
                      end_scales: tuple[float | None, float | None],
                      spec: QuadratureSpec) -> list[tuple[float, float]]:
    """Radial cells of [lo, hi]: uniform base cells, geometric ladders toward
    each singular radius, geometric approach to an endpoint whose nearest
    singularity sits just outside."""
    pts = {lo, hi}
    for k in range(1, N_RADIAL_BASE):
        pts.add(lo + (hi - lo) * k / N_RADIAL_BASE)
    for s0, mass_exp, log_bump in sings:
        if not lo <= s0 <= hi:
            continue
        pts.add(s0)
        ratio, depth = _grade_policy(mass_exp, spec.rel_tol, log_bump)
        for sign, span in ((1.0, hi - s0), (-1.0, s0 - lo)):
            if span <= 1e-14:
                continue
            for k in range(1, depth + 1):
                pts.add(s0 + sign * span * ratio**k)
    span = hi - lo
    for end, scale, inward in ((lo, end_scales[0], 1.0), (hi, end_scales[1], -1.0)):
        k = 1
        while scale is not None and span * 0.5**k > 0.6 * scale and k <= MAX_GRADE_DEPTH:
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
    # each cell ends at a + (b - a), not b: the golden records pin the bits of that mesh
    return [(a, a + (b - a)) for a, b in zip(merged[:-1], merged[1:]) if b > a]


# --------------------------------------------------------------------------
# disk integration
# --------------------------------------------------------------------------

def _disk_once(gfun: Callable[[np.ndarray, np.ndarray], np.ndarray], kernels: Sequence[Kernel],
               pieces: Sequence[list], cells: Sequence[tuple[int, float, float, int]],
               moduli: Sequence[float], band: int, spec: QuadratureSpec,
               fields: Sequence[int] | None) -> list[tuple]:
    """One engine batch of radial cells (piece, a, b, depth) of pieces
    (peaks, theta_tol), started by _starts: the leaves the cells end as, in
    order, each the cell followed by (values, changes, nodes, conv) per row,
    kernel k on field fields[k] of gfun.  Each radial cell carries the
    Kronrod nodes; its Gauss weights are extra rows, n_k..2 n_k - 1."""
    kron_x, kron_w, gauss_w = KRONROD_RULE
    ends = np.array([(a, b) for _, a, b, _ in cells])
    mid, half = 0.5 * (ends[:, 0] + ends[:, 1]), 0.5 * (ends[:, 1] - ends[:, 0])
    s = mid[:, None] + half[:, None] * kron_x
    radial = np.stack([half[:, None] * kernel.radial(s) * s for kernel in kernels], axis=1)
    # rows 0..n_k-1 are the kernels' Kronrod rows, n_k..2n_k-1 their Gauss rows
    weights = np.concatenate([radial * kron_w, radial * gauss_w], axis=1)
    batch = _cells_theta(
        gfun, s, weights, N_THETA_INIT, [pieces[i][1] * 2 for i, *_ in cells], 0.0,
        [pieces[i][0] for i, *_ in cells], None if fields is None else list(fields) * 2,
        _starts(s, moduli, band, spec, 4).tolist())
    leaves = []
    for cell, leaf in zip(cells, zip(*(arr.tolist() for arr in batch))):
        # a node landed on a singular point: the cell's halves take its place
        leaves += [(*cell, *leaf[:4])] if leaf[2] else _disk_once(
            gfun, kernels, pieces, _halves(*cell), moduli, band, spec, fields)
    return leaves


def _halves(i: int, a: float, b: float, depth: int) -> list[tuple[int, float, float, int]]:
    """The cell (piece i, a, b, depth) cut at its midpoint, in radial order."""
    if depth >= MAX_GRADE_DEPTH:
        raise QuadratureError(f"cell subdivision depth cap reached on [{a}, {b}]")
    cut = 0.5 * (a + b)
    return [(i, a, cut, depth + 1), (i, cut, b, depth + 1)]


def _zero_singularities(
    zeros: Sequence[Zero], p: float, mass_shift: float, log_origin: bool
) -> list[tuple[float, float, bool]]:
    """Radial grading directives: (radius, local mass exponent, log bump).

    The 2D mass of G within distance d of a zero of order k scales like
    d^{kp} (for W like d^{kp+2}); a kernel with a log singularity at the
    origin (log_origin) adds one level there.  At even p the fields are
    real-analytic at a zero, so only a zero at the origin, whose mass
    exponent shortens the log kernel's ladder, is graded toward.
    """
    sings = []
    for z in zeros:
        s0 = abs(z.location)
        if s0 == 0.0 or p % 2:
            sings.append((s0, z.order * p + mass_shift, log_origin and s0 == 0.0))
    if log_origin and all(abs(z.location) > 0 for z in zeros):
        # pure log singularity over a smooth field: mass ~ d^2 log(1/d)
        sings.append((0.0, 2.0, True))
    return sings


def _boundary_scale(
    params: MeanParams, r: float, features: Sequence[tuple[float, float]]
) -> float | None:
    """Analyticity scale just outside |z| = r, if the rim needs grading:
    the gap to the nearest zero, pole or boundary singularity within 0.2."""
    scales = [1.0 - r] if params.q > 0.0 and r >= 0.6 else []
    scales += [m - r for m, _a in features if 0.0 < m - r < 0.2]
    return min(scales, default=None)


def _sharp_zero_angles(zeros: Sequence[Zero], p: float) -> tuple[tuple[float, float], ...]:
    """Off-origin zeros, where the fields are not smooth unless p is even."""
    return tuple((abs(z.location), math.atan2(z.location.imag, z.location.real))
                 for z in zeros if abs(z.location) > 0 and p % 2)


def _worst_cells(est: np.ndarray, free: np.ndarray, err: Sequence[float],
                 tols: Sequence[float]) -> set[int]:
    """The cells to bisect: per row k whose estimate err[k] exceeds tols[k],
    the free cells of largest est[:, k], worst first, until they carry the
    excess.  A radial split cannot lower an angular error, so a cell whose
    angular rule ended unconverged is not free, and a row whose such cells
    alone reach its tolerance takes none."""
    split = set()
    for k, (e, t) in enumerate(zip(err, tols)):
        if e > t and est[~free, k].sum() < t:
            order = np.argsort(-est[:, k], kind="stable")
            order = order[free[order]]
            split.update(order[:np.searchsorted(np.cumsum(est[order, k]), e - t) + 1].tolist())
    return split


def disk_integrals(
    f: AnalyticFunction,
    params: MeanParams,
    radii: Sequence[float],
    g_kernels: Sequence[Kernel],
    w_weights: Sequence[Kernel],
    spec: QuadratureSpec,
) -> list[list[IntegralResult]]:
    """Integrals of kernel(|z|) * G(z) per G kernel, then of weight(|z|) * W(z)
    per weight (ONE or ONE_MINUS_ABS_SQ), over each piece of a strictly
    increasing radius list: the disk |z| < radii[0], then each annulus
    between consecutive radii.  One list of results per piece, each from one
    mesh, and one engine batch per round for the pieces still refining.

    The integrals are weight rows over the same nodes, fed by g_values,
    w_values or, with both lists, gw_values.  The mesh grades toward the
    union of their singular radii, for the most singular field present.
    Each row has its own tolerance, error estimate and converged flag (a
    cell's angular row is converged once within the tolerance the piece's
    value sets).  Each round bisects _worst_cells, whose halves take their
    place, until every row meets its tolerance, or unconverged when none is
    left, after MAX_LEVELS rounds, or once a round lowers no estimate still
    above it.  Cells near a feature of f on or outside the piece's rim, or
    near an off-origin zero inside it (feature_moduli: a zero is one unless
    p is even), split into tanh-sinh arcs there.
    """
    if not g_kernels and not w_weights:
        raise ValueError("disk_integrals needs at least one G kernel or W weight")
    radii = [_check_radius(r) for r in radii]
    if not radii:
        raise ValueError("disk_integrals needs at least one radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"disk radii must be strictly increasing, got {radii}")
    if any(k.name not in ("one", "one-minus-abs-sq") for k in w_weights):
        raise ValueError("disk integrals of W support weights ONE and ONE_MINUS_ABS_SQ")
    kernels = [*g_kernels, *w_weights]
    if g_kernels and w_weights:
        field, fields = gw_values, [0] * len(g_kernels) + [1] * len(w_weights)
    else:
        field, fields = g_values if g_kernels else w_values, None
    # the extra local mass exponent at a zero of the most singular field
    mass_shift = 0.0 if g_kernels else 2.0
    log_origin = any(kernel.singular_at_origin for kernel in kernels)
    features, band = feature_moduli(f, params.p), fourier_band(f, params.p)
    tol = 0.125 * 0.25 * spec.rel_tol  # a kernel's angular tolerance per max(1, |value|)
    pieces, batch = [], []  # per piece (peaks, angular tolerance per kernel); its cells
    for i, (lo, r) in enumerate(zip([0.0, *radii], radii)):
        zeros = zeros_in_disk(f, r)
        sings = _zero_singularities(zeros, params.p, mass_shift, log_origin)
        below = [lo - s0 for s0, _, _ in sings if s0 < lo]
        ends = (min(below, default=None), _boundary_scale(params, r, features))
        batch += [(i, a, b, 0) for a, b in _radial_partition(lo, r, sings, ends, spec)]
        peaks = tuple((m, a) for m, a in features if m >= r)
        pieces.append([peaks + _sharp_zero_angles(zeros, params.p), [tol] * len(kernels)])
    n_k, leaves, spent = len(kernels), [[] for _ in pieces], [0] * len(pieces)
    results, last_errs = [None] * len(pieces), [[math.inf] * n_k] * len(pieces)
    for rounds in range(MAX_LEVELS):
        for leaf in _disk_once(lambda s, u: field(f, params, s * u), kernels, pieces, batch,
                               [m for m, _ in features], band, spec, fields):
            leaves[leaf[0]].append(leaf)
            spent[leaf[0]] += leaf[6]
        batch = []
        for i in [i for i, res in enumerate(results) if res is None]:
            leaves[i].sort(key=lambda leaf: leaf[1])  # halves take their parent's place
            values, changes, _, convs = (np.array(col) for col in zip(*(x[4:] for x in leaves[i])))
            kronrod = values[:, :n_k]
            radial, angular, size = (np.abs(kronrod - values[:, n_k:]), changes[:, :n_k],
                                     np.abs(kronrod))
            err = (radial.sum(axis=0) + angular.sum(axis=0)
                   + KRONROD_ROUNDING * size.sum(axis=0)).tolist()
            value = [tree_sum(col) for col in kronrod.T.tolist()]
            tols = [spec.rel_tol * max(1.0, abs(v)) for v in value]
            pieces[i][1], free = [tol * max(1.0, abs(v)) for v in value], convs.all(axis=1)
            # an angular row whose change is within the tolerance the piece's
            # value now sets is converged (round 0 ran before that value)
            convs |= changes <= pieces[i][1] * 2
            conv = [e <= t and c for e, t, c in zip(
                err, tols, (convs[:, :n_k] & convs[:, n_k:]).all(axis=0).tolist())]
            split = _worst_cells(radial + angular + KRONROD_ROUNDING * size, free, err, tols)
            # a round that lowers no unconverged row's estimate ends refinement
            if (not split or rounds == MAX_LEVELS - 1
                    or not any(e < e0 for e, e0, c in zip(err, last_errs[i], conv) if not c)):
                results[i] = [IntegralResult(v, e, spent[i], rounds, c)
                              for v, e, c in zip(value, err, conv)]
            else:
                batch += [half for j in sorted(split) for half in _halves(*leaves[i][j][:4])]
                leaves[i] = [x for j, x in enumerate(leaves[i]) if j not in split]
            last_errs[i] = err
        if not batch:
            return results


def disk_integral_G(
    f: AnalyticFunction,
    params: MeanParams,
    r: float,
    kernel: Kernel,
    spec: QuadratureSpec,
) -> IntegralResult:
    """Integral of kernel(|z|) * G(z) over the disk |z| < r."""
    return disk_integrals(f, params, (r,), (kernel,), (), spec)[0][0]


def disk_integral_W(
    f: AnalyticFunction,
    params: MeanParams,
    r: float,
    weight: Kernel,
    spec: QuadratureSpec,
) -> IntegralResult:
    """Integral of weight(|z|) * W(z) over the disk |z| < r; weight is ONE
    or ONE_MINUS_ABS_SQ."""
    return disk_integrals(f, params, (r,), (), (weight,), spec)[0][0]


# --------------------------------------------------------------------------
# ring integrals
# --------------------------------------------------------------------------

# a ring's radius must exceed 10x this guard radius around z0
GUARD_RADIUS = 1e-10


def ring_integrals(
    f: AnalyticFunction,
    params: MeanParams,
    z0: complex,
    eps: Sequence[float],
    kernel: Kernel,
    r: float,
    spec: QuadratureSpec,
) -> list[float]:
    """ring_integral for each radius of an eps schedule, all rings in one
    batch; raises the error of the first failing ring, in schedule order."""
    r, z0 = _check_radius(r), complex(z0)
    if kernel.name not in ("log-r", "log-unit", "one-minus-abs-sq"):
        raise ValueError(f"ring integral does not support kernel '{kernel.name}'")
    eps, error = [float(e) for e in eps], None
    for k, e in enumerate(eps):
        if e <= 10.0 * GUARD_RADIUS:
            error = f"ring radius {e} must exceed 10x the field guard radius"
        elif abs(z0) + e >= r:
            error = f"ring around {z0} with radius {e} leaves the disk of radius {r}"
        elif kernel.singular_at_origin and z0 != 0 and abs(abs(z0) - e) < 1e-12:
            error = "ring passes through the kernel singularity at the origin"
        if error:
            eps = eps[:k]
            break

    def flux(e, u):
        # K dW/dn - W dK/dn at z = z0 + e u, normal u, times d ell / d psi = e
        z = z0 + e * u
        w, gx, gy = grad_w_values(f, params, z)
        dwdn = gx * u.real + gy * u.imag
        s = np.abs(z)
        dkdn = kernel.radial_deriv(s) * (np.conj(z) * u).real / s
        return (kernel.radial(s) * dwdn - w * dkdn) * e

    values, _, nodes, conv, _ = _cells_theta(
        flux, np.array(eps).reshape(-1, 1), np.ones((len(eps), 1, 1)), N_THETA_INIT,
        [1e-300], 0.25 * spec.rel_tol,
    )
    for used, (ok,) in zip(nodes, conv):
        if not used:
            raise QuadratureError("non-finite integrand value on circle")
        if not ok:
            raise QuadratureError("ring integral did not converge within the doubling cap")
    if error:
        raise GeometryError(error)
    return values[:, 0].tolist()


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
    return ring_integrals(f, params, z0, (eps,), kernel, r, spec)[0]
