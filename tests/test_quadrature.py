import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hardylab.accum import kahan_sum
from hardylab.fields import MeanParams, g_values
from hardylab.functions import (
    Binomial,
    BlaschkeProduct,
    Polynomial,
    Rational,
    ScaledRotation,
)
from hardylab.parsing import parse_function
from hardylab.quadrature import (
    _CellCollision,
    _cell_theta_banded,
    _gauss_rule,
    _graded_segment,
    GeometryError,
    KERNEL_LOG_ONE_OVER_ABS,
    KERNEL_ONE,
    KERNEL_ONE_MINUS_ABS_SQ,
    N_GAUSS,
    QuadratureSpec,
    RadiusNearZeroError,
    circle_mean,
    circle_mean_deriv,
    disk_integral_G,
    disk_integral_W,
    kernel_log_r_over_abs,
    ring_integral,
)

SPEC = QuadratureSpec()
TWO_PI = 2 * math.pi


def monomial(n):
    return Polynomial((0,) * n + (1,))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(n_theta_init=24)
    with pytest.raises(ValueError):
        QuadratureSpec(n_theta_init=8)
    with pytest.raises(ValueError):
        QuadratureSpec(max_grade_depth=60)


# --------------------------------------------------------------- circle mean

def test_circle_mean_monomial():
    res = circle_mean(monomial(2), MeanParams(2, 0), 0.8, SPEC)
    assert res.value == pytest.approx(0.4096, rel=1e-12)
    assert res.converged


def test_circle_mean_constant_weighted():
    res = circle_mean(Polynomial((1,)), MeanParams(3, 2), 0.5, SPEC)
    assert res.value == pytest.approx(0.5625, rel=1e-13)


def test_circle_mean_scaling_covariance():
    f = Polynomial((1, 0.5, 0.25))
    doubled = ScaledRotation(f, 2.0, 0.0)
    p = 1.7
    base = circle_mean(f, MeanParams(p, 0.5), 0.6, SPEC).value
    scaled = circle_mean(doubled, MeanParams(p, 0.5), 0.6, SPEC).value
    assert scaled == pytest.approx(2**p * base, rel=1e-11)


def test_circle_mean_one_plus_z_closed_form():
    # mean of |1+z|^2 on the circle of radius r is 1 + r^2
    for r in (0.3, 0.6, 0.9):
        res = circle_mean(Polynomial((1, 1)), MeanParams(2, 0), r, SPEC)
        assert res.value == pytest.approx(1 + r * r, rel=1e-12)


# ---------------------------------------------------------- circle mean deriv

def test_circle_mean_deriv_monomial():
    res = circle_mean_deriv(monomial(2), MeanParams(2, 0), 0.8, SPEC)
    assert res.value == pytest.approx(2.048, rel=1e-12)


def test_circle_mean_deriv_constant_weighted():
    res = circle_mean_deriv(Polynomial((1,)), MeanParams(2, 2), 0.5, SPEC)
    assert res.value == pytest.approx(-1.5, rel=1e-12)


@pytest.mark.parametrize(
    "f,params,r",
    [
        (Polynomial((1, 1)), MeanParams(2, 0), 0.7),
        (BlaschkeProduct((0.5,)), MeanParams(2, 1), 0.8),
        (Binomial(0.8), MeanParams(1.5, 0.5), 0.6),
    ],
)
def test_circle_mean_deriv_matches_finite_difference(f, params, r):
    h = 1e-5
    d = circle_mean_deriv(f, params, r, SPEC).value
    fd = (
        circle_mean(f, params, r + h, SPEC).value
        - circle_mean(f, params, r - h, SPEC).value
    ) / (2 * h)
    assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


def test_circle_mean_deriv_guards_zero_on_circle_small_p():
    f = Polynomial((-0.5, 1))
    with pytest.raises(RadiusNearZeroError):
        circle_mean_deriv(f, MeanParams(0.7, 0), 0.5 + 1e-8, SPEC)


# ------------------------------------------------------------- disk integrals

def test_disk_g_monomial_plain_kernel():
    # closed form: 2 pi p n r^{np}
    res = disk_integral_G(monomial(2), MeanParams(2, 0), 0.8, KERNEL_ONE, SPEC)
    assert res.value == pytest.approx(2 * TWO_PI * 2 * 0.8**4, rel=1e-10)
    assert res.converged
    assert res.error_estimate <= SPEC.rel_tol * max(1.0, abs(res.value))


def test_disk_g_constant_weighted():
    res = disk_integral_G(Polynomial((1,)), MeanParams(2, 1), 0.7, KERNEL_ONE, SPEC)
    assert res.value == pytest.approx(-4 * math.pi * 0.49, rel=1e-11)


def test_disk_g_log_kernel_closed_form():
    # int over D_r of log(r/|z|) G for f=z, p=2 equals 2 pi r^2
    res = disk_integral_G(
        monomial(1), MeanParams(2, 0), 0.5, kernel_log_r_over_abs(0.5), SPEC
    )
    assert res.value == pytest.approx(2 * math.pi * 0.25, rel=1e-10)


def test_disk_w_monomial():
    # int over D_r of |z|^{np} = 2 pi r^{np+2} / (np + 2)
    res = disk_integral_W(monomial(1), MeanParams(2, 0), 0.999, KERNEL_ONE, SPEC)
    assert res.value == pytest.approx(TWO_PI * 0.999**4 / 4, rel=1e-10)


def test_disk_w_weighted_constant():
    res = disk_integral_W(
        Polynomial((1,)), MeanParams(2, 0), 0.5, KERNEL_ONE_MINUS_ABS_SQ, SPEC
    )
    assert res.value == pytest.approx(7 * math.pi / 32, rel=1e-12)


def test_disk_w_rejects_log_weight():
    with pytest.raises(ValueError):
        disk_integral_W(
            Polynomial((1,)), MeanParams(2, 0), 0.5, KERNEL_LOG_ONE_OVER_ABS, SPEC
        )


# Features on or just outside the rim: the binomial singularity (rotated by
# @phi), a pole and a zero.  Each W integral at p = 2 has a closed form.

def binomial_w_series(alpha, p, r, n_terms=60_000):
    """pi * sum c_n^2 r^{2n+2} / (n+1) with c_n = (beta)_n / n!, beta = alpha p / 2:
    the area integral of |1 - z|^{-alpha p} over |z| < r."""
    beta = 0.5 * alpha * p
    n = np.arange(n_terms, dtype=float)
    c = np.concatenate(([1.0], np.cumprod((beta + n[:-1]) / (n[:-1] + 1.0))))
    return math.pi * math.fsum(c * c * r ** (2 * n + 2) / (n + 1))


@pytest.mark.parametrize("r", [0.9, 0.999])
@pytest.mark.parametrize(
    "text,alpha,scale",
    [
        ("binom:0.9", 0.9, 1.0),
        ("binom:0.9@1.3", 0.9, 1.0),
        ("binom:0.6*0.5-0.2i@-2.0", 0.6, 0.5 - 0.2j),
    ],
    ids=["binom:0.9", "binom:0.9@1.3", "binom:0.6*0.5-0.2i@-2.0"],
)
def test_disk_w_binomial_series(text, alpha, scale, r):
    f = parse_function(text)
    res = disk_integral_W(f, MeanParams(2, 0), r, KERNEL_ONE, SPEC)
    exact = abs(scale) ** 2 * binomial_w_series(alpha, 2.0, r)
    assert res.converged
    assert abs(res.value - exact) <= 1e-10 * exact
    if r == 0.999:
        # one graded-arc rule near the rim, not a uniform circle of s/(1-s) nodes
        assert res.nodes < 500_000


@pytest.mark.parametrize("rotation", [0.0, 2.5])
@pytest.mark.parametrize("modulus", [1.01, 1.001])
def test_disk_w_pole_outside_rim(modulus, rotation):
    # 1/(z - w) at p = 2: pi * sum r^{2n+2} / ((n+1)|w|^{2n+2}) = -pi log(1 - r^2/|w|^2)
    r = 0.999
    f = ScaledRotation(Rational(Polynomial((1,)), Polynomial((-modulus, 1))), 1.0, rotation)
    res = disk_integral_W(f, MeanParams(2, 0), r, KERNEL_ONE, SPEC)
    exact = -math.pi * math.log(1.0 - r * r / modulus**2)
    assert res.converged
    assert abs(res.value - exact) <= 1e-12 * exact


@pytest.mark.parametrize("modulus,r", [(1.02, 0.99), (1.001, 0.999)])
def test_disk_w_zero_outside_rim(modulus, r):
    # |z - w|^2 integrates to pi (|w|^2 r^2 + r^4 / 2) over |z| < r
    w = modulus * complex(math.cos(0.7), math.sin(0.7))
    res = disk_integral_W(Polynomial((-w, 1)), MeanParams(2, 0), r, KERNEL_ONE, SPEC)
    exact = math.pi * (modulus**2 * r**2 + r**4 / 2)
    assert res.converged
    assert abs(res.value - exact) <= 1e-12 * exact


# (z - w)(1 + c z^m) oscillates with frequency m on every circle, and the
# zeros of 1 + c z^m lie beyond the features the arcs are graded toward, so
# only the arc rule's error control resolves it near the rim zero w.

@pytest.mark.parametrize(
    "m,c,w,r",
    [
        (60, 1e-7, 1.001, 0.999),
        (40, 2.5e-5, 1.001, 0.999),
        (40, 8.3e-6, 1.001, 0.999),
        (60, 4.4e-9, 1.02, 0.99),
        (60, 1.3e-7, 1.1, 0.95),
    ],
)
def test_disk_g_oscillation_near_rim_zero(m, c, w, r):
    # G = 4 |f'|^2 at p = 2, so the integral is 4 pi sum n |c_n|^2 r^{2n}
    coeffs = [0.0] * (m + 2)
    coeffs[0], coeffs[1], coeffs[m], coeffs[m + 1] = -w, 1.0, -c * w, c
    res = disk_integral_G(Polynomial(tuple(coeffs)), MeanParams(2, 0), r, KERNEL_ONE, SPEC)
    exact = 4 * math.pi * math.fsum(n * a * a * r ** (2 * n) for n, a in enumerate(coeffs))
    assert res.converged
    assert abs(res.value - exact) <= res.error_estimate
    assert abs(res.value - exact) <= SPEC.rel_tol * exact


def test_disk_g_scaling_covariance():
    f = Polynomial((0.5, 1))
    g = ScaledRotation(f, 3.0, 0.0)
    p = 1.5
    base = disk_integral_G(f, MeanParams(p, 1), 0.7, KERNEL_ONE, SPEC).value
    scaled = disk_integral_G(g, MeanParams(p, 1), 0.7, KERNEL_ONE, SPEC).value
    assert scaled == pytest.approx(3**p * base, rel=1e-9)


def test_disk_additivity_over_annulus():
    f = BlaschkeProduct((0.5,))
    params = MeanParams(1.5, 0.5)
    whole = disk_integral_G(f, params, 0.8, KERNEL_ONE, SPEC)
    inner = disk_integral_G(f, params, 0.6, KERNEL_ONE, SPEC)
    ring = disk_integral_G(f, params, 0.8, KERNEL_ONE, SPEC, s_lo=0.6)
    assert abs(whole.value - inner.value - ring.value) <= (
        whole.error_estimate + inner.error_estimate + ring.error_estimate + 1e-12
    )


def test_halve_mesh_stability():
    cases = [
        (monomial(1), MeanParams(0.5, 0.5), kernel_log_r_over_abs(0.8)),
        (BlaschkeProduct((0.5,)), MeanParams(1.5, 0), kernel_log_r_over_abs(0.8)),
        (Binomial(0.9), MeanParams(2, 1), KERNEL_ONE_MINUS_ABS_SQ),
    ]
    for f, params, kernel in cases:
        res = disk_integral_G(f, params, 0.8, kernel, SPEC)
        finer = disk_integral_G(f, params, 0.8, kernel, SPEC, force_level=res.levels + 1)
        assert res.converged
        assert abs(finer.value - res.value) < max(res.error_estimate, 1e-13 * abs(res.value))


def test_deterministic_bit_identical():
    f = BlaschkeProduct((0.5,))
    params = MeanParams(1.5, 0.5)
    a = disk_integral_G(f, params, 0.8, kernel_log_r_over_abs(0.8), SPEC)
    b = disk_integral_G(f, params, 0.8, kernel_log_r_over_abs(0.8), SPEC)
    assert a.value == b.value and a.error_estimate == b.error_estimate
    c = circle_mean(Binomial(0.9), MeanParams(2, 1), 0.99, SPEC)
    d = circle_mean(Binomial(0.9), MeanParams(2, 1), 0.99, SPEC)
    assert c.value == d.value


@given(r=st.floats(0.15, 0.9))
def test_circle_mean_nondecreasing_in_r(r):
    f = Polynomial((0.3, 1, 0, 0.5j))
    params = MeanParams(1.3, 0)
    lo = circle_mean(f, params, r, SPEC).value
    hi = circle_mean(f, params, min(r + 0.05, 0.95), SPEC).value
    assert hi >= lo - 1e-10


# ---------------------------------------------------------- banded cell rule

def banded_reference(gfun, s_nodes, weights, angle_scales, splits):
    """One pass of the banded rule, arc by arc: one field call per graded arc.

    Returns each graded piece's integral per radial node (the `splits` cuts
    of a piece summed together) and the node count.
    """
    glx, glw = _gauss_rule(N_GAUSS)
    angles = sorted((a % TWO_PI, sc) for a, sc in angle_scales)
    columns = []
    nodes = 0
    for j, (a_j, sc_j) in enumerate(angles):
        if j + 1 < len(angles):
            b_j, sc_b = angles[j + 1]
        else:
            b_j, sc_b = angles[0][0] + TWO_PI, angles[0][1]
        pts = _graded_segment(a_j, b_j, sc_j, sc_b)
        for t1, t2 in zip(pts[:-1], pts[1:]):
            step = (t2 - t1) / splits
            h_piece = np.zeros_like(s_nodes)
            for i in range(splits):
                lo_t, hi_t = t1 + i * step, t1 + (i + 1) * step
                mid_t, half_t = 0.5 * (lo_t + hi_t), 0.5 * (hi_t - lo_t)
                th = mid_t + half_t * glx
                mat = np.asarray(
                    gfun(s_nodes[:, None] * np.exp(1j * th)[None, :]), dtype=float
                )
                if not np.all(np.isfinite(mat)):
                    raise _CellCollision
                h_piece = h_piece + half_t * (mat @ glw)
                nodes += mat.size
            columns.append(h_piece)
    return np.stack(columns, axis=1), nodes


def banded_cell(points, a, b):
    """Radial nodes, weights and angle scales of the cell [a, b], built as
    the disk rule builds them for features (sharp zeros or rim points) at
    the given points."""
    glx, glw = _gauss_rule(N_GAUSS)
    s = 0.5 * (a + b) + 0.5 * (b - a) * glx
    weights = glw * 0.5 * (b - a) * s
    scales = []
    for z0 in points:
        s0 = abs(z0)
        d = float(np.min(np.abs(s - s0)))
        scales.append((math.atan2(z0.imag, z0.real), max(d / s0, 1e-15)))
    return s, weights, scales


ZERO_CELLS = ((0.45, 0.55), (0.5 - 1e-4, 0.5 + 3e-4), (0.3, 0.4))


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize(
    "f,points,p,q,cells",
    [
        (BlaschkeProduct((0.5,)), (0.5 + 0j,), 1.0, 0.0, ZERO_CELLS),
        (
            BlaschkeProduct((0.5, 0.5 * np.exp(2.2j))),
            (0.5 + 0j, 0.5 * np.exp(2.2j)),
            1.5,
            0.5,
            ZERO_CELLS,
        ),
        # the binomial's rim point e^{-1.3i}: one feature, angular scale 1 - s
        (
            ScaledRotation(Binomial(0.9), 1.0, 1.3),
            (np.exp(-1.3j),),
            2.0,
            1.0,
            ((0.85, 0.9), (0.99, 0.999)),
        ),
    ],
    ids=["one-zero", "two-zeros", "rim-point"],
)
def test_banded_rule_matches_per_arc_reference(f, points, p, q, cells, level):
    # tol_abs = inf stops after one doubling: the rule returns the pass at
    # 2 * splits and its piece-by-piece change from the pass at splits
    params = MeanParams(p, q)
    splits = 1 << level

    def gfun(z):
        return g_values(f, params, z)

    for a, b in cells:
        s, weights, scales = banded_cell(points, a, b)
        value, delta, nodes, conv = _cell_theta_banded(gfun, s, weights, scales, splits, math.inf)
        coarse, coarse_nodes = banded_reference(gfun, s, weights, scales, splits)
        fine, fine_nodes = banded_reference(gfun, s, weights, scales, 2 * splits)
        mass = float(np.sum(np.abs(weights[:, None] * fine)))
        assert conv
        assert nodes == coarse_nodes + fine_nodes
        assert abs(value - kahan_sum(weights * fine.sum(axis=1))) <= 1e-13 * mass
        ref_delta = float(np.sum(np.abs(weights[:, None] * (fine - coarse))))
        assert abs(delta - ref_delta) <= 1e-13 * mass


def test_banded_rule_non_finite_node_is_a_collision():
    s, weights, scales = banded_cell((0.5 + 0j,), 0.45, 0.55)

    def gfun(z):
        g = np.abs(z)
        g[-1, -1] = np.nan  # the last node of the last arc
        return g

    with pytest.raises(_CellCollision):
        _cell_theta_banded(gfun, s, weights, scales, 1, math.inf)
    with pytest.raises(_CellCollision):
        banded_reference(gfun, s, weights, scales, 1)


# ------------------------------------------------------------- ring integrals

def test_ring_limit_at_origin():
    f = Polynomial((1, 1))
    params = MeanParams(2, 0)
    kernel = kernel_log_r_over_abs(0.9)
    vals = [
        ring_integral(f, params, 0, 2.0**-j, kernel, 0.9, SPEC) for j in (6, 10, 14)
    ]
    errs = [abs(v - TWO_PI) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-5


def test_ring_decay_at_interior_zero():
    f = Polynomial((-0.5, 1))
    params = MeanParams(2, 0)
    kernel = kernel_log_r_over_abs(0.9)
    vals = [
        abs(ring_integral(f, params, 0.5, 2.0**-j, kernel, 0.9, SPEC))
        for j in (4, 6, 8, 10)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # kp = 2 here, so the decay rate is eps^2: a factor 2^-12 over the schedule
    assert vals[-1] < 1e-3 * vals[0]


def test_ring_weighted_kernel_decays_at_zero():
    f = BlaschkeProduct((0.5,))
    params = MeanParams(2, 0)
    vals = [
        abs(ring_integral(f, params, 0.5, 2.0**-j, KERNEL_ONE_MINUS_ABS_SQ, 0.9, SPEC))
        for j in (4, 6, 8)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_ring_geometry_errors():
    f = Polynomial((1, 1))
    params = MeanParams(2, 0)
    with pytest.raises(GeometryError):
        ring_integral(f, params, 0.85, 0.1, KERNEL_ONE_MINUS_ABS_SQ, 0.9, SPEC)
    with pytest.raises(GeometryError):
        ring_integral(f, params, 0, 1e-10, KERNEL_ONE_MINUS_ABS_SQ, 0.9, SPEC)
    with pytest.raises(ValueError):
        ring_integral(f, params, 0, 0.01, KERNEL_ONE, 0.9, SPEC)
