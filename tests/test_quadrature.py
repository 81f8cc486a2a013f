import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hardylab.accum import kahan_sum, tree_sum
from hardylab.asymptotics import rate_probe
from hardylab.fields import (
    MeanParams,
    g_values,
    grad_w_values,
    gw_values,
    radial_deriv_w_values,
    w_values,
    wd_values,
)
from hardylab.functions import (
    Binomial,
    BlaschkeProduct,
    Polynomial,
    Rational,
    ScaledRotation,
    zeros_in_disk,
)
from hardylab.golden import seeded_poly5
from hardylab.parsing import parse_function
import hardylab.quadrature as quadrature
from hardylab.quadrature import (
    ARC_ROUNDING,
    ARC_T,
    _cells_theta,
    _radial_partition,
    _zero_singularities,
    BATCH_POINTS,
    GeometryError,
    KERNEL_LOG_ONE_OVER_ABS,
    KERNEL_ONE,
    KERNEL_ONE_MINUS_ABS_SQ,
    KRONROD_ROUNDING,
    KRONROD_RULE,
    N_THETA_INIT,
    N_THETA_MAX,
    QuadratureError,
    QuadratureSpec,
    RadiusNearZeroError,
    circle_integrals,
    circle_mean,
    circle_mean_deriv,
    disk_integral_G,
    disk_integral_W,
    disk_integrals,
    kernel_log_r_over_abs,
    ring_integral,
    ring_integrals,
)

SPEC = QuadratureSpec()
TWO_PI = 2 * math.pi


class _CellCollision(Exception):
    """A reference rule met a non-finite node."""
# the disk's radial rule: 21 Kronrod nodes that embed 10 Gauss-Legendre ones
N_GAUSS = 10
KRONROD_X, KRONROD_W, KRONROD_GAUSS_W = KRONROD_RULE


def monomial(n):
    return Polynomial((0,) * n + (1,))


def test_spec_validation():
    # a tolerance of 1 or more admits any answer; inf overflowed the grading
    for tol in (0.0, math.inf, math.nan, 1.0):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=tol)


# ------------------------------------------------------- Kronrod radial rule

def test_kronrod_rule_embeds_gauss():
    gx, gw = np.polynomial.legendre.leggauss(N_GAUSS)
    assert len(KRONROD_X) == 2 * N_GAUSS + 1
    assert np.all(np.diff(KRONROD_X) > 0)
    assert np.max(np.abs(KRONROD_X[1::2] - gx)) <= 1e-15
    assert KRONROD_GAUSS_W[1::2].tolist() == gw.tolist()
    assert not KRONROD_GAUSS_W[0::2].any()
    # the rule is its non-negative half mirrored, bit for bit
    assert (-KRONROD_X[::-1]).tolist() == KRONROD_X.tolist() and KRONROD_X[N_GAUSS] == 0.0
    for weights in (KRONROD_W, KRONROD_GAUSS_W):
        assert weights[::-1].tolist() == weights.tolist()


def test_kronrod_weights_positive_and_exact_to_degree_31():
    assert np.all(KRONROD_W > 0)
    assert abs(KRONROD_W.sum() - 2.0) <= 1e-14
    for d in range(32):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert abs(np.dot(KRONROD_W, KRONROD_X**d) - exact) <= 1e-14, d
    # the Gauss rule embedded on the same nodes is exact to degree 19 only
    for d in range(20):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert abs(np.dot(KRONROD_GAUSS_W, KRONROD_X**d) - exact) <= 1e-14, d
    assert abs(np.dot(KRONROD_GAUSS_W, KRONROD_X**20) - 2.0 / 21) > 1e-6


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


# ------------------------------------------------- circles near features

def binomial_mean_exact(alpha, scale, params, r):
    """Circle mean of W for scale * (1 - z)^(-alpha) and its r-derivative:
    |c|^p (1 - r^2)^q 2F1(a, a; 1; r^2) with a = alpha p / 2, and
    d/dx 2F1(a, a; 1; x) = a^2 2F1(a + 1, a + 1; 2; x)."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    a, x, q = mpmath.mpf(alpha * params.p) / 2, mpmath.mpf(r) ** 2, params.q
    c = mpmath.mpf(abs(scale)) ** params.p
    h, dh = mpmath.hyp2f1(a, a, 1, x), a * a * mpmath.hyp2f1(a + 1, a + 1, 2, x)
    mean = c * (1 - x) ** q * h
    dmean_dx = c * ((1 - x) ** q * dh - q * (1 - x) ** (q - 1) * h)
    return float(mean), float(2 * r * dmean_dx)


@pytest.mark.parametrize("j", [1, 4, 8, 12, 16, 20])
@pytest.mark.parametrize(
    "alpha,scale,rotation,params",
    [
        (0.9, 1.0, 0.0, MeanParams(2, 0)),
        (0.5, 1.0, 0.0, MeanParams(1.5, 0.5)),
        (0.9, 2 - 1j, 1.3, MeanParams(2, 1)),
    ],
    ids=["binom-0.9", "binom-0.5-weighted", "rotated-scaled"],
)
def test_binomial_circle_means_closed_form(alpha, scale, rotation, params, j):
    # the binomial point at |w| = 1 is a feature, so from j = 3 on these
    # circles take tanh-sinh arcs; j = 1 checks the periodic rule
    r = 1.0 - 2.0**-j
    f = ScaledRotation(Binomial(alpha), scale, rotation)
    mean, deriv = binomial_mean_exact(alpha, scale, params, r)
    for res, exact in ((circle_mean(f, params, r, SPEC), mean),
                       (circle_mean_deriv(f, params, r, SPEC), deriv)):
        assert res.converged
        assert abs(res.value - exact) <= SPEC.rel_tol * max(1.0, abs(exact))


@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("d", [1e-3, 1e-5, 1e-7])
def test_circle_mean_next_to_a_zero_closed_form(d, p):
    # f = z - a with |a| < r: the mean of |f|^p is
    # r^p 2F1(-p/2, -p/2; 1; (|a|/r)^2)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    a, r = 0.5, 0.5 + d
    exact = float(mpmath.mpf(r) ** p * mpmath.hyp2f1(-p / 2, -p / 2, 1, (a / mpmath.mpf(r)) ** 2))
    res = circle_mean(Polynomial((-a, 1)), MeanParams(p, 0), r, SPEC)
    assert res.converged
    assert abs(res.value - exact) <= SPEC.rel_tol * max(1.0, abs(exact))


def test_binomial_rim_circle_work_stays_small():
    # the periodic rule from a node floor 64 s / (1 - r) ran into its 2^20
    # cap here; the work of a tanh-sinh arc grows like log 1/(1 - r), and its
    # levels double, so from j = 10 to 20 it at most doubles
    params = MeanParams(2, 0)
    mean, _ = binomial_mean_exact(0.9, 1.0, params, 0.999999)
    res = circle_mean(Binomial(0.9), params, 0.999999, SPEC)
    assert res.converged and res.nodes < 10_000
    assert abs(res.value - mean) <= SPEC.rel_tol * abs(mean)
    for integral in (circle_mean, circle_mean_deriv):
        nodes = [integral(Binomial(0.9), params, 1.0 - 2.0**-j, SPEC).nodes for j in (10, 20)]
        assert nodes[1] <= 2 * nodes[0]


def test_binomial_rim_circle_stops_on_its_last_change():
    # binom:0.9 at p = 2, q = 1, r = 1 - 2^-10: its mean and derivative take 512
    # nodes and 3 doublings; an estimate of the larger of the last two changes
    # took 1,024 and 4, a round that only confirmed the value it had
    r, params = 1.0 - 2.0**-10, MeanParams(2, 1)
    exact = binomial_mean_exact(0.9, 1.0, params, r)
    batch = circle_integrals(Binomial(0.9), params, (r,), SPEC, ("W", "dW/dr"))
    for res, value in zip(next(batch), exact):
        assert res.converged and res.nodes <= 512
        assert abs(res.value - value) <= max(res.error_estimate, SPEC.rel_tol * max(1.0, abs(value)))


def record_arcs(monkeypatch):
    """(cells, arcs per cell) of each group of featured cells, at its first
    round: the cells are indices into the engine's batch."""
    groups = []
    arc_round = quadrature._arc_round

    def spy(g, sums, abs_sums, step, first, *args):
        if first:
            groups.append((g["cells"].tolist(), g["a"].shape[2]))
        return arc_round(g, sums, abs_sums, step, first, *args)

    monkeypatch.setattr(quadrature, "_arc_round", spy)
    return groups


@pytest.mark.parametrize("integral", [circle_mean, circle_mean_deriv])
def test_circle_rules_agree_at_the_band_edge(integral, monkeypatch):
    # blaschke:0.5 has its zero at |w| = 0.5, so the band edge is r = 0.6:
    # just inside it the circle is one tanh-sinh arc, just outside periodic
    groups = record_arcs(monkeypatch)
    f, params = BlaschkeProduct((0.5,)), MeanParams(1.5, 0.5)
    inside = integral(f, params, 0.6 * (1 - 1e-12), SPEC)
    assert groups == [([0], 1)]
    outside = integral(f, params, 0.6 * (1 + 1e-12), SPEC)
    assert groups == [([0], 1)]
    assert inside.converged and outside.converged
    assert abs(inside.value - outside.value) <= SPEC.rel_tol * max(1.0, abs(outside.value))


@pytest.mark.parametrize("r", [0.3, 0.55])
def test_circle_non_finite_node_raises(r, monkeypatch):
    # r = 0.3 is periodic and r = 0.55 one tanh-sinh arc (at odd p: at even
    # p the zero is no feature)
    def broken(f, params, z):
        out = w_values(f, params, z)
        out[..., -1] = np.nan
        return out

    monkeypatch.setattr(quadrature, "w_values", broken)
    with pytest.raises(QuadratureError, match="non-finite integrand value on circle"):
        circle_mean(BlaschkeProduct((0.5,)), MeanParams(3, 0), r, SPEC)


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


@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("n", [1, 3])
def test_disk_integrals_g_every_kernel_closed_form(n, p):
    # f = z^n at q = 0 has mean r^a with a = np, so G = a^2 |z|^{a-2} and
    # W = |z|^a; the G rows and the W rows share one mesh
    r, a = 0.8, n * p
    kernels = (
        KERNEL_ONE,
        kernel_log_r_over_abs(r),
        KERNEL_LOG_ONE_OVER_ABS,
        KERNEL_ONE_MINUS_ABS_SQ,
    )
    weights = (KERNEL_ONE, KERNEL_ONE_MINUS_ABS_SQ)
    closed = (
        TWO_PI * a * r**a,
        TWO_PI * r**a,
        TWO_PI * r**a * (1.0 - a * math.log(r)),
        TWO_PI * (a * r**a - a * a * r ** (a + 2) / (a + 2)),
        TWO_PI * r ** (a + 2) / (a + 2),
        TWO_PI * (r ** (a + 2) / (a + 2) - r ** (a + 4) / (a + 4)),
    )
    (results,) = disk_integrals(monomial(n), MeanParams(p, 0), (r,), kernels, weights, SPEC)
    assert len(results) == len(kernels) + len(weights)
    for kernel, res, exact in zip(kernels + weights, results, closed):
        assert res.converged, kernel.name
        assert res.value == pytest.approx(exact, rel=1e-9), kernel.name


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
        # tanh-sinh arcs near the rim, not a uniform circle of s/(1-s) nodes
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
# zeros of 1 + c z^m lie beyond the features the arcs are split at, so only
# the arcs' error control resolves it near the rim zero w.

@pytest.mark.parametrize(
    "m,c,w,r",
    [
        (60, 1e-7, 1.001, 0.999),
        (40, 2.5e-5, 1.001, 0.999),
        (40, 8.3e-6, 1.001, 0.999),
        (60, 4.4e-9, 1.02, 0.99),
        (60, 1.3e-7, 1.1, 0.95),
        (40, 8.3e-6, 1.1, 0.95),
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
    ring = disk_integrals(f, params, (0.6, 0.8), (KERNEL_ONE,), (), SPEC)[1][0]
    assert abs(whole.value - inner.value - ring.value) <= (
        whole.error_estimate + inner.error_estimate + ring.error_estimate + 1e-12
    )


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("p", [0.5, 3.0])
def test_rim_annulus_closed_forms(n, p):
    # z^n at q = 0 over lo < |z| < hi: G = c^2 |z|^{c-2} and W = |z|^c, c = np.
    # The closed forms cancel badly this close to the rim, so mpmath
    # evaluates them; W's estimate is 0 where its rule is exact, so float
    # rounding of the value is allowed on top of each estimate.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    lo, hi = 1 - 2.0**-9, 1 - 2.0**-10
    a, b, c = mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(n * p)
    g_exact = 2 * mpmath.pi * c**2 * (
        (b**c - a**c) / c - (b ** (c + 2) - a ** (c + 2)) / (c + 2)
    )
    w_exact = 2 * mpmath.pi * (b ** (c + 2) - a ** (c + 2)) / (c + 2)
    params = MeanParams(p, 0)
    g = disk_integrals(monomial(n), params, (lo, hi), (KERNEL_ONE_MINUS_ABS_SQ,), (), SPEC)[1][0]
    w = disk_integrals(monomial(n), params, (lo, hi), (), (KERNEL_ONE,), SPEC)[1][0]
    for res, exact in ((g, g_exact), (w, w_exact)):
        assert res.converged
        exact = float(exact)
        assert abs(res.value - exact) <= res.error_estimate + 4e-16 * abs(exact)


def test_annulus_above_sharp_zero_tiles_the_disk():
    # the first annulus of the golden blaschke:0.5 area-limit schedule starts
    # 1e-6 above the zero, where G ~ |z - 0.5|^{-0.5}
    f, params = BlaschkeProduct((0.5,)), MeanParams(1.5, 0)
    lo, hi = 0.500001, 0.75
    for rows in (((KERNEL_ONE_MINUS_ABS_SQ,), ()), ((), (KERNEL_ONE,))):
        (inner,), (ring,) = disk_integrals(f, params, (lo, hi), *rows, SPEC)
        ((whole,),) = disk_integrals(f, params, (hi,), *rows, SPEC)
        assert inner.converged and ring.converged and whole.converged
        assert abs(inner.value + ring.value - whole.value) <= (
            inner.error_estimate + ring.error_estimate + whole.error_estimate
        )


@pytest.mark.parametrize("s_lo", [0.9, 0.8, -0.1])
@pytest.mark.parametrize("integral", ["disk_integral_G", "disk_integral_W"])
def test_disk_rejects_inner_radius_outside_range(integral, s_lo):
    # an annulus s_lo < |z| < 0.8 of G or W is piece 1 of the radius list
    # (s_lo, 0.8), which needs 0 <= s_lo < 0.8
    rows = ((KERNEL_ONE,), ()) if integral == "disk_integral_G" else ((), (KERNEL_ONE,))
    match = "0 < r < 1" if s_lo < 0 else "strictly increasing"
    with pytest.raises(ValueError, match=match):
        disk_integrals(monomial(1), MeanParams(2, 0), (s_lo, 0.8), *rows, SPEC)


@contextlib.contextmanager
def disk_level(level):
    """Disk integrals inside run round 0 alone, over the cells of
    _radial_partition each split 2^level-fold."""
    partition = quadrature._radial_partition

    def finer(*args):
        n = 1 << level
        return [(a + j * (b - a) / n, a + (j + 1) * (b - a) / n)
                for a, b in partition(*args) for j in range(n)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "MAX_LEVELS", 1)
        mp.setattr(quadrature, "_radial_partition", finer)
        yield


def test_disk_integrals_reject_an_empty_row_list(monkeypatch):
    calls, disk_once = [], quadrature._disk_once
    monkeypatch.setattr(quadrature, "_disk_once", lambda *a: calls.append(a) or disk_once(*a))
    with pytest.raises(ValueError, match="at least one G kernel or W weight"):
        disk_integrals(monomial(1), MeanParams(2, 0), (0.8,), (), (), SPEC)
    assert not calls


def test_halve_mesh_stability():
    cases = [
        (monomial(1), MeanParams(0.5, 0.5), kernel_log_r_over_abs(0.8)),
        (BlaschkeProduct((0.5,)), MeanParams(1.5, 0), kernel_log_r_over_abs(0.8)),
        (Binomial(0.9), MeanParams(2, 1), KERNEL_ONE_MINUS_ABS_SQ),
    ]
    for f, params, kernel in cases:
        res = disk_integral_G(f, params, 0.8, kernel, SPEC)
        with disk_level(res.levels + 1):
            finer = disk_integral_G(f, params, 0.8, kernel, SPEC)
        assert res.converged
        assert abs(finer.value - res.value) < max(res.error_estimate, 1e-13 * abs(res.value))


def scripted_disk_once(calls, leaf):
    """A stand-in for _disk_once, recording each batch of cells (piece, a, b,
    depth) in calls: a cell ends as one leaf of 10 nodes, its Kronrod values
    0, so a piece's value is 0, its tolerance rel_tol and its estimate the sum
    over leaves of the Gauss values and changes that leaf(cell) gives per
    kernel, with its angular flag."""
    def disk_once(gfun, kernels, pieces, cells, *_):
        calls.append(cells)
        out = []
        for cell in cells:
            gauss, change, conv = leaf(cell)
            out.append((*cell, [0.0] * len(kernels) + list(gauss),
                        list(change) * 2, 10, [conv] * 2 * len(kernels)))
        return out
    return disk_once


@pytest.mark.parametrize(
    "script,levels,converged",
    [
        # the estimates of blaschke:0.5 at p = 0.3: the rise ends refinement
        ([(2.17e-6,), (3.84e-6,), (1.2e-2,)], 1, (False,)),
        # a flat estimate is no progress either
        ([(1e-6,), (1e-6,), (1e-9,)], 1, (False,)),
        # a steady fall runs to MAX_LEVELS rounds, and one that reaches tol converges
        ([(5e-6,), (4e-6,), (3e-6,), (2e-6,), (1e-6,)], 4, (False,)),
        ([(1e-5,), (1e-6,), (1e-7,)], 2, (True,)),
        # a converged kernel whose estimate rises does not stop the others
        ([(1e-9, 1e-5), (5e-8, 1e-6), (6e-8, 1e-7)], 2, (True, True)),
        # the fall of the first kernel runs on; then only the second is left
        ([(1e-5, 1e-5), (1e-6, 2e-5), (1e-7, 3e-5), (1e-8, 1e-9)], 2, (True, False)),
    ],
)
def test_disk_refinement_stops_once_no_estimate_falls(script, levels, converged, monkeypatch):
    # the lowest cell carries the piece's whole estimate, script[depth] after
    # `depth` bisections, so each round bisects it alone, worst first: its
    # lower half carries the next estimate and its upper half none
    calls = []
    zeros = (0.0,) * len(converged)
    leaf = lambda cell: (script[cell[3]] if cell[1] == 0.0 else zeros, zeros, True)
    monkeypatch.setattr(quadrature, "_disk_once", scripted_disk_once(calls, leaf))
    kernels = (KERNEL_ONE, KERNEL_ONE_MINUS_ABS_SQ)[:len(converged)]
    (results,) = disk_integrals(monomial(1), MeanParams(2, 0), (0.9,), kernels, (), SPEC)
    first = calls[0][0]
    assert [len(cells) for cells in calls[1:]] == [2] * levels
    assert all(cells[0] == (0, 0.0, first[2] / 2**d, d) for d, cells in enumerate(calls[1:], 1))
    assert [res.converged for res in results] == list(converged)
    assert [res.error_estimate for res in results] == list(script[levels])
    nodes = 10 * sum(map(len, calls))
    assert all(res.levels == levels and res.nodes == nodes for res in results)


@pytest.mark.parametrize("stuck,levels", [(2e-6, 0), (5e-8, 1)])
def test_disk_bisection_leaves_angularly_unconverged_cells(stuck, levels, monkeypatch):
    # the top cell's angular rule ends unconverged with a change of `stuck`,
    # and the lowest cell carries 1e-6 of radial estimate, 1e-9 once split.
    # A radial split cannot lower an angular error: over the tolerance
    # (1e-7), the stuck cell stops its piece at once with round 0's nodes;
    # under it, the lowest cell alone is split and the stuck one never is
    calls = []

    def leaf(cell):
        _, a, b, depth = cell
        if b == 0.9:
            return (0.0,), (stuck,), False
        return ((1e-6, 1e-9)[depth] if a == 0.0 else 0.0,), (0.0,), True

    monkeypatch.setattr(quadrature, "_disk_once", scripted_disk_once(calls, leaf))
    ((res,),) = disk_integrals(monomial(1), MeanParams(2, 0), (0.9,), (KERNEL_ONE,), (), SPEC)
    assert len(calls) == levels + 1 and not res.converged and res.levels == levels
    assert res.nodes == 10 * sum(map(len, calls))
    if levels:
        a, b = calls[0][0][1:3]
        assert calls[1] == [(0, a, b / 2, 1), (0, b / 2, b, 1)]
        assert res.error_estimate == 1e-9 + stuck


@pytest.mark.parametrize("q", [0, 1])
def test_disk_refinement_reaches_a_level_that_lowers_the_estimate(q, monkeypatch):
    # at tol 1e-12 round 0 estimates 2.7e-12 over 48 cells, most of it on the
    # cells next to the origin: round 1 bisects 1 (q = 0) or 2 of them, where
    # splitting all 48 took 24,192 nodes
    batches = []

    def cells_theta(*args):
        batches.append(len(args[1]))
        return _cells_theta(*args)

    monkeypatch.setattr(quadrature, "_cells_theta", cells_theta)
    spec = QuadratureSpec(1e-12)
    res = disk_integral_G(monomial(1), MeanParams(0.7, q), 0.5, KERNEL_ONE, spec)
    assert res.converged and res.levels == 1
    assert batches[0] == 48 and batches[1] <= 4 and res.nodes < 24192
    if q == 0:
        # the integral of G over D_r is 2 pi r M'(r), and M(r) = r^p
        assert abs(res.value - TWO_PI * 0.7 * 0.5**0.7) <= spec.rel_tol * res.value


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


# ------------------------------------------------------- banded cells: arcs

def on_circle(gfun):
    """The angular engine's integrand(s, u) of a field gfun(z) at z = s u."""
    return lambda s, u: gfun(s * u)


def tanh_sinh_reference(gfun, s_nodes, angles, n):
    """Each arc's integral per radial node by the trapezoid rule of n steps in
    t on [-ARC_T, ARC_T] under theta = a + (b - a) x(t), computed afresh arc
    by arc: (pieces (n_s, arcs), nodes).  t = ARC_T is left out, as the
    weight there is below 1e-35.  x = (1 + tanh(pi/2 sinh t)) / 2 is written
    as 1 / (1 + e^{-pi sinh t}), the engine's form: next to a zero the
    integrand magnifies a node's last-bit shift up to 1e5-fold."""
    cuts = sorted(a % TWO_PI for a in angles)
    cuts.append(cuts[0] + TWO_PI)
    t = ARC_T * (2.0 * np.arange(n) / n - 1.0)
    e = np.exp(-math.pi * np.sinh(t))
    x, dx = 1.0 / (1.0 + e), math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    columns = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mat = np.asarray(gfun(s_nodes[:, None] * np.exp(1j * (a + (b - a) * x))), dtype=float)
        if not np.all(np.isfinite(mat)):
            raise _CellCollision
        columns.append((2.0 * ARC_T / n) * (b - a) * (mat @ dx))
    return np.stack(columns, axis=1), len(s_nodes) * len(columns) * n


def banded_cell(points, a, b):
    """Radial Gauss nodes and weights of the cell [a, b], and the peaks
    (|w|, angle) of the features (sharp zeros or rim points) at the given
    points.  Some cells are centred on a zero's modulus, which the disk
    rule's partition never makes; the Kronrod rule's middle node would sit
    on the zero's circle there, so these cells take Gauss nodes."""
    glx, glw = np.polynomial.legendre.leggauss(N_GAUSS)
    s = 0.5 * (a + b) + 0.5 * (b - a) * glx
    weights = glw * 0.5 * (b - a) * s
    return s, weights, [(abs(z), math.atan2(z.imag, z.real)) for z in points]


ZERO_CELLS = ((0.45, 0.55), (0.5 - 1e-4, 0.5 + 3e-4), (0.41, 0.45))


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
        # the binomial's rim point e^{-1.3i}: one feature
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
    # a featured cell's value is the per-arc reference at its last step; its
    # estimate is twice its last change, arc by arc and radial node by radial
    # node, plus the rounding floor, in which a radial node s counts 1 / (1 - s)
    # times; arcs start at 2 n0 steps, so level 0 starts at 64 and level 1 at 128
    params = MeanParams(p, q)
    n0 = N_THETA_INIT << level

    def gfun(z):
        return g_values(f, params, z)

    for a, b in cells:
        s, weights, peaks = banded_cell(points, a, b)
        angles = [angle for _, angle in peaks]
        values, deltas, nodes, conv, doublings = _cells_theta(
            on_circle(gfun), s[None], weights[None, None], n0, [1e-9], peaks=[peaks]
        )
        assert conv[0, 0]
        # the last step count per arc, n = 2 n0 * 2^doublings
        n = 2 * n0 << doublings[0]
        assert doublings[0] >= 2
        fine, fine_nodes = tanh_sinh_reference(gfun, s, angles, n)
        mid, _ = tanh_sinh_reference(gfun, s, angles, n // 2)
        assert nodes[0] == fine_nodes
        mass = float(np.sum(np.abs(weights[:, None] * fine)))
        assert abs(values[0, 0] - kahan_sum(weights * fine.sum(axis=1))) <= 1e-15 * mass
        change = float(np.sum(np.abs(weights[:, None] * (fine - mid))))
        floor = ARC_ROUNDING * float(np.sum(np.abs(weights[:, None] * fine).sum(axis=1) / (1 - s)))
        assert abs(deltas[0, 0] - (2 * change + floor)) <= 1e-15 * mass


def test_featured_cell_does_not_stop_on_its_first_change():
    # a constant over one arc: the tanh-sinh sums of 64 and 128 steps agree to
    # the bit, so the first round's change is 0.  The first round's estimate
    # is inf all the same, so the cell stops at round 2, on its second change,
    # with 2 n0 << 2 = 256 steps of its one arc
    s, one = np.array([0.5]), (lambda z: np.ones(z.shape))
    first, mid = (tanh_sinh_reference(one, s, [1.0], n)[0] for n in (64, 128))
    assert first.sum() == mid.sum() == TWO_PI
    values, deltas, nodes, conv, doublings = _cells_theta(
        on_circle(one), s[None], np.ones((1, 1, 1)), N_THETA_INIT, [1e-9], peaks=[[(0.5, 1.0)]]
    )
    assert conv.all() and doublings.tolist() == [2] and nodes.tolist() == [256]
    assert values[0, 0] == TWO_PI
    # the second change is 0 too: the estimate is the rounding floor alone
    assert deltas[0, 0] == pytest.approx(ARC_ROUNDING * TWO_PI / (1 - 0.5), rel=1e-12)


def test_banded_rule_non_finite_node_is_a_collision():
    s, weights, peaks = banded_cell((0.5 + 0j,), 0.45, 0.55)

    def gfun(z):
        g = np.abs(z)
        g[-1, -1] = np.nan  # the last node of the last arc
        return g

    _, _, nodes, _, _ = _cells_theta(
        on_circle(gfun), s[None], weights[None, None], N_THETA_INIT, [math.inf], peaks=[peaks]
    )
    assert nodes.tolist() == [0]
    with pytest.raises(_CellCollision):
        tanh_sinh_reference(gfun, s, [angle for _, angle in peaks], N_THETA_INIT)


def test_featured_round_over_the_cap_is_sliced():
    # a Kronrod cell just above two zeros, whose arcs start at 512 steps: its
    # first round holds 21 * 2 * 1024 = 43,008 points, so it runs in four calls
    # of 10,752 over slices of its steps, and its value is still the per-arc
    # reference
    f, params = BlaschkeProduct((0.5, 0.5 * np.exp(2.2j))), MeanParams(1.5, 0.5)
    s, weights = periodic_cells([(0.5, 0.6)], (KERNEL_ONE,))
    peaks = [(0.5, 0.0), (0.5, 2.2)]
    shapes = []

    def gfun(z):
        shapes.append(z.shape)
        return g_values(f, params, z)

    values, _, nodes, conv, doublings = _cells_theta(
        on_circle(gfun), s, weights, 256, [math.inf] * 2, peaks=[peaks]
    )
    assert conv.all() and doublings.tolist() == [1] and nodes.tolist() == [43_008]
    assert [math.prod(shape) for shape in shapes] == [10_752] * 4
    fine, _ = tanh_sinh_reference(gfun, s[0], [0.0, 2.2], 1024)
    mass = float(np.sum(np.abs(weights[0, 0][:, None] * fine)))
    for row, value in zip(weights[0], values[0]):
        assert abs(value - kahan_sum(row * fine.sum(axis=1))) <= 1e-15 * mass


# -------------------------------------------------------- periodic cell rule

def periodic_reference(gfun, s_nodes, weights, n0, tol_abs):
    """The periodic rule one cell at a time: one field call per doubling.

    Returns (values, deltas, nodes, conv) with one entry per weight row, or
    raises _CellCollision at the first non-finite node.
    """
    n = n0
    theta = TWO_PI * np.arange(n) / n
    mat = np.asarray(gfun(s_nodes[:, None] * np.exp(1j * theta)[None, :]), dtype=float)
    if not np.all(np.isfinite(mat)):
        raise _CellCollision
    h = (TWO_PI / n) * mat.sum(axis=1)
    values = [kahan_sum((row * h).tolist()) for row in weights]
    nodes = mat.size
    while True:
        mid = TWO_PI * (np.arange(n) + 0.5) / n
        mat = np.asarray(gfun(s_nodes[:, None] * np.exp(1j * mid)[None, :]), dtype=float)
        if not np.all(np.isfinite(mat)):
            raise _CellCollision
        h = 0.5 * h + (math.pi / n) * mat.sum(axis=1)
        new_values = [kahan_sum((row * h).tolist()) for row in weights]
        deltas = [abs(new - old) for new, old in zip(new_values, values)]
        values = new_values
        nodes += mat.size
        n *= 2
        conv = [d <= t for d, t in zip(deltas, tol_abs)]
        if all(conv) or n >= N_THETA_MAX:
            return values, deltas, nodes, conv


def periodic_cells(cells, kernels):
    """Radial nodes (n_cells, 2 N_GAUSS + 1) and weights (n_cells,
    2 n_kernels, 2 N_GAUSS + 1) of the cells [a, b], built as the disk rule
    builds them: every kernel's Kronrod row, then every kernel's Gauss row."""
    ends = np.array(cells)
    mid, half = 0.5 * (ends[:, 0] + ends[:, 1]), 0.5 * (ends[:, 1] - ends[:, 0])
    s = mid[:, None] + half[:, None] * KRONROD_X
    radial = np.stack([half[:, None] * kernel.radial(s) * s for kernel in kernels], axis=1)
    return s, np.concatenate([radial * KRONROD_W, radial * KRONROD_GAUSS_W], axis=1)


# (z - 1.1)(1 + 8.3e-6 z^40): cells toward the rim need more doublings
RIM_OSCILLATION = Polynomial((-1.1, 1.0) + (0.0,) * 38 + (-1.1 * 8.3e-6, 8.3e-6))
PERIODIC_KERNELS = (
    KERNEL_ONE,
    kernel_log_r_over_abs(0.95),
    KERNEL_LOG_ONE_OVER_ABS,
    KERNEL_ONE_MINUS_ABS_SQ,
)


@pytest.mark.parametrize("n_rows", [1, 4])
@pytest.mark.parametrize(
    "f,params,cells",
    [
        (parse_function("poly:0,1"), MeanParams(1.5, 0.5), ((0.05, 0.1), (0.3, 0.5), (0.5, 0.9))),
        (
            RIM_OSCILLATION,
            MeanParams(1.0, 0.0),
            ((0.1, 0.2), (0.6, 0.7), (0.7, 0.75), (0.8, 0.85), (0.85, 0.9), (0.9, 0.95)),
        ),
    ],
    ids=["monomial", "rim-oscillation"],
)
def test_periodic_rule_matches_per_cell_reference(f, params, cells, n_rows):
    s, weights = periodic_cells(cells, PERIODIC_KERNELS[:n_rows])
    # one tolerance per Kronrod row and per Gauss row
    tol = [1e-10 * (k + 1) for k in range(2 * n_rows)]

    def gfun(z):
        return g_values(f, params, z)

    values, deltas, nodes, conv, doublings = _cells_theta(on_circle(gfun), s, weights, 32, tol)
    assert nodes.all()
    assert (nodes == len(KRONROD_X) * 32 << doublings).all()
    for c in range(len(cells)):
        ref_values, ref_deltas, ref_nodes, ref_conv = periodic_reference(
            gfun, s[c], weights[c], 32, tol
        )
        assert values[c].tolist() == ref_values
        assert deltas[c].tolist() == ref_deltas
        assert nodes[c] == ref_nodes
        assert conv[c].tolist() == ref_conv
    if f is RIM_OSCILLATION:
        # the cells stop at three different doubling rounds
        assert len(set(nodes.tolist())) == 3


def test_cells_join_the_round_that_reaches_their_start():
    # G of z at p = 2 is 4 everywhere: a periodic cell that starts at 4 steps
    # stops there, a second one joins at 8 with both offsets and stops, and
    # the cell next to the peak waits through an empty round for its arcs'
    # 2 n0 = 64 steps, then takes two rounds; each cell keeps the bits, nodes
    # and doublings of a lone run
    f, params = monomial(1), MeanParams(2, 0)
    s, weights = periodic_cells([(0.1, 0.2), (0.2, 0.3), (0.45, 0.55)], (KERNEL_ONE,))
    peaks, starts, tol = [((0.5, 0.0),)] * 3, [4, 8, 4], [1e-12] * 2
    calls = []

    def gfun(z):
        calls.append(z.size)
        return g_values(f, params, z)

    batch = _cells_theta(on_circle(gfun), s, weights, 32, tol, 0.0, peaks, None, starts)
    assert calls == [21 * 8, 21 * 16, 21 * 2 * 64, 21 * 2 * 64]
    for c in range(3):
        one = slice(c, c + 1)
        alone = _cells_theta(
            on_circle(gfun), s[one], weights[one], 32, tol, 0.0, peaks[one], None, starts[one])
        assert all(a.tobytes() == b[one].tobytes() for a, b in zip(alone, batch))
    assert batch[2].tolist() == [21 * 8, 21 * 16, 21 * 2 * 2 * 64]
    assert batch[4].tolist() == [1, 1, 2]


@pytest.mark.parametrize("peaks", [(), ((0.5, 0.0),)], ids=["periodic", "featured"])
def test_rows_of_a_field_stack_match_one_field_runs(peaks):
    # a row of a G and W stack sums only its own field's nodes: while the
    # other field's rows never hold a cell back (tolerance inf), a field's
    # rows give the bits, nodes and stops of a run over that field alone.
    # With the zero's angle, two of the cells take tanh-sinh arcs and share
    # field calls with the periodic one.
    f, params = BlaschkeProduct((0.5,)), MeanParams(1.5, 0.5)
    s, weights = periodic_cells([(0.3, 0.42), (0.47, 0.52), (0.65, 0.8)], PERIODIC_KERNELS[:2])
    tol, free = [1e-9] * 4, [math.inf] * 4
    stack = np.concatenate([weights, weights], axis=1)
    for k, field in enumerate((g_values, w_values)):
        alone = _cells_theta(
            on_circle(lambda z: field(f, params, z)), s, weights, 32, tol, peaks=[peaks] * 3)
        both = _cells_theta(
            on_circle(lambda z: gw_values(f, params, z)), s, stack, 32,
            (free + tol) if k else (tol + free), peaks=[peaks] * 3, fields=[0] * 4 + [1] * 4)
        rows = slice(4 * k, 4 * k + 4)
        assert alone[0].tobytes() == both[0][:, rows].tobytes()
        assert alone[1].tobytes() == both[1][:, rows].tobytes()
        assert alone[3].tolist() == both[3][:, rows].tolist()
        assert alone[2].tolist() == both[2].tolist() and alone[4].tolist() == both[4].tolist()
        assert alone[2].all()


def disk_reference(gfun, cells, n0, tol, max_depth):
    """Per-cell driver of one disk level with every cell periodic: a cell
    with a non-finite node is replaced in place by its two halves.  The
    error is the sum over cells of |Kronrod - Gauss| plus the sum of the
    Kronrod row's angular changes, plus KRONROD_ROUNDING times the sum of
    |Kronrod value|."""
    work = [(a, b, 0) for a, b in cells]
    leaves, values, radial_err, theta_err, abs_sum, nodes = [], [], 0.0, 0.0, 0.0, 0
    while work:
        a, b, depth = work.pop(0)
        s, weights = periodic_cells([(a, b)], (KERNEL_ONE,))
        try:
            (value, gauss), (delta, _), used, _conv = periodic_reference(
                gfun, s[0], weights[0], n0, tol
            )
        except _CellCollision:
            assert depth < max_depth
            mid = 0.5 * (a + b)
            work[:0] = [(a, mid, depth + 1), (mid, b, depth + 1)]
            continue
        leaves.append((a, b))
        values.append(value)
        radial_err += abs(value - gauss)
        theta_err += delta
        abs_sum += abs(value)
        nodes += used
    return leaves, values, radial_err + theta_err + KRONROD_ROUNDING * abs_sum, nodes


def test_disk_collision_splits_one_cell_in_place(monkeypatch):
    f, params, r = Polynomial((0.0, 1.0)), MeanParams(2.0, 0.0), 0.9
    sings = _zero_singularities(zeros_in_disk(f, r), params.p, 0.0, False)
    cells = _radial_partition(0.0, r, sings, (None, None), SPEC)
    s, _weights = periodic_cells(cells, (KERNEL_ONE,))
    hit = 3
    # theta = 0 is a node of the first round only, so only cell `hit` collides
    s_star = s[hit, 4]

    def field(f, params, z):
        g = g_values(f, params, z)
        g[z == s_star] = np.nan
        return g

    batches, summed, starts = [], [], set()

    def cells_theta(gfun, s_nodes, weights, n0, tol_abs, rel_tol, peaks, fields, start):
        assert not any(peaks) and fields is None
        out = _cells_theta(gfun, s_nodes, weights, n0, tol_abs, rel_tol, peaks, fields, start)
        batches.append((s_nodes, out[2] == 0))
        starts.update(start)
        return out

    def record_tree_sum(values):
        summed.append(list(values))
        return tree_sum(values)

    monkeypatch.setattr(quadrature, "_cells_theta", cells_theta)
    monkeypatch.setattr(quadrature, "tree_sum", record_tree_sum)
    monkeypatch.setattr(quadrature, "g_values", field)
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 1)  # level 0 alone
    ((res,),) = disk_integrals(f, params, (r,), (KERNEL_ONE,), (), SPEC)

    # one batch of the whole level, where only cell `hit` collides, then one
    # batch of its two halves
    assert len(batches) == 2
    assert np.array_equal(batches[0][0], s)
    assert np.flatnonzero(batches[0][1]).tolist() == [hit]
    a, b = cells[hit]
    cut = 0.5 * (a + b)
    halves, _ = periodic_cells([(a, cut), (cut, b)], (KERNEL_ONE,))
    assert np.array_equal(batches[1][0], halves)
    assert not batches[1][1].any()

    def gfun(z):
        return field(f, params, z)

    # f = z has no off-origin zero or singular point, so every cell starts
    # at 4 steps
    assert starts == {4}
    tol = [0.125 * 0.25 * SPEC.rel_tol] * 2
    leaves, values, err, nodes = disk_reference(gfun, cells, 4, tol, 40)
    assert leaves == cells[:hit] + [(a, cut), (cut, b)] + cells[hit + 1:]
    assert summed == [values]
    assert res.value == tree_sum(values)
    assert res.error_estimate == err
    assert res.nodes == nodes


def test_monomial_disk_cells_start_at_four_steps(monkeypatch):
    # z^2 has no off-origin zero or singular point, and G is constant on
    # every circle: each periodic cell compares 4 steps with 8 and stops
    cells = []

    def cells_theta(*args):
        out = _cells_theta(*args)
        cells.append((args[1].shape[1], out[2]))
        return out

    monkeypatch.setattr(quadrature, "_cells_theta", cells_theta)
    res = disk_integral_G(monomial(2), MeanParams(1.5, 1), 0.9, KERNEL_ONE, SPEC)
    assert res.converged and res.levels == 0
    assert cells and all((nodes == 8 * n_s).all() for n_s, nodes in cells)


def test_aliased_circle_takes_the_steps_of_the_bound():
    # 1 + z^64 at r = 0.79: mode 64 folds onto mode 0 at 32 and 64 steps,
    # and the zeros on |z| = 1 ask for ln(1e10) / ln(1 / 0.79) = 98 steps
    f = Polynomial((1,) + (0,) * 63 + (1,))
    res = circle_mean(f, MeanParams(1, 0), 0.79, SPEC)
    assert res.converged and res.nodes >= 128


@pytest.mark.parametrize("p,start", [(2, 64), (4, 128)])
def test_circle_start_covers_the_band_of_zeros(p, start, monkeypatch):
    # at even p, |1 + z^64|^p is a trigonometric polynomial of degree 32 p on
    # |z| = r, which n steps integrate exactly only for n > 32 p: the circle
    # starts at the power of two >= (32 p + 1) / 2
    starts = []

    def cells_theta(*args):
        starts.extend(args[8])
        return _cells_theta(*args)

    monkeypatch.setattr(quadrature, "_cells_theta", cells_theta)
    res = circle_mean(Polynomial((1,) + (0,) * 63 + (1,)), MeanParams(p, 0), 0.9, SPEC)
    assert res.converged and starts == [start]


@pytest.mark.parametrize("p", [2, 3])
def test_disk_mesh_grades_toward_zeros_at_odd_p_only(p, monkeypatch):
    # at p = 2 the zeros of poly5 at 0.611, 0.686 and 0.734 are no singular
    # points: the mesh has no breakpoint there, and the band of its 5 zeros
    # asks for 6 steps, so every cell starts at 4.  At p = 3 they keep both.
    f = seeded_poly5()
    zeros = {abs(z.location) for z in zeros_in_disk(f, 0.8)}
    partitions, starts = [], set()
    radial_partition, cells_theta = quadrature._radial_partition, quadrature._cells_theta

    def partition(*args):
        partitions.append(radial_partition(*args))
        return partitions[-1]

    def spy(*args):
        starts.update(args[8])
        return cells_theta(*args)

    monkeypatch.setattr(quadrature, "_radial_partition", partition)
    monkeypatch.setattr(quadrature, "_cells_theta", spy)
    res = disk_integral_G(f, MeanParams(p, 0), 0.8, KERNEL_ONE, SPEC)
    ends = {x for cells in partitions for cell in cells for x in cell}
    assert res.converged and len(zeros) == 3
    if p == 2:
        assert not zeros & ends and starts == {4}
    else:
        assert zeros <= ends and max(starts) > 4


def test_disk_collision_depth_cap(monkeypatch):
    f, params = Polynomial((0.0, 1.0)), MeanParams(2.0, 0.0)

    def field(f, params, z):
        g = g_values(f, params, z)
        g[(np.abs(z) > 0.4) & (np.abs(z) < 0.45)] = np.nan
        return g

    monkeypatch.setattr(quadrature, "g_values", field)
    with pytest.raises(QuadratureError, match="cell subdivision depth cap reached"):
        disk_integral_G(f, params, 0.9, KERNEL_ONE, SPEC)



def disk_bits(pieces):
    """Every result of a disk call, per piece, floats as exact hex."""
    return [[bits(res) for res in piece] for piece in pieces]


def lone_piece(f, params, lo, r, rows, spec):
    """The piece lo < |z| < r of a radius list alone: the disk at lo = 0, else
    the annulus of (lo, r)."""
    return disk_integrals(f, params, (lo, r) if lo else (r,), *rows, spec)[-1]


@pytest.mark.parametrize(
    "fn,p,q,radii,rel_tol",
    [
        # golden's binom:0.9 area-limit schedule
        ("binom:0.9", 2, 1, tuple(1.0 - 2.0**-j for j in range(1, 11)), 1e-7),
        # the zero at 0.85 is a peak of the first two pieces only (at odd p:
        # at even p a zero is no feature)
        ("poly:-0.85,1", 3, 0, (0.5, 0.8, 0.9, 0.95), 1e-7),
        # the disk refines to round 1 next to the origin, the annuli stop at 0
        ("poly:0,1", 0.7, 0, (0.5, 0.75, 0.9), 1e-12),
    ],
    ids=["golden-binom", "peak-outside-two-pieces", "pieces-past-level-0"],
)
def test_disk_pieces_of_a_batch_match_lone_calls(fn, p, q, radii, rel_tol, monkeypatch):
    # the pieces share one engine batch per round, and each keeps the bits,
    # nodes, levels and flags of a lone call over it
    f, params, spec = parse_function(fn), MeanParams(p, q), QuadratureSpec(rel_tol)
    rows = ((KERNEL_ONE_MINUS_ABS_SQ,), (KERNEL_ONE,))
    batches = []

    def cells_theta(*args):
        batches.append(len(args[1]))
        return _cells_theta(*args)

    monkeypatch.setattr(quadrature, "_cells_theta", cells_theta)
    together = disk_integrals(f, params, radii, *rows, spec)
    levels = [piece[0].levels for piece in together]
    assert len(batches) == max(levels) + 1
    for lo, r, piece in zip((0.0,) + radii, radii, together):
        assert disk_bits([lone_piece(f, params, lo, r, rows, spec)]) == disk_bits([piece])
    if rel_tol < 1e-7:
        # the disk's round-1 hint max(1, |value|) is its value, not the annuli's 1
        assert levels == [1, 0, 0] and together[0][0].value > 1 > together[1][0].value


def test_disk_collision_in_a_batch_splits_its_cell_in_its_piece(monkeypatch):
    # a node of the second piece's first cell is singular: that cell alone
    # splits, in a second batch of its two halves, which keep their piece's
    # peaks (the zero at 0.85, which cells below 0.68 are too far from to take
    # arcs, so the planted node is sampled), and every piece keeps the bits
    # of a lone call under the same field
    f, params, radii = parse_function("poly:-0.85,1"), MeanParams(3.0, 0.0), (0.5, 0.8, 0.9)
    sings = _zero_singularities(zeros_in_disk(f, 0.8), params.p, 0.0, False)
    cells = _radial_partition(0.5, 0.8, sings, (None, None), SPEC)
    s_star = periodic_cells(cells, (KERNEL_ONE,))[0][0, 10]
    assert cells[0][1] < 0.68

    def field(f, params, z):
        g = g_values(f, params, z)
        g[z == s_star] = np.nan
        return g

    batches = []

    def cells_theta(*args):
        out = _cells_theta(*args)
        batches.append((len(args[1]), int((out[2] == 0).sum())))
        return out

    monkeypatch.setattr(quadrature, "g_values", field)
    monkeypatch.setattr(quadrature, "_cells_theta", cells_theta)
    together = disk_integrals(f, params, radii, (KERNEL_ONE,), (), SPEC)
    assert [piece[0].levels for piece in together] == [0, 0, 0]
    assert batches[1:] == [(2, 0)] and batches[0][1] == 1
    for lo, r, piece in zip((0.0,) + radii, radii, together):
        lone = lone_piece(f, params, lo, r, ((KERNEL_ONE,), ()), SPEC)
        assert disk_bits([lone]) == disk_bits([piece])


@pytest.mark.parametrize(
    "radii,match",
    [
        ((), "at least one radius"),
        ((0.5, 0.5), "strictly increasing"),
        ((0.7, 0.5, 0.9), "strictly increasing"),
        # an inner radius at or past the first radius of (0.5, 0.7)
        ((0.5, 0.5, 0.7), "strictly increasing"),
        ((0.6, 0.5, 0.7), "strictly increasing"),
    ],
    ids=["empty", "repeated", "decreasing", "s_lo-at-first", "s_lo-past-first"],
)
def test_disk_integrals_reject_a_bad_radius_list_before_any_field_call(radii, match, monkeypatch):
    def no_field(*args):
        raise AssertionError("field called")

    for name in ("g_values", "w_values", "gw_values"):
        monkeypatch.setattr(quadrature, name, no_field)
    rows = ((KERNEL_ONE,), (KERNEL_ONE,))
    with pytest.raises(ValueError, match=match):
        disk_integrals(monomial(1), MeanParams(2, 0), radii, *rows, SPEC)
    with pytest.raises(AssertionError, match="field called"):
        disk_integrals(monomial(1), MeanParams(2, 0), (0.5, 0.7), *rows, SPEC)

def test_disk_field_calls_respect_batch_cap(monkeypatch):
    # at p = 16 the 64 zeros of 1 + z^64 on |z| = 1 are no features but a
    # Fourier band of 8 * 64 = 512, so every periodic cell starts at 512
    # steps, 21 * 512 * 2 points, over BATCH_POINTS; the cells near the pole
    # at 1.1 take arcs, several to a call
    f = Rational(Polynomial((1.0,) + (0.0,) * 63 + (1.0,)), Polynomial((1.0, -1 / 1.1)))
    params, shapes = MeanParams(16, 1), []
    unspied = disk_integral_W(f, params, 0.95, KERNEL_ONE, SPEC)

    def field(f, params, z):
        shapes.append(z.shape)
        return w_values(f, params, z)

    monkeypatch.setattr(quadrature, "w_values", field)
    res = disk_integral_W(f, params, 0.95, KERNEL_ONE, SPEC)
    assert res.converged
    assert res.value == unspied.value
    for shape in shapes:
        # (cells, Kronrod nodes, angles): over the cap only as one cell's own round
        assert len(shape) == 3 and shape[1] == len(KRONROD_X)
        assert math.prod(shape) <= BATCH_POINTS or shape[0] == 1
    assert any(shape[0] > 1 for shape in shapes)
    assert any(math.prod(shape) > BATCH_POINTS for shape in shapes)


def test_banded_field_calls_respect_batch_cap(monkeypatch):
    # G of blaschke:0.5 at p = 1.5 is unbounded at the zero, so the cells
    # around |z| = 0.5 split the circle there into tanh-sinh arcs, in the same
    # rounds as the periodic cells: a call holds at most BATCH_POINTS points
    # unless it is one periodic cell's round alone, and each kind of cell
    # keeps to calls of its own, even where a round would fit one call
    f, params = parse_function("blaschke:0.5"), MeanParams(1.5, 0.0)
    calls = []
    groups = record_arcs(monkeypatch)

    def field(f, params, z):
        calls.append(z.shape)
        return g_values(f, params, z)

    monkeypatch.setattr(quadrature, "g_values", field)
    res = disk_integral_G(f, params, 0.9, KERNEL_ONE, SPEC)
    assert res.converged
    assert groups and all(arcs == 1 for _, arcs in groups)
    assert all(len(shape) == 3 for shape in calls)
    for shape in calls:
        assert math.prod(shape) <= BATCH_POINTS or (len(shape) == 3 and shape[0] == 1)
    # rounds larger than the cap are cut into several calls
    assert sum(math.prod(shape) for shape in calls) > 4 * BATCH_POINTS
    assert sum(math.prod(shape) > BATCH_POINTS // 2 for shape in calls) > 4

    # a lone circle next to the zero makes one call per round
    calls.clear()
    monkeypatch.setattr(quadrature, "w_values", field)
    mean = circle_mean(f, params, 0.5 + 1e-6, SPEC)
    assert mean.converged
    assert len(calls) == mean.levels


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


# ------------------------------------------------------- batched schedules

def circle_reference(fn, rel_tol, abs_tol, ref_floor, n0=N_THETA_INIT):
    """The periodic rule on one circle with scalar bookkeeping: (integral of
    fn(theta) over [0, 2 pi), last change, nodes, doublings, converged).

    It starts at n0 nodes, adds the midpoints until the change is within
    max(abs_tol, rel_tol * max(ref_floor, |value|, 1e-6 L1)) or the nodes
    reach N_THETA_MAX, and raises _CellCollision at a non-finite node.
    """
    n, total, l1 = n0, None, None
    theta = TWO_PI * np.arange(n) / n
    while True:
        vals = np.asarray(fn(theta), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise _CellCollision
        if total is None:
            total = (TWO_PI / n) * float(np.sum(vals))
            l1 = (TWO_PI / n) * float(np.sum(np.abs(vals)))
            nodes, doublings = n, 0
        else:
            new = 0.5 * total + (math.pi / n) * float(np.sum(vals))
            l1 = 0.5 * l1 + (math.pi / n) * float(np.sum(np.abs(vals)))
            delta, total = abs(new - total), new
            nodes, n, doublings = nodes + n, 2 * n, doublings + 1
            if delta <= max(abs_tol, rel_tol * max(ref_floor, abs(total), 1e-6 * l1)):
                return total, delta, nodes, doublings, True
            if n >= N_THETA_MAX:
                return total, delta, nodes, doublings, False
        theta = TWO_PI * (np.arange(n) + 0.5) / n


def bits(res):
    """Everything a circle result reports, floats as exact hex."""
    return res.value.hex(), res.error_estimate.hex(), res.nodes, res.levels, res.converged


@pytest.mark.parametrize(
    "fn,p,q,r",
    [
        ("poly:1,1", 2, 0, 0.5),
        ("binom:0.7", 1.5, 0.5, 0.75),
        ("blaschke:0.3+0.2i", 2, 1, 0.9),
        ("rat:0.5,1|2,1", 3, 0, 0.99),
        ("const:1+1i", 2, 0, 0.6),
    ],
)
def test_lone_periodic_circle_matches_scalar_reference(fn, p, q, r, monkeypatch):
    # a circle is a one-node cell of the batched engine; its bits, nodes and
    # stop are those of the scalar rule from the engine's start: the binomial's
    # point z = 1 asks 81 steps of the circle r = 0.75, which starts at 64
    f, params = parse_function(fn), MeanParams(p, q)
    tol = 0.5 * SPEC.rel_tol
    starts = []

    def cells_theta(*args):
        starts.extend(args[8])
        return _cells_theta(*args)

    monkeypatch.setattr(quadrature, "_cells_theta", cells_theta)
    for integral, field in ((circle_mean, w_values), (circle_mean_deriv, radial_deriv_w_values)):
        res = integral(f, params, r, SPEC)
        total, delta, nodes, doublings, conv = circle_reference(
            lambda theta: field(f, params, r * np.exp(1j * theta)), tol, 0.0, 1.0, starts[-1]
        )
        ref = quadrature.IntegralResult(total / TWO_PI, delta / TWO_PI, nodes, doublings, conv)
        assert bits(res) == bits(ref)
    assert starts == ([64] if fn.startswith("binom") else [N_THETA_INIT]) * 2


def test_periodic_stop_rule_counts_the_l1_term():
    # 1e12 cos(theta) integrates to 0 on every grid but makes L1 about 4e12,
    # so the stop at 64 nodes comes from 1e-6 L1, not from |value| (about 20)
    def integrand(s, u):
        return 1e12 * u.real + 1.0 / (1.05 - u.real)

    tol = 0.25 * SPEC.rel_tol
    values, deltas, nodes, conv, doublings = _cells_theta(
        integrand, np.ones((1, 1)), np.ones((1, 1, 1)), N_THETA_INIT, [0.0], tol
    )
    total, delta, ref_nodes, ref_doublings, ref_conv = circle_reference(
        lambda theta: integrand(1.0, np.exp(1j * theta)), tol, 0.0, 0.0
    )
    assert conv[0, 0] and ref_conv and ref_nodes == 64 and doublings[0] == ref_doublings
    assert (values[0, 0].hex(), deltas[0, 0].hex(), nodes[0]) == (total.hex(), delta.hex(), 64)


def ring_reference(f, params, z0, eps, kernel):
    def flux(psi):
        direction = np.exp(1j * psi)
        z = z0 + eps * direction
        _, gx, gy = grad_w_values(f, params, z)
        dwdn = gx * direction.real + gy * direction.imag
        s = np.abs(z)
        dkdn = kernel.radial_deriv(s) * (np.conj(z) * direction).real / s
        return (kernel.radial(s) * dwdn - w_values(f, params, z) * dkdn) * eps

    return circle_reference(flux, 0.25 * SPEC.rel_tol, 1e-300, 0.0)


RING_CASES = [
    (Polynomial((1, 1)), MeanParams(2, 0), 0.0, kernel_log_r_over_abs(0.9)),
    (Polynomial((-0.5, 1)), MeanParams(1.5, 0.5), 0.5, KERNEL_ONE_MINUS_ABS_SQ),
    (BlaschkeProduct((0.5,)), MeanParams(3, 1), 0.5, KERNEL_LOG_ONE_OVER_ABS),
]


@pytest.mark.parametrize("f,params,z0,kernel", RING_CASES)
def test_ring_schedule_matches_lone_rings_and_scalar_reference(f, params, z0, kernel):
    eps = tuple(2.0**-j for j in range(4, 13))
    values = ring_integrals(f, params, z0, eps, kernel, 0.9, SPEC)
    lone = [ring_integral(f, params, z0, e, kernel, 0.9, SPEC) for e in eps]
    assert [v.hex() for v in values] == [v.hex() for v in lone]
    for e, value in zip(eps, values):
        total, _, _, _, conv = ring_reference(f, params, z0, e, kernel)
        assert conv and value.hex() == total.hex()


# blaschke:0.5 has its zero at |w| = 0.5, so r = 0.55 is one tanh-sinh arc
# and the other radii are periodic
SCHEDULE = (0.3, 0.55, 0.7, 0.9)


@pytest.mark.parametrize("deriv", [False, True])
def test_circle_schedule_matches_lone_runs(deriv, monkeypatch):
    f, params = parse_function("blaschke:0.5"), MeanParams(1.5, 0.5)
    field_name = "radial_deriv_w_values" if deriv else "w_values"
    field = getattr(quadrature, field_name)
    calls = []
    groups = record_arcs(monkeypatch)
    monkeypatch.setattr(quadrature, field_name, lambda *a: calls.append(1) or field(*a))
    rows = ("dW/dr",) if deriv else ("W",)
    results = list(circle_integrals(f, params, SCHEDULE, SPEC, rows))
    batch_calls = len(calls)
    assert groups == [([1], 1)]
    lone = circle_mean_deriv if deriv else circle_mean
    assert [bits(res) for (res,) in results] == [bits(lone(f, params, r, SPEC)) for r in SCHEDULE]
    # the four circles share their field calls
    assert batch_calls < len(calls) - batch_calls


@pytest.mark.parametrize("deriv", [False, True])
def test_mixed_circle_schedule_matches_lone_runs(deriv, monkeypatch):
    # zeros at 0.5 and 0.6 e^{2.2i}: r = 0.55 is near both (two arcs),
    # r = 0.68 near the second (one arc), and 0.3 and 0.9 are periodic, so
    # one batch holds three kinds of cell, each in field calls of its own
    f, params = parse_function("blaschke:0.5,-0.35309-0.48529i"), MeanParams(1.5, 0.5)
    radii = (0.3, 0.55, 0.68, 0.9)
    field_name = "radial_deriv_w_values" if deriv else "w_values"
    field = getattr(quadrature, field_name)
    shapes = []
    groups = record_arcs(monkeypatch)
    monkeypatch.setattr(
        quadrature, field_name, lambda f, p, z: shapes.append(z.shape) or field(f, p, z)
    )
    results = list(circle_integrals(f, params, radii, SPEC, ("dW/dr",) if deriv else ("W",)))
    batch_calls = len(shapes)
    assert groups[:2] == [([2], 1), ([1], 2)]
    assert not any(len(shape) == 1 for shape in shapes)
    lone = circle_mean_deriv if deriv else circle_mean
    assert [bits(res) for (res,) in results] == [bits(lone(f, params, r, SPEC)) for r in radii]
    assert all(res.converged for (res,) in results)
    assert batch_calls < len(shapes) - batch_calls


def nan_on_circles(field, radii, centre=0.0):
    """field with non-finite values on the circles |z - centre| = r."""
    def out(f, params, z):
        vals = field(f, params, z)
        bad = np.isin(np.round(np.abs(z - centre), 12), np.round(radii, 12))
        return np.where(bad, np.nan, vals)
    return out


def wiggle_on_circle(field, radius):
    """field times an aperiodic wiggle on |z| = radius, which no number of
    doublings resolves, so that circle ends unconverged."""
    def out(f, params, z):
        vals = field(f, params, z)
        on = np.abs(np.abs(z) - radius) < 1e-12
        return np.where(on, vals * (1.0 + 0.5 * np.sin(1234567.891 * np.angle(z))), vals)
    return out


def test_circle_schedule_stops_at_the_first_failing_radius(monkeypatch):
    f, params = parse_function("blaschke:0.5"), MeanParams(1.5, 0.5)
    monkeypatch.setattr(quadrature, "w_values", nan_on_circles(w_values, (0.7,)))
    results = circle_integrals(f, params, SCHEDULE, SPEC)
    assert [bits(next(results)[0]) for _ in SCHEDULE[:2]] == [
        bits(circle_mean(f, params, r, SPEC)) for r in SCHEDULE[:2]
    ]
    with pytest.raises(QuadratureError, match="non-finite"):
        next(results)
    # a radius outside (0, 1) ends the schedule where a loop would meet it
    results = circle_integrals(f, params, (0.3, 1.5, 0.7), SPEC)
    next(results)
    with pytest.raises(ValueError):
        next(results)
    with pytest.raises(QuadratureError, match="non-finite"):
        circle_mean(f, params, 0.7, SPEC)


def deriv_row_through(wrap, hits):
    """wd_values with its dW/dr row passed through wrap (a field wrapper such
    as wiggle_on_circle), counting its calls in hits."""
    def out(f, params, z):
        stack = wd_values(f, params, z)
        hits.append(1)
        stack[1] = wrap(lambda *_: stack[1])(f, params, z)
        return stack
    return out


def test_rate_probe_truncates_before_a_later_failure(monkeypatch):
    f, params = Polynomial((0, 0, 1)), MeanParams(2, 0)
    radii = (0.5, 0.6, 0.7, 0.8, 0.9)
    hits = []
    monkeypatch.setattr(quadrature, "wd_values", deriv_row_through(
        lambda deriv: nan_on_circles(wiggle_on_circle(deriv, 0.8), (0.9,)), hits))
    assert rate_probe(f, params, SPEC, radii).radii == (0.5, 0.6, 0.7)
    assert hits
    # without the unconverged radius the loop reaches the non-finite one
    hits.clear()
    monkeypatch.setattr(quadrature, "wd_values", deriv_row_through(
        lambda deriv: nan_on_circles(deriv, (0.9,)), hits))
    with pytest.raises(QuadratureError, match="non-finite"):
        rate_probe(f, params, SPEC, radii)
    assert hits


def test_rate_probe_radius_next_to_a_zero_raises_only_when_reached(monkeypatch):
    # p < 1 and a zero within 1e-6 of the last radius
    f, params = Polynomial((-0.8, 1)), MeanParams(0.5, 0)
    radii = (0.3, 0.4, 0.5, 0.8 + 1e-7)
    with pytest.raises(RadiusNearZeroError):
        rate_probe(f, params, SPEC, radii)
    hits = []
    monkeypatch.setattr(quadrature, "wd_values", deriv_row_through(
        lambda deriv: wiggle_on_circle(deriv, 0.5), hits))
    assert rate_probe(f, params, SPEC, radii).radii == (0.3, 0.4)
    assert hits


def test_ring_schedule_raises_the_first_failing_ring(monkeypatch):
    f, params, kernel = Polynomial((1, 1)), MeanParams(2, 0), kernel_log_r_over_abs(0.9)
    eps = (0.1, 0.05, 1e-10, 0.01)  # the third ring is below the guard radius
    with pytest.raises(GeometryError):
        ring_integrals(f, params, 0, eps, kernel, 0.9, SPEC)
    # a non-finite node on the second ring comes first in schedule order
    monkeypatch.setattr(quadrature, "grad_w_values", nan_on_circles(grad_w_values, (0.05,)))
    with pytest.raises(QuadratureError, match="non-finite"):
        ring_integrals(f, params, 0, eps, kernel, 0.9, SPEC)
    # one on the fourth ring comes after the geometry error
    monkeypatch.setattr(quadrature, "grad_w_values", nan_on_circles(grad_w_values, (0.01,)))
    with pytest.raises(GeometryError):
        ring_integrals(f, params, 0, eps, kernel, 0.9, SPEC)
