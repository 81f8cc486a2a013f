import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hardylab import quadrature
from hardylab.fields import (
    MeanParams,
    g_values,
    grad_w_values,
    gw_values,
    radial_deriv_w_values,
    w_values,
    wd_values,
)
from hardylab.fields import _QUIET
from hardylab.functions import (
    Binomial,
    BlaschkeProduct,
    Polynomial,
    Rational,
    ScaledRotation,
    nearest_zero,
)


def fd_grad(f, params, z, h=1e-5):
    gx = (w_values(f, params, z + h) - w_values(f, params, z - h)) / (2 * h)
    gy = (w_values(f, params, z + 1j * h) - w_values(f, params, z - 1j * h)) / (2 * h)
    return gx, gy


def fd_laplacian(f, params, z, h=1e-4):
    return (
        w_values(f, params, z + h)
        + w_values(f, params, z - h)
        + w_values(f, params, z + 1j * h)
        + w_values(f, params, z - 1j * h)
        - 4.0 * w_values(f, params, z)
    ) / (h * h)


def test_mean_params_validation():
    with pytest.raises(ValueError):
        MeanParams(0.0, 1.0)
    with pytest.raises(ValueError):
        MeanParams(1.0, -0.5)


# ----------------------------------------------------------------- w_values

def test_w_constant():
    assert w_values(Polynomial((1,)), MeanParams(2, 2), 0) == pytest.approx(1.0)


def test_w_monomial():
    assert w_values(Polynomial((0, 1)), MeanParams(2, 0), 0.5j) == pytest.approx(0.25)


def test_w_binomial_weighted():
    # |1/(1-z)|^2 (1-|z|^2) at z = 0.5
    assert w_values(Binomial(1), MeanParams(2, 1), 0.5) == pytest.approx(3.0)


# ------------------------------------------------------------ grad_w_values

def test_grad_weight_only():
    _, gx, gy = grad_w_values(Polynomial((1,)), MeanParams(2, 1), 0.3)
    assert (gx, gy) == (pytest.approx(-0.6), pytest.approx(0.0))


def test_grad_abs_square():
    _, gx, gy = grad_w_values(Polynomial((0, 1)), MeanParams(2, 0), 0.3 + 0.4j)
    assert (gx, gy) == (pytest.approx(0.6), pytest.approx(0.8))


def test_grad_matches_fd_binomial():
    f, params, z = Binomial(1), MeanParams(2, 1), 0.4 + 0.2j
    _, gx, gy = grad_w_values(f, params, z)
    fx, fy = fd_grad(f, params, z)
    assert abs(gx - fx) <= 1e-6 * max(1, abs(gx))
    assert abs(gy - fy) <= 1e-6 * max(1, abs(gy))


# ----------------------------------------------------------------- g_values

def test_g_monomial_constant_laplacian():
    for z in (0.1, 0.3 + 0.2j, -0.5j):
        assert g_values(Polynomial((0, 1)), MeanParams(2, 0), z) == pytest.approx(4.0)


def test_g_weight_only():
    assert g_values(Polynomial((1,)), MeanParams(2, 1), 0.37j) == pytest.approx(-4.0)


def test_g_z_squared():
    got = g_values(Polynomial((0, 0, 1)), MeanParams(2, 0), 0.5)
    assert got == pytest.approx(4.0)
    fd = fd_laplacian(Polynomial((0, 0, 1)), MeanParams(2, 0), 0.5)
    assert abs(got - fd) <= 1e-5 * max(1, abs(got))


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_g_is_non_finite_at_an_exact_zero_only_for_p_below_2(q):
    # quadrature reads a non-finite node as a cell collision and splits the
    # cell: at an exact zero G is non-finite for every p < 2, even where
    # kp >= 2, and finite for p >= 2
    z = np.zeros(1)
    simple, double = Polynomial((0, 1)), Polynomial((0, 0, 1))
    assert not np.isfinite(g_values(simple, MeanParams(1.5, q), z)).any()
    assert np.isnan(g_values(double, MeanParams(1, q), z)).all()
    assert g_values(simple, MeanParams(2, q), z).tolist() == [4.0]
    assert g_values(simple, MeanParams(2.5, q), z).tolist() == [0.0]
    if q == 0.0:
        assert g_values(simple, MeanParams(1.5, q), z).tolist() == [math.inf]


def test_g_nonnegative_unweighted():
    f = BlaschkeProduct((0.5, -0.2 + 0.3j))
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        if nearest_zero(f, z)[0] < 0.05:
            continue
        assert g_values(f, MeanParams(1.3, 0), z) >= 0.0


# ---------------------------------------------------- radial_deriv_w_values

def test_radial_deriv_weight_only():
    got = radial_deriv_w_values(Polynomial((1,)), MeanParams(2, 1), 0.5)
    assert got == pytest.approx(-1.0)


def test_radial_deriv_monomial():
    # d/dr r^{np} at r=0.5 for n=2, p=2
    got = radial_deriv_w_values(Polynomial((0, 0, 1)), MeanParams(2, 0), 0.5)
    assert got == pytest.approx(0.5)


@given(
    re=st.floats(-0.6, 0.6),
    im=st.floats(-0.6, 0.6),
    p=st.sampled_from([0.7, 1.0, 2.0, 3.0]),
    q=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
def test_radial_deriv_is_radial_component_of_gradient(re, im, p, q):
    z = complex(re, im)
    if abs(z) < 1e-3:
        z += 0.1
    f = Polynomial((1, 0.5, 0.25j))
    if nearest_zero(f, z)[0] < 0.05:
        return
    params = MeanParams(p, q)
    _, gx, gy = grad_w_values(f, params, z)
    radial = (gx * z.real + gy * z.imag) / abs(z)
    got = radial_deriv_w_values(f, params, z)
    assert abs(got - radial) <= 1e-12 * max(1.0, abs(got))


# ------------------------------------------------------ covariance properties

FIELD_POOL = [
    Polynomial((1, 0.5, -0.25 + 0.1j)),
    Rational(Polynomial((1, 1)), Polynomial((2, 0, 1))),
    BlaschkeProduct((0.5,)),
    Binomial(0.8),
]


@given(
    idx=st.integers(0, len(FIELD_POOL) - 1),
    re=st.floats(-0.55, 0.55),
    im=st.floats(-0.55, 0.55),
    p=st.sampled_from([0.7, 1.4, 2.0, 3.0]),
    q=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_gradient_matches_finite_differences(idx, re, im, p, q):
    f = FIELD_POOL[idx]
    z = complex(re, im)
    if nearest_zero(f, z)[0] < 0.05:
        return
    params = MeanParams(p, q)
    _, gx, gy = grad_w_values(f, params, z)
    fx, fy = fd_grad(f, params, z)
    scale = max(1.0, abs(gx), abs(gy))
    assert abs(gx - fx) <= 1e-6 * scale
    assert abs(gy - fy) <= 1e-6 * scale


@given(
    idx=st.integers(0, len(FIELD_POOL) - 1),
    re=st.floats(-0.5, 0.5),
    im=st.floats(-0.5, 0.5),
    p=st.sampled_from([1.4, 2.0, 3.0]),
    q=st.sampled_from([0.0, 1.0]),
)
def test_laplacian_matches_finite_differences(idx, re, im, p, q):
    f = FIELD_POOL[idx]
    z = complex(re, im)
    if nearest_zero(f, z)[0] < 0.05 or abs(z) > 0.8:
        return
    params = MeanParams(p, q)
    g = g_values(f, params, z)
    fd = fd_laplacian(f, params, z)
    assert abs(g - fd) <= 1e-4 * max(1.0, abs(g))


@given(
    scale_re=st.floats(-2, 2),
    scale_im=st.floats(-2, 2),
    p=st.sampled_from([0.7, 2.0]),
)
def test_scaling_covariance(scale_re, scale_im, p):
    c = complex(scale_re, scale_im)
    if abs(c) < 1e-3:
        c = 1.0 + 0j
    inner = Polynomial((1, 1, 0.5))
    f = ScaledRotation(inner, c, 0.0)
    params = MeanParams(p, 1.0)
    z = 0.3 + 0.2j
    factor = abs(c) ** p
    assert w_values(f, params, z) == pytest.approx(
        factor * w_values(inner, params, z), rel=1e-12
    )
    assert g_values(f, params, z) == pytest.approx(
        factor * g_values(inner, params, z), rel=1e-12
    )
    (_, gx, gy), (_, gix, giy) = grad_w_values(f, params, z), grad_w_values(inner, params, z)
    assert gx == pytest.approx(factor * gix, rel=1e-12, abs=1e-14)
    assert gy == pytest.approx(factor * giy, rel=1e-12, abs=1e-14)
    got = radial_deriv_w_values(f, params, z)
    assert got == pytest.approx(factor * radial_deriv_w_values(inner, params, z), rel=1e-12)


@given(phi=st.floats(0, 2 * math.pi), re=st.floats(-0.5, 0.5), im=st.floats(-0.5, 0.5))
def test_rotation_covariance(phi, re, im):
    inner = Polynomial((1, 0.3 - 0.2j, 0, 1))
    f = ScaledRotation(inner, 1.0, phi)
    params = MeanParams(1.5, 1.0)
    z = complex(re, im)
    assert w_values(f, params, z) == pytest.approx(
        w_values(inner, params, cmath.exp(1j * phi) * z), rel=1e-12, abs=1e-300
    )


# ----------------------------------------- bit-for-bit reference formulas
#
# The field functions assemble W, grad W, G and dW/dr with in-place updates,
# and Horner's rule updates its accumulators in place.  Below are the
# out-of-place formulas, kept as the reference: the same operations on the
# same operands in the same order, so every bit must match.

def reference_val_dval(f, z):
    if isinstance(f, ScaledRotation):
        val, der = reference_val_dval(f.inner, f.phase * z)
        return f.scale * val, f.scale * f.phase * der
    if isinstance(f, Rational):
        nv, nd = reference_val_dval(f.num, z)
        dv, dd = reference_val_dval(f.den, z)
        return nv / dv, (nd * dv - nv * dd) / (dv * dv)
    if isinstance(f, Binomial):
        # the principal power in polar form, and f' = alpha f / (1 - z)
        u = 1.0 - z
        phase = np.arctan2(u.imag, u.real) * -f.alpha
        val = (np.cos(phase) + 1j * np.sin(phase)) * np.abs(u) ** -f.alpha
        return val, val / u * f.alpha
    if isinstance(f, Polynomial):
        val = np.zeros_like(z)
        der = np.zeros_like(z)
        for c in reversed(f.coeffs):
            der = der * z + val
            val = val * z + c
        return val, der
    val = np.ones_like(z)
    der = np.zeros_like(z)
    for a in f.zeros:
        den = 1.0 - np.conj(a) * z
        b = (a - z) / den
        db = (abs(a) ** 2 - 1.0) / (den * den)
        der = der * b + val * db
        val = val * b
    return val, der


def reference_abs_pow(m, e):
    with np.errstate(divide="ignore", over="ignore"):
        return np.power(m, e)


def reference_w(f, params, z):
    z = np.asarray(z, dtype=complex)
    # the joint formulas' value is bit for bit that of the value formulas
    w = reference_abs_pow(np.abs(reference_val_dval(f, z)[0]), params.p)
    if params.q != 0.0:
        with np.errstate(invalid="ignore"):
            w = w * (1.0 - np.abs(z) ** 2) ** params.q
    return w


def reference_grad_w(f, params, z):
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = reference_val_dval(f, z)
    m = np.abs(fv)
    rho = 1.0 - np.abs(z) ** 2
    with np.errstate(invalid="ignore", over="ignore"):
        cross = dv * np.conj(fv)
        mp2 = reference_abs_pow(m, p - 2.0)
        gx = p * mp2 * cross.real
        gy = p * mp2 * (-cross.imag)
        if q != 0.0:
            wq = rho**q
            gx = wq * gx + reference_abs_pow(m, p) * (-2.0 * q) * rho ** (q - 1.0) * z.real
            gy = wq * gy + reference_abs_pow(m, p) * (-2.0 * q) * rho ** (q - 1.0) * z.imag
    return gx, gy


def reference_g(f, params, z):
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = reference_val_dval(f, z)
    m = np.abs(fv)
    s2 = np.abs(z) ** 2
    rho = 1.0 - s2
    with np.errstate(invalid="ignore", over="ignore"):
        mp2 = reference_abs_pow(m, p - 2.0)
        g = p * p * mp2 * np.abs(dv) ** 2
        if q != 0.0:
            g = rho**q * g
            g = g - 4.0 * p * q * rho ** (q - 1.0) * mp2 * (z * dv * np.conj(fv)).real
            g = g + reference_abs_pow(m, p) * 4.0 * q * (
                (q - 1.0) * s2 * rho ** (q - 2.0) - rho ** (q - 1.0)
            )
    return g


def reference_radial_deriv_w(f, params, z):
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = reference_val_dval(f, z)
    m = np.abs(fv)
    s = np.abs(z)
    rho = 1.0 - s * s
    with np.errstate(invalid="ignore", over="ignore"):
        radial = p * reference_abs_pow(m, p - 2.0) * ((z / s) * dv * np.conj(fv)).real
        if q != 0.0:
            radial = rho**q * radial + reference_abs_pow(m, p) * (-2.0 * q) * s * rho ** (q - 1.0)
    return radial


REFERENCE_PAIRS = [
    (w_values, reference_w),
    (g_values, reference_g),
    (radial_deriv_w_values, reference_radial_deriv_w),
    (grad_w_values,
     lambda f, params, z: np.stack((reference_w(f, params, z), *reference_grad_w(f, params, z)))),
]


def reference_points():
    # the zeros themselves (0 and 0.5), points next to them, the rim, and a
    # fixed cloud of disk points
    rng = np.random.default_rng(14)
    cloud = 0.999 * np.sqrt(rng.uniform(size=300)) * np.exp(2j * np.pi * rng.uniform(size=300))
    edges = [0.0, 0.5, 1e-300, 1e-9j, 0.5 + 1e-12j, 0.5 - 1e-7, 0.9999999, -0.7j, 0.99 + 0.1j]
    return np.concatenate([cloud, edges])


@pytest.mark.parametrize(
    "f",
    [
        Polynomial((0.3 - 0.2j, -0.5, 0.1 + 0.4j, 0.8, -0.6j, 2.1)),
        Polynomial((0, 1)),
        Polynomial((0, 0, 1)),
        Polynomial((1.3 - 0.4j,)),
        Rational(Polynomial((1, 1)), Polynomial((1.001, -1))),
        Rational(Polynomial((-0.5, 1)), Polynomial((2, 1, 0.5))),
        BlaschkeProduct((0.5,)),
        ScaledRotation(BlaschkeProduct((0.3j,)), 2 - 1j, 0.4),
    ],
    ids=lambda f: type(f).__name__,
)
def test_fields_match_reference_formulas_bit_for_bit(f):
    z = reference_points()
    for p in (0.5, 1.5, 2.0, 3.0):
        for q in (0.0, 0.5, 1.0, 2.0):
            params = MeanParams(p, q)
            for field, reference in REFERENCE_PAIRS:
                got, want = field(f, params, z), reference(f, params, z)
                assert got.tobytes() == want.tobytes(), (field, p, q)
                # 0-d input, where numpy returns scalars: a disk point and the
                # zeros 0 and 0.5
                for z0 in (np.asarray(z[0]), np.asarray(z[-9]), np.asarray(z[-8])):
                    got, want = field(f, params, z0), reference(f, params, z0)
                    assert np.shape(got) == np.shape(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (field, p, q)


@pytest.mark.parametrize(
    "f",
    [
        Polynomial((0.15j, -0.5 - 0.3j, 1)),
        BlaschkeProduct((0.5, 0.3j, 0.3j)),
        Binomial(0.9),
        Rational(Polynomial((-0.5, 1)), Polynomial((2, 1, 0.5))),
        ScaledRotation(BlaschkeProduct((0.5,)), 2 - 1j, 0.4),
    ],
    ids=lambda f: type(f).__name__,
)
def test_fused_field_is_g_and_w_bit_for_bit(f):
    # G from the reference formula and W from w_values; with p < 2, G is
    # non-finite exactly at the zeros of f among the points (0.5 and 0.3i,
    # where f has them) and W is finite
    z = np.concatenate([reference_points(), [0.3j]])
    zero = np.abs(reference_val_dval(f, z)[0]) == 0.0
    assert zero.sum() == {"Polynomial": 2, "BlaschkeProduct": 2, "Rational": 1}.get(
        type(f).__name__, 0)
    for p in (0.5, 1.5, 2.0, 3.0):
        for q in (0.0, 0.5, 1.0, 2.0):
            params = MeanParams(p, q)
            gw = gw_values(f, params, z)
            assert gw.shape == (2,) + z.shape
            g, w = reference_g(f, params, z), w_values(f, params, z)
            assert gw[0].tobytes() == g.tobytes(), (p, q)
            assert gw[1].tobytes() == w.tobytes(), (p, q)
            assert gw[1].tobytes() == reference_w(f, params, z).tobytes(), (p, q)
            if p < 2:
                assert (~np.isfinite(gw[0]) == zero).all(), (p, q)
            assert np.isfinite(gw[1]).all()
            for z0 in (np.asarray(z[0]), np.asarray(z[-10]), np.asarray(z[-9])):
                gw0 = gw_values(f, params, z0)
                assert gw0.shape == (2,)
                assert gw0[0].tobytes() == np.asarray(reference_g(f, params, z0)).tobytes()
                assert gw0[1].tobytes() == np.asarray(w_values(f, params, z0)).tobytes()


def standalone_radial_deriv_w(f, params, z):
    """dW/dr as its own kernel computed it before W and dW/dr were fused."""
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = f._val_dval(z)
    m = np.abs(fv)
    s = np.abs(z)
    with np.errstate(**_QUIET):
        cross = z / s
        cross *= dv
        cross *= np.conj(fv)
        radial = np.power(m, p - 2.0)
        radial *= p
        radial *= cross.real
        if q != 0.0:
            rho = 1.0 - s * s
            radial *= rho**q
            t = np.power(m, p)
            t *= -2.0 * q
            t *= s
            t *= rho ** (q - 1.0)
            radial += t
    return radial


@pytest.mark.parametrize(
    "f",
    [
        Polynomial((0.15j, -0.5 - 0.3j, 1)),
        BlaschkeProduct((0.5, 0.3j, 0.3j)),
        Binomial(0.9),
        Rational(Polynomial((-0.5, 1)), Polynomial((2, 1, 0.5))),
        ScaledRotation(BlaschkeProduct((0.5,)), 2 - 1j, 0.4),
    ],
    ids=lambda f: type(f).__name__,
)
def test_fused_field_is_w_and_radial_deriv_bit_for_bit(f):
    # W from w_values and dW/dr from the standalone formula and the
    # reference; with p < 2, dW/dr is non-finite exactly at the zeros of f
    # among the points (0.5 and 0.3i, where f has them), and for every p at
    # z = 0, where the direction z/|z| is undefined
    z = np.concatenate([reference_points(), [0.3j]])
    zero = np.abs(reference_val_dval(f, z)[0]) == 0.0
    origin = z == 0.0
    for p in (0.5, 1.5, 2.0, 3.0):
        for q in (0.0, 0.5, 1.0, 2.0):
            params = MeanParams(p, q)
            wd = wd_values(f, params, z)
            assert wd.shape == (2,) + z.shape
            d = standalone_radial_deriv_w(f, params, z)
            assert wd[0].tobytes() == w_values(f, params, z).tobytes(), (p, q)
            assert wd[1].tobytes() == d.tobytes(), (p, q)
            assert wd[1].tobytes() == reference_radial_deriv_w(f, params, z).tobytes(), (p, q)
            assert radial_deriv_w_values(f, params, z).tobytes() == d.tobytes(), (p, q)
            assert (~np.isfinite(wd[1]) == (origin | (zero if p < 2 else False))).all(), (p, q)
            assert np.isfinite(wd[0]).all()
            for z0 in (np.asarray(z[0]), np.asarray(z[-10]), np.asarray(z[-9])):
                wd0 = wd_values(f, params, z0)
                assert wd0.shape == (2,)
                assert wd0[0].tobytes() == np.asarray(w_values(f, params, z0)).tobytes()
                assert wd0[1].tobytes() == np.asarray(standalone_radial_deriv_w(
                    f, params, z0)).tobytes()


# ------------------------------------------------------------ one evaluator

def spy_evaluations(f, monkeypatch):
    """The list of f's `_val_dval` calls, one entry per call, from a spy set on
    the function object itself (through its __dict__, as it is frozen)."""
    calls, evaluate = [], f._val_dval

    def spy(z):
        calls.append(np.shape(z))
        return evaluate(z)

    monkeypatch.setitem(f.__dict__, "_val_dval", spy)
    return calls


EVALUATOR_POOL = [
    Polynomial((0.15j, -0.5 - 0.3j, 1)),
    Rational(Polynomial((-0.5, 1)), Polynomial((2, 1, 0.5))),
    BlaschkeProduct((0.5, 0.3j, 0.3j)),
    Binomial(0.9),
    ScaledRotation(Binomial(0.9), 2 - 1j, 0.4),
]


@pytest.mark.parametrize("f", EVALUATOR_POOL, ids=lambda f: type(f).__name__)
def test_every_field_kernel_evaluates_f_once_per_call(f, monkeypatch):
    calls, z = spy_evaluations(f, monkeypatch), reference_points()[:64]
    for field in (w_values, grad_w_values, gw_values, wd_values):
        for points in (z, np.asarray(z[0])):
            calls.clear()
            field(f, MeanParams(1.5, 1.0), points)
            assert calls == [np.shape(points)], field.__name__


@pytest.mark.parametrize("f", EVALUATOR_POOL, ids=lambda f: type(f).__name__)
def test_a_ring_schedule_evaluates_f_once_per_field_call(f, monkeypatch):
    # every field the quadrature layer holds is counted, so a ring round
    # that took W from a second field call would show up as two calls
    field_calls, calls = [], spy_evaluations(f, monkeypatch)

    def counted(field):
        def out(*args):
            field_calls.append(field.__name__)
            return field(*args)
        return out

    for name in ("w_values", "grad_w_values", "g_values", "gw_values",
                 "radial_deriv_w_values", "wd_values"):
        monkeypatch.setattr(quadrature, name, counted(getattr(quadrature, name)))
    quadrature.ring_integrals(f, MeanParams(1.5, 0.5), 0.2j, (0.1, 0.05),
                              quadrature.KERNEL_ONE_MINUS_ABS_SQ, 0.9, quadrature.QuadratureSpec())
    assert field_calls and set(field_calls) == {"grad_w_values"}
    assert len(calls) == len(field_calls)


# ------------------------------------------------------------- page faults

# warm-up calls, then 50 gw_values calls of 2^14 points per family, then one
# warmed blaschke:0.5 disk mesh of G and W; prints the minor page faults of
# the calls and of the mesh
FAULT_RUN = """
import resource
import numpy as np
import hardylab
from hardylab.fields import MeanParams, gw_values
from hardylab.parsing import parse_function
from hardylab.quadrature import KERNEL_ONE, QuadratureSpec, disk_integrals

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

rng = np.random.default_rng(3)
z = 0.99 * np.sqrt(rng.uniform(size=1 << 14)) * np.exp(2j * np.pi * rng.uniform(size=1 << 14))
params, calls = MeanParams(1.5, 1.0), 0
for text in ("poly:0.3-0.2i,-0.5,0.1+0.4i,0.8,-0.6i,2.1", "blaschke:0.5", "binom:0.9",
             "rat:1,1|1.001,-1"):
    f = parse_function(text)
    for _ in range(3):
        gw_values(f, params, z)
    before = faults()
    for _ in range(50):
        gw_values(f, params, z)
    calls += faults() - before
f, spec = parse_function("blaschke:0.5"), QuadratureSpec()
disk_integrals(f, params, (0.9,), [KERNEL_ONE], [KERNEL_ONE], spec)
before = faults()
disk_integrals(f, params, (0.9,), [KERNEL_ONE], [KERNEL_ONE], spec)
print(calls, faults() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator policy")
def test_field_calls_reuse_freed_pages():
    # a child interpreter, so the allocator state is its own: without the
    # package's top pad, glibc returned each call's freed pages to the
    # system, and the 50 calls made 12,800-19,200 faults per family and the
    # mesh about 13,000
    pytest.importorskip("resource")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", FAULT_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls, mesh = map(int, proc.stdout.split())
    assert calls <= 50, calls
    assert mesh <= 100, mesh
