import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hardylab.fields import (
    MeanParams,
    SingularPointError,
    eval_G,
    eval_W,
    eval_grad_W,
    eval_radial_deriv_W,
)
from hardylab.functions import (
    Binomial,
    BlaschkeProduct,
    Polynomial,
    Rational,
    ScaledRotation,
    nearest_zero,
)


def fd_grad(f, params, z, h=1e-5):
    gx = (eval_W(f, params, z + h) - eval_W(f, params, z - h)) / (2 * h)
    gy = (eval_W(f, params, z + 1j * h) - eval_W(f, params, z - 1j * h)) / (2 * h)
    return gx, gy


def fd_laplacian(f, params, z, h=1e-4):
    return (
        eval_W(f, params, z + h)
        + eval_W(f, params, z - h)
        + eval_W(f, params, z + 1j * h)
        + eval_W(f, params, z - 1j * h)
        - 4.0 * eval_W(f, params, z)
    ) / (h * h)


def test_mean_params_validation():
    with pytest.raises(ValueError):
        MeanParams(0.0, 1.0)
    with pytest.raises(ValueError):
        MeanParams(1.0, -0.5)


# ------------------------------------------------------------------- eval_W

def test_w_constant():
    assert eval_W(Polynomial((1,)), MeanParams(2, 2), 0) == pytest.approx(1.0)


def test_w_monomial():
    assert eval_W(Polynomial((0, 1)), MeanParams(2, 0), 0.5j) == pytest.approx(0.25)


def test_w_binomial_weighted():
    # |1/(1-z)|^2 (1-|z|^2) at z = 0.5
    assert eval_W(Binomial(1), MeanParams(2, 1), 0.5) == pytest.approx(3.0)


# --------------------------------------------------------------- eval_grad_W

def test_grad_weight_only():
    g = eval_grad_W(Polynomial((1,)), MeanParams(2, 1), 0.3)
    assert (g.dx, g.dy) == (pytest.approx(-0.6), pytest.approx(0.0))


def test_grad_abs_square():
    g = eval_grad_W(Polynomial((0, 1)), MeanParams(2, 0), 0.3 + 0.4j)
    assert (g.dx, g.dy) == (pytest.approx(0.6), pytest.approx(0.8))


def test_grad_matches_fd_binomial():
    f, params, z = Binomial(1), MeanParams(2, 1), 0.4 + 0.2j
    g = eval_grad_W(f, params, z)
    fx, fy = fd_grad(f, params, z)
    assert abs(g.dx - fx) <= 1e-6 * max(1, abs(g.dx))
    assert abs(g.dy - fy) <= 1e-6 * max(1, abs(g.dy))


# ------------------------------------------------------------------- eval_G

def test_g_monomial_constant_laplacian():
    for z in (0.1, 0.3 + 0.2j, -0.5j):
        assert eval_G(Polynomial((0, 1)), MeanParams(2, 0), z).value == pytest.approx(4.0)


def test_g_weight_only():
    assert eval_G(Polynomial((1,)), MeanParams(2, 1), 0.37j).value == pytest.approx(-4.0)


def test_g_z_squared():
    got = eval_G(Polynomial((0, 0, 1)), MeanParams(2, 0), 0.5)
    assert got.value == pytest.approx(4.0)
    fd = fd_laplacian(Polynomial((0, 0, 1)), MeanParams(2, 0), 0.5)
    assert abs(got.value - fd) <= 1e-5 * max(1, abs(got.value))


def test_g_exact_zero_raises_for_small_p():
    with pytest.raises(SingularPointError):
        eval_G(Polynomial((0, 1)), MeanParams(1.5, 0), 0.0)


def test_g_singular_flag_near_zero():
    v = eval_G(Polynomial((0, 1)), MeanParams(1.5, 0), 1e-11)
    assert v.singular
    assert v.nearest_zero_distance == pytest.approx(1e-11)


def test_g_nonnegative_unweighted():
    f = BlaschkeProduct((0.5, -0.2 + 0.3j))
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        if nearest_zero(f, z)[0] < 0.05:
            continue
        assert eval_G(f, MeanParams(1.3, 0), z).value >= 0.0


# ------------------------------------------------------- eval_radial_deriv_W

def test_radial_deriv_weight_only():
    got = eval_radial_deriv_W(Polynomial((1,)), MeanParams(2, 1), 0.5)
    assert got.value == pytest.approx(-1.0)


def test_radial_deriv_monomial():
    # d/dr r^{np} at r=0.5 for n=2, p=2
    got = eval_radial_deriv_W(Polynomial((0, 0, 1)), MeanParams(2, 0), 0.5)
    assert got.value == pytest.approx(0.5)


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
    g = eval_grad_W(f, params, z)
    radial = (g.dx * z.real + g.dy * z.imag) / abs(z)
    got = eval_radial_deriv_W(f, params, z).value
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
    g = eval_grad_W(f, params, z)
    fx, fy = fd_grad(f, params, z)
    scale = max(1.0, abs(g.dx), abs(g.dy))
    assert abs(g.dx - fx) <= 1e-6 * scale
    assert abs(g.dy - fy) <= 1e-6 * scale


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
    g = eval_G(f, params, z).value
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
    assert eval_W(f, params, z) == pytest.approx(factor * eval_W(inner, params, z), rel=1e-12)
    assert eval_G(f, params, z).value == pytest.approx(
        factor * eval_G(inner, params, z).value, rel=1e-12
    )
    g, gi = eval_grad_W(f, params, z), eval_grad_W(inner, params, z)
    assert g.dx == pytest.approx(factor * gi.dx, rel=1e-12, abs=1e-14)
    assert g.dy == pytest.approx(factor * gi.dy, rel=1e-12, abs=1e-14)
    got = eval_radial_deriv_W(f, params, z).value
    assert got == pytest.approx(factor * eval_radial_deriv_W(inner, params, z).value, rel=1e-12)


@given(phi=st.floats(0, 2 * math.pi), re=st.floats(-0.5, 0.5), im=st.floats(-0.5, 0.5))
def test_rotation_covariance(phi, re, im):
    inner = Polynomial((1, 0.3 - 0.2j, 0, 1))
    f = ScaledRotation(inner, 1.0, phi)
    params = MeanParams(1.5, 1.0)
    z = complex(re, im)
    assert eval_W(f, params, z) == pytest.approx(
        eval_W(inner, params, cmath.exp(1j * phi) * z), rel=1e-12, abs=1e-300
    )
