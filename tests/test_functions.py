import cmath
import collections
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hardylab.functions import (
    Binomial,
    BlaschkeProduct,
    CircleProximityError,
    EvaluationDomainError,
    FunctionModelError,
    MembershipHint,
    Polynomial,
    Rational,
    RootFindingError,
    ScaledRotation,
    eval_at,
    feature_moduli,
    fourier_band,
    membership_hint,
    zeros_in_disk,
)

FD_STEP = 1e-6


def central_diff(f, z, h=FD_STEP):
    return (eval_at(f, z + h) - eval_at(f, z - h)) / (2 * h)


def deriv_at(f, z):
    """f'(z), the derivative row of the one evaluator."""
    return complex(f._val_dval(np.asarray(complex(z)))[1])


# ---------------------------------------------------------------- evaluation

def test_monomial_eval():
    f = Polynomial((0, 0, 0, 1))
    assert eval_at(f, 0.5) == pytest.approx(0.125)


def test_blaschke_vanishes_at_zero():
    f = BlaschkeProduct((0.5,))
    assert eval_at(f, 0.5) == 0


def test_binomial_value():
    assert eval_at(Binomial(1.0), 0.5) == pytest.approx(2.0)


def test_monomial_derivative():
    assert deriv_at(Polynomial((0, 0, 0, 1)), 0.5) == pytest.approx(0.75)


def test_constant_derivative_is_zero():
    assert deriv_at(Polynomial((5,)), 0.3 + 0.1j) == 0


def test_binomial_derivative_matches_finite_difference():
    f = Binomial(1.0)
    assert deriv_at(f, 0.0) == pytest.approx(1.0)
    assert abs(deriv_at(f, 0.0) - central_diff(f, 0.0)) <= 1e-8


def test_binomial_domain_error_at_one():
    with pytest.raises(EvaluationDomainError):
        eval_at(Binomial(0.5), 1.0)


def test_rational_eval_and_deriv():
    f = Rational(Polynomial((1, 1)), Polynomial((2, 0, 1)))  # (1+z)/(2+z^2)
    z = 0.3 + 0.2j
    expected = (1 + z) / (2 + z * z)
    assert eval_at(f, z) == pytest.approx(expected)
    assert abs(deriv_at(f, z) - central_diff(f, z)) <= 1e-7 * max(1, abs(deriv_at(f, z)))


def test_rational_rejects_interior_pole():
    with pytest.raises(FunctionModelError):
        Rational(Polynomial((1,)), Polynomial((0.5, 1)))  # pole at -0.5


def test_zero_polynomial_rejected():
    with pytest.raises(FunctionModelError):
        Polynomial((0, 0))


def test_empty_blaschke_product_rejected():
    # the constant 1 would render as `blaschke:`, which does not parse
    with pytest.raises(FunctionModelError, match="poly:1"):
        BlaschkeProduct(())


@pytest.mark.parametrize(
    "f,expected",
    [
        # zeros at any modulus, none at the origin
        (Polynomial((0, -2, 1)), [(2.0, 0.0)]),
        # a Blaschke zero a and its pole 1/conj(a), at the angle of a
        (BlaschkeProduct((0.5j, 0)), [(0.5, math.pi / 2), (2.0, math.pi / 2)]),
        # the zero and every pole of a rational, however far out
        (Rational(Polynomial((-0.5, 1)), Polynomial((-3, 1))), [(0.5, 0.0), (3.0, 0.0)]),
        (ScaledRotation(Binomial(0.5), 2.0, 0.3), [(1.0, -0.3)]),
    ],
)
def test_feature_moduli_lists_every_singular_modulus(f, expected):
    assert [pytest.approx(point) for point in expected] == list(feature_moduli(f))


@pytest.mark.parametrize(
    "f,poles,zeros",
    [
        (Polynomial((0, -2, 1)), [], 1),
        # a repeated Blaschke zero is one zero of order 2, with one pole
        (BlaschkeProduct((0.5j, 0, 0.5j)), [(2.0, math.pi / 2)], 2),
        (Rational(Polynomial((-0.5, 1)), Polynomial((-3, 1))), [(3.0, 0.0)], 1),
        (ScaledRotation(Binomial(0.5), 2.0, 0.3), [(1.0, -0.3)], 0),
        # expanded (z - 0.5)^2: its two computed roots cluster into one zero
        (Polynomial((0.25, -1, 1)), [], 2),
    ],
)
def test_even_p_counts_zeros_as_band_not_features(f, poles, zeros):
    # |f|^p is real-analytic at a zero at even p: the off-origin zeros, with
    # orders, leave the features and make a band of p/2 modes each
    for p in (2.0, 4):
        assert [pytest.approx(point) for point in poles] == list(feature_moduli(f, p))
        assert fourier_band(f, p) == p // 2 * zeros
    assert fourier_band(f, 3.0) == fourier_band(f, 1.5) == 0
    # each case has one distinct off-origin zero, of order `zeros`, or none:
    # at odd p it is listed once, whatever its order
    assert len(feature_moduli(f, 3.0)) == len(poles) + min(zeros, 1)


def test_degree_cap():
    with pytest.raises(RootFindingError):
        Polynomial((1,) * 66)


def test_scaled_rotation_composition():
    inner = Polynomial((1, 2, 0, 1))
    f = ScaledRotation(inner, 2 - 1j, 0.7)
    z = 0.3 + 0.4j
    w = cmath.exp(0.7j) * z
    assert eval_at(f, z) == (2 - 1j) * eval_at(inner, w)
    assert deriv_at(f, z) == pytest.approx((2 - 1j) * cmath.exp(0.7j) * deriv_at(inner, w))


POOL = [
    Polynomial((1, 0.5, -0.25)),
    Polynomial((0, 0, 1)),
    Polynomial((2 + 1j, -0.3j, 0, 0.7)),
    Rational(Polynomial((1, 1)), Polynomial((2, 0, 1))),
    BlaschkeProduct((0.5, -0.2 + 0.3j)),
    Binomial(0.8),
    ScaledRotation(Polynomial((1, 1)), 1.5 - 0.5j, 1.1),
]


@given(
    idx=st.integers(0, len(POOL) - 1),
    re=st.floats(-0.6, 0.6),
    im=st.floats(-0.6, 0.6),
)
def test_derivative_matches_finite_difference(idx, re, im):
    f = POOL[idx]
    z = complex(re, im)
    d = deriv_at(f, z)
    fd = central_diff(f, z)
    assert abs(d - fd) <= 1e-7 * max(1.0, abs(d))


@given(
    a_re=st.floats(-0.8, 0.8),
    a_im=st.floats(-0.8, 0.8),
    z_re=st.floats(-0.7, 0.7),
    z_im=st.floats(-0.7, 0.7),
)
def test_blaschke_bounded_inside(a_re, a_im, z_re, z_im):
    a = complex(a_re, a_im)
    if abs(a) >= 0.95:
        a *= 0.9 / abs(a)
    z = complex(z_re, z_im)
    f = BlaschkeProduct((a,))
    assert abs(eval_at(f, z)) < 1.0


@given(theta=st.floats(0, 2 * math.pi))
def test_blaschke_unimodular_on_circle(theta):
    f = ScaledRotation(BlaschkeProduct((0.5, -0.2 + 0.3j)), cmath.exp(0.4j))
    z = cmath.exp(1j * theta)
    assert abs(eval_at(f, z)) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------- joint evaluation

def reference_val(f, z):
    """The closed form of each family, one formula per family, apart from the
    joint evaluator: plain Horner, one quotient, one product of factors, and
    numpy's complex power."""
    if isinstance(f, Polynomial):
        acc = np.zeros_like(z)
        for c in reversed(f.coeffs):
            acc = acc * z + c
        return acc
    if isinstance(f, Rational):
        return reference_val(f.num, z) / reference_val(f.den, z)
    if isinstance(f, BlaschkeProduct):
        val = np.ones_like(z)
        for a, m in collections.Counter(f.zeros).items():
            val = val * ((a - z) / (1.0 - np.conj(a) * z)) ** m
        return val
    if isinstance(f, Binomial):
        return (1.0 - z) ** (-f.alpha)
    if isinstance(f, ScaledRotation):
        return f.scale * reference_val(f.inner, f.phase * z)
    raise TypeError(type(f).__name__)


def reference_dval(f, z):
    """The closed-form derivative of each family, one formula per family."""
    if isinstance(f, Polynomial):
        acc = np.zeros_like(z)
        for c in reversed([k * c for k, c in enumerate(f.coeffs) if k >= 1] or [0j]):
            acc = acc * z + c
        return acc
    if isinstance(f, Rational):
        dv = reference_val(f.den, z)
        nv = reference_val(f.num, z)
        return (reference_dval(f.num, z) * dv - nv * reference_dval(f.den, z)) / (dv * dv)
    if isinstance(f, BlaschkeProduct):
        val = np.ones_like(z)
        der = np.zeros_like(z)
        for a, m in collections.Counter(f.zeros).items():
            den = 1.0 - np.conj(a) * z
            b = (a - z) / den
            pd = m * b ** (m - 1) * (abs(a) ** 2 - 1.0) / (den * den)
            der = der * b**m + val * pd
            val = val * b**m
        return der
    if isinstance(f, Binomial):
        return f.alpha * (1.0 - z) ** (-f.alpha - 1.0)
    if isinstance(f, ScaledRotation):
        return f.scale * f.phase * reference_dval(f.inner, f.phase * z)
    raise TypeError(type(f).__name__)


JOINT_POOL = [
    Polynomial((2.5 - 1j,)),
    Polynomial((1, 0.5, -0.25)),
    Polynomial((2 + 1j, -0.3j, 0, 0.7, 0.1 - 0.2j)),
    Rational(Polynomial((1, 1)), Polynomial((2, 0, 1))),
    BlaschkeProduct((0.5, -0.2 + 0.3j)),
    BlaschkeProduct((0.5, 0.5, 0.1j, -0.6, -0.6, -0.6)),
    Binomial(0.8),
    Binomial(2.5),
    ScaledRotation(Polynomial((1, 1)), 1.5 - 0.5j, 1.1),
    ScaledRotation(Rational(Polynomial((0.3, -1, 0.5)), Polynomial((3, 1j, 1))), 0.5j, -2.0),
    ScaledRotation(BlaschkeProduct((0.5, -0.2 + 0.3j)), cmath.exp(0.4j)),
]


@pytest.mark.parametrize("f", JOINT_POOL, ids=lambda f: type(f).__name__)
def test_joint_value_and_derivative(f):
    rng = np.random.default_rng(5)
    rad = 0.97 * np.sqrt(rng.uniform(0, 1, 200))
    z = rad * np.exp(2j * math.pi * rng.uniform(0, 1, 200))
    for pts in (z, np.asarray(z[0]), np.asarray(0j)):
        val, der = f._val_dval(pts)
        # both rows within 1e-13 of the largest reference modulus
        for got, ref in ((val, reference_val(f, pts)), (der, reference_dval(f, pts))):
            assert np.all(np.abs(got - ref) <= 1e-13 * np.max(np.abs(ref)))


# --------------------------------------------------------------------- zeros

def test_zeros_factored_polynomial():
    f = Polynomial((0, 0, -0.3, 1))  # z^2 (z - 0.3)
    zs = zeros_in_disk(f, 0.5)
    assert sorted((z.order, z.location) for z in zs) == [
        (1, pytest.approx(0.3)),
        (2, 0),
    ]


def test_zeros_binomial_empty():
    assert zeros_in_disk(Binomial(0.7), 0.9) == []


def test_zeros_circle_proximity_guard():
    f = Polynomial((-0.5, 1))  # zero at 0.5
    with pytest.raises(CircleProximityError):
        zeros_in_disk(f, 0.5 + 1e-10)
    assert len(zeros_in_disk(f, 0.5 + 1e-6)) == 1


def test_zeros_against_reversed_companion_oracle():
    # oracle: roots of the reversed polynomial are reciprocals of the roots
    rng = np.random.default_rng(7)
    coeffs = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, size=(9, 2)))
    f = Polynomial(coeffs)
    mine = sorted(
        (z.location for z in zeros_in_disk(f, 0.8)), key=lambda w: (w.real, w.imag)
    )
    rev = np.roots(np.array(coeffs))  # ascending-as-descending = reversed polynomial
    oracle = sorted(
        (1.0 / w for w in rev if w != 0 and abs(1.0 / w) < 0.8),
        key=lambda w: (w.real, w.imag),
    )
    assert len(mine) == len(oracle)
    for ours, ref in zip(mine, oracle):
        assert abs(ours - ref) <= 1e-9


def test_zero_locations_are_accurate():
    rng = np.random.default_rng(11)
    coeffs = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, size=(7, 2)))
    f = Polynomial(coeffs)
    scale = max(abs(c) for c in coeffs)
    for zero in zeros_in_disk(f, 0.95):
        assert abs(eval_at(f, zero.location)) <= 1e-9 * scale


def test_wrapper_zeros_are_rotated():
    f = ScaledRotation(Polynomial((-0.5, 1)), 2.0, 0.9)
    zs = zeros_in_disk(f, 0.8)
    assert len(zs) == 1
    assert zs[0].location == pytest.approx(0.5 * cmath.exp(-0.9j))


# ---------------------------------------------------------------- membership

@pytest.mark.parametrize(
    "f,p,q,expected",
    [
        (Polynomial((0, 0, 0, 0, 0, 1)), 0.5, 0.0, MembershipHint.MEMBER),
        (BlaschkeProduct((0.5,)), 1.0, 0.5, MembershipHint.MEMBER),
        (Binomial(2.0), 1.0, 0.0, MembershipHint.NON_MEMBER),
        (Binomial(0.9), 2.0, 1.0, MembershipHint.MEMBER),
        (Binomial(1.0), 1.0, 0.0, MembershipHint.UNKNOWN),
    ],
)
def test_membership_hint(f, p, q, expected):
    assert membership_hint(f, p, q) == expected
