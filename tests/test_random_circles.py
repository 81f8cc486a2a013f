"""Seeded random gate for featured circles: a converged circle mean M(r) or
derivative M'(r) lies within its own error bar of an mpmath reference.

The inputs put a feature close to |z| = r, where the circle takes tanh-sinh
arcs: polynomials whose roots lie within e^{+-0.05} of the circle, rationals
whose poles lie just outside the unit circle with r near the rim, and
binomials (1 - z)^(-alpha), rotated, at r = 1 - 2^-j.  The references
integrate |f|^p and its r-derivative with mpmath's tanh-sinh rule, with
breakpoints at the features' angles; a binomial's is its 2F1 closed form.
The draws are derandomized, so every run checks the same cases.  A
converged result must satisfy
|value - exact| <= max(error_estimate, rel_tol * max(1, |exact|));
unconverged results and typed errors are allowed.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hardylab.fields import MeanParams
from hardylab.functions import Binomial, FunctionModelError, Polynomial, Rational, ScaledRotation
from hardylab.quadrature import QuadratureError, QuadratureSpec, RadiusNearZeroError, circle_integrals
from test_oracles import binomial_circle_mean

mpmath = pytest.importorskip("mpmath")

SPEC = QuadratureSpec()
EXPONENTS = st.tuples(st.sampled_from([0.5, 1, 1.5, 2, 3, 4]), st.sampled_from([0, 0.5, 1]))
ANGLES = st.floats(0.0, 2 * math.pi, exclude_max=True)
# mpmath's quadrature takes about 0.1 s a case, its 2F1 about 3 ms
GATE = settings(derandomize=True, deadline=None, max_examples=12,
                suppress_health_check=[HealthCheck.too_slow])


def coeffs_of(roots):
    """Ascending coefficients of prod (z - a)."""
    return tuple(np.polynomial.polynomial.polyfromroots(roots).astype(complex))


def horner(coeffs, z):
    """p(z) and p'(z) for ascending coefficients, in mpmath."""
    value = deriv = mpmath.mpc(0)
    for c in reversed(coeffs):
        deriv = deriv * z + value
        value = value * z + mpmath.mpc(c.real, c.imag)
    return value, deriv


def quad_circle_mean(num, den, angles, params, r):
    """(M, M') of f = num / den on |z| = r by tanh-sinh quadrature in theta,
    split at the given angles: M = (1 - r^2)^q m with m the mean of |f|^p,
    and m' the mean of p |f|^p Re(u f'/f), u = e^{i theta}."""
    p, q = params.p, params.q
    with mpmath.workdps(20):
        r_ = mpmath.mpf(r)

        def parts(theta):
            u = mpmath.expj(theta)
            (n, dn), (d, dd) = horner(num, r_ * u), horner(den, r_ * u)
            power = abs(n / d) ** p
            return power, p * power * mpmath.re(u * (dn / n - dd / d))

        cuts = sorted(a % (2 * math.pi) for a in angles)
        cuts.append(cuts[0] + 2 * math.pi)
        m = mpmath.quad(lambda t: parts(t)[0], cuts) / (2 * mpmath.pi)
        dm = mpmath.quad(lambda t: parts(t)[1], cuts) / (2 * mpmath.pi)
        w = 1 - r_ * r_
        return float(w**q * m), float(w**q * dm - 2 * q * r_ * w ** (q - 1) * m)


def check_within_bars(f, params, r, exact):
    try:
        (results,) = circle_integrals(f, params, (r,), SPEC, ("W", "dW/dr"))
    except (QuadratureError, RadiusNearZeroError, FunctionModelError):
        return
    for res, value in zip(results, exact):
        if res.converged:
            allowed = max(res.error_estimate, SPEC.rel_tol * max(1.0, abs(value)))
            assert abs(res.value - value) <= allowed, (res, value)


@GATE
@given(
    r=st.floats(0.3, 0.95),
    roots=st.lists(st.tuples(st.floats(0.001, 0.05), st.booleans(), ANGLES), min_size=1, max_size=3),
    exponents=EXPONENTS,
)
def test_random_polynomial_circles_near_their_roots_within_their_error_bars(r, roots, exponents):
    zeros = [r * math.exp(d if out else -d) * complex(math.cos(a), math.sin(a))
             for d, out, a in roots]
    f = Polynomial(coeffs_of(zeros))
    params = MeanParams(*exponents)
    angles = [a for _, _, a in roots]
    check_within_bars(f, params, r, quad_circle_mean(f.coeffs, (1,), angles, params, r))


@GATE
@given(
    gap=st.floats(0.002, 0.05),
    poles=st.lists(st.tuples(st.floats(0.001, 0.03), ANGLES), min_size=1, max_size=2),
    exponents=EXPONENTS,
)
def test_random_rational_circles_near_their_poles_within_their_error_bars(gap, poles, exponents):
    r = math.exp(-gap)
    den = coeffs_of([math.exp(d) * complex(math.cos(a), math.sin(a)) for d, a in poles])
    f = Rational(Polynomial((1,)), Polynomial(den))
    params = MeanParams(*exponents)
    angles = [a for _, a in poles]
    check_within_bars(f, params, r, quad_circle_mean((1,), den, angles, params, r))


@settings(GATE, max_examples=40)
@given(
    alpha=st.floats(0.1, 2.0),
    phi=ANGLES,
    j=st.integers(3, 12),
    exponents=EXPONENTS,
)
def test_random_binomial_circles_near_the_rim_within_their_error_bars(alpha, phi, j, exponents):
    # a rotation leaves the mean of (1 - z)^(-alpha) unchanged
    r, params = 1.0 - 2.0**-j, MeanParams(*exponents)
    with mpmath.workdps(30):
        exact = [float(value) for value in binomial_circle_mean(alpha, params, r)]
    check_within_bars(ScaledRotation(Binomial(alpha), 1.0, phi), params, r, exact)
