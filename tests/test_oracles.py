"""Oracle gate: a converged disk integral or circle mean lies within its own
error bar, and the binomial family's pointwise values match mpmath.

Each disk case integrates G = Laplacian of W against the kernel 1 over
|z| < r and compares it with 2 pi r M'(r), where M is the circle mean of W,
taken from a closed form and differentiated analytically.  The circle cases
compare circle means M(r) and their derivatives M'(r) with closed forms: at
p = 2 for rationals and Blaschke products, and for binomials and 1 + z^64
through 2F1 at every p; those of f(z^m) are compared with those of f at r^m.  A
converged result must satisfy
|value - exact| <= max(error_estimate, rel_tol * max(1, |exact|));
unconverged results and typed errors are allowed.
"""

import math

import numpy as np
import pytest

from hardylab.fields import MeanParams
from hardylab.functions import Binomial, BlaschkeProduct, Polynomial, Rational, ScaledRotation
from hardylab.parsing import parse_function
from hardylab.quadrature import (
    KERNEL_ONE,
    TWO_PI,
    QuadratureError,
    QuadratureSpec,
    circle_integrals,
    circle_mean,
    circle_mean_deriv,
    disk_integral_G,
)

mpmath = pytest.importorskip("mpmath")

SPEC = QuadratureSpec()


def assert_within_error_bar(res, exact):
    if res.converged:
        allowed = max(res.error_estimate, SPEC.rel_tol * max(1.0, abs(exact)))
        assert abs(res.value - exact) <= allowed, (res.value, exact, res.error_estimate)


def binomial_circle_mean(alpha, params, r):
    """(1 - z)^(-alpha): M = (1 - r^2)^q 2F1(a, a; 1; r^2) with a = alpha p / 2,
    and M' = 2 r dM/dx, x = r^2, with d/dx 2F1(a, a; 1; x) = a^2 2F1(a + 1,
    a + 1; 2; x): (M, M') as mpmath numbers at the working precision."""
    a, x, q = mpmath.mpf(alpha * params.p) / 2, mpmath.mpf(r) ** 2, params.q
    h, dh = mpmath.hyp2f1(a, a, 1, x), a * a * mpmath.hyp2f1(a + 1, a + 1, 2, x)
    return (1 - x) ** q * h, 2 * r * ((1 - x) ** q * dh - q * (1 - x) ** (q - 1) * h)


def binomial_disk_g(alpha, params, r):
    """2 pi r M'(r) for (1 - z)^(-alpha)."""
    with mpmath.workdps(30):
        return float(2 * mpmath.pi * r * binomial_circle_mean(alpha, params, r)[1])


def monomial_disk_g(n, params, r):
    """z^n: M = r^s (1 - r^2)^q with s = n p."""
    s, q = n * params.p, params.q
    dmean = s * r ** (s - 1) * (1 - r * r) ** q - 2 * q * r ** (s + 1) * (1 - r * r) ** (q - 1)
    return 2 * math.pi * r * dmean


def shifted_zero_disk_g(a, p, r):
    """z - a with 0 < a < r at q = 0: M = r^p 2F1(-p/2, -p/2; 1; (a/r)^2), and
    d/dx 2F1(b, b; 1; x) = b^2 2F1(b + 1, b + 1; 2; x) with b = -p/2."""
    with mpmath.workdps(30):
        r_, b = mpmath.mpf(r), -mpmath.mpf(p) / 2
        x = (mpmath.mpf(a) / r_) ** 2
        h, dh = mpmath.hyp2f1(b, b, 1, x), b * b * mpmath.hyp2f1(b + 1, b + 1, 2, x)
        dmean = p * r_ ** (p - 1) * h + r_**p * dh * (-2 * x / r_)
        return float(2 * mpmath.pi * r_ * dmean)


def binomial_case(alpha, p, q, r):
    params = MeanParams(p, q)
    return pytest.param(
        Binomial(alpha), params, r, binomial_disk_g(alpha, params, r),
        id=f"binom:{alpha}-p{p}-q{q}-r{r}",
    )


def monomial_case(n, p, q, r):
    params = MeanParams(p, q)
    return pytest.param(
        Polynomial((0,) * n + (1,)), params, r, monomial_disk_g(n, params, r),
        id=f"z^{n}-p{p}-q{q}-r{r}",
    )


def shifted_zero_case(p, r):
    return pytest.param(
        Polynomial((-0.5, 1)), MeanParams(p, 0), r, shifted_zero_disk_g(0.5, p, r),
        id=f"z-0.5-p{p}-r{r}",
    )


CASES = (
    [
        binomial_case(alpha, p, q, r)
        for alpha, p, q in ((0.9, 2, 0), (0.9, 2, 1), (0.5, 1.5, 0.5), (2, 1, 0))
        for r in (0.5, 0.9, 0.99)
    ]
    + [
        monomial_case(n, p, q, r)
        for n, p, q in ((1, 2, 0), (1, 0.5, 0), (2, 1.5, 1), (3, 0.5, 0.5))
        for r in (0.5, 0.9, 0.99)
    ]
    + [
        shifted_zero_case(p, r)
        for p, r in ((1.5, 0.7), (1.5, 0.9), (3, 0.7), (3, 0.9), (0.5, 0.9))
    ]
)


@pytest.mark.parametrize("f,params,r,exact", CASES)
def test_converged_disk_g_within_its_error_bar(f, params, r, exact):
    try:
        res = disk_integral_G(f, params, r, KERNEL_ONE, SPEC)
    except QuadratureError:
        return
    assert_within_error_bar(res, exact)


@pytest.mark.xfail(
    strict=True,
    reason="item 3 (zero-centred patches): next to the zero of z - 0.5 at "
    "p = 0.5 the disk-G estimate (1.5e-8) is below the error (4.6e-8); the "
    "case above passes only on the rel_tol floor",
)
def test_sharp_zero_estimate_bounds_its_error():
    params, r = MeanParams(0.5, 0), 0.9
    res = disk_integral_G(Polynomial((-0.5, 1)), params, r, KERNEL_ONE, SPEC)
    exact = shifted_zero_disk_g(0.5, params.p, r)
    assert res.converged
    assert abs(res.value - exact) <= res.error_estimate, (res.value, exact, res.error_estimate)


BINOMIAL_CIRCLE_RADII = (0.3, 0.5, 0.7, 0.9, 0.95, 0.99)


@pytest.mark.parametrize("q", [0, 0.5, 1])
@pytest.mark.parametrize("p", [0.5, 1, 1.5, 2, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 2])
def test_binomial_circle_means_and_derivatives_within_their_error_bars(alpha, p, q):
    # every p, one circle batch of M and M' per (alpha, p, q); the circles
    # near the binomial's point 1 take tanh-sinh arcs
    params = MeanParams(p, q)
    batch = circle_integrals(Binomial(alpha), params, BINOMIAL_CIRCLE_RADII, SPEC, ("W", "dW/dr"))
    for r, results in zip(BINOMIAL_CIRCLE_RADII, batch):
        with mpmath.workdps(30):
            exact = [float(value) for value in binomial_circle_mean(alpha, params, r)]
        for res, value in zip(results, exact):
            assert res.converged, (r, res)
            assert_within_error_bar(res, value)


def p2_circle_mean(f, q, r):
    """M(r) and M'(r) at p = 2 for a rational f (a Blaschke product, or a
    scaled rotation of either) with simple poles b_k.

    f is a polynomial P plus sum_k d_k / (1 - z/b_k), so its Taylor
    coefficients are a_n = P_n + c_n with c_n = sum_k d_k b_k^-n, and
    M(r) = (1 - x)^q S(x) with x = r^2 and S(x) = sum_n |a_n|^2 x^n: the
    finite sum over n <= deg P of |P_n|^2 + 2 Re(conj(P_n) c_n), plus
    sum_{k,l} d_k conj(d_l) / (1 - x u_kl) with u_kl = 1/(b_k conj(b_l)).
    c f(e^{i phi} z) has the coefficients c e^{i n phi} a_n, so M scales by
    |c|^2."""
    scale = 1.0
    if isinstance(f, ScaledRotation):
        scale, f = abs(f.scale) ** 2, f.inner
    with mpmath.workdps(30):
        mpc = lambda c: mpmath.mpc(c.real, c.imag)
        if isinstance(f, Rational):
            num, den = [mpc(c) for c in f.num.coeffs], [mpc(c) for c in f.den.coeffs]
        else:
            # prod (a - z) / prod (1 - conj(a) z), one factor per listed zero
            num, den = [mpmath.mpc(1)], [mpmath.mpc(1)]
            for a in f.zeros:
                num = poly_mul(num, [mpc(a), -1])
                den = poly_mul(den, [1, -mpmath.conj(mpc(a))])
        while den[-1] == 0:
            den.pop()
        # num = P den + rem, by long division in ascending coefficients
        poly = [mpmath.mpc(0)] * max(len(num) - len(den) + 1, 0)
        for k in reversed(range(len(poly))):
            poly[k] = c = num[k + len(den) - 1] / den[-1]
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
        rem = num[: len(den) - 1]
        value = lambda coeffs, z: mpmath.fsum(c * z**n for n, c in enumerate(coeffs))
        dden = [n * c for n, c in enumerate(den)][1:]
        poles = mpmath.polyroots(den[::-1], maxsteps=200, extraprec=60)
        d = [-value(rem, b) / (b * value(dden, b)) for b in poles]
        x = mpmath.mpf(r) ** 2
        s = ds = mpmath.mpf(0)
        for n, pn in enumerate(poly):
            cn = mpmath.fsum(dk / b**n for dk, b in zip(d, poles))
            t = abs(pn) ** 2 + 2 * mpmath.re(mpmath.conj(pn) * cn)
            s, ds = s + t * x**n, ds + n * t * x ** (n - 1)
        for dk, bk in zip(d, poles):
            for dl, bl in zip(d, poles):
                u, c = 1 / (bk * mpmath.conj(bl)), dk * mpmath.conj(dl)
                s, ds = s + c / (1 - x * u), ds + c * u / (1 - x * u) ** 2
        s, ds, w = mpmath.re(s), mpmath.re(ds), 1 - x
        mean = w**q * s
        dmean = 2 * mpmath.mpf(r) * (w**q * ds - q * w ** (q - 1) * s)
        return float(scale * mean), float(scale * dmean)


def poly_mul(a, b):
    out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


P2_RADII = (0.3, 0.7) + tuple(1.0 - 2.0**-j for j in (1, 4, 8, 12, 16, 20))


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize(
    "text", ["rat:1,2|2,0.3,-1", "blaschke:0.5,-0.3+0.4i", "rat:1,2|2,0.3,-1*1.5-0.5i@0.8"]
)
def test_p2_circle_means_and_derivatives_within_their_error_bars(text, q):
    # every pole lies beyond |z| = 1.27, so each circle converges
    f, params = parse_function(text), MeanParams(2, q)
    for r in P2_RADII:
        mean, dmean = p2_circle_mean(f, q, r)
        for res, exact in ((circle_mean(f, params, r, SPEC), mean),
                           (circle_mean_deriv(f, params, r, SPEC), dmean)):
            assert res.converged, (r, res)
            assert_within_error_bar(res, exact)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_aliased_circle_mean_within_its_error_bar(p):
    # the mean of |1 + w e^{i phi}|^p is 2F1(-p/2, -p/2; 1; |w|^2), with
    # w = r^64 here: 1 + r^128 at p = 2.  Mode 64 folds onto mode 0 at 32
    # and 64 steps, which agree; the zeros on |z| = 1 ask for at least 98
    r = 0.79
    with mpmath.workdps(30):
        exact = float(mpmath.hyp2f1(-p / 2, -p / 2, 1, mpmath.mpf(r) ** 128))
    if p == 2:
        exact = 1 + r**128
    res = circle_mean(Polynomial((1,) + (0,) * 63 + (1,)), MeanParams(p, 0), r, SPEC)
    assert_within_error_bar(res, exact)


@pytest.mark.parametrize("r", [0.93, 0.95])
@pytest.mark.parametrize("p", [1, 3])
def test_circle_outside_a_ring_of_zeros_within_its_error_bar(p, r):
    # z^64 / c - 1 with c = 0.75^64 has its zeros inside the circle, too far
    # for arcs: with w = r^64 / c, the mean of |w e^{i phi} - 1|^p is
    # w^p 2F1(-p/2, -p/2; 1; w^-2).  Mode 64 folds onto mode 0 at 32 and 64
    # steps, 3e-7 to 3e-6 relative off, while the zeros ask for 98 to 108
    c = 0.75**64
    with mpmath.workdps(30):
        w = mpmath.mpf(r) ** 64 / mpmath.mpf(c)
        exact = float(w**p * mpmath.hyp2f1(-p / 2, -p / 2, 1, w**-2))
    res = circle_mean(Polynomial((-1,) + (0,) * 63 + (1 / c,)), MeanParams(p, 0), r, SPEC)
    assert_within_error_bar(res, exact)


# subordination: g(z) = f(z^m) has W_g(r e^{i theta}) = (1 - r^2)^q |f(r^m e^{i m theta})|^p,
# so M_{p,q}(r, g) = ((1 - r^2)/(1 - r^{2m}))^q M_{p,q}(r^m, f), which is
# (1 - r^2)^q M_{p,0}(r^m, f), and d/dr follows by the chain rule.  The base f
# has low degree and its circle at r^m lies far from any alias, so its q = 0
# mean and derivative at rel_tol 1e-12 stand in for the exact values at every
# p.  Bases are (text, degree), and m * degree <= 64 keeps f(z^m) within
# MAX_POLY_DEGREE.
SUBORDINATION_BASES = (
    ("poly:1,1", 1), ("poly:1,-1.2", 1), ("rat:1,2|2,0.3,-1", 2), ("blaschke:0.5,-0.3+0.4i", 2),
)
SUBORDINATION_RADII = (0.3, 0.5, 0.7, 0.79, 0.9, 0.95)
REFERENCE_SPEC = QuadratureSpec(1e-12)


def subordinate(f, m):
    """f(z^m): coefficients spread m apart, or each Blaschke zero's m-th roots."""
    if isinstance(f, BlaschkeProduct):
        return BlaschkeProduct(tuple(
            abs(a) ** (1 / m) * np.exp(1j * (np.angle(a) + TWO_PI * j) / m)
            for a in f.zeros for j in range(m)))

    def spread(poly):
        coeffs = [0j] * (m * (len(poly.coeffs) - 1) + 1)
        coeffs[::m] = poly.coeffs
        return Polynomial(tuple(coeffs))

    return Rational(spread(f.num), spread(f.den)) if isinstance(f, Rational) else spread(f)


def subordination_margins(text, m, p, q):
    """(r, row, margin, converged) per radius and row W, dW/dr of f(z^m), the
    margin being max(error_estimate, rel_tol max(1, |exact|)) / |error|."""
    f = parse_function(text)
    radii = SUBORDINATION_RADII
    base = circle_integrals(f, MeanParams(p, 0), [r**m for r in radii], REFERENCE_SPEC,
                            ("W", "dW/dr"))
    sub = circle_integrals(subordinate(f, m), MeanParams(p, q), radii, SPEC, ("W", "dW/dr"))
    out = []
    for r, (mean0, dmean0), results in zip(radii, base, sub):
        assert mean0.converged and dmean0.converged
        w = 1 - r * r
        exact = (w**q * mean0.value,
                 w**q * m * r ** (m - 1) * dmean0.value - 2 * q * r * w ** (q - 1) * mean0.value)
        for row, res, value in zip(("W", "dW/dr"), results, exact):
            allowed = max(res.error_estimate, SPEC.rel_tol * max(1.0, abs(value)))
            error = abs(res.value - value)
            out.append((r, row, allowed / error if error else math.inf, res.converged))
    return out


@pytest.mark.parametrize("text,m", [
    (text, m) for text, degree in SUBORDINATION_BASES for m in (8, 16, 32, 64) if m * degree <= 64
])
def test_subordinate_circle_means_within_their_error_bars(text, m):
    # every p in (0.5, 1, 1.5, 2, 3) and q in (0, 1): at m = 64, r = 0.79 the
    # mode 64 of f(z^m) folds onto mode 0 at 32 and 64 steps
    bad = [(p, q) + case for p in (0.5, 1, 1.5, 2, 3) for q in (0, 1)
           for case in subordination_margins(text, m, p, q) if case[3] and case[2] < 1]
    assert not bad, bad


def binomial_points():
    # interior points, and points with |1 - z| = 2^-k, k = 1..30, where the
    # rounding of exp(-alpha log(1 - z)) grows with |alpha log|1 - z||
    near_one = [1.0 - 2.0**-k * np.exp(1j * t) for k in range(1, 31) for t in (0.0, 0.7, -1.2, 1.5)]
    points = [0j, 0.5, -0.9, 0.3 + 0.4j, 0.99j, -0.6 - 0.7j] + near_one
    return np.array([z for z in points if abs(z) < 1.0])


@pytest.mark.parametrize("alpha", [0.3, 0.9, 2.5])
def test_binomial_values_match_mpmath(alpha):
    # (1 - z)^(-alpha) and its derivative alpha (1 - z)^(-alpha - 1) within
    # 2e-15 relative of a 30-digit value, directly and through c f(e^{i phi} z)
    def relative_errors(got, points, factor, dfactor):
        out = []
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)  # -alpha - 1 in floats would be rounded
            for value, z in zip(got, points):
                u = 1 - mpmath.mpc(z.real, z.imag)
                exact = (factor * u**-a, dfactor * a * u ** (-a - 1))
                for v, e in zip(value, exact):
                    out.append(float(abs(mpmath.mpc(v.real, v.imag) - e) / abs(e)))
        return max(out)

    f, z = Binomial(alpha), binomial_points()
    val, der = f._val_dval(z)
    err = relative_errors(zip(val, der), z, 1, 1)
    assert err < 2e-15

    # the wrapper evaluates its inner function at w = e^{i phi} z, rounded
    g = ScaledRotation(f, 1.5 - 0.5j, 0.8)
    z = np.conj(g.phase) * binomial_points()
    w = g.phase * z
    scale, dscale = mpmath.mpc(g.scale), mpmath.mpc(g.scale) * mpmath.mpc(g.phase)
    val, der = g._val_dval(z)
    err = relative_errors(zip(val, der), w, scale, dscale)
    assert err < 2e-15
