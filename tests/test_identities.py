import math

import pytest

from hardylab import asymptotics, identities
from hardylab.fields import MeanParams
from hardylab.functions import Binomial, BlaschkeProduct, Polynomial, ScaledRotation
from hardylab.parsing import parse_function
from hardylab.quadrature import (
    KERNEL_ONE_MINUS_ABS_SQ,
    QuadratureSpec,
    kernel_log_r_over_abs,
)
from hardylab.identities import (
    MembershipRequiredError,
    check_area_limit_identity,
    check_growth_identity,
    check_hardy_stein,
    check_log_r_identity,
    check_log_unit_identity,
    check_weighted_area_identity,
    ring_limit_probe,
    run_identity_check,
    usable_radius,
)

SPEC = QuadratureSpec()
TWO_PI = 2 * math.pi


def monomial(n):
    return Polynomial((0,) * n + (1,))


# ------------------------------------------------------------------- growth

def test_growth_monomial_closed_form():
    rep = check_growth_identity(monomial(2), MeanParams(2, 0), 0.8, SPEC)
    # both sides equal 2 pi p n r^{np}
    closed = TWO_PI * 2 * 2 * 0.8**4
    assert rep.lhs == pytest.approx(closed, rel=1e-10)
    assert rep.rhs == pytest.approx(closed, rel=1e-10)
    assert rep.rel_residual <= 1e-8
    assert rep.passed


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.3, 0.7])
def test_growth_constant_closed_form(q, r):
    c = 1.3 - 0.4j
    rep = check_growth_identity(Polynomial((c,)), MeanParams(2, q), r, SPEC)
    closed = -4 * math.pi * q * r**2 * (1 - r * r) ** (q - 1) * abs(c) ** 2
    assert rep.lhs == pytest.approx(closed, rel=1e-8)
    assert rep.rhs == pytest.approx(closed, rel=1e-8)
    assert rep.passed


def test_growth_generic_weighted():
    rep = check_growth_identity(Polynomial((2, 1)), MeanParams(2, 1), 0.7, SPEC)
    assert rep.abs_residual <= max(rep.budget, 1e-7 * max(1, abs(rep.lhs)))
    assert rep.passed


# -------------------------------------------------------------------- log-r

def test_log_r_monomial_golden_value():
    rep = check_log_r_identity(monomial(1), MeanParams(2, 0), 0.5, SPEC)
    assert rep.lhs == pytest.approx(math.pi / 2, rel=1e-12)
    assert rep.rhs == pytest.approx(math.pi / 2, rel=1e-9)
    assert rep.passed


def test_log_r_constant_unweighted_trivial():
    rep = check_log_r_identity(Polynomial((2.5,)), MeanParams(1.5, 0), 0.6, SPEC)
    assert rep.lhs == pytest.approx(0.0, abs=1e-10)
    assert rep.rhs == pytest.approx(0.0, abs=1e-10)
    assert rep.passed


def test_log_r_vanishing_center():
    rep = check_log_r_identity(monomial(2), MeanParams(1, 0), 0.9, SPEC)
    assert rep.passed


# ----------------------------------------------------------------- log-unit

def test_log_unit_monomial():
    rep = check_log_unit_identity(monomial(3), MeanParams(2, 0), 0.8, SPEC)
    # lhs = 2 pi (r^{np} - r log r * np r^{np-1}) for f = z^n, q = 0
    np_ = 6
    closed = TWO_PI * (0.8**np_ - 0.8 * math.log(0.8) * np_ * 0.8 ** (np_ - 1))
    assert rep.lhs == pytest.approx(closed, rel=1e-11)
    assert rep.rel_residual <= 1e-8
    assert rep.passed


def test_log_unit_constant_trivial():
    rep = check_log_unit_identity(Polynomial((1.7,)), MeanParams(2, 0), 0.5, SPEC)
    assert rep.lhs == pytest.approx(0.0, abs=1e-10)
    assert rep.passed


def test_log_minus_log_r_recombination():
    # the two log-kernel identities differ by -log(r) times the growth identity
    f, params, r = Polynomial((1, 1)), MeanParams(2, 1), 0.7
    unit = check_log_unit_identity(f, params, r, SPEC)
    logr = check_log_r_identity(f, params, r, SPEC)
    growth = check_growth_identity(f, params, r, SPEC)
    combined_budget = unit.budget + logr.budget + abs(math.log(r)) * growth.budget
    assert abs(
        (unit.rhs - logr.rhs) - (-math.log(r)) * growth.rhs
    ) <= combined_budget + 1e-9
    assert abs(
        (unit.lhs - logr.lhs) - (-math.log(r)) * growth.lhs
    ) <= combined_budget + 1e-9


# ------------------------------------------------------------- weighted-area

def test_weighted_area_monomial():
    rep = check_weighted_area_identity(monomial(1), MeanParams(2, 0), 0.6, SPEC)
    assert rep.lhs == pytest.approx(4 * math.pi * 0.36, rel=1e-10)
    assert rep.rhs == pytest.approx(4 * math.pi * 0.36, rel=1e-10)
    assert rep.passed


def test_weighted_area_constant():
    c = 0.9 + 0.5j
    rep = check_weighted_area_identity(Polynomial((c,)), MeanParams(2, 0), 0.7, SPEC)
    closed = 4 * math.pi * 0.49 * abs(c) ** 2
    assert rep.lhs == pytest.approx(closed, rel=1e-10)
    assert rep.rhs == pytest.approx(closed, rel=1e-10)


def test_weighted_area_scale_covariance():
    f = Polynomial((1, 0.5))
    tripled = ScaledRotation(f, 3.0, 0.0)
    params = MeanParams(2, 1)
    base = check_weighted_area_identity(f, params, 0.7, SPEC)
    big = check_weighted_area_identity(tripled, params, 0.7, SPEC)
    assert big.lhs == pytest.approx(9 * base.lhs, rel=1e-9)
    assert big.rhs == pytest.approx(9 * base.rhs, rel=1e-9)
    assert base.passed and big.passed


# -------------------------------------------------------------- hardy-stein

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_hardy_stein_monomials(n, p):
    for r in (0.5, 0.9):
        rep = check_hardy_stein(monomial(n), p, r, SPEC)
        assert rep.lhs == pytest.approx(r ** (n * p), rel=1e-10)
        assert rep.rel_residual <= 1e-7
        assert rep.passed


def test_hardy_stein_constant():
    rep = check_hardy_stein(Polynomial((1.1 - 0.3j,)), 1.7, 0.8, SPEC)
    assert rep.lhs == pytest.approx(abs(1.1 - 0.3j) ** 1.7, rel=1e-12)
    assert rep.rhs == pytest.approx(rep.lhs, rel=1e-10)


def test_hardy_stein_blaschke_singular_grading():
    rep = check_hardy_stein(BlaschkeProduct((0.5,)), 1.5, 0.9, SPEC)
    assert rep.abs_residual <= max(rep.budget, 1e-7 * max(1, abs(rep.lhs)))
    assert rep.passed


def test_hardy_stein_is_normalised_log_r_identity():
    f, p, r = Polynomial((1, 0, 0.5)), 1.5, 0.8
    hs = check_hardy_stein(f, p, r, SPEC)
    l2 = check_log_r_identity(f, MeanParams(p, 0.0), r, SPEC)
    assert (hs.lhs - hs.rhs) == pytest.approx((l2.lhs - l2.rhs) / TWO_PI, abs=1e-13)


# --------------------------------------------------------------- area-limit

def test_area_limit_monomial_is_four_pi():
    rep = check_area_limit_identity(monomial(1), MeanParams(2, 0), SPEC)
    assert rep.lhs == pytest.approx(4 * math.pi, rel=1e-4)
    assert rep.rhs == pytest.approx(4 * math.pi, rel=1e-4)
    assert rep.passed


def test_area_limit_constant():
    c = 1.3 - 0.4j
    rep = check_area_limit_identity(Polynomial((c,)), MeanParams(2, 0), SPEC)
    assert rep.lhs == pytest.approx(4 * math.pi * abs(c) ** 2, rel=1e-6)
    # rhs carries the O(h^2) remainder of the fitted-order extrapolation
    assert rep.rhs == pytest.approx(4 * math.pi * abs(c) ** 2, rel=1e-4)


def test_area_limit_refuses_non_member():
    with pytest.raises(MembershipRequiredError):
        check_area_limit_identity(Binomial(2.0), MeanParams(1, 0), SPEC)


def test_one_membership_error_class_for_all_checks():
    assert identities.MembershipRequiredError is asymptotics.MembershipRequiredError


def test_area_limit_weighted_polynomial():
    rep = check_area_limit_identity(
        Polynomial((0, 1, 0, 0.5)), MeanParams(2, 0.5), SPEC
    )
    assert rep.abs_residual <= max(rep.budget, 1e-7 * max(1, abs(rep.lhs)))
    assert rep.passed


# ------------------------------------------------------- residual convergence

@pytest.mark.parametrize("check", [check_growth_identity, check_weighted_area_identity])
def test_pole_just_outside_rim_converges(check):
    # 1/(z - 1.001) at r = 0.999: the rim is graded toward the pole's gap
    f = parse_function("rat:1|-1.001,1")
    report = check(f, MeanParams(2.0, 0.0), 0.999, SPEC)
    assert report.converged and report.passed
    assert report.abs_residual <= 1e-10 * abs(report.rhs)


def test_residual_shrinks_with_tolerance():
    f, params, r = Binomial(0.9), MeanParams(2, 0.5), 0.9
    loose = check_log_r_identity(f, params, r, QuadratureSpec(rel_tol=1e-3))
    tight = check_log_r_identity(f, params, r, QuadratureSpec(rel_tol=1e-4))
    assert tight.abs_residual <= max(loose.abs_residual / 4, 5e-12)


# ------------------------------------------------- rotation/scale invariance

def test_reports_invariant_under_rotation():
    f = Polynomial((1, 0.5, 0.25j))
    rotated = ScaledRotation(f, 1.0, 2.1)
    params = MeanParams(1.5, 1.0)
    for check in (check_growth_identity, check_log_r_identity):
        a = check(f, params, 0.7, SPEC)
        b = check(rotated, params, 0.7, SPEC)
        assert a.passed == b.passed
        assert b.lhs == pytest.approx(a.lhs, rel=1e-9, abs=1e-11)


# -------------------------------------------------------------- ring limits

def test_ring_limit_origin_value():
    rep = ring_limit_probe(
        Polynomial((1, 1)), MeanParams(2, 0), 0.0, kernel_log_r_over_abs(0.9), 0.9, SPEC
    )
    assert rep.target == pytest.approx(TWO_PI)
    assert rep.residuals[-1] <= 1e-5
    assert rep.consistent


def test_ring_limit_double_zero_slope():
    rep = ring_limit_probe(
        Polynomial((0.16, -0.8, 1)),
        MeanParams(2, 0),
        0.4,
        kernel_log_r_over_abs(0.9),
        0.9,
        SPEC,
        tuple(2.0**-j for j in range(4, 13)),
    )
    assert rep.target == 0.0
    assert rep.slope >= 2.8
    assert rep.consistent


def test_ring_limit_origin_zero_small_p():
    rep = ring_limit_probe(
        monomial(2), MeanParams(0.5, 0), 0.0, kernel_log_r_over_abs(0.9), 0.9, SPEC
    )
    assert rep.target == 0.0
    assert rep.values[-1] < 0.01
    assert rep.consistent


def test_ring_limit_smooth_kernel_origin_target_is_zero():
    # 1 - |z|^2 carries no point mass at the origin: the ring values fall to 0
    rep = ring_limit_probe(
        Polynomial((1, 1)),
        MeanParams(2, 0),
        0.0,
        KERNEL_ONE_MINUS_ABS_SQ,
        0.75,
        SPEC,
        tuple(2.0**-j for j in range(4, 9)),
    )
    assert rep.target == 0.0
    assert rep.residuals == rep.values
    assert rep.slope == pytest.approx(2.0, abs=0.05)
    assert rep.consistent


def test_ring_limit_exact_values_are_consistent():
    # a constant at q = 0: every ring value equals 2 pi |c|^p, residuals all 0
    c = 0.4992 - 0.5448j
    rep = ring_limit_probe(
        Polynomial((c,)),
        MeanParams(0.5, 0),
        0.0,
        kernel_log_r_over_abs(0.75),
        0.75,
        SPEC,
        tuple(2.0**-j for j in range(4, 13)),
    )
    assert rep.target == pytest.approx(TWO_PI * abs(c) ** 0.5)
    assert max(rep.residuals) <= SPEC.rel_tol * rep.target
    assert rep.consistent


def test_ring_limit_rejects_non_zero_centre():
    with pytest.raises(ValueError):
        ring_limit_probe(
            Polynomial((1, 1)), MeanParams(2, 0), 0.3, KERNEL_ONE_MINUS_ABS_SQ, 0.9, SPEC
        )


# ------------------------------------------------------------------ plumbing

def test_usable_radius_perturbs():
    f = Polynomial((-0.5, 1))
    r = usable_radius(f, 0.5)
    assert r >= 0.5 + 1e-6 - 1e-12


def test_run_identity_check_dispatch():
    rep = run_identity_check("growth", monomial(1), MeanParams(2, 0), 0.5, SPEC)
    assert rep.identity == "growth"
    with pytest.raises(ValueError):
        run_identity_check("nope", monomial(1), MeanParams(2, 0), 0.5, SPEC)
