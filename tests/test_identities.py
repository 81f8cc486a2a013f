import dataclasses
import math

import pytest

from hardylab import asymptotics, identities, quadrature
from hardylab.fields import MeanParams
from hardylab.functions import Binomial, BlaschkeProduct, Polynomial, ScaledRotation
from hardylab.parsing import parse_function
from hardylab.report import SuiteReport, body_lines
from hardylab.quadrature import (
    KERNEL_ONE_MINUS_ABS_SQ,
    IntegralResult,
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
    evaluate_radius,
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


@pytest.mark.parametrize(
    "f, radii",
    [
        (monomial(1), (0.9, 0.8, 0.7, 0.6)),
        (monomial(1), (0.5, 0.75, 0.75, 0.875)),
        (monomial(1), (0.5, 0.75, 1.0)),
        # usable_radius moves 0.5 off the zero to 0.500001, past 0.5000005
        (BlaschkeProduct((0.5,)), (0.5, 0.5000005, 0.75)),
    ],
)
def test_area_limit_rejects_radii_that_do_not_increase(f, radii):
    # the annuli between consecutive radii must tile the disk
    with pytest.raises(ValueError, match="radii"):
        check_area_limit_identity(f, MeanParams(2, 0), SPEC, radii)


def test_area_limit_integrates_each_annulus_once(monkeypatch):
    # the golden blaschke:0.5 entry; meshing the whole disk again at every
    # radius of its schedule takes 16,312,320 G points.  Its disk pieces
    # evaluate G and W together, so the points are counted there.
    points = 0
    gw_values = quadrature.gw_values

    def counted(f, params, z):
        nonlocal points
        points += z.size
        return gw_values(f, params, z)

    monkeypatch.setattr(quadrature, "gw_values", counted)
    rep = check_area_limit_identity(BlaschkeProduct((0.5,)), MeanParams(1.5, 0), SPEC)
    assert rep.passed and rep.converged
    assert 0 < points < 5_000_000


def test_area_limit_raises_a_circle_failure_where_the_loop_meets_it(monkeypatch):
    # the circle means of the schedule are one batch; a non-finite node on
    # the third circle still raises after one disk call over the first two
    # radii's pieces
    w_values, disks = quadrature.w_values, identities.disk_integrals
    radii, pieces = (0.5, 0.75, 0.875, 0.9375), []

    def broken(f, params, z):
        vals = w_values(f, params, z)
        vals[abs(abs(z) - 0.875) < 1e-12] = math.nan
        return vals

    monkeypatch.setattr(quadrature, "w_values", broken)
    monkeypatch.setattr(
        identities, "disk_integrals", lambda *a, **k: pieces.append(a[2]) or disks(*a, **k)
    )
    with pytest.raises(quadrature.QuadratureError, match="non-finite"):
        check_area_limit_identity(Polynomial((1, 1)), MeanParams(2, 0), SPEC, radii)
    assert pieces == [[0.5, 0.75]]


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
    assert rep.passed


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
    assert rep.passed


def test_ring_limit_origin_zero_small_p():
    rep = ring_limit_probe(
        monomial(2), MeanParams(0.5, 0), 0.0, kernel_log_r_over_abs(0.9), 0.9, SPEC
    )
    assert rep.target == 0.0
    assert rep.values[-1] < 0.01
    assert rep.passed


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
    assert rep.passed


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
    assert rep.passed


def test_ring_limit_rejects_non_zero_centre():
    with pytest.raises(ValueError):
        ring_limit_probe(
            Polynomial((1, 1)), MeanParams(2, 0), 0.3, KERNEL_ONE_MINUS_ABS_SQ, 0.9, SPEC
        )


def test_ring_limit_rejects_an_empty_eps_schedule(monkeypatch):
    batches, ring_integrals = [], identities.ring_integrals
    monkeypatch.setattr(
        identities, "ring_integrals", lambda *a: batches.append(a[3]) or ring_integrals(*a)
    )
    with pytest.raises(ValueError, match="at least one eps"):
        ring_limit_probe(
            Polynomial((1, 1)), MeanParams(2, 0), 0.0, kernel_log_r_over_abs(0.9), 0.9, SPEC, ()
        )
    assert not batches


# ------------------------------------------------------------------ plumbing

def test_usable_radius_perturbs():
    f = Polynomial((-0.5, 1))
    r = usable_radius(f, 0.5, 2.0)
    assert r >= 0.5 + 1e-6 - 1e-12


def test_run_identity_check_dispatch():
    rep = run_identity_check("growth", monomial(1), MeanParams(2, 0), 0.5, SPEC)
    assert rep.tag == "growth"
    with pytest.raises(ValueError):
        run_identity_check("nope", monomial(1), MeanParams(2, 0), 0.5, SPEC)


# ------------------------------------------------------------ shared bundle

FINITE_TAGS = ("growth", "log-r", "log-unit", "weighted-area", "hardy-stein")


def test_finite_checks_share_one_radius_bundle():
    f, params, r = BlaschkeProduct((0.5,)), MeanParams(1.5, 0.0), 0.9

    def body(rep):
        return body_lines(SuiteReport(timestamp="", config={}, entries=[rep]))

    evaluate_radius.cache_clear()
    together = [run_identity_check(tag, f, params, r, SPEC) for tag in FINITE_TAGS]
    info = evaluate_radius.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    for tag, rep in zip(FINITE_TAGS, together):
        evaluate_radius.cache_clear()
        alone = run_identity_check(tag, f, params, r, SPEC)
        assert body(alone) == body(rep), tag


def test_each_disk_mesh_serves_every_integral_at_its_radius(monkeypatch):
    # the five finite-r checks at one point build one mesh, with G under the
    # four kernels and W; area-limit builds one mesh per piece of the disk,
    # all pieces in one call
    meshes = []
    disk_integrals = identities.disk_integrals

    def spy(f, params, radii, g_kernels, w_weights, *args):
        meshes.append((len(radii), [("G", k.name) for k in g_kernels]
                       + [("W", k.name) for k in w_weights]))
        return disk_integrals(f, params, radii, g_kernels, w_weights, *args)

    # identities imports disk_integrals, so its name there is the one it calls
    monkeypatch.setattr(identities, "disk_integrals", spy)
    f, params = BlaschkeProduct((0.5,)), MeanParams(1.5, 0.0)
    evaluate_radius.cache_clear()
    for tag in FINITE_TAGS:
        run_identity_check(tag, f, params, 0.9, SPEC)
    assert meshes == [(1, [("G", "one"), ("G", "log-r"), ("G", "log-unit"),
                           ("G", "one-minus-abs-sq"), ("W", "one")])]
    meshes.clear()
    check_area_limit_identity(f, params, SPEC)
    assert meshes == [(10, [("G", "one-minus-abs-sq"), ("W", "one")])]


def test_a_finite_check_makes_one_circle_batch(monkeypatch):
    # the bundle's mean and derivative are the two rows of one circle
    circles = []
    cells_theta = quadrature._cells_theta

    def spy(integrand, s_nodes, weights, *args):
        if s_nodes.shape[1] == 1:  # one radial node per cell: a circle batch
            circles.append(weights.shape[:2])
        return cells_theta(integrand, s_nodes, weights, *args)

    monkeypatch.setattr(quadrature, "_cells_theta", spy)
    evaluate_radius.cache_clear()
    rep = check_growth_identity(BlaschkeProduct((0.5,)), MeanParams(1.5, 0.5), 0.9, SPEC)
    evaluate_radius.cache_clear()
    assert rep.passed
    assert circles == [(1, 2)]


# the bundle integrals each finite-r row reads
ROW_READS = {
    "growth": {"deriv", "g_one"},
    "log-r": {"mean", "g_log_r"},
    "log-unit": {"mean", "deriv", "g_log_unit"},
    "weighted-area": {"mean", "deriv", "g_one_minus_abs_sq", "w_one"},
    "hardy-stein": {"mean", "g_log_r"},
}


@pytest.mark.parametrize("tag", FINITE_TAGS)
def test_each_row_reads_its_integrals_and_budgets_their_errors(tag, monkeypatch):
    f, params, r = BlaschkeProduct((0.5,)), MeanParams(2.0, 0.0), 0.8
    evaluate_radius.cache_clear()
    real = evaluate_radius(f, params, r, SPEC)
    evaluate_radius.cache_clear()
    names = [field.name for field in dataclasses.fields(real)
             if isinstance(getattr(real, field.name), IntegralResult)]
    assert len(names) == 7

    def run(**changes):
        bundle = dataclasses.replace(real, **{
            name: dataclasses.replace(getattr(real, name), **change)
            for name, change in changes.items()
        })
        monkeypatch.setattr(identities, "evaluate_radius", lambda *args: bundle)
        return run_identity_check(tag, f, params, r, SPEC)

    base = run()
    assert base.converged and base.passed
    for name in names:
        read = name in ROW_READS[tag]
        # an unconverged integral fails the record exactly when the row reads it
        rep = run(**{name: {"converged": False}})
        assert (rep.converged, rep.passed) == (not read, not read), name
        # an error of 1 on this integral alone is budgeted at |d(lhs - rhs)/d value|;
        # lhs - rhs is linear in the value, so a unit step gives the derivative
        value = getattr(real, name).value
        step = run(**{name: {"value": value + 1.0}})
        slope = (step.lhs - step.rhs) - (base.lhs - base.rhs)
        assert (slope != 0.0) == read, name
        errors = {other: {"error_estimate": float(other == name)} for other in names}
        assert run(**errors).budget == pytest.approx(abs(slope), rel=1e-12, abs=0.0), name
