import pytest

from hardylab import quadrature
from hardylab.asymptotics import (
    DEFAULT_GEOMETRIC_GRID,
    DEFAULT_MONOTONICITY_GRID,
    DEFAULT_SCAN_SCHEDULE,
    MembershipRequiredError,
    VERDICT_CONSISTENT,
    logconvexity_check,
    membership_scan,
    monotonicity_check,
    rate_probe,
)
from hardylab.fields import MeanParams, w_values
from hardylab.functions import Binomial, BlaschkeProduct, Polynomial
from hardylab.quadrature import QuadratureSpec

from test_quadrature import wiggle_on_circle

SPEC = QuadratureSpec()


def monomial(n):
    return Polynomial((0,) * n + (1,))


# --------------------------------------------------------------- rate probe

def test_rate_probe_monomial_unweighted():
    res = rate_probe(monomial(2), MeanParams(2, 0), SPEC)
    assert res.verdict == VERDICT_CONSISTENT
    assert abs(res.beta) <= 0.05
    # products halve along the tail and the last is far below the first
    mags = [abs(x) for x in res.products]
    assert mags[-1] < 0.25 * mags[0]
    closed = [(1 - r) * 4 * r**3 for r in res.radii]
    for got, want in zip(res.products, closed):
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_rate_probe_monomial_weighted(q):
    res = rate_probe(monomial(1), MeanParams(2, q), SPEC)
    assert res.verdict == VERDICT_CONSISTENT
    # closed form: D ~ -2 q 2^{q-1} (1-r)^{q-1}, so the fitted exponent is 1 - q
    assert res.beta == pytest.approx(1 - q, abs=0.08)


def test_rate_probe_refuses_non_member():
    with pytest.raises(MembershipRequiredError):
        rate_probe(Binomial(1.75), MeanParams(2, 1), SPEC)  # alpha p = 3.5 > q+1


def test_rate_probe_refuses_unknown_edge():
    with pytest.raises(MembershipRequiredError):
        rate_probe(Binomial(1.0), MeanParams(1, 0), SPEC)


def test_rate_probe_binomial_member():
    res = rate_probe(Binomial(0.9), MeanParams(2, 1), SPEC)
    assert res.verdict == VERDICT_CONSISTENT
    mags = [abs(x) for x in res.products]
    assert all(b < a for a, b in zip(mags[-4:], mags[-3:]))
    assert res.beta + 2 * res.beta_stderr < 1.0


def test_rate_probe_constant_degenerate():
    res = rate_probe(Polynomial((2.0,)), MeanParams(2, 0), SPEC)
    assert res.verdict == VERDICT_CONSISTENT
    assert all(x == 0 for x in res.d_values)


def test_rate_probe_radii_increase():
    res = rate_probe(monomial(1), MeanParams(1, 0), SPEC)
    assert all(b > a for a, b in zip(res.radii, res.radii[1:]))


# ------------------------------------------------------------- monotonicity

def test_monotonicity_monomial():
    res = monotonicity_check(monomial(3), 1.0, SPEC)
    assert res.passed
    assert res.max_violation == 0.0


def test_monotonicity_blaschke():
    res = monotonicity_check(BlaschkeProduct((0.3,)), 2.0, SPEC)
    assert res.passed


def test_monotonicity_constant_flat():
    res = monotonicity_check(Polynomial((1.5,)), 2.0, SPEC)
    assert res.passed
    assert all(v == pytest.approx(1.5, rel=1e-13) for v in res.values)


def test_monotonicity_needs_enough_radii():
    with pytest.raises(ValueError):
        monotonicity_check(monomial(1), 2.0, SPEC, radii=(0.1, 0.5, 0.9))


def test_monotonicity_fails_on_an_unconverged_mean(monkeypatch):
    grid = DEFAULT_MONOTONICITY_GRID
    monkeypatch.setattr(quadrature, "w_values", wiggle_on_circle(w_values, grid[10]))
    res = monotonicity_check(monomial(3), 1.0, SPEC)
    assert not res.passed
    assert res.radii == grid[:10] and len(res.values) == 10


# ------------------------------------------------------------ log-convexity

def test_logconvexity_monomial_affine():
    res = logconvexity_check(monomial(2), 2.0, SPEC)
    assert res.passed
    assert abs(res.min_second_difference) <= 1e-12


def test_logconvexity_one_plus_z():
    res = logconvexity_check(Polynomial((1, 1)), 2.0, SPEC)
    assert res.passed
    assert res.min_second_difference >= -1e-10


def test_logconvexity_blaschke_small_p():
    res = logconvexity_check(BlaschkeProduct((0.5,)), 0.7, SPEC)
    assert res.passed


def test_logconvexity_fails_on_an_unconverged_mean(monkeypatch):
    # at grid[12] the mean (about 0.15) is far above the absolute tolerance,
    # which a wiggle on a small mean meets once its 1/n error is small enough
    grid = DEFAULT_GEOMETRIC_GRID
    monkeypatch.setattr(quadrature, "w_values", wiggle_on_circle(w_values, grid[12]))
    res = logconvexity_check(monomial(2), 2.0, SPEC)
    assert not res.passed
    assert res.radii == grid[:12] and len(res.values) == 12


# ----------------------------------------------------------- membership scan

def test_scan_monomial_bounded():
    res = membership_scan(monomial(3), MeanParams(2, 0), SPEC)
    assert res.classification == "bounded"
    assert res.sup_estimate == pytest.approx(1.0, abs=5e-3)


def test_scan_is_inconclusive_on_an_unconverged_mean(monkeypatch):
    schedule = DEFAULT_SCAN_SCHEDULE
    monkeypatch.setattr(quadrature, "w_values", wiggle_on_circle(w_values, schedule[8]))
    res = membership_scan(monomial(3), MeanParams(2, 0), SPEC)
    assert res.classification == "inconclusive"
    assert res.radii == schedule[:8] and len(res.values) == 8


def no_field_calls(monkeypatch):
    """Make every field the quadrature layer holds fail the test when called."""
    def no_field(*args):
        raise AssertionError("a field was evaluated")

    for name in ("w_values", "radial_deriv_w_values", "wd_values", "grad_w_values",
                 "g_values", "gw_values"):
        monkeypatch.setattr(quadrature, name, no_field)


@pytest.mark.parametrize("radii", [(0.5,), ()])
def test_scan_needs_two_radii(monkeypatch, radii):
    # rejected before any integral: a field call would fail the test first
    no_field_calls(monkeypatch)
    with pytest.raises(ValueError, match="at least two radii"):
        membership_scan(monomial(1), MeanParams(2, 0), SPEC, radii)


ONE_Z = Polynomial((0, 1))
BAD_SCHEDULES = {
    "rate": (lambda radii: rate_probe(ONE_Z, MeanParams(2, 0), SPEC, radii),
             (0.9, 0.8, 0.7, 0.6, 0.5)),
    "rate-repeat": (lambda radii: rate_probe(ONE_Z, MeanParams(2, 0), SPEC, radii),
                    (0.5, 0.6, 0.6, 0.7)),
    "rate-empty": (lambda radii: rate_probe(ONE_Z, MeanParams(2, 0), SPEC, radii), ()),
    "monotonicity": (lambda radii: monotonicity_check(ONE_Z, 2.0, SPEC, radii),
                     DEFAULT_MONOTONICITY_GRID[::-1]),
    "logconvexity": (lambda radii: logconvexity_check(ONE_Z, 2.0, SPEC, radii),
                     DEFAULT_GEOMETRIC_GRID[::-1]),
    "logconvexity-one": (lambda radii: logconvexity_check(ONE_Z, 2.0, SPEC, radii), (0.5,)),
    "logconvexity-two": (lambda radii: logconvexity_check(ONE_Z, 2.0, SPEC, radii), (0.5, 0.7)),
    "scan": (lambda radii: membership_scan(ONE_Z, MeanParams(2, 0), SPEC, radii), (0.9, 0.5)),
}


@pytest.mark.parametrize("case", BAD_SCHEDULES)
def test_schedule_checks_reject_bad_schedules_before_any_integral(case, monkeypatch):
    # a schedule that does not strictly increase, an empty rate schedule, or
    # log-convexity on fewer than 3 radii, is a ValueError before any field
    # is evaluated
    check, radii = BAD_SCHEDULES[case]
    no_field_calls(monkeypatch)
    with pytest.raises(ValueError, match="strictly increasing"):
        check(radii)


def test_scan_binomial_diverging():
    res = membership_scan(Binomial(2.0), MeanParams(1, 0), SPEC)
    assert res.classification == "diverging"


def test_scan_binomial_weighted_bounded():
    res = membership_scan(Binomial(0.9), MeanParams(2, 1), SPEC)
    assert res.classification == "bounded"


def test_scan_agrees_with_hint_when_classified():
    # an inconclusive scan never disagrees; a classified one must match
    from hardylab.functions import MembershipHint, membership_hint

    cases = [
        (monomial(2), MeanParams(2, 0)),
        (Binomial(2.0), MeanParams(1, 0)),
        (Binomial(0.9), MeanParams(2, 1)),
        (Binomial(0.5), MeanParams(1.5, 0)),  # member with (1-r)^{1/4} tail: may stay open
    ]
    for f, params in cases:
        hint = membership_hint(f, params.p, params.q)
        scan = membership_scan(f, params, SPEC).classification
        if scan == "inconclusive":
            continue
        expected = "bounded" if hint == MembershipHint.MEMBER else "diverging"
        assert scan == expected
