"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and runtime budgets are asserted, not just reported.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from hardylab.asymptotics import (
    VERDICT_CONSISTENT,
    logconvexity_check,
    monotonicity_check,
    rate_probe,
)
from hardylab.fields import MeanParams, g_values, grad_w_values, w_values
from hardylab.functions import nearest_zero, Polynomial
from hardylab.golden import (
    GOLDEN_BINOM_05,
    GOLDEN_BINOM_09,
    GOLDEN_BLASCHKE,
    GOLDEN_CONSTANT,
    GOLDEN_NS,
    GOLDEN_ONE_PLUS_Z,
    GOLDEN_PS,
    GOLDEN_QS,
    golden_suite,
    monomial,
    seeded_poly5,
)
from hardylab.identities import (
    check_area_limit_identity,
    check_growth_identity,
    check_hardy_stein,
    evaluate_radius,
    ring_limit_probe,
)
from hardylab.quadrature import (
    KERNEL_ONE,
    KERNEL_ONE_MINUS_ABS_SQ,
    QuadratureSpec,
    disk_integral_G,
    disk_integral_W,
    kernel_log_r_over_abs,
)
from hardylab.report import body_lines
from test_quadrature import disk_level

SPEC = QuadratureSpec()
TWO_PI = 2 * math.pi


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_monomial_growth_identity():
    with criterion(1, "monomial growth identity (z^2, p=2, q=0, r=0.8)"):
        t0 = time.monotonic()
        rep = check_growth_identity(monomial(2), MeanParams(2, 0), 0.8, SPEC)
        elapsed = time.monotonic() - t0
        closed = TWO_PI * 2 * 2 * 0.8**4  # 2 pi p n r^{np}
        assert rep.lhs == pytest.approx(closed, rel=1e-9)
        assert rep.rhs == pytest.approx(closed, rel=1e-9)
        assert rep.rel_residual <= 1e-8
        assert elapsed <= 1.0


def test_criterion_2_constant_weighted_identity():
    with criterion(2, "constant-function weighted growth identity"):
        t0 = time.monotonic()
        c = GOLDEN_CONSTANT.coeffs[0]
        for q in (0.5, 1.0, 2.0):
            for r in (0.3, 0.7):
                rep = check_growth_identity(GOLDEN_CONSTANT, MeanParams(2, q), r, SPEC)
                closed = -4 * math.pi * q * r**2 * (1 - r * r) ** (q - 1) * abs(c) ** 2
                assert rep.lhs == pytest.approx(closed, rel=1e-8)
                assert rep.rhs == pytest.approx(closed, rel=1e-8)
        assert time.monotonic() - t0 <= 1.0


def test_criterion_3_finite_r_hardy_stein():
    with criterion(3, "finite-radius Hardy-Stein for monomials"):
        t0 = time.monotonic()
        for n in GOLDEN_NS:
            for p in GOLDEN_PS:
                for r in (0.5, 0.9):
                    # independent oracle for int_0^r log(r/s) s^{np-1} ds: after
                    # u = s^{np} the integrand is log(r^{np}/u)/np^2, integrated
                    # by the midpoint rule; must equal r^{np}/(np)^2
                    np_ = n * p
                    big_r = r**np_
                    u = (np.arange(400000) + 0.5) * (big_r / 400000)
                    brute = float(np.sum(np.log(big_r / u))) * (big_r / 400000) / np_**2
                    closed = big_r / np_**2
                    assert brute == pytest.approx(closed, rel=2e-5)
                    rep = check_hardy_stein(monomial(n), p, r, SPEC)
                    # rhs oracle: |f(0)|^p + (p^2/2pi)*(2 pi n^2 * closed) = r^{np}
                    assert rep.lhs == pytest.approx(p * p * n * n * closed, rel=1e-7)
                    assert rep.rel_residual <= 1e-7
        assert time.monotonic() - t0 <= 5.0


def test_criterion_4_area_limit_is_four_pi():
    with criterion(4, "r->1 area identity extrapolates to 4*pi for monomials"):
        t0 = time.monotonic()
        for n in GOLDEN_NS:
            for p in GOLDEN_PS:
                rep = check_area_limit_identity(monomial(n), MeanParams(p, 0.0), SPEC)
                assert rep.lhs == pytest.approx(4 * math.pi, rel=1e-4)
                assert rep.rhs == pytest.approx(4 * math.pi, rel=1e-4)
                assert rep.passed
        assert time.monotonic() - t0 <= 30.0


def test_criterion_5_ring_limits():
    with criterion(5, "ring-integral limits (2*pi at origin, decay at zeros)"):
        t0 = time.monotonic()
        kernel = kernel_log_r_over_abs(0.9)
        rep = ring_limit_probe(
            GOLDEN_ONE_PLUS_Z, MeanParams(2, 0), 0.0, kernel, 0.9, SPEC,
            tuple(2.0**-j for j in range(4, 15)),
        )
        assert rep.target == pytest.approx(TWO_PI)
        assert rep.residuals[-1] <= 1e-5
        rep = ring_limit_probe(
            Polynomial((0.16, -0.8, 1)), MeanParams(2, 0), 0.4, kernel, 0.9, SPEC,
            tuple(2.0**-j for j in range(4, 13)),
        )
        assert rep.target == 0.0
        assert rep.slope >= 2.8
        rep = ring_limit_probe(
            monomial(2), MeanParams(0.5, 0), 0.0, kernel, 0.9, SPEC
        )
        assert rep.target == 0.0  # f(0) = 0 exercises the kp < 2 log-singular case
        assert rep.passed
        assert abs(rep.values[-1]) < abs(rep.values[0])
        assert time.monotonic() - t0 <= 10.0


def test_criterion_6_rate_probe_consistency():
    with criterion(6, "growth-rate probe consistent for every golden member"):
        t0 = time.monotonic()
        cases = [
            (monomial(n), MeanParams(p, q))
            for n in GOLDEN_NS
            for p in GOLDEN_PS
            for q in GOLDEN_QS
        ]
        cases.append((GOLDEN_BINOM_09, MeanParams(2, 1)))
        for f, params in cases:
            res = rate_probe(f, params, SPEC)
            assert res.verdict == VERDICT_CONSISTENT, (res.fn, params.p, params.q)
            mags = [abs(x) for x in res.products]
            if max(mags) > 1e-13:
                tail = mags[-4:]
                assert all(b < a for a, b in zip(tail, tail[1:]))
                start = len(mags) - 1
                while start > 0 and mags[start - 1] > mags[start]:
                    start -= 1
                assert mags[-1] < 0.5 * mags[start]
        assert time.monotonic() - t0 <= 120.0


Q0_GOLDEN = (
    [(monomial(n), p) for n in GOLDEN_NS for p in GOLDEN_PS]
    + [
        (GOLDEN_CONSTANT, 2.0),
        (GOLDEN_ONE_PLUS_Z, 2.0),
        (seeded_poly5(), 2.0),
        (GOLDEN_BLASCHKE, 2.0),
        (GOLDEN_BLASCHKE, 0.7),
        (GOLDEN_BINOM_05, 1.5),
    ]
)


def test_criterion_7_classical_sanity():
    with criterion(7, "monotonicity and log-convexity across the q=0 suite"):
        for f, p in Q0_GOLDEN:
            mono = monotonicity_check(f, p, SPEC)
            assert mono.passed and mono.max_violation <= 1e-8
            convex = logconvexity_check(f, p, SPEC)
            assert convex.passed and convex.min_second_difference >= -1e-8
        for n in GOLDEN_NS:
            for p in GOLDEN_PS:
                convex = logconvexity_check(monomial(n), p, SPEC)
                assert abs(convex.min_second_difference) <= 1e-12


HYGIENE_FUNCTIONS = [
    (monomial(2), MeanParams(2, 1)),
    (monomial(3), MeanParams(1.5, 0.5)),
    (GOLDEN_CONSTANT, MeanParams(2, 1)),
    (GOLDEN_ONE_PLUS_Z, MeanParams(2, 0.5)),
    (seeded_poly5(), MeanParams(2, 1)),
    (GOLDEN_BLASCHKE, MeanParams(2, 0)),
    (GOLDEN_BINOM_05, MeanParams(1.5, 0)),
    (GOLDEN_BINOM_09, MeanParams(2, 1)),
]


def _fd_checks(f, params, rng):
    points = []
    while len(points) < 100:
        z = complex(rng.uniform(-0.75, 0.75), rng.uniform(-0.75, 0.75))
        if abs(z) > 0.78 or nearest_zero(f, z)[0] < 0.05:
            continue
        points.append(z)
    z = np.array(points)
    h = 1e-5
    _, gx, gy = grad_w_values(f, params, z)
    fx = (w_values(f, params, z + h) - w_values(f, params, z - h)) / (2 * h)
    fy = (w_values(f, params, z + 1j * h) - w_values(f, params, z - 1j * h)) / (2 * h)
    scale = np.maximum(1.0, np.maximum(abs(gx), abs(gy)))
    assert (abs(gx - fx) <= 1e-4 * scale).all()
    assert (abs(gy - fy) <= 1e-4 * scale).all()
    h2 = 1e-4
    lap = (
        w_values(f, params, z + h2)
        + w_values(f, params, z - h2)
        + w_values(f, params, z + 1j * h2)
        + w_values(f, params, z - 1j * h2)
        - 4 * w_values(f, params, z)
    ) / (h2 * h2)
    g_val = g_values(f, params, z)
    assert (abs(g_val - lap) <= 1e-4 * np.maximum(1.0, abs(g_val))).all()


def test_criterion_8_numerical_hygiene():
    with criterion(8, "finite-difference, halve-mesh, and determinism hygiene"):
        rng = np.random.default_rng(2024)
        for f, params in HYGIENE_FUNCTIONS:
            _fd_checks(f, params, rng)

        halve_cases = [
            (monomial(2), MeanParams(2, 0), 0.8, KERNEL_ONE),
            (monomial(1), MeanParams(0.5, 0.5), 0.8, kernel_log_r_over_abs(0.8)),
            (GOLDEN_BLASCHKE, MeanParams(1.5, 0), 0.9, kernel_log_r_over_abs(0.9)),
            (GOLDEN_BINOM_09, MeanParams(2, 1), 0.9, KERNEL_ONE_MINUS_ABS_SQ),
            (seeded_poly5(), MeanParams(2, 1), 0.8, KERNEL_ONE),
        ]
        for f, params, r, kernel in halve_cases:
            res = disk_integral_G(f, params, r, kernel, SPEC)
            with disk_level(res.levels + 1):
                finer = disk_integral_G(f, params, r, kernel, SPEC)
            assert res.converged
            assert abs(finer.value - res.value) < max(
                res.error_estimate, 1e-13 * max(1.0, abs(res.value))
            )
        res = disk_integral_W(GOLDEN_BINOM_09, MeanParams(2, 1), 0.9, KERNEL_ONE, SPEC)
        with disk_level(res.levels + 1):
            finer = disk_integral_W(GOLDEN_BINOM_09, MeanParams(2, 1), 0.9, KERNEL_ONE, SPEC)
        assert abs(finer.value - res.value) < max(
            res.error_estimate, 1e-13 * max(1.0, abs(res.value))
        )


def test_criterion_8b_report_determinism():
    with criterion(8, "two golden-suite runs produce byte-identical bodies"):
        # cleared before each run, so the second run rebuilds every mesh
        # instead of reading the first run's integrals from the cache
        evaluate_radius.cache_clear()
        first = golden_suite(SPEC)
        evaluate_radius.cache_clear()
        second = golden_suite(SPEC)
        assert first.overall_pass
        assert body_lines(first) == body_lines(second)
