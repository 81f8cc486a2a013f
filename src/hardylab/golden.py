"""The curated golden suite: every checker over a fixed family list.

Families: monomials z^n over a full (p, q) matrix, constants, 1 + z, a
seeded degree-5 polynomial, a Blaschke factor at 0.5 (run at p = 1.5 so the
kp < 2 singular grading is exercised), and the binomial family at
alpha = 0.5 and 0.9.  The entries run in a fixed order; two runs produce
byte-identical report bodies.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Any, Callable

import numpy as np

from .asymptotics import (
    logconvexity_check,
    membership_scan,
    monotonicity_check,
    rate_probe,
)
from .fields import MeanParams
from .functions import Binomial, BlaschkeProduct, Polynomial
from .identities import (
    check_area_limit_identity,
    check_growth_identity,
    check_hardy_stein,
    check_log_r_identity,
    check_log_unit_identity,
    check_weighted_area_identity,
    ring_limit_probe,
)
from .quadrature import (
    KERNEL_ONE_MINUS_ABS_SQ,
    QuadratureSpec,
    kernel_log_r_over_abs,
)
from .report import SuiteReport

GOLDEN_PS = (0.5, 1.0, 2.0, 3.0)
GOLDEN_QS = (0.0, 0.5, 1.0, 2.0)
GOLDEN_NS = (1, 2, 3)


def monomial(n: int) -> Polynomial:
    return Polynomial((0,) * n + (1,))


def seeded_poly5(seed: int = 20240601) -> Polynomial:
    """Degree-5 polynomial with reproducible pseudo-random coefficients."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=6) + 1j * rng.uniform(-1.0, 1.0, size=6)
    coeffs[5] += 2.0  # keep the leading coefficient away from zero
    return Polynomial(tuple(complex(c) for c in coeffs))


GOLDEN_CONSTANT = Polynomial((1.3 - 0.4j,))
GOLDEN_ONE_PLUS_Z = Polynomial((1, 1))
GOLDEN_BLASCHKE = BlaschkeProduct((0.5,))
GOLDEN_BINOM_05 = Binomial(0.5)
GOLDEN_BINOM_09 = Binomial(0.9)


def golden_entries(spec: QuadratureSpec) -> list[Callable[[], Any]]:
    thunks: list[Callable[[], Any]] = []

    def add(fn, *args, **kwargs):
        thunks.append(lambda fn=fn, args=args, kwargs=kwargs: fn(*args, **kwargs))

    finite_checks = (
        check_growth_identity,
        check_log_r_identity,
        check_log_unit_identity,
        check_weighted_area_identity,
    )

    # monomials over the full (p, q) matrix
    for n in GOLDEN_NS:
        f = monomial(n)
        for p in GOLDEN_PS:
            for q in GOLDEN_QS:
                params = MeanParams(p, q)
                for check in finite_checks:
                    add(check, f, params, 0.8, spec)
            add(check_hardy_stein, f, p, 0.8, spec)

    # the other families at hand-picked exponents
    finite_cases = [
        (GOLDEN_CONSTANT, MeanParams(2.0, 1.0), 0.7),
        (GOLDEN_CONSTANT, MeanParams(1.5, 0.5), 0.7),
        (GOLDEN_ONE_PLUS_Z, MeanParams(2.0, 1.0), 0.7),
        (GOLDEN_ONE_PLUS_Z, MeanParams(2.0, 0.0), 0.9),
        (seeded_poly5(), MeanParams(2.0, 0.0), 0.8),
        (seeded_poly5(), MeanParams(2.0, 1.0), 0.8),
        (GOLDEN_BLASCHKE, MeanParams(2.0, 0.0), 0.8),
        (GOLDEN_BLASCHKE, MeanParams(1.5, 0.0), 0.9),
        (GOLDEN_BINOM_05, MeanParams(1.5, 0.0), 0.7),
        (GOLDEN_BINOM_09, MeanParams(2.0, 1.0), 0.9),
    ]
    for f, params, r in finite_cases:
        for check in finite_checks:
            add(check, f, params, r, spec)
    for f, p, r in [
        (GOLDEN_CONSTANT, 2.0, 0.7),
        (GOLDEN_ONE_PLUS_Z, 2.0, 0.9),
        (seeded_poly5(), 2.0, 0.8),
        (GOLDEN_BLASCHKE, 1.5, 0.9),
        (GOLDEN_BINOM_05, 1.5, 0.7),
    ]:
        add(check_hardy_stein, f, p, r, spec)

    # r -> 1 limit form
    for n in GOLDEN_NS:
        for p in GOLDEN_PS:
            add(check_area_limit_identity, monomial(n), MeanParams(p, 0.0), spec)
    add(check_area_limit_identity, GOLDEN_CONSTANT, MeanParams(2.0, 0.5), spec)
    add(check_area_limit_identity, GOLDEN_BLASCHKE, MeanParams(1.5, 0.0), spec)
    add(check_area_limit_identity, GOLDEN_BINOM_09, MeanParams(2.0, 1.0), spec)

    # ring-limit probes
    add(
        ring_limit_probe,
        GOLDEN_ONE_PLUS_Z,
        MeanParams(2.0, 0.0),
        0.0,
        kernel_log_r_over_abs(0.9),
        0.9,
        spec,
    )
    add(
        ring_limit_probe,
        Polynomial((0.16, -0.8, 1)),  # (z - 0.4)^2
        MeanParams(2.0, 0.0),
        0.4,
        kernel_log_r_over_abs(0.9),
        0.9,
        spec,
        tuple(2.0**-j for j in range(4, 13)),
    )
    add(
        ring_limit_probe,
        monomial(2),
        MeanParams(0.5, 0.0),
        0.0,
        kernel_log_r_over_abs(0.9),
        0.9,
        spec,
    )
    add(
        ring_limit_probe,
        GOLDEN_BLASCHKE,
        MeanParams(2.0, 0.0),
        0.5,
        KERNEL_ONE_MINUS_ABS_SQ,
        0.9,
        spec,
        tuple(2.0**-j for j in range(4, 13)),
    )

    # rate probes (criterion set: monomials over the matrix, binomial member)
    for n in GOLDEN_NS:
        for p in GOLDEN_PS:
            for q in GOLDEN_QS:
                add(rate_probe, monomial(n), MeanParams(p, q), spec)
    add(rate_probe, GOLDEN_BINOM_09, MeanParams(2.0, 1.0), spec)
    add(rate_probe, GOLDEN_ONE_PLUS_Z, MeanParams(2.0, 1.0), spec)
    add(rate_probe, GOLDEN_CONSTANT, MeanParams(2.0, 0.0), spec)

    # classical sanity at q = 0
    for n in GOLDEN_NS:
        for p in GOLDEN_PS:
            add(monotonicity_check, monomial(n), p, spec)
            add(logconvexity_check, monomial(n), p, spec)
    for f, p in [
        (GOLDEN_CONSTANT, 2.0),
        (GOLDEN_ONE_PLUS_Z, 2.0),
        (seeded_poly5(), 2.0),
        (GOLDEN_BLASCHKE, 2.0),
        (GOLDEN_BLASCHKE, 0.7),
        (GOLDEN_BINOM_05, 1.5),
    ]:
        add(monotonicity_check, f, p, spec)
        add(logconvexity_check, f, p, spec)

    # membership scans (informational)
    add(membership_scan, monomial(3), MeanParams(2.0, 0.0), spec)
    add(membership_scan, Binomial(2.0), MeanParams(1.0, 0.0), spec)
    add(membership_scan, GOLDEN_BINOM_09, MeanParams(2.0, 1.0), spec)
    add(membership_scan, GOLDEN_BINOM_05, MeanParams(1.5, 0.0), spec)
    return thunks


def golden_suite(spec: QuadratureSpec | None = None) -> SuiteReport:
    """Run every golden check, one after another in entry order."""
    spec = spec or QuadratureSpec()
    return SuiteReport(
        timestamp=datetime.now(timezone.utc).isoformat(),
        config={"suite": "golden", "rel_tol": spec.rel_tol},
        entries=[thunk() for thunk in golden_entries(spec)],
    )
