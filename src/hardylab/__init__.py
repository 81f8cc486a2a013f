"""Numerical laboratory for weighted circle means of analytic functions on the unit disk."""

__version__ = "0.1.0"

from .fields import MeanParams
from .functions import (
    AnalyticFunction,
    Binomial,
    BlaschkeProduct,
    MembershipHint,
    Polynomial,
    Rational,
    ScaledRotation,
    Zero,
    deriv_at,
    eval_at,
    membership_hint,
    zeros_in_disk,
)
from .quadrature import (
    KERNEL_LOG_ONE_OVER_ABS,
    KERNEL_ONE,
    KERNEL_ONE_MINUS_ABS_SQ,
    IntegralResult,
    QuadratureSpec,
    circle_mean,
    circle_mean_deriv,
    disk_integral_G,
    disk_integral_W,
    kernel_log_r_over_abs,
    ring_integral,
)
from .identities import (
    IdentityReport,
    check_area_limit_identity,
    check_growth_identity,
    check_hardy_stein,
    check_log_r_identity,
    check_log_unit_identity,
    check_weighted_area_identity,
    ring_limit_probe,
)
from .asymptotics import (
    RateProbeResult,
    logconvexity_check,
    membership_scan,
    monotonicity_check,
    rate_probe,
)
from .parsing import parse_function, render_function
