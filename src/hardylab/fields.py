"""Closed-form pointwise fields derived from W(z) = |f(z)|^p (1-|z|^2)^q.

The quadrature layer integrates four fields: W itself, its gradient, its
radial derivative, and the Laplacian density

    G = (1-|z|^2)^q * p^2 |f|^{p-2} |f'|^2
        - 4 p q (1-|z|^2)^{q-1} |f|^{p-2} Re(z f' conj(f))
        + |f|^p * 4 q ( (q-1) |z|^2 (1-|z|^2)^{q-2} - (1-|z|^2)^{q-1} ).

The first term uses the identity Laplacian(|f|^p) = p^2 |f|^{p-2} |f'|^2 for
analytic f; the cross and weight terms follow from the product rule with
grad(1-|z|^2)^q = -2 q (1-|z|^2)^{q-1} (x, y).

Array entry points (`*_values`) evaluate on numpy arrays of complex points
and are what the quadrature nodes call.  Each makes one pass over f: W uses
`_val`, and the fields that need f' get f and f' together from `_val_dval`.
Near a zero of order k the gradient scales like |z-z0|^{kp-1} and G like
|z-z0|^{kp-2}, so how singular a zero is depends on its order as well as on
p.  Exactly at a zero, the fields that use f' are non-finite for every
p < 2, whatever the order, and finite for p >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import AnalyticFunction


@dataclass(frozen=True)
class MeanParams:
    """Exponent pair (p, q) of the weighted mean."""

    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        if not (0.0 < self.p < math.inf):
            raise ValueError(f"p must satisfy 0 < p < inf, got {self.p}")
        if not (0.0 <= self.q < math.inf):
            raise ValueError(f"q must satisfy 0 <= q < inf, got {self.q}")


def _abs_pow(m: np.ndarray, e: float) -> np.ndarray:
    """m**e for m >= 0 with the conventional limits at m == 0.

    0**e is 0 for e > 0, 1 for e == 0 and +inf for e < 0 (the p > 2
    underflow branch of |f|^{p-2} therefore returns 0 at zeros of f).
    """
    with np.errstate(divide="ignore", over="ignore"):
        return np.power(m, e)


def w_values(f: AnalyticFunction, params: MeanParams, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    m = np.abs(f._val(z))
    w = _abs_pow(m, params.p)
    if params.q != 0.0:
        w = w * (1.0 - np.abs(z) ** 2) ** params.q
    return w


def grad_w_values(
    f: AnalyticFunction, params: MeanParams, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = f._val_dval(z)
    m = np.abs(fv)
    s2 = np.abs(z) ** 2
    rho = 1.0 - s2
    with np.errstate(invalid="ignore", over="ignore"):
        cross = dv * np.conj(fv)
        mp2 = _abs_pow(m, p - 2.0)
        gx = p * mp2 * cross.real
        gy = p * mp2 * (-cross.imag)
        if q != 0.0:
            wq = rho**q
            gx = wq * gx + _abs_pow(m, p) * (-2.0 * q) * rho ** (q - 1.0) * z.real
            gy = wq * gy + _abs_pow(m, p) * (-2.0 * q) * rho ** (q - 1.0) * z.imag
    return gx, gy


def g_values(f: AnalyticFunction, params: MeanParams, z: np.ndarray) -> np.ndarray:
    """Laplacian density of W.  Unbounded entries (exact zeros with small
    exponent) come back as inf/nan; the quadrature layer treats any
    non-finite node as a cell collision and subdivides."""
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = f._val_dval(z)
    m = np.abs(fv)
    s2 = np.abs(z) ** 2
    rho = 1.0 - s2
    with np.errstate(invalid="ignore", over="ignore"):
        mp2 = _abs_pow(m, p - 2.0)
        g = p * p * mp2 * np.abs(dv) ** 2
        if q != 0.0:
            g = rho**q * g
            g = g - 4.0 * p * q * rho ** (q - 1.0) * mp2 * (z * dv * np.conj(fv)).real
            g = g + _abs_pow(m, p) * 4.0 * q * (
                (q - 1.0) * s2 * rho ** (q - 2.0) - rho ** (q - 1.0)
            )
    return g


def radial_deriv_w_values(
    f: AnalyticFunction, params: MeanParams, z: np.ndarray
) -> np.ndarray:
    """dW/dr at z = r e^{i theta}, requires z != 0."""
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = f._val_dval(z)
    m = np.abs(fv)
    s = np.abs(z)
    rho = 1.0 - s * s
    with np.errstate(invalid="ignore", over="ignore"):
        # e^{i theta} = z / s
        radial = p * _abs_pow(m, p - 2.0) * ((z / s) * dv * np.conj(fv)).real
        if q != 0.0:
            radial = rho**q * radial + _abs_pow(m, p) * (-2.0 * q) * s * rho ** (q - 1.0)
    return radial

