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
and are what the quadrature nodes call.  Each makes exactly one `_val_dval`
call, the one evaluator of f and f', so every W row is the same number.
Three return stacks: `gw_values` G and W, for disk meshes with rows of both;
`wd_values` W and dW/dr, for circles with rows of both; `grad_w_values` W
and the gradient, for the ring flux.  The first two hold the only copies of
the G and dW/dr formulas (`g_values` and `radial_deriv_w_values` are rows).
Each computes every power of |f| and of 1-|z|^2 once and updates its own
temporaries in place, keeping the operations of the formulas above in the
order written.
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


# 0**e is 0 for e > 0, 1 for e == 0 and +inf for e < 0, so |f|^{p-2} is 0 at
# a zero of f when p > 2.  Each field runs under one errstate: those limits,
# and the inf * 0 they can meet, come back as values, not warnings.  In-place
# updates use augmented assignment, not `out=`: on 0-d input numpy returns
# scalars, which `out=` rejects.  Each field also drops its temporaries (`del`)
# as soon as they are used up, to keep a call's peak memory down; the freed
# pages stay in the heap for the next call under the allocator policy that
# `hardylab/__init__.py` sets at import, and whose fault counts it gives.
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


def w_values(f: AnalyticFunction, params: MeanParams, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    with np.errstate(**_QUIET):
        w = np.power(np.abs(f._val_dval(z)[0]), p)
        if q != 0.0:
            s2 = np.abs(z)
            s2 *= s2
            w *= (1.0 - s2) ** q
    return w


def grad_w_values(f: AnalyticFunction, params: MeanParams, z: np.ndarray) -> np.ndarray:
    """W and its gradient at z from one evaluation of f and f': out[0] is W,
    bit for bit `w_values`, out[1] dW/dx and out[2] dW/dy."""
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = f._val_dval(z)
    m = np.abs(fv)
    out = np.empty((3,) + z.shape)
    w, gx, gy = out[0, ...], out[1, ...], out[2, ...]
    with np.errstate(**_QUIET):
        cross = dv * np.conj(fv)
        del fv, dv
        pm = np.power(m, p - 2.0)
        pm *= p
        np.multiply(pm, cross.real, out=gx)
        np.multiply(pm, cross.imag, out=gy)
        gy *= -1.0
        del pm, cross
        np.power(m, p, out=w)
        del m
        if q != 0.0:
            s2 = np.abs(z)
            s2 *= s2
            rho = 1.0 - s2
            wq = rho**q
            t = w * (-2.0 * q)
            t *= rho ** (q - 1.0)
            gx *= wq
            gx += t * z.real
            gy *= wq
            gy += t * z.imag
            w *= wq
    return out


def gw_values(f: AnalyticFunction, params: MeanParams, z: np.ndarray) -> np.ndarray:
    """G and W at z from one evaluation of f and f': out[0] is G, out[1] is W.

    Unbounded G entries (exact zeros with small exponent) come back as
    inf/nan; the quadrature layer treats any non-finite node as a cell
    collision and subdivides.  W is bit for bit `w_values`."""
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = f._val_dval(z)
    m = np.abs(fv)
    # allocated past the peak of _val_dval; `...` keeps 0-d rows as arrays,
    # so the in-place updates write into out
    out = np.empty((2,) + z.shape)
    g, w = out[0, ...], out[1, ...]
    with np.errstate(**_QUIET):
        mp2 = np.power(m, p - 2.0)
        np.power(m, p, out=w)
        del m
        np.abs(dv, out=g)
        g *= g
        g *= mp2 * (p * p)
        if q != 0.0:
            cross = z * dv
            cross *= np.conj(fv)
            del fv, dv
            s2 = np.abs(z)
            s2 *= s2
            rho = 1.0 - s2
            rq = rho**q
            g *= rq
            rq1 = rho ** (q - 1.0)
            t = rq1 * (4.0 * p * q)
            t *= mp2
            t *= cross.real
            g -= t
            del cross, mp2
            # the weight bracket (q-1) |z|^2 rho^{q-2} - rho^{q-1}
            t = s2 * (q - 1.0)
            t *= rho ** (q - 2.0)
            t -= rq1
            del s2, rho, rq1
            mp = w * 4.0
            w *= rq
            del rq
            mp *= q
            mp *= t
            g += mp
    return out


def g_values(f: AnalyticFunction, params: MeanParams, z: np.ndarray) -> np.ndarray:
    """Laplacian density of W: the G row of `gw_values`."""
    return gw_values(f, params, z)[0]


def wd_values(f: AnalyticFunction, params: MeanParams, z: np.ndarray) -> np.ndarray:
    """W and dW/dr at z = r e^{i theta} != 0 from one evaluation of f and f':
    out[0] is W, bit for bit `w_values`, and out[1] is dW/dr."""
    z = np.asarray(z, dtype=complex)
    p, q = params.p, params.q
    fv, dv = f._val_dval(z)
    m = np.abs(fv)
    s = np.abs(z)
    with np.errstate(**_QUIET):
        # e^{i theta} = z / s
        cross = z / s
        cross *= dv
        cross *= np.conj(fv)
        del fv, dv
        # allocated past the peak, once f and f' are dropped
        out = np.empty((2,) + z.shape)
        w, radial = out[0, ...], out[1, ...]
        np.power(m, p - 2.0, out=radial)
        radial *= p
        radial *= cross.real
        del cross
        np.power(m, p, out=w)
        del m
        if q != 0.0:
            rho = 1.0 - s * s
            rq = rho**q
            radial *= rq
            t = w * (-2.0 * q)
            t *= s
            t *= rho ** (q - 1.0)
            radial += t
            w *= rq
    return out


def radial_deriv_w_values(f: AnalyticFunction, params: MeanParams, z: np.ndarray) -> np.ndarray:
    """dW/dr at z = r e^{i theta} != 0: the dW/dr row of `wd_values`."""
    return wd_values(f, params, z)[1]
