"""Analytic test functions on the unit disk.

Five closed-form families: polynomials, rational functions with poles outside
the closed disk, finite Blaschke products, the binomial family (1-z)^(-alpha),
and a scale/rotate wrapper c*f(e^{i phi} z).  Each family has one evaluator,
`_val_dval`, which gives f and f' together, exactly, with no numerical
differencing; every field and point evaluation reads its rows.  It shares its
work: one power for the binomial (f' = alpha f / (1-z)), one product-rule
pass for a Blaschke product, one Horner pass for a polynomial.  The binomial
power is formed in polar form, from a real power of |1-z| and the argument of
1-z.  No factor takes a power: a Blaschke product is its zero list, one
factor per entry.  Every family can enumerate its zeros inside |z| < r, so the
quadrature layer always knows where the integrands degenerate.

All values are immutable after construction.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

MAX_POLY_DEGREE = 64
ZERO_CIRCLE_GUARD = 1e-8
_CLUSTER_TOL = 1e-6


class FunctionModelError(ValueError):
    """Invalid function description or evaluation request."""


class EvaluationDomainError(FunctionModelError):
    """Evaluation outside the variant's admissible domain."""


class CircleProximityError(FunctionModelError):
    """A zero lies within the guard distance of the circle |z| = r."""


class RootFindingError(FunctionModelError):
    """Polynomial root finding failed or the degree cap was exceeded."""


class MembershipRequiredError(ValueError):
    """The requested check needs f inside the space (p, q), as judged by
    membership_hint."""


class MembershipHint(str, Enum):
    MEMBER = "member"
    NON_MEMBER = "non-member"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Zero:
    """A zero of an analytic function: location and multiplicity."""

    location: complex
    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", complex(self.location))
        if self.order < 1:
            raise FunctionModelError(f"zero order must be >= 1, got {self.order}")


def _as_complex_tuple(values) -> tuple[complex, ...]:
    return tuple(complex(v) for v in values)


def _poly_val_dval(
    coeffs: tuple[complex, ...], z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joint Horner evaluation of the polynomial (ascending coefficients) and
    its derivative.  The first step makes the accumulators (numpy scalars for
    0-d z) and the later steps update them in place."""
    val = np.zeros_like(z, dtype=complex)
    der = val * z + val
    val = val * z + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        der *= z
        der += val
        val *= z
        val += c
    return val, der


@dataclass(frozen=True)
class Polynomial:
    """c0 + c1 z + c2 z^2 + ... with complex coefficients in ascending order."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = _as_complex_tuple(self.coeffs)
        if not coeffs:
            raise FunctionModelError("polynomial needs at least one coefficient")
        if not all(cmath.isfinite(c) for c in coeffs):
            raise FunctionModelError("coefficients must be finite")
        if all(c == 0 for c in coeffs):
            raise FunctionModelError("the zero polynomial is not an admissible test function")
        object.__setattr__(self, "coeffs", coeffs)
        if self.degree > MAX_POLY_DEGREE:
            raise RootFindingError(
                f"polynomial degree {self.degree} exceeds cap {MAX_POLY_DEGREE}"
            )

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    def _val_dval(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _poly_val_dval(self.coeffs, z)


@dataclass(frozen=True)
class Rational:
    """num(z)/den(z) with every denominator root strictly outside |z| <= 1."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self) -> None:
        poles = _polynomial_roots(self.den.coeffs)
        if poles and min(abs(w) for w in poles) <= 1.0:
            raise FunctionModelError(
                "rational variant requires min |denominator root| > 1"
            )

    def _val_dval(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nv, nd = self.num._val_dval(z)
        dv, dd = self.den._val_dval(z)
        return nv / dv, (nd * dv - nv * dd) / (dv * dv)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Product of factors (a-z)/(1 - conj(a) z) with |a| < 1, one per listed
    zero, so a zero repeated m times has order m; at least one zero."""

    zeros: tuple[complex, ...]

    def __post_init__(self) -> None:
        zeros = _as_complex_tuple(self.zeros)
        if not zeros:
            raise FunctionModelError("a Blaschke product needs a zero; the constant 1 is poly:1")
        if not all(abs(a) < 1.0 for a in zeros):
            raise FunctionModelError("blaschke zeros must satisfy |a| < 1")
        object.__setattr__(self, "zeros", zeros)

    def _val_dval(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        val = np.ones_like(z)
        der = np.zeros_like(z)
        for a in self.zeros:
            den = 1.0 - np.conj(a) * z
            b = (a - z) / den
            db = (abs(a) ** 2 - 1.0) / (den * den)
            der = der * b + val * db
            val = val * b
        return val, der


@dataclass(frozen=True)
class Binomial:
    """(1 - z)^(-alpha) on the principal branch, alpha > 0."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0 < self.alpha < math.inf:
            raise FunctionModelError("binomial exponent alpha must be positive and finite")

    def _val_dval(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # f' = alpha f / (1 - z): the one power serves both
        u = 1.0 - z
        val = _principal_power(u, -self.alpha)
        der = val / u
        der *= self.alpha
        return val, der


def _principal_power(u: np.ndarray, e: float) -> np.ndarray:
    """u**e on the principal branch, for u with positive real part.

    1 - z has positive real part on |z| < 1, so the power is single-valued
    there.  It is formed in polar form, |u|^e times the unit phase e*arg(u):
    numpy's complex power goes through exp(e log u), whose rounding grows
    with |e log|u||, and it costs about four times as much.
    """
    phase = np.arctan2(u.imag, u.real)
    phase *= e
    # val is an array even for 0-d u, so its parts can take `out=`
    val = np.empty(np.shape(u), dtype=complex)
    np.cos(phase, out=val.real)
    np.sin(phase, out=val.imag)
    mod = np.abs(u)
    mod **= e
    val *= mod
    return val


@dataclass(frozen=True)
class ScaledRotation:
    """c * f(e^{i phi} z) for an inner function f that is not itself a
    ScaledRotation: the grammar has one `*c@phi` suffix."""

    inner: "AnalyticFunction"
    scale: complex = 1.0 + 0j
    rotation: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.inner, ScaledRotation):
            raise FunctionModelError("a scaled rotation cannot wrap another scaled rotation")
        object.__setattr__(self, "scale", complex(self.scale))
        object.__setattr__(self, "rotation", float(self.rotation))
        if self.scale == 0:
            raise FunctionModelError("scale must be nonzero (f must not vanish identically)")
        if not cmath.isfinite(self.scale):
            raise FunctionModelError("scale must be finite")
        if not math.isfinite(self.rotation):
            raise FunctionModelError("rotation must be finite")

    @property
    def phase(self) -> complex:
        return cmath.exp(1j * self.rotation)

    def _val_dval(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phase = self.phase
        val, der = self.inner._val_dval(phase * z)
        return self.scale * val, self.scale * phase * der


AnalyticFunction = Union[Polynomial, Rational, BlaschkeProduct, Binomial, ScaledRotation]


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _check_domain(f: AnalyticFunction, z: complex) -> None:
    base = f.inner if isinstance(f, ScaledRotation) else f
    r = abs(z)
    if isinstance(base, Binomial):
        if abs(z - 1.0) == 0.0:
            raise EvaluationDomainError("binomial variant is undefined at z = 1")
        if r >= 1.0:
            raise EvaluationDomainError("binomial variant requires |z| < 1")
    elif r > 1.0 + 1e-12:
        raise EvaluationDomainError(f"|z| = {r} is outside the closed unit disk")


def eval_at(f: AnalyticFunction, z: complex) -> complex:
    """Value of f at a single point of the (closed, variant permitting) disk."""
    _check_domain(f, z)
    return complex(f._val_dval(np.asarray(complex(z)))[0])


# --------------------------------------------------------------------------
# zeros
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=512)
def _polynomial_roots(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    """All roots of the polynomial, via companion-matrix eigenvalues.

    Coefficients are normalised to max modulus 1 before the eigenvalue solve;
    simple roots get a short Newton polish against the original coefficients.
    """
    trimmed = list(coeffs)
    while len(trimmed) > 1 and trimmed[-1] == 0:
        trimmed.pop()
    if len(trimmed) <= 1:
        return ()
    scale = max(abs(c) for c in trimmed)
    arr = np.array(trimmed[::-1], dtype=complex) / scale
    roots = np.roots(arr)
    if not np.all(np.isfinite(roots)):
        raise RootFindingError("companion-matrix eigenvalue solve did not converge")
    polished = []
    for w in roots:
        w = complex(w)
        for _ in range(3):
            pv, dv = map(complex, _poly_val_dval(tuple(trimmed), np.asarray(w)))
            if abs(dv) < 1e-3 * scale or pv == 0:
                break
            step = pv / dv
            if abs(step) > 0.5 * _CLUSTER_TOL + abs(w) * 0.1:
                break
            w = w - step
        polished.append(w)
    return tuple(sorted(polished, key=lambda c: (c.real, c.imag)))


def _cluster_roots(roots: tuple[complex, ...]) -> tuple[Zero, ...]:
    """Group nearby roots into multiple zeros (centroid location, count = order)."""
    remaining = list(roots)
    zeros: list[Zero] = []
    while remaining:
        seed = remaining.pop(0)
        cluster = [seed]
        tol = _CLUSTER_TOL * max(1.0, abs(seed))
        rest = []
        for w in remaining:
            if abs(w - seed) <= tol:
                cluster.append(w)
            else:
                rest.append(w)
        remaining = rest
        loc = sum(cluster) / len(cluster)
        # exact multiple roots at the origin come out of np.roots as exact zeros
        if all(w == 0 for w in cluster):
            loc = 0j
        zeros.append(Zero(loc, len(cluster)))
    return tuple(sorted(zeros, key=lambda c: (abs(c.location), c.location.real, c.location.imag)))


@functools.lru_cache(maxsize=512)
def _zeros(f: AnalyticFunction) -> tuple[Zero, ...]:
    """Every zero of f, each distinct one once with its order, by modulus."""
    if isinstance(f, (Polynomial, Rational)):
        num = f if isinstance(f, Polynomial) else f.num
        return _cluster_roots(_polynomial_roots(num.coeffs))
    if isinstance(f, BlaschkeProduct):
        orders = collections.Counter(f.zeros)
        return tuple(
            Zero(a, orders[a]) for a in sorted(orders, key=lambda a: (abs(a), a.real, a.imag))
        )
    if isinstance(f, Binomial):
        return ()
    if isinstance(f, ScaledRotation):
        phase = cmath.exp(-1j * f.rotation)
        return tuple(Zero(phase * z.location, z.order) for z in _zeros(f.inner))
    raise FunctionModelError(f"unknown function variant {type(f).__name__}")


def _unit_disk_zeros(f: AnalyticFunction) -> tuple[Zero, ...]:
    """Zeros of f with |location| < 1, with multiplicities."""
    return tuple(z for z in _zeros(f) if abs(z.location) < 1.0)


def zeros_in_disk(f: AnalyticFunction, r: float) -> list[Zero]:
    """Complete list of zeros with |location| < r, multiplicities included.

    Raises CircleProximityError when a zero sits within ZERO_CIRCLE_GUARD of
    the circle |z| = r; the caller is expected to perturb r and retry.
    """
    if not 0.0 < r < 1.0:
        raise FunctionModelError(f"radius must satisfy 0 < r < 1, got {r}")
    out = []
    for z in _unit_disk_zeros(f):
        if abs(abs(z.location) - r) < ZERO_CIRCLE_GUARD:
            raise CircleProximityError(
                f"zero at {z.location} is within {ZERO_CIRCLE_GUARD} of |z| = {r}"
            )
        if abs(z.location) < r:
            out.append(z)
    return out


def nearest_zero(f: AnalyticFunction, z: complex) -> tuple[float, Zero | None]:
    """Distance from z to the nearest unit-disk zero of f (inf if none)."""
    best: Zero | None = None
    dist = math.inf
    for zero in _unit_disk_zeros(f):
        d = abs(z - zero.location)
        if d < dist:
            dist, best = d, zero
    return dist, best


# --------------------------------------------------------------------------
# angular features for the quadrature layer
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=512)
def feature_moduli(f: AnalyticFunction, p: float = 1.0) -> tuple[tuple[float, float], ...]:
    """(modulus, angle) of every off-origin point where W = |f|^p (1 -
    |z|^2)^q is not real-analytic at exponent p: unless p is even, each
    distinct zero of f once, in the disk and out, clustered as zeros_in_disk
    lists it; then the poles of a rational, the pole 1/conj(a) of each
    Blaschke zero a and the binomial's point z = 1.  At even p, W =
    (f conj f)^{p/2} (1 - |z|^2)^q is real-analytic at a zero, and so are
    G, dW/dr and grad W; the zeros count toward fourier_band instead.  The
    angle is that of the point itself, so under c * f(e^{i phi} z) a feature
    w of f moves to e^{-i phi} w.  This is the one list of arc peaks: every
    circle and disk cell within 0.2 |w| of a feature splits at its angle,
    and every modulus bounds the annulus where W and G are analytic, which
    sets a periodic cell's fewest steps.  Memoised, as f is immutable.
    """
    if isinstance(f, ScaledRotation):
        return tuple((m, a - f.rotation) for m, a in feature_moduli(f.inner, p))
    if isinstance(f, Binomial):
        return ((1.0, 0.0),)
    zeros = [(abs(z.location), cmath.phase(z.location)) for z in _zeros(f) if z.location != 0]
    if isinstance(f, BlaschkeProduct):
        poles = [(1.0 / m, angle) for m, angle in zeros]
    else:
        poles = [(abs(w), cmath.phase(w))
                 for w in (_polynomial_roots(f.den.coeffs) if isinstance(f, Rational) else ())]
    return tuple(poles if p % 2 == 0 else zeros + poles)


def fourier_band(f: AnalyticFunction, p: float) -> int:
    """At even p, the degree in theta of prod |z - a|^p over the off-origin
    zeros a of f, inside the unit disk and out: (p/2) times the sum of their
    orders.  On every circle |z| = s that product is a trigonometric
    polynomial of this degree, so the modes of W beyond it decay as fast as
    the features of feature_moduli(f, p) allow.  0 at any other p.
    """
    if p % 2:
        return 0
    return int(p) // 2 * sum(z.order for z in _zeros(f) if z.location != 0)


# --------------------------------------------------------------------------
# membership
# --------------------------------------------------------------------------

def membership_hint(f: AnalyticFunction, p: float, q: float) -> MembershipHint:
    """Closed-form classification of f against the weighted-mean space (p, q).

    Bounded variants belong for every (p, q).  The binomial family belongs
    iff alpha*p < q + 1; the boundary case is left unresolved.
    """
    if not p > 0 or q < 0:
        raise FunctionModelError("membership requires p > 0 and q >= 0")
    if isinstance(f, ScaledRotation):
        return membership_hint(f.inner, p, q)
    if isinstance(f, (Polynomial, Rational, BlaschkeProduct)):
        return MembershipHint.MEMBER
    if isinstance(f, Binomial):
        edge = f.alpha * p - (q + 1.0)
        if abs(edge) < 1e-12:
            return MembershipHint.UNKNOWN
        return MembershipHint.NON_MEMBER if edge > 0 else MembershipHint.MEMBER
    raise FunctionModelError(f"unknown function variant {type(f).__name__}")
