"""Analytic test functions on the unit disk.

Five closed-form families: polynomials, rational functions with poles outside
the closed disk, finite Blaschke products, the binomial family (1-z)^(-alpha),
and a scale/rotate wrapper c*f(e^{i phi} z).  Every family evaluates itself
(`_val`) and, jointly, itself and its first derivative (`_val_dval`) exactly,
with no numerical differencing.  The joint evaluation shares its work: one
complex power for the binomial (f' = alpha f / (1-z)), one product-rule pass
for a Blaschke product, one Horner pass for a polynomial; its value is
bit-identical to `_val`.  Every family can enumerate its zeros inside
|z| < r, so the quadrature layer always knows where the integrands degenerate.

All values are immutable after construction.
"""

from __future__ import annotations

import cmath
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


def _poly_val(coeffs: tuple[complex, ...], z: np.ndarray) -> np.ndarray:
    """Horner evaluation, ascending coefficients."""
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _poly_val_dval(
    coeffs: tuple[complex, ...], z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joint Horner evaluation of the polynomial and its derivative."""
    val = np.zeros_like(z)
    der = np.zeros_like(z)
    for c in reversed(coeffs):
        der = der * z + val
        val = val * z + c
    return val, der


def _poly_deriv_coeffs(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    if len(coeffs) <= 1:
        return (0j,)
    return tuple(k * c for k, c in enumerate(coeffs) if k >= 1)


@dataclass(frozen=True)
class Polynomial:
    """c0 + c1 z + c2 z^2 + ... with complex coefficients in ascending order."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        coeffs = _as_complex_tuple(self.coeffs)
        if not coeffs:
            raise FunctionModelError("polynomial needs at least one coefficient")
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

    def _val(self, z: np.ndarray) -> np.ndarray:
        return _poly_val(self.coeffs, z)

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

    def _val(self, z: np.ndarray) -> np.ndarray:
        return self.num._val(z) / self.den._val(z)

    def _val_dval(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nv, nd = self.num._val_dval(z)
        dv, dd = self.den._val_dval(z)
        return nv / dv, (nd * dv - nv * dd) / (dv * dv)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Product of factors (a-z)/(1 - conj(a) z) with |a| < 1, times a unimodular prefactor."""

    zeros: tuple[complex, ...]
    multiplicities: tuple[int, ...] = ()
    prefactor: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        zeros = _as_complex_tuple(self.zeros)
        mult = tuple(int(m) for m in self.multiplicities) or tuple(1 for _ in zeros)
        if len(mult) != len(zeros):
            raise FunctionModelError("multiplicities must match the zero list")
        if any(m < 1 for m in mult):
            raise FunctionModelError("multiplicities must be >= 1")
        if any(abs(a) >= 1.0 for a in zeros):
            raise FunctionModelError("blaschke zeros must satisfy |a| < 1")
        pref = complex(self.prefactor)
        if abs(abs(pref) - 1.0) > 1e-9:
            raise FunctionModelError("blaschke prefactor must be unimodular")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "multiplicities", mult)
        object.__setattr__(self, "prefactor", pref / abs(pref))

    def _val(self, z: np.ndarray) -> np.ndarray:
        val = np.full_like(z, self.prefactor)
        for a, m in zip(self.zeros, self.multiplicities):
            val = val * ((a - z) / (1.0 - np.conj(a) * z)) ** m
        return val

    def _val_dval(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        val = np.full_like(z, self.prefactor)
        der = np.zeros_like(z)
        for a, m in zip(self.zeros, self.multiplicities):
            den = 1.0 - np.conj(a) * z
            b = (a - z) / den
            db = (abs(a) ** 2 - 1.0) / (den * den)
            pv = b**m
            pd = m * b ** (m - 1) * db
            der = der * pv + val * pd
            val = val * pv
        return val, der


@dataclass(frozen=True)
class Binomial:
    """(1 - z)^(-alpha) on the principal branch, alpha > 0."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        if not self.alpha > 0:
            raise FunctionModelError("binomial exponent alpha must be positive")

    def _val(self, z: np.ndarray) -> np.ndarray:
        # 1 - z has positive real part on |z| < 1, so the principal power is
        # single-valued there.
        return (1.0 - z) ** (-self.alpha)

    def _val_dval(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # f' = alpha f / (1 - z): the one complex power serves both
        u = 1.0 - z
        val = u ** (-self.alpha)
        der = val / u
        der *= self.alpha
        return val, der


@dataclass(frozen=True)
class ScaledRotation:
    """c * f(e^{i phi} z) for an inner function f."""

    inner: "AnalyticFunction"
    scale: complex = 1.0 + 0j
    rotation: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", complex(self.scale))
        object.__setattr__(self, "rotation", float(self.rotation))
        if self.scale == 0:
            raise FunctionModelError("scale must be nonzero (f must not vanish identically)")

    @property
    def phase(self) -> complex:
        return cmath.exp(1j * self.rotation)

    def _val(self, z: np.ndarray) -> np.ndarray:
        return self.scale * self.inner._val(self.phase * z)

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
    return complex(f._val(np.asarray(complex(z))))


def deriv_at(f: AnalyticFunction, z: complex) -> complex:
    """f'(z) from the closed-form derivative of the variant."""
    _check_domain(f, z)
    return complex(f._val_dval(np.asarray(complex(z)))[1])


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
    dcoeffs = _poly_deriv_coeffs(tuple(trimmed))
    polished = []
    for w in roots:
        w = complex(w)
        for _ in range(3):
            pv = complex(_poly_val(tuple(trimmed), np.asarray(w)))
            dv = complex(_poly_val(dcoeffs, np.asarray(w)))
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
def _unit_disk_zeros(f: AnalyticFunction) -> tuple[Zero, ...]:
    """Zeros of f with |location| < 1, with multiplicities."""
    if isinstance(f, Polynomial):
        allz = _cluster_roots(_polynomial_roots(f.coeffs))
        return tuple(z for z in allz if abs(z.location) < 1.0)
    if isinstance(f, Rational):
        allz = _cluster_roots(_polynomial_roots(f.num.coeffs))
        return tuple(z for z in allz if abs(z.location) < 1.0)
    if isinstance(f, BlaschkeProduct):
        merged: dict[complex, int] = {}
        for a, m in zip(f.zeros, f.multiplicities):
            merged[a] = merged.get(a, 0) + m
        return tuple(
            Zero(a, m)
            for a, m in sorted(merged.items(), key=lambda am: (abs(am[0]), am[0].real, am[0].imag))
        )
    if isinstance(f, Binomial):
        return ()
    if isinstance(f, ScaledRotation):
        phase = cmath.exp(-1j * f.rotation)
        return tuple(Zero(phase * z.location, z.order) for z in _unit_disk_zeros(f.inner))
    raise FunctionModelError(f"unknown function variant {type(f).__name__}")


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

def feature_moduli(f: AnalyticFunction) -> tuple[tuple[float, float, float], ...]:
    """(modulus, angular demand coefficient, angle) of points that spike
    circle integrands.

    Covers off-origin zeros and poles with |w| <= 1.3, and the boundary
    singularity of the binomial family at z = 1.  The angle is that of the
    point itself, so under c * f(e^{i phi} z) a feature w of f moves to
    e^{-i phi} w.  Disk cells grade their angular arcs toward the angle;
    circle means use the coefficient as a node floor coeff * s / dist, the
    boundary-grade features carrying the stronger one.
    """
    feats: list[tuple[float, float, float]] = []

    def boundary_coeff(mod: float) -> float:
        return 64.0 if mod >= 0.999 else 16.0

    if isinstance(f, ScaledRotation):
        return tuple((m, c, a - f.rotation) for m, c, a in feature_moduli(f.inner))
    if isinstance(f, Binomial):
        return ((1.0, 64.0, 0.0),)
    if isinstance(f, (Polynomial, Rational)):
        num_coeffs = f.coeffs if isinstance(f, Polynomial) else f.num.coeffs
        for w in _polynomial_roots(num_coeffs):
            if 0 < abs(w) <= 1.3:
                feats.append((abs(w), boundary_coeff(abs(w)), cmath.phase(w)))
        if isinstance(f, Rational):
            for w in _polynomial_roots(f.den.coeffs):
                if abs(w) <= 1.3:
                    feats.append((abs(w), 64.0, cmath.phase(w)))
    if isinstance(f, BlaschkeProduct):
        for a in f.zeros:
            if abs(a) > 0:
                feats.append((abs(a), boundary_coeff(abs(a)), cmath.phase(a)))
    return tuple(feats)


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
