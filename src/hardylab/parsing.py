"""Text grammar for function descriptions: `variant:payload[*scale][@rotation]`.

Variants:
    poly:c0,c1,...       complex coefficients, ascending degree
    const:c              shorthand for a degree-zero polynomial
    blaschke:a1,a2,...   zeros with |a| < 1 (repeat a zero to raise its order)
    rat:n0,n1,..|d0,..   numerator and denominator coefficient lists
    binom:alpha          (1 - z)^(-alpha), alpha > 0

Complex numbers are written `a+bi` with optional parts (`2`, `-0.5i`, `1-i`).
A trailing `*scale` multiplies by a complex constant and `@rotation` rotates
the argument by the given angle in radians.
"""

from __future__ import annotations

from .functions import (
    AnalyticFunction,
    Binomial,
    BlaschkeProduct,
    FunctionModelError,
    Polynomial,
    Rational,
    ScaledRotation,
)


class FunctionParseError(ValueError):
    """Malformed function description; the message names the failing field."""


def parse_complex(text: str, field: str = "value") -> complex:
    s = text.strip().replace(" ", "")
    if not s:
        raise FunctionParseError(f"{field}: empty complex literal")
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise FunctionParseError(f"{field}: cannot parse complex literal '{text}'") from None


def format_complex(z: complex) -> str:
    z = complex(z)
    re, im = z.real, z.imag
    if im == 0.0:
        return repr(re)
    if re == 0.0:
        return f"{im!r}i"
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"


def _parse_complex_list(payload: str, field: str) -> tuple[complex, ...]:
    items = [x for x in payload.split(",") if x.strip()]
    if not items:
        raise FunctionParseError(f"{field}: expected a comma-separated list")
    return tuple(parse_complex(x, field) for x in items)


def parse_function(text: str) -> AnalyticFunction:
    """Parse a function description; invariant violations surface as
    FunctionParseError naming the offending field."""
    body = text.strip()
    rotation = 0.0
    scale = 1.0 + 0j
    if "@" in body:
        body, rot_text = body.rsplit("@", 1)
        try:
            rotation = float(rot_text)
        except ValueError:
            raise FunctionParseError(f"rotation: cannot parse '{rot_text}'") from None
    if "*" in body:
        body, scale_text = body.rsplit("*", 1)
        scale = parse_complex(scale_text, "scale")
    if ":" not in body:
        raise FunctionParseError("variant: expected 'variant:payload'")
    variant, payload = body.split(":", 1)
    variant = variant.strip().lower()
    try:
        if variant == "poly":
            f: AnalyticFunction = Polynomial(_parse_complex_list(payload, "coefficients"))
        elif variant == "const":
            f = Polynomial((parse_complex(payload, "constant"),))
        elif variant == "blaschke":
            f = BlaschkeProduct(_parse_complex_list(payload, "zeros"))
        elif variant == "rat":
            if "|" not in payload:
                raise FunctionParseError("rat: expected 'numerator|denominator'")
            num_text, den_text = payload.split("|", 1)
            f = Rational(
                Polynomial(_parse_complex_list(num_text, "numerator")),
                Polynomial(_parse_complex_list(den_text, "denominator")),
            )
        elif variant == "binom":
            try:
                alpha = float(payload.strip())
            except ValueError:
                raise FunctionParseError(f"alpha: cannot parse '{payload}'") from None
            f = Binomial(alpha)
        else:
            raise FunctionParseError(f"variant: unknown variant '{variant}'")
        if scale != 1 or rotation != 0.0:
            f = ScaledRotation(f, scale, rotation)
    except FunctionModelError as exc:
        raise FunctionParseError(str(exc)) from None
    return f


def render_function(f: AnalyticFunction) -> str:
    """Text that parse_function reads back as f, for every f it can produce.
    Of the other values, a ScaledRotation with scale 1 and rotation 0 renders
    as its inner function."""
    if isinstance(f, ScaledRotation):
        body = render_function(f.inner)
        if f.scale != 1:
            body += f"*{format_complex(f.scale)}"
        if f.rotation != 0.0:
            body += f"@{f.rotation!r}"
        return body
    if isinstance(f, Polynomial):
        if len(f.coeffs) == 1:
            return f"const:{format_complex(f.coeffs[0])}"
        return "poly:" + ",".join(format_complex(c) for c in f.coeffs)
    if isinstance(f, Rational):
        num = ",".join(format_complex(c) for c in f.num.coeffs)
        den = ",".join(format_complex(c) for c in f.den.coeffs)
        return f"rat:{num}|{den}"
    if isinstance(f, BlaschkeProduct):
        return "blaschke:" + ",".join(format_complex(a) for a in f.zeros)
    if isinstance(f, Binomial):
        return f"binom:{f.alpha!r}"
    raise FunctionModelError(f"cannot render {type(f).__name__}")
