import collections

import pytest
from hypothesis import given, strategies as st

from hardylab.functions import (
    Binomial,
    BlaschkeProduct,
    FunctionModelError,
    Polynomial,
    Rational,
    ScaledRotation,
    _unit_disk_zeros,
)
from hardylab.parsing import (
    FunctionParseError,
    format_complex,
    parse_complex,
    parse_function,
    render_function,
)


def test_parse_poly():
    f = parse_function("poly:1,0,1")
    assert isinstance(f, Polynomial)
    assert f.coeffs == (1, 0, 1)


def test_parse_const():
    f = parse_function("const:2-0.5i")
    assert isinstance(f, Polynomial)
    assert f.coeffs == (2 - 0.5j,)


def test_parse_binomial():
    f = parse_function("binom:0.9")
    assert isinstance(f, Binomial)
    assert f.alpha == 0.9


def test_parse_blaschke():
    f = parse_function("blaschke:0.5,0.2+0.3i")
    assert isinstance(f, BlaschkeProduct)
    assert f.zeros == (0.5, 0.2 + 0.3j)


def test_parse_rational():
    f = parse_function("rat:1,1|2,0,1")
    assert isinstance(f, Rational)
    assert f.num.coeffs == (1, 1)
    assert f.den.coeffs == (2, 0, 1)


def test_parse_scale_and_rotation():
    f = parse_function("poly:0,1*2+1i@0.5")
    assert isinstance(f, ScaledRotation)
    assert f.scale == 2 + 1j
    assert f.rotation == 0.5


def test_parse_errors_name_the_field():
    with pytest.raises(FunctionParseError, match="modulus|zeros"):
        parse_function("blaschke:1.2")
    with pytest.raises(FunctionParseError, match="alpha"):
        parse_function("binom:x")
    with pytest.raises(FunctionParseError, match="variant"):
        parse_function("spline:1,2")
    with pytest.raises(FunctionParseError, match="coefficients"):
        parse_function("poly:1,nope")
    with pytest.raises(FunctionParseError, match="rat"):
        parse_function("rat:1,2")


@pytest.mark.parametrize(
    "text, field",
    [
        ("const:nan", "coefficients"),
        ("poly:nan,1", "coefficients"),
        ("rat:1|nan,1", "coefficients"),
        ("blaschke:nan", "zeros"),
        ("blaschke:0.5*nan", "scale"),
        ("binom:inf", "alpha"),
        ("poly:0,1@nan", "rotation"),
        ("poly:0,1@inf", "rotation"),
    ],
)
def test_non_finite_parameters_name_the_field(text, field):
    with pytest.raises(FunctionParseError, match=field):
        parse_function(text)


def test_parse_complex_forms():
    assert parse_complex("2") == 2
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("1-i") == 1 - 1j
    assert parse_complex("1.5+2.25i") == 1.5 + 2.25j


finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


@given(re=finite, im=finite)
def test_complex_round_trip(re, im):
    z = complex(re, im)
    assert parse_complex(format_complex(z)) == z


@given(
    coeffs=st.lists(st.tuples(finite, finite), min_size=1, max_size=6),
)
def test_polynomial_round_trip(coeffs):
    vals = tuple(complex(a, b) for a, b in coeffs)
    if all(v == 0 for v in vals):
        vals = vals[:-1] + (1 + 0j,)
    f = Polynomial(vals)
    assert parse_function(render_function(f)) == f


@given(
    zeros=st.lists(
        st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)), min_size=1, max_size=4
    )
)
def test_blaschke_round_trip(zeros):
    vals = tuple(complex(a, b) for a, b in zeros)
    f = BlaschkeProduct(vals)
    assert parse_function(render_function(f)) == f


@given(
    zeros=st.lists(
        st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)), min_size=1, max_size=3
    ).flatmap(lambda points: st.lists(st.sampled_from(points), min_size=1, max_size=8))
)
def test_blaschke_with_repeated_zeros_round_trips(zeros):
    # a zero listed m times is one zero of order m
    f = BlaschkeProduct(tuple(complex(a, b) for a, b in zeros))
    assert parse_function(render_function(f)) == f
    found = _unit_disk_zeros(f)
    assert {z.location: z.order for z in found} == collections.Counter(f.zeros)
    assert len(found) == len(set(f.zeros))


@given(alpha=st.floats(0.01, 5))
def test_binomial_round_trip(alpha):
    f = Binomial(alpha)
    assert parse_function(render_function(f)) == f


@given(
    inner=st.sampled_from([Polynomial((1, 1)), BlaschkeProduct((0.5, 0.5, -0.3j))]),
    scale_re=finite,
    scale_im=finite,
    rot=st.floats(-6.3, 6.3),
)
def test_wrapper_round_trip(inner, scale_re, scale_im, rot):
    scale = complex(scale_re, scale_im)
    if scale == 0:
        scale = 1.0
    f = ScaledRotation(inner, scale, rot)
    back = parse_function(render_function(f))
    if scale == 1 and rot == 0.0:
        assert back == f.inner
    else:
        assert back == f


def test_rational_round_trip():
    f = Rational(Polynomial((1, 1)), Polynomial((2, 0, 1)))
    assert parse_function(render_function(f)) == f


def test_a_wrapper_cannot_wrap_a_wrapper():
    # the grammar has one `*c@phi` suffix, so a nested wrapper has no text
    inner = ScaledRotation(Polynomial((1, 1)), 2.0, 0.5)
    with pytest.raises(FunctionModelError, match="cannot wrap"):
        ScaledRotation(inner, 3.0, 0.1)
    with pytest.raises(FunctionParseError):
        parse_function("poly:1.0,1.0*2.0@0.5*3.0@0.1")
