"""The entry format ``commlab.ratfun``, and the field ``F2RatFun`` of the
``MatF2Rat`` oracle in ``samplers``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab import ratfun
from commlab.f2poly import F2LaurentPoly as P
from commlab.f2poly import mask_divmod, mask_gcd, mask_mul
from samplers import F2RatFun as R

ELEMENTS = st.builds(
    R, st.integers(0, (1 << 8) - 1), st.integers(0, (1 << 6) - 1).map(lambda d: 2 * d + 1),
    st.integers(-4, 4),
)


def rand_ratfun(rng):
    num = rng.randrange(0, 1 << 5)
    den = rng.randrange(0, 1 << 4) * 2 + 1
    return R(num, den, rng.randrange(-3, 4))


def test_canonical_form():
    # t(1+t^2) / t^2(1+t^2) = 1/t
    x = R(0b1010, 0b10100)
    assert x == R.t_power(-1)
    assert x.den == 1
    zero = R(0, 1 << 5)
    assert zero == R.zero() and zero.shift == 0


def test_field_axioms_sampled():
    rng = random.Random(3)
    for _ in range(300):
        a, b, c = rand_ratfun(rng), rand_ratfun(rng), rand_ratfun(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == R.zero()
        if not a.is_zero():
            assert a * a.inverse() == R.one()
            assert a.inverse().inverse() == a


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a == R.zero()
    if a:
        assert a * a.inverse() == R.one()
    assert R.from_string(a.to_string()) == a


def test_division():
    a = R.from_string("(1+t)/(1+t+t^2)")
    assert a / a == R.one()
    with pytest.raises(ZeroDivisionError):
        a / R.zero()
    with pytest.raises(ZeroDivisionError):
        R.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        R(1, 0)


def test_string_round_trip():
    # parse reads back the lowest-terms triple (num, den, shift) that
    # to_string writes
    rng = random.Random(4)
    for _ in range(100):
        a = rand_ratfun(rng)
        assert ratfun.parse(ratfun.to_string(a.num, a.den, a.shift, "t")) == (a.num, a.den, a.shift)
    assert ratfun.parse("0") == (0, 1, 0)
    assert ratfun.parse("t^2") == (1, 1, 2)
    assert ratfun.to_string(1, 1, 2, "t") == "t^2"
    assert ratfun.to_string(0, 0b111, 5, "t") == "0"
    assert ratfun.to_string(1, 0b111, -1, "t") == "(t^-1)/(1+t+t^2)"
    # both reduce by one gcd; powers of t go to the shift
    assert ratfun.parse("(1+t)/(1+t)") == (1, 1, 0)
    assert ratfun.parse(" ( t^-1 + t ) / ( 1 + t^2 ) ") == (1, 1, -1)
    assert ratfun.parse("(1+t^2)/(1+t)") == (0b11, 1, 0)
    assert ratfun.parse("(s+s^2)/(s^3+s^4)") == (1, 1, -2)
    assert ratfun.parse("(t^-1)/(1+t+t^2)") == (1, 0b111, -1)
    assert ratfun.parse("1/t^3") == (1, 1, -3)
    # a zero numerator is (0, 1, 0) whatever the denominator
    assert ratfun.parse("0/(1+s)") == (0, 1, 0)
    assert ratfun.parse("(s+s)/(s^5)") == (0, 1, 0)
    assert ratfun.to_string(0b11, 0b11, 0, "t") == "1"
    assert ratfun.to_string(0b101, 0b11, 1, "s") == "s+s^2"


ODD_MASKS = st.integers(0, (1 << 12) - 1).map(lambda m: 2 * m + 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ODD_MASKS, ODD_MASKS, st.integers(-20, 20), st.sampled_from(["t", "s"]),
       st.sampled_from([1, 0b11, 0b111, 0b1011]))
def test_parse_inverts_to_string(num, den, shift, var, common):
    # a drawn common factor makes about half of the pairs unreduced
    num, den = mask_mul(num, common), mask_mul(den, common)
    g = mask_gcd(num, den)
    want = (mask_divmod(num, g)[0], mask_divmod(den, g)[0], shift)
    assert ratfun.parse(ratfun.to_string(num, den, shift, var)) == want
    assert ratfun.parse(ratfun.to_string(0, den, shift, var)) == (0, 1, 0)


def test_parse_errors_keep_their_order():
    # the numerator is read first, then the denominator, then tested for zero
    for text, error, message in [
        (5, TypeError, "a rational function must be a string, got 5"),
        ("x", ValueError, "bad polynomial term: 'x'"),
        ("x/0", ValueError, "bad polynomial term: 'x'"),
        ("1/x", ValueError, "bad polynomial term: 'x'"),
        ("1/1/1", ValueError, "bad polynomial term: '1/1'"),
        ("1\n/(1+t)", ValueError, "bad polynomial term: '1\\n'"),
        ("1/0", ZeroDivisionError, "zero denominator"),
        ("0/0", ZeroDivisionError, "zero denominator"),
        # one enclosing pair of parentheses is dropped from a side, and any
        # other parenthesis is a bad term
        ("(1+s", ValueError, "bad polynomial term: '(1'"),
        ("1+s)", ValueError, "bad polynomial term: 's)'"),
        ("((1+s)", ValueError, "bad polynomial term: '(1'"),
        ("s/(1+s", ValueError, "bad polynomial term: '(1'"),
    ]:
        with pytest.raises(error) as info:
            ratfun.parse(text)
        assert str(info.value) == message, text


def test_poly_conversions():
    p = P([-1, 2])
    assert R.from_poly(p).to_poly() == p
    assert R.from_poly(p).is_poly()
    with pytest.raises(ValueError):
        R.from_string("(1)/(1+t)").to_poly()
