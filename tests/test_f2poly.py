import random

import pytest

from commlab import f2poly
from commlab.errors import ResourceLimit
from commlab.f2poly import F2LaurentPoly as P
from commlab.f2poly import mask_divmod, mask_gcd, mask_geometric, mask_mul


def naive_mul(a, b):
    # independent convolution oracle on exponent dictionaries
    out = {}
    for e1 in a.support():
        for e2 in b.support():
            out[e1 + e2] = out.get(e1 + e2, 0) ^ 1
    return P([e for e, c in out.items() if c])


def test_add_is_symmetric_difference():
    assert P([0]) + P([0]) == P.zero()
    assert P([0, 2, 5]) + P([2, 3]) == P([0, 3, 5])
    assert P([0]) + P.zero() == P([0])


def test_mul_examples():
    assert P([0, 1]) * P([0, 1]) == P([0, 2])
    assert P([-1, 0]) * P([1]) == P([0, 1])
    assert P.zero() * P([3]) == P.zero()


def test_mul_matches_naive_oracle():
    rng = random.Random(0)
    for _ in range(300):
        a = P([e for e in range(-6, 7) if rng.random() < 0.3])
        b = P([e for e in range(-6, 7) if rng.random() < 0.3])
        assert a * b == naive_mul(a, b)


def test_ring_axioms_sampled():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (
            P([e for e in range(-5, 6) if rng.random() < 0.3]) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + a == P.zero()


def test_support_and_exponents():
    p = P([5, -2, 0])
    assert p.support() == (-2, 0, 5)
    assert p.shift == -2 and p.max_exp == 5
    assert len(p) == 3
    with pytest.raises(ValueError):
        P.zero().max_exp


def test_to_string_refuses_more_terms_than_the_print_limit(monkeypatch):
    # MAX_PRINT_TERMS terms print; one more is refused, by its count
    assert f2poly.MAX_PRINT_TERMS == 2**20
    monkeypatch.setattr(f2poly, "MAX_PRINT_TERMS", 4)
    assert P([-1, 0, 3, 9]).to_string() == "t^-1+1+t^3+t^9"
    with pytest.raises(ResourceLimit, match="needs 5 terms, above the 4-term limit"):
        P([-1, 0, 3, 9, 20]).to_string("s")


def test_string_round_trip():
    for text in ("0", "1", "t", "t^-2+1+t^5", "1+t"):
        assert P.from_string(text).to_string() == text
    assert P.from_string("t^3 + t") == P([1, 3])
    assert P.from_string("1+1") == P.zero()
    # repeated terms cancel mod 2, while a support is a set
    assert P.from_string("t+t") == P.zero()
    assert P.from_string("1+t+t") == P.one()
    assert P.from_string("t^-3+t^4+t^-3") == P([4])
    assert P([1, 1]) == P.t_power(1)
    # a single term, with or without an exponent
    assert P.from_string("s^-7") == P.t_power(-7)
    assert P.from_string(" 1 ") == P.one()
    with pytest.raises(ValueError):
        P.from_string("t^")


def test_a_term_must_match_whole():
    # a newline is no space: it stays in its term, which is then bad (a term
    # pattern anchored by $ read "1\n" as t and "t^3\n" as t^3)
    for text, term in [("1\n", "1\n"), ("1\n+t", "1\n"), ("t^3\n", "t^3\n"),
                       ("t+\nt", "\nt"), ("t^2\n+1", "t^2\n"), ("t^", "t^"), ("1t", "1t"),
                       ("", ""), ("t++1", "")]:
        with pytest.raises(ValueError) as info:
            P.from_string(text)
        assert str(info.value) == f"bad polynomial term: {term!r}", text


def test_flip_and_shift():
    p = P([1, 3])
    assert p.flip() == P([-1, -3])
    assert p.flip().flip() == p
    assert p.shifted(2) == P([3, 5])
    assert p.spread(3) == P([3, 9])


def test_exact_div():
    a = P([0, 1]) * P([2, 5])
    assert a.exact_div(P([0, 1])) == P([2, 5])
    assert P([0, 1, 2]).exact_div(P([0, 1])) is None
    with pytest.raises(ZeroDivisionError):
        P([0]).exact_div(P.zero())


def test_geometric():
    assert mask_geometric(2, 3) == P([0, 2, 4]).mask
    assert mask_geometric(1, 1) == P([0]).mask


def test_mask_helpers():
    rng = random.Random(2)
    for _ in range(200):
        a = rng.randrange(1, 1 << 12)
        b = rng.randrange(1, 1 << 8)
        q, r = mask_divmod(a, b)
        assert mask_mul(q, b) ^ r == a
        assert r == 0 or r.bit_length() < b.bit_length()
        g = mask_gcd(a, b)
        assert mask_divmod(a, g)[1] == 0 and mask_divmod(b, g)[1] == 0
