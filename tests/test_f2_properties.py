"""Properties of the F2 routines whose cost must not grow with an exponent:
``mask_divmod`` and ``F2LaurentPoly.exact_div`` on both division routes,
``mask_mod`` and ``mask_gcd`` on both remainder routes, the content gcd
``mask_content`` on Kronecker layouts and ``PolyMat.content_mask``, the
vector helpers ``masks_scaled`` and ``masks_divided``,
the Laurent ``F2LaurentPoly.divmod``, ``mask_geometric`` on both routes,
``LampElement.__pow__``, the interleave pair and the strands of the
Kronecker layout, and the span cap of sums, geometric series and aligned
masks (``masks_aligned``); and the ring axioms of ``F2LaurentPoly``
on masks of a few hundred bits, and its support on masks on both sides of
its sparse-route switch."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab import f2poly
from commlab.f2poly import (
    MAX_SPAN,
    _SHORT,
    _WINDOW,
    F2LaurentPoly,
    _bits_pay,
    _closed_form_pays,
    _series_pays,
    mask_content,
    mask_deinterleave,
    mask_divmod,
    mask_gcd,
    mask_geometric,
    mask_interleave,
    mask_mod,
    mask_mul,
    mask_spread,
    mask_strands,
    masks_aligned,
    masks_divided,
    masks_scaled,
)
from commlab.errors import ResourceLimit
from commlab.lamplighter import LampElement
from commlab.polymat import PolyMat
from samplers import (
    coords_to_k,
    deinterleave_by_bits,
    interleave_by_bits,
    k_to_coords,
    lamp_power_by_inverse,
    residue_coords,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def masks(draw, max_bits, min_bits=0):
    """A poly mask of exactly ``bits`` bits, min_bits <= bits <= max_bits."""
    bits = draw(st.integers(min_bits, max_bits))
    if bits == 0:
        return 0
    return random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | 1 << (bits - 1)


@st.composite
def sparse_masks(draw, max_bits, min_bits=1):
    """A mask of exactly ``bits`` bits with at most four more bits set below the top."""
    bits = draw(st.integers(min_bits, max_bits))
    mask = 1 << (bits - 1)
    for tap in draw(st.lists(st.integers(0, bits - 1), max_size=4)):
        mask |= 1 << tap
    return mask


def divisors(max_bits):
    """Dense divisors of up to 71 bits, and sparse ones of up to max_bits."""
    return st.one_of(masks(71, min_bits=1), sparse_masks(max_bits))


def _naive_mod(a, b):
    """Remainder of a mod b one quotient bit at a time, over the whole mask."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _rep_by_shift_steps(a, d):
    """The representative of a mod the poly mask d (d(0) = 1), found by
    multiplying by s or by s^-1 = (d+1)/s mod d once per unit of a's shift."""
    r = _naive_mod(a.mask, d)
    top = 1 << d.bit_length() - 1
    for _ in range(abs(a.shift)):
        if a.shift > 0:
            r <<= 1
            r ^= d if r & top else 0
        else:
            r = (r ^ d if r & 1 else r) >> 1
    return r


@PROPERTY
@given(masks(4 * _WINDOW + 100), masks(71, min_bits=1))
def test_mask_divmod_is_euclidean_division(a, b):
    q, r = mask_divmod(a, b)
    assert mask_mul(q, b) ^ r == a
    assert r.bit_length() < b.bit_length()


@PROPERTY
@given(masks(4 * _WINDOW + 100), divisors(4 * _WINDOW + 100), st.integers(0, 2**32))
def test_division_routes_return_the_planted_quotient_and_remainder(c, b, seed):
    # a = c*b + r with deg r < deg b has exactly one Euclidean quotient and
    # remainder, whichever route mask_divmod takes; half the cases are exact
    r = random.Random(seed).getrandbits(b.bit_length() - 1) if seed % 2 else 0
    assert mask_divmod(mask_mul(c, b) ^ r, b) == (c, r)
    # exact_div (odd masks, read off the low end) is None exactly when r != 0
    odd = b | 1
    got = F2LaurentPoly._raw(mask_mul(c, odd) ^ r, 3).exact_div(F2LaurentPoly._raw(odd, -2))
    assert got == (None if r else F2LaurentPoly._raw(c, 5))


def test_the_cost_rule_takes_each_route():
    # short quotients and dense long divisors stay on the schoolbook loop
    assert not _series_pays((1 << 5000) - 1, 95_001, 4999)
    assert not _series_pays(0b1011, 40, 3)
    # sparse divisors of long dividends take the series
    assert _series_pays(0b1011, 99_997, 3)
    assert _series_pays(1 | 1 << 64 | 1 << 9, 4000, 64)


@pytest.mark.parametrize(
    "bits, taps",
    [(4, (0, 1)), (65, (0, 6, 1)), (5000, (0, 1700)), (65, None), (5000, None)],
    ids=["4 bits", "65 bits sparse", "5000 bits sparse", "65 bits dense", "5000 bits dense"],
)
def test_division_of_hundred_thousand_bit_masks(bits, taps):
    rng = random.Random(bits)
    if taps is None:
        divisor = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
    else:
        divisor = sum(1 << t for t in taps) | 1 << (bits - 1)
    c = rng.getrandbits(100_000) | 1 | 1 << 99_999
    r = rng.getrandbits(bits - 1) | 1
    a = mask_mul(c, divisor)
    assert mask_divmod(a ^ r, divisor) == (c, r)
    assert mask_divmod(a, divisor) == (c, 0)
    b = F2LaurentPoly._raw(divisor, 0)
    assert F2LaurentPoly._raw(a, 0).exact_div(b) == F2LaurentPoly._raw(c, 0)
    assert F2LaurentPoly._raw(a ^ r, 0).exact_div(b) is None


def test_mask_divmod_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        mask_divmod(5, 0)
    with pytest.raises(ZeroDivisionError):
        mask_mod(5, 0)


def _euclid_gcd(a, b):
    """Oracle: Euclid's algorithm on the remainders of mask_divmod."""
    while b:
        a, b = b, mask_divmod(a, b)[1]
    return a


@PROPERTY
@given(masks(3 * _SHORT), st.one_of(st.just(1), divisors(2 * _SHORT)), masks(40), st.booleans())
def test_remainder_helpers_agree_with_mask_divmod(a, b, g, planted):
    # quotients of up to 3 * _SHORT bits, so both the inline loop and
    # mask_divmod run; b = 1 and a < b occur, and half the pairs share the
    # factor g
    if planted:
        a, b = mask_mul(a, g | 1), mask_mul(b, g | 1)
    assert mask_mod(a, b) == mask_divmod(a, b)[1]
    assert mask_gcd(a, b) == _euclid_gcd(a, b)
    assert mask_gcd(b, a) == _euclid_gcd(b, a)


def test_remainder_helpers_leave_short_quotients_to_the_inline_loop():
    # a quotient of _SHORT bits is never formed; one of _SHORT + 1 bits goes
    # to mask_divmod, once from each helper, with the same remainder
    b = 0b1011
    for bits, calls in ((_SHORT, 0), (_SHORT + 1, 2)):
        a = 1 << (bits + 2) | 0b110101
        with mock.patch("commlab.f2poly.mask_divmod", wraps=mask_divmod) as divmod_:
            assert mask_mod(a, b) == _naive_mod(a, b)
            assert mask_gcd(a, b) == _euclid_gcd(a, b)
        assert divmod_.call_count == calls


@PROPERTY
@given(st.one_of(st.just(1), masks(60, min_bits=1)),
       st.lists(st.one_of(st.just(0), masks(120)), max_size=6),
       st.one_of(st.just(1), st.builds(lambda k: 1 << k, st.integers(1, 9)), masks(30, min_bits=2)),
       st.booleans())
def test_vector_helpers_agree_with_a_euclid_fold_and_mask_divmod(g, vec, p, planted):
    # zeros in vec, g = 1, p = 1 and p a power of x occur; half the cases
    # plant p as a common factor of g and every entry
    if planted:
        g, vec = mask_mul(g, p), [mask_mul(v, p) for v in vec]
    want = g
    for v in vec:  # oracle: the plain fold, no early exit, zeros included
        want = _euclid_gcd(want, v)
    assert mask_content(g, vec, 1) == want
    assert mask_content(g, iter(vec), 1) == want
    assert mask_content(1, vec, 1) == 1
    if planted:
        assert mask_divmod(want, p)[1] == 0
    scaled = masks_scaled(vec, p)
    assert [mask_divmod(x, p) for x in scaled] == [(v, 0) for v in vec]
    assert masks_divided(scaled, p) == vec
    if planted:
        assert masks_divided(vec, p) == [mask_divmod(v, p)[0] for v in vec]


def test_mask_content_stops_reading_once_the_gcd_is_1():
    # over F2: 0b110 = x(x+1), 0b1010 = x(x+1)^2 and 0b111 is irreducible, so
    # from g = x^2(x+1) the gcd is x(x+1) until 0b111 brings it to 1; the zero
    # and 0b1010, which x(x+1) divides, are read but leave a zero remainder and
    # take no gcd step, and nothing after 0b111 is read
    read = []

    def entries():
        for m in (0b110, 0, 0b1010, 0b111, 0b1000, 0b10):
            read.append(m)
            yield m

    with mock.patch("commlab.f2poly.mask_gcd", wraps=mask_gcd) as gcd_:
        assert mask_content(0b1100, entries(), 1) == 1
    assert read == [0b110, 0, 0b1010, 0b111]
    assert gcd_.call_count == 2
    read.clear()
    assert mask_content(1, entries(), 1) == 1 and read == []
    assert mask_content(0b1100, (0b110, 0b1010), 1) == 0b110


@PROPERTY
@given(st.one_of(st.just(0), masks(40), masks(3 * _SHORT)),
       st.one_of(st.just(0), masks(40), masks(3 * _SHORT)),
       masks(40, min_bits=1), st.sampled_from(("drawn", "planted", "equal")))
def test_one_loop_gcd_is_euclid_and_divides_both_operands(a, b, g, case):
    # operands of up to 3 * _SHORT bits against ones of up to 40, so quotients
    # fall on both sides of _SHORT; zeros, a = b and a planted common factor
    if case == "planted":
        a, b = mask_mul(a, g), mask_mul(b, g)
    elif case == "equal":
        b = a
    d = mask_gcd(a, b)
    assert d == _euclid_gcd(a, b) == mask_gcd(b, a)
    if not d:
        assert a == b == 0
        return
    assert mask_divmod(a, d)[1] == 0 and mask_divmod(b, d)[1] == 0
    if case == "planted" and (a or b):
        assert mask_divmod(d, g)[1] == 0
    if case == "equal":
        assert d == a


def _content_by_strands(g, layouts, n):
    """Oracle: the Euclid fold of g over every strand of every layout, read
    off ``mask_deinterleave``, with no early exit."""
    for m in layouts:
        for s in mask_deinterleave(m, n):
            g = _euclid_gcd(g, s)
    return g


def odd_masks(max_deg):
    """An odd poly mask of degree 0 to max_deg."""
    return masks(max_deg + 1, min_bits=1).map(lambda m: m | 1)


@st.composite
def layouts(draw, n, g):
    """Up to four Kronecker layouts of n entries each: 0, a multiple of
    g(x**n) (so g divides every entry), or a drawn mask of up to
    n*(deg g + 2*_SHORT) bits, so that the remainder modulo g(x**n) has a
    quotient of up to 2*_SHORT bits and takes both routes of ``mask_mod``;
    half the time every layout is a multiple of f(x**n), f a drawn factor."""
    width = n * (g.bit_length() + 2 * _SHORT)
    kind = st.sampled_from(("zero", "divisible", "drawn"))
    out = []
    for k in draw(st.lists(kind, max_size=4)):
        m = draw(masks(width))
        out.append(0 if k == "zero" else mask_mul(m, mask_spread(g, n)) if k == "divisible" else m)
    if draw(st.booleans()):
        f = mask_spread(draw(odd_masks(3)), n)
        out = [mask_mul(m, f) for m in out]
    return out


@PROPERTY
@given(st.integers(1, 8), odd_masks(6), st.data())
def test_content_of_layouts_is_the_gcd_of_their_strands(n, g, data):
    vec = data.draw(layouts(n, g))
    want = _content_by_strands(g, vec, n)
    assert mask_content(g, vec, n) == want
    assert mask_content(g, iter(vec), n) == want
    assert mask_content(1, vec, n) == 1


@PROPERTY
@given(st.integers(2, 8), masks(7, min_bits=1), st.integers(-40, 40), st.data())
def test_content_mask_of_a_shifted_map_is_the_gcd_of_its_entries(n, g, shift, data):
    # a PolyMat whose shift is not a multiple of n: content_mask reads its
    # columns as they are, and the oracle reads entry_masks, which first moves
    # each by shift % n; g may be even, so the power of u in the gcd counts too
    cols = data.draw(layouts(n, g).filter(any))[:n]
    a = PolyMat(n, cols + [0] * (n - len(cols)), shift)
    if a.shift % n == 0:
        a = a.shifted(1)
    assert a.content_mask(g) == _content_by_strands(g, [m for row in a.entry_masks()[0] for m in row], 1)


def test_content_takes_one_long_remainder_per_layout():
    # a layout whose remainder modulo g(x**n) has a quotient of _SHORT bits or
    # more goes to mask_divmod once; its strands are then shorter than g
    n, g = 3, 0b1011
    layout = mask_interleave([1 << (_SHORT + 5) | 0b110, 0b101, 1 << (_SHORT + 9)], n)
    with mock.patch("commlab.f2poly.mask_divmod", wraps=mask_divmod) as divmod_:
        assert mask_content(g, [layout], n) == _content_by_strands(g, [layout], n) == 1
    assert divmod_.call_count == 1
    spread = mask_spread(g, n)
    with mock.patch("commlab.f2poly.mask_gcd", wraps=mask_gcd) as gcd_:
        assert mask_content(g, [mask_mul(layout, spread), 0], n) == g
    assert gcd_.call_count == 0


@PROPERTY
@given(st.integers(1, 600), st.data())
def test_geometric_is_its_defining_sum(step, data):
    # counts up to 2*10**4 and spans up to 10**6 bits, drawn near the last
    # count that _closed_form_pays gives the division as often as anywhere,
    # so the rule picks either route; each route is forced too
    top = min(2 * 10**4, 10**6 // step)
    cross = 10**5 // (step * (step + 10))
    count = data.draw(st.one_of(st.integers(0, top),
                                st.integers(max(0, cross - 3), min(top, cross + 3))))
    want = F2LaurentPoly(range(0, step * count, step))
    assert mask_geometric(step, count) == want.mask
    for closed in (False, True):
        with mock.patch.object(f2poly, "_closed_form_pays", lambda s, c: closed):
            assert mask_geometric(step, count) == want.mask


def test_the_geometric_rule_takes_each_route():
    # the division for short series, the doubling for long ones: the timed
    # (step, count) of the rule's docstring, and a few ends
    for step, count in ((1, 10**3), (3, 10**3), (12, 5), (132, 5), (1, 2), (600, 0)):
        assert _closed_form_pays(step, count), (step, count)
    for step, count in ((1, 10**5), (2, 10**4), (30, 10**3), (132, 50), (512, 5), (1, 10**4)):
        assert not _closed_form_pays(step, count), (step, count)


@PROPERTY
@given(st.sets(st.integers(-9, 9)), st.integers(-12, 12), st.integers(-10**3, 10**3))
def test_lamp_power_is_the_power_of_the_inverse_and_the_sum(k, n, e):
    g = LampElement(F2LaurentPoly(k), n)
    assert g**e == lamp_power_by_inverse(g, e)


def test_a_power_of_t_forms_no_series():
    # k = 0: the power is (0, n*e) with no geometric series, whatever e
    with mock.patch("commlab.lamplighter.mask_geometric", wraps=mask_geometric) as geo:
        for n in (-3, -1, 1, 2, 7):
            g = LampElement(F2LaurentPoly.zero(), n)
            for e in range(-2000, 2001):
                assert g**e == LampElement(F2LaurentPoly.zero(), n * e)
        assert geo.call_count == 0
        LampElement(F2LaurentPoly.one(), 1) ** 5
        assert geo.call_count == 1


@PROPERTY
@given(st.sets(st.integers(-5, 5)), st.integers(-3, 3), st.integers(-20, 20))
def test_lamp_power_matches_repeated_products(k, n, e):
    g = LampElement(F2LaurentPoly(k), n)
    factor = g if e >= 0 else g.inverse()
    want = LampElement.identity()
    for _ in range(abs(e)):
        want = want * factor
    assert g**e == want


@PROPERTY
@given(masks(300), st.integers(-2000, 2000),
       st.one_of(masks(300, min_bits=1), sparse_masks(300)))
def test_laurent_divmod_matches_the_shift_step_loop(am, shift, dm):
    a = F2LaurentPoly._raw(am, shift)
    d = dm | 1
    q, r = a.divmod(d)
    assert q * F2LaurentPoly._raw(d, 0) + F2LaurentPoly._raw(r, 0) == a
    assert r.bit_length() < d.bit_length()
    assert r == _rep_by_shift_steps(a, d)


def laurent(max_bits):
    """An F2LaurentPoly with a mask of up to max_bits bits at a shift in -300..300."""
    return st.builds(F2LaurentPoly._raw, masks(max_bits), st.integers(-300, 300))


def kronecker_masks(max_span):
    """Dense masks of up to 200 bits, and sparse ones of up to max_span bits
    with at most four more bits set, so a layout of them may take either
    route of ``_bits_pay``."""
    return st.one_of(masks(200), sparse_masks(max_span), st.just(0))


@PROPERTY
@given(st.integers(1, 40), st.data())
def test_deinterleave_inverts_interleave(n, data):
    ms = data.draw(st.lists(kronecker_masks(10**4), min_size=n, max_size=n))
    a = mask_interleave(ms, n)
    assert a == interleave_by_bits(ms, n)
    assert mask_deinterleave(a, n) == ms == deinterleave_by_bits(a, n)
    # fewer than n masks leave the missing ones 0
    assert mask_deinterleave(mask_interleave(ms[:1], n), n) == ms[:1] + [0] * (n - 1)
    # spreading is the interleave of one mask
    assert mask_spread(ms[0], n) == interleave_by_bits(ms[:1], n)


@PROPERTY
@given(st.integers(1, 140), kronecker_masks(10**4))
def test_strands_split_the_layout(n, a):
    strands = mask_strands(a, n)
    assert len(strands) == n
    assert mask_deinterleave(a, n) == [mask_deinterleave(s, n)[0] for s in strands]
    acc = 0
    for i, s in enumerate(strands):
        assert mask_deinterleave(s, n)[1:] == [0] * (n - 1)  # bits at multiples of n only
        acc ^= s << i
    assert acc == a


def test_sums_and_geometric_series_past_the_span_cap_are_refused():
    # refused before the mask is allocated, as a parsed polynomial is
    one, far = F2LaurentPoly.one(), F2LaurentPoly.t_power(MAX_SPAN + 1)
    huge = F2LaurentPoly.t_power(10**20)
    for a, b in ((one, far), (far, one), (huge, huge.flip()),
                 (F2LaurentPoly([0, 5]), F2LaurentPoly([MAX_SPAN - 2, MAX_SPAN + 1]))):
        with pytest.raises(ResourceLimit, match="spans more than 67108864 bits"):
            a + b
    # on either route of the series, where 2**(10**20) would come first
    for closed in (False, True):
        with mock.patch.object(f2poly, "_closed_form_pays", lambda s, c: closed):
            for step, count, hi in ((1, 10**20 + 1, 10**20), (2, 2**25 + 2, 2**26 + 2),
                                    (600, 10**18, 600 * (10**18 - 1))):
                with pytest.raises(ResourceLimit) as err:
                    mask_geometric(step, count)
                assert str(err.value) == (f"work limit: a polynomial with exponents 0 to {hi} "
                                          "spans more than 67108864 bits")
            assert mask_geometric(2, 2**25 + 1).bit_count() == 2**25 + 1
    # up to the cap they are formed
    assert len(one + F2LaurentPoly.t_power(MAX_SPAN)) == 2
    assert len(F2LaurentPoly([3, 4]) + F2LaurentPoly([3, MAX_SPAN])) == 2


def test_aligned_masks_past_the_span_cap_are_refused():
    # at u = t**n the images span n times the entries' span plus n - 1 bits;
    # a shift of 10**20 shows that the check comes before any mask is moved
    for n, rows, lo, hi in (
            (1, [[(1, 0), (1, MAX_SPAN + 1)]], 0, MAX_SPAN + 1),
            (1, [[(0b11, -10**20)], [(1, 10**20)]], -10**20, 10**20),
            (2, [[(1, 0), (0, 0)], [(0, 0), (1, 2**25)]], 0, 2**26 + 1),
            (2, [[(1 << 2**25 | 1, 0)]], 0, 2**26 + 1),
            (2, [[(1, 10**9), (0, 5)], [(0, 0), (1, -10**9)]], -2 * 10**9, 2 * 10**9 + 1)):
        with pytest.raises(ResourceLimit) as err:
            masks_aligned(rows, n)
        assert str(err.value) == (f"work limit: a polynomial with exponents {lo} to {hi} "
                                  "spans more than 67108864 bits")
    # up to the cap the masks are moved to the least shift of a nonzero one
    assert masks_aligned([[(1, 0), (0, -9), (1, MAX_SPAN)]]) == ([[1, 0, 1 << MAX_SPAN]], 0)
    assert masks_aligned([[(0b101, 4), (0, 0)], [(0, 0), (1, 2)]], 12) == (
        [[0b10100, 0], [0, 1]], 2)
    assert masks_aligned([[(1, 0), (0, 0)], [(0, 0), (1, 2**25 - 1)]], 2)[1] == 0
    assert masks_aligned([[(0, 3)], [(0, -1)]], 4) == ([[0], [0]], 0)


def test_the_conversion_rule_takes_each_route():
    # a few set bits take the set-bit route, at any length up to 2**18
    assert _bits_pay(4, 64, 2) and _bits_pay(60, 240, 60)
    assert _bits_pay(8, 10**4, 6) and _bits_pay(300, 2**18, 6)
    # dense layouts take the string route, and so does any layout with at
    # least 512 + n set bits, however long
    assert not _bits_pay(30, 64, 2) and not _bits_pay(200, 240, 60)
    assert not _bits_pay(5000, 10**4, 6) and not _bits_pay(500, 2**18, 6)
    assert not _bits_pay(2**16, 2**26, 2)


@PROPERTY
@given(laurent(300), st.integers(1, 12))
def test_coordinates_are_the_residue_classes(k, m):
    coords = k_to_coords(k, m)
    assert coords == residue_coords(k, m)
    assert coords_to_k(coords, m) == k


@PROPERTY
@given(laurent(300), laurent(300), laurent(300))
def test_ring_axioms(a, b, c):
    zero, one = F2LaurentPoly.zero(), F2LaurentPoly.one()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a and a + a == zero
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a and a * zero == zero
    assert F2LaurentPoly(a.support()) == a
    assert F2LaurentPoly.from_string(a.to_string()) == a


@PROPERTY
@given(st.sets(st.integers(-(10**5), 10**5), min_size=1, max_size=400), st.integers(0, 2**32))
def test_support_lists_the_terms_on_both_routes(exps, seed):
    # a mask with fewer than one set bit per 512 of its span walks its nonzero
    # bytes, a denser one scans its bit string; crowding the terms into a
    # window of a random width puts draws on both sides of that switch
    lo = min(exps)
    width = random.Random(seed).choice([8, 600, 5000, 2 * 10**5 + 1])
    terms = sorted({lo + (e - lo) % width for e in exps})
    p = F2LaurentPoly(terms)
    assert p.support() == tuple(terms)
    assert F2LaurentPoly.from_string(p.to_string()) == p
