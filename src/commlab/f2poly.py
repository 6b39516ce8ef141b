"""Laurent polynomials over the two-element field.

A polynomial here is determined by its support: the finite set of
integer exponents carrying coefficient 1.  Addition is symmetric
difference of supports and multiplication is carry-less convolution.
Internally the support is packed into a Python int (bit ``i`` of
``mask`` is the coefficient of ``t**(shift + i)``), which keeps ring
operations at machine speed; the public interface speaks exponent sets.

The mask helpers at the top operate on ordinary polynomials (mask bit 0
is the constant term) and are shared with the rational-function and
normal-form layers.  It owns the arithmetic of a vector of masks too:
``mask_content``, the one content gcd, of a mask g and the entries of
masks in the Kronecker layout below (one remainder per mask modulo g
spread to that layout, and a lazy fold over its strands that stops once
the gcd is 1), ``masks_scaled``, the one scale, ``masks_divided``, the
one exact division, and ``masks_aligned``, the one move of (mask, shift)
pairs to a common shift, which a linear part's entries and a map's
images take.

It owns the span cap too: a polynomial whose exponents would span more
than MAX_SPAN bits, whether parsed, a sum, a geometric series or the
images of a map whose masks ``masks_aligned`` moves, raises ResourceLimit
before its mask is allocated.

The Kronecker layout (x = t**n; von zur Gathen and Gerhard, Modern
Computer Algebra, 3rd ed., section 8.4) packs n masks into one whose bit
n*e + i is bit e of mask i.  ``mask_interleave``, ``mask_deinterleave``,
``mask_spread`` and ``mask_strands`` are the only code that does its
arithmetic.  The first three build or read a layout one set bit at a
time, at a few big-int operations on the whole mask per bit, or in one
pass over a string of all its digits, whichever ``_bits_pay`` finds
cheaper: short sparse layouts take the set bits, and a layout with
512 + n set bits or more takes the string however long it is, so neither
route is worse than linear in the length.  ``mask_strands`` splits a
layout into its n strands, each left in place, with one comb of the bits
at the multiples of n; ``_strands_pay`` is the cost rule by which
``PolyMat._act`` maps a mask through them, one carry-less product per
strand, instead of one shift-xor per set bit.  Division by g(x**n) acts
on each strand alone, so ``mask_content`` reduces a whole layout modulo
``mask_spread(g, n)`` and de-interleaves only the remainder, whose strands
are shorter than g.

This is the only module that divides.  ``mask_mod`` is the one
remainder: a quotient of at most _SHORT bits is left unformed, each step
xoring b into the dividend in place, and a longer one goes to
``mask_divmod``, the only long division.  ``mask_gcd`` (Euclid in one loop
over ``mask_mod``) and ``mask_content`` need only its remainders.
``mask_divmod`` picks one of two routes by cost.  The schoolbook loop
spends one xor per quotient bit.  The series route uses b(x)**2 = b(x**2)
over F2:
for b(0) = 1, 1/b = b(x) * b(x**2) * b(x**4) * ... mod x**n, so n
quotient bits cost about popcount(b) * log2(n) big-int shift-xors (von zur
Gathen and Gerhard, Modern Computer Algebra, 3rd ed., section 9.1).  With
w = popcount(b) and L = n.bit_length(), the series is taken when
4*w*L < n and w*L < 2*(deg b + _WINDOW) (``_series_pays``): sparse
divisors of long dividends.  The Laurent ``F2LaurentPoly.divmod`` clears
negative powers from the low end by the series, then calls ``mask_divmod``.

``mask_geometric`` is the one geometric series G(step, count) = 1 +
x**step + ... + x**((count-1)*step), which group powers, derivation
values and level changes multiply or divide by.  A short one is the one
exact division (2**(step*count) - 1) // (2**step - 1), a long one is
doubled along the bits of count, as ``_closed_form_pays`` picks.
"""

from __future__ import annotations

import re

from .errors import ResourceLimit
from .frozen import Value

# mask_divmod's schoolbook loop divides a long dividend this many quotient
# bits at a time.
_WINDOW = 1024
# The series route has a fixed cost (reversals, tap list, the product q*b)
# of about 64 to 96 schoolbook steps, so quotients of at most this many bits
# take the schoolbook loop.
_SHORT = 128
# byte i with its eight bits in reverse order
_BIT_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))
# byte i -> 1 if i is nonzero, and the positions of its set bits
_NONZERO = bytes(min(i, 1) for i in range(256))
_BITS_OF = tuple(tuple(k for k in range(8) if i >> k & 1) for i in range(256))
# the widest span, in bits, of a polynomial built from its exponents, as a sum,
# as a geometric series or as the images of aligned masks: parsing "1+t^N"
# allocates N/8 bytes, so a wider span raises ResourceLimit first
MAX_SPAN = 1 << 26
# the most terms to_string prints: a term costs about 0.6 us and 110 bytes
# while the string is built, so more raise ResourceLimit before any is built
MAX_PRINT_TERMS = 1 << 20


def mask_deg(a: int) -> int:
    """Degree of a nonzero poly mask."""
    return a.bit_length() - 1


def mask_mul(a: int, b: int) -> int:
    """Carry-less product of two poly masks."""
    if a == 0 or b == 0:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a &= a - 1
    return acc


def _series_pays(b: int, n: int, db: int) -> bool:
    """Whether n quotient bits by b (degree db) cost less by the series.

    The series makes w * L shift-xors of n-bit masks (w = popcount(b),
    L = n.bit_length()); a schoolbook step xors about db + min(n, _WINDOW)
    bits.  Measured on CPython 3.11 (x86_64), the series wins once n is
    past about 2 * w * L and, for long dividends, while w * L is below
    about 2.5 * (db + _WINDOW); both bounds keep a margin of about 2.
    """
    wl = b.bit_count() * n.bit_length()
    return 4 * wl < n and wl < 2 * (db + _WINDOW)


def _bits_pay(pop: int, length: int, n: int) -> bool:
    """Whether a Kronecker layout of length bits in n strands, pop of them
    set, is built or read for less one set bit at a time.

    Measured on CPython 3.11 (x86_64) at lengths 16 to 2**18 and n = 2 to
    60, the string route costs about 1 + n/5 + length/350 us and the
    set-bit route about 0.4 + length/170000 us per set bit.  So the set
    bits win while pop < 4 + n + length/128 on short layouts, with some
    margin; the factor 1 + length/65536 on pop is the per-bit cost that
    grows with the length, and it keeps pop below 512 + n on long ones.
    """
    return pop * (65536 + length) < 65536 * (4 + n) + 512 * length


def _strands_pay(pop: int, n: int, bits: int) -> bool:
    """Whether an F2[u]-linear map of K, u = t**n, whose n column masks
    have bits set bits in all, acts on a mask with pop set bits for less
    one strand at a time (``mask_strands``, a product per column) than one
    shift-xor per set bit (``PolyMat._act``).

    A strand's product loops over the set bits of the sparser of its
    column and its strand, so the strands make at most min(pop, bits) loop
    steps where the set bits make pop.  Measured on CPython 3.11 (x86_64)
    in ``_act``'s one loop, a set bit costs about 0.3-0.45 us to read and
    0.1 us more per raised copy, and a strand one to two set bits, so the
    strands pay once pop > c*n + min(pop, bits) for c between 1 and 2;
    the rule takes c = 2, so pop > 2*n + bits.  Timed by both routes, with
    all its raised copies, on every mask that one seed-1 pass of the
    benchmark's lamp_mix (6929 masks, n <= 6) and lamp_large (1263 masks,
    n <= 12) maps, the rule comes within 1.3% and 2.0% of the cheaper
    route of each mask; the set bits alone are 2% and 145% above that, the
    rules with n or 3*n for 2*n, or bits / 2 for bits, within about 2% of
    this one, and 6*n 9% above it on lamp_large.
    """
    return pop > 2 * n + bits


def _closed_form_pays(step: int, count: int) -> bool:
    """Whether G(step, count) = 1 + x**step + ... + x**((count-1)*step) costs
    less as the one exact division (2**(step*count) - 1) // (2**step - 1)
    than by doubling along the bits of count (``mask_geometric``).

    The doubling spends a Python step per bit of count and a shift-or of
    the series so far; the division one pass over its step*count bits,
    about step/30 passes once the divisor has more than one 30-bit digit.
    Timed on CPython 3.11 (x86_64), the division is 2-5x faster on short
    series, (step, count) = (1, 10**3) 0.6 against 2.2 us, (3, 10**3) 0.9
    against 1.6 and (12, 5) 0.3 against 0.6, and slower on long ones,
    (1, 10**5) 28 against 10 us, (2, 10**4) 5.7 against 4.6, (30, 10**3) 8.6
    against 2.9, (132, 50) 4.5 against 1.2 and (512, 5) 3.2 against 0.6.
    Searched along count at steps 1 to 384, the division wins up to
    step*count of about 5500-8000 bits for step <= 30, and up to
    step*step*count of about 0.7-1.1 * 10**5 above; the rule
    step*count*(step + 10) < 10**5 puts each crossing within 2x of its
    length, where the two routes cost about the same.
    """
    return step * count * (step + 10) < 100000


def _series_quot(a: int, b: int, n: int) -> int:
    """a / b mod x**n for b(0) = 1: a times b(x) * b(x**2) * b(x**4) * ...

    Each factor multiplies by the taps of b, doubled once per round; a tap
    that reaches n contributes nothing mod x**n, and when none is left the
    product is b**(2**k - 1) with b**(2**k) = 1 mod x**n.
    """
    keep = (1 << n) - 1
    q = a & keep
    taps = []
    rest = (b & keep) >> 1
    while rest:
        taps.append((rest & -rest).bit_length())
        rest &= rest - 1
    while taps:
        acc = q
        for t in taps:
            acc ^= q << t
        q = acc & keep
        taps = [t << 1 for t in taps if t << 1 < n]
    return q


def mask_divmod(a: int, b: int) -> tuple[int, int]:
    """Euclidean division a = q*b + r with deg r < deg b.  Requires b != 0.

    Two routes, for n quotient bits, w = popcount(b) and L = n.bit_length().
    The series route, taken when 4*w*L < n and w*L < 2*(deg b + _WINDOW)
    (``_series_pays``), reverses the coefficients: rev q = rev a *
    (rev b)**-1 mod x**n, where rev b has constant term 1, and r = a + q*b.
    The schoolbook route spends one xor per quotient bit, of masks of at
    most deg b + _WINDOW + 1 bits: a long dividend is divided one top
    window at a time, and each window's remainder is spliced back into it.
    Quotients of at most _SHORT bits take the schoolbook loop.
    """
    if b <= 1:
        if b == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return a, 0
    db = b.bit_length() - 1
    k = a.bit_length() - 1 - db  # degree of the next quotient term
    if k >= _SHORT and _series_pays(b, k + 1, db):
        rq = _series_quot(mask_reverse(a >> db), mask_reverse(b), k + 1)
        q = mask_reverse(rq) << (k + 1 - rq.bit_length())
        return q, a ^ mask_mul(q, b)
    q = 0
    while k >= 0:
        if k > _WINDOW:  # divide the top window alone, splice the rest back
            s = k - _WINDOW
            qh, h = mask_divmod(a >> s, b)
            q |= qh << s
            a = h << s | a & ((1 << s) - 1)
        else:
            a ^= b << k
            q |= 1 << k
        k = a.bit_length() - 1 - db
    return q, a


def mask_geometric(step: int, count: int) -> int:
    """The poly mask of 1 + x**step + x**(2*step) + ... + x**((count-1)*step),
    count >= 0.  Raises ResourceLimit, before allocating, when it would span
    more than MAX_SPAN bits.

    A short series is the exact division (2**(step*count) - 1) //
    (2**step - 1), a long one is built by doubling along the bits of count,
    O(log count) big-int shifts and ors, as ``_closed_form_pays`` picks: the
    division is quadratic in step, the doubling pays a Python step per bit of
    count."""
    if step * (count - 1) > MAX_SPAN:
        raise _span_limit(0, step * (count - 1))
    if _closed_form_pays(step, count):
        return ((1 << step * count) - 1) // ((1 << step) - 1)
    mask, n = 0, 0  # mask holds the first n terms
    for bit in bin(count)[2:]:
        mask |= mask << (step * n)
        n *= 2
        if bit == "1":
            mask |= 1 << (step * n)
            n += 1
    return mask


def mask_mod(a: int, b: int) -> int:
    """a mod b.  A quotient of at most _SHORT bits is never formed: the
    schoolbook loop xors b into a and keeps no quotient bits.  Longer
    quotients go to ``mask_divmod``, and so does b = 0, which raises
    ZeroDivisionError."""
    db = b.bit_length() - 1
    k = a.bit_length() - 1 - db
    if k >= _SHORT or b == 0:
        return mask_divmod(a, b)[1]
    while k >= 0:
        a ^= b << k
        k = a.bit_length() - 1 - db
    return a


def mask_gcd(a: int, b: int) -> int:
    """gcd of two poly masks by Euclid's algorithm in one loop over
    ``mask_mod``, the one remainder."""
    while b:
        a, b = b, mask_mod(a, b)
    return a


def mask_content(g: int, masks, n: int) -> int:
    """gcd of the nonzero poly mask g and every entry of the masks of the
    iterable masks, each read as the Kronecker layout of n entries (n = 1:
    each mask is one entry).

    Division by g(x**n) acts on each strand of a layout alone, so one
    remainder of a mask modulo g(x**n) has as strands its entries mod g,
    each shorter than g, and gcds are taken only on the strands of a
    nonzero remainder; g(x**n) is spread again whenever g shrinks.  The
    masks are read lazily: once the gcd is 1 no entry can change it, so it
    returns without reading another (at once for g = 1)."""
    if g == 1:
        return 1
    spread = mask_spread(g, n)
    for m in masks:
        r = mask_mod(m, spread) if m else 0
        if r:  # a nonzero strand is shorter than g, so g shrinks
            for s in mask_deinterleave(r, n):
                if s:
                    g = mask_gcd(g, s)
                    if g == 1:
                        return 1
            spread = mask_spread(g, n)
    return g


def masks_scaled(masks: list, f: int) -> list:
    """The poly masks times f; by f = 1 the list itself."""
    return masks if f == 1 else [mask_mul(f, m) if m else 0 for m in masks]


def masks_divided(masks: list, p: int) -> list:
    """The exact quotients of the poly masks by p (by a power of x, a shift)."""
    if p & (p - 1) == 0:
        k = p.bit_length() - 1
        return [m >> k for m in masks] if k else masks
    return [mask_divmod(m, p)[0] if m else 0 for m in masks]


def masks_aligned(rows, n: int = 1) -> tuple[list[list[int]], int]:
    """The rows of (mask, shift) pairs as rows of masks moved to the least
    shift of a nonzero one, and that shift (0 when every mask is 0).

    The masks are entries in u = t**n of a map whose images in K are built
    from them, entry (i, j) at u**e going to t**(n*e + i), so the images
    span n times the entries' span in u, plus n - 1, bits: past MAX_SPAN
    that raises ResourceLimit before any mask is moved (for n = 1 the pairs
    are elements of K).  The rows are read as given, with no flat copy."""
    lo = min((s for row in rows for m, s in row if m), default=0)
    # one past the highest exponent in u
    hi = max((s + m.bit_length() for row in rows for m, s in row if m), default=lo)
    if n * (hi - lo) - 1 > MAX_SPAN:
        raise _span_limit(n * lo, n * hi - 1)
    return [[m << s - lo if m else 0 for m, s in row] for row in rows], lo


def mask_lcm(a: int, b: int) -> int:
    """The lcm of a and b, not both 0."""
    return mask_mul(b, mask_divmod(a, mask_gcd(a, b))[0])


def mask_interleave(masks, n: int) -> int:
    """The mask whose bit n*e + i is bit e of masks[i], for a sequence of
    one to n masks (missing ones are 0): sum of masks[i](x**n) * x**i.
    Built one set bit at a time or from one string of its digits, as
    ``_bits_pay`` picks."""
    if n == 1:
        return masks[0]
    w = max(masks).bit_length()
    if _bits_pay(sum(map(int.bit_count, masks)), n * w, n):
        acc = 0
        for i, m in enumerate(masks):
            while m:
                e = m.bit_length() - 1
                m ^= 1 << e
                acc |= 1 << n * e + i
        return acc
    # character n*(w-1-e) + (n-1-i) of the n*w-digit string is bit n*e + i
    digits = bytearray(b"0" * (n * w))
    for i, m in enumerate(masks):
        if m:
            digits[n - 1 - i::n] = format(m, "b").zfill(w).encode()
    return int(digits or b"0", 2)


def mask_deinterleave(a: int, n: int) -> list[int]:
    """The n masks whose bit e is bit n*e + i of a; inverts mask_interleave.
    Read one set bit at a time or off one string of its digits, as
    ``_bits_pay`` picks."""
    if n == 1:
        return [a]
    if _bits_pay(a.bit_count(), a.bit_length(), n):
        out = [0] * n
        while a:
            p = a.bit_length() - 1
            a ^= 1 << p
            out[p % n] |= 1 << p // n
        return out
    w = -(-a.bit_length() // n)
    digits = format(a, "b").zfill(n * w)
    return [int(digits[n - 1 - i::n] or "0", 2) for i in range(n)]


def mask_spread(a: int, k: int) -> int:
    """Substitute x -> x**k into a poly mask (k >= 1): the interleave of
    the one mask a, by the route ``_bits_pay`` picks."""
    if k == 1 or not _bits_pay(a.bit_count(), k * a.bit_length(), k):
        return mask_interleave((a,), k)
    acc = 0
    while a:
        e = a.bit_length() - 1
        a ^= 1 << e
        acc |= 1 << k * e
    return acc


def mask_strands(a: int, n: int) -> list[int]:
    """The n strands of the layout a: strand i keeps the bits n*e + i of a,
    moved to n*e, so a is the sum of strand i times x**i.  Each is a and
    one comb of the bits at the multiples of n, after a shift by i.  The
    comb doubles its teeth per step, a few big-int shifts and ors (a long
    division of 2**(n*w) - 1 by 2**n - 1 took 2-4x as long at 10**5 bits)."""
    if n == 1:
        return [a]
    w = -(-a.bit_length() // n)
    comb, k = 1, 1  # comb has k teeth
    while k < w:
        comb |= comb << n * k
        k *= 2
    return [a >> i & comb for i in range(n)]


def mask_reverse(a: int) -> int:
    """Reverse the coefficients of a nonzero poly mask (x -> 1/x up to a shift)."""
    nbytes = (a.bit_length() + 7) // 8
    rev = int.from_bytes(a.to_bytes(nbytes, "little").translate(_BIT_REVERSED), "big")
    return rev >> (8 * nbytes - a.bit_length())


_TERM_RE = re.compile(r"1|[ts](?:\^(-?\d+))?")
_ONE = re.compile("1")


class F2LaurentPoly(Value):
    """Finitely supported element of F2[t, 1/t], i.e. a sum of distinct powers of t.

    Instances are immutable and hashable; equality is equality of
    supports.  The zero polynomial has empty support.
    """

    __slots__ = ("mask", "shift")

    def __init__(self, support=()):
        exps = set(support)
        self.mask, self.shift = _pack(exps) if exps else (0, 0)

    @classmethod
    def _raw(cls, mask: int, shift: int) -> "F2LaurentPoly":
        self = object.__new__(cls)
        if mask == 0:
            self.mask, self.shift = 0, 0
            return self
        low = (mask & -mask).bit_length() - 1
        self.mask = mask >> low
        self.shift = shift + low
        return self

    @classmethod
    def zero(cls) -> "F2LaurentPoly":
        return cls._raw(0, 0)

    @classmethod
    def one(cls) -> "F2LaurentPoly":
        return cls._raw(1, 0)

    @classmethod
    def t_power(cls, e: int) -> "F2LaurentPoly":
        return cls._raw(1, e)

    def support(self) -> tuple[int, ...]:
        """The exponents in ascending order.  A mask with fewer than one set
        bit per 512 of its length is read off its nonzero bytes, which one
        translate and one find per byte locate, so it costs about a byte per
        8 bits of span; a denser one off one scan of its bit string, which
        costs a character per bit but less per set bit.  Timed at lengths
        4096 to 2**22, the byte walk is 1.3-2x slower than the scan at one
        set bit per 128-256 bits, about even at one per 512 and faster
        beyond."""
        mask, shift = self.mask, self.shift
        if mask.bit_count() * 512 < mask.bit_length():
            buf = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
            nonzero = buf.translate(_NONZERO)
            out = []
            i = nonzero.find(1)
            while i >= 0:
                out.extend(shift + 8 * i + k for k in _BITS_OF[buf[i]])
                i = nonzero.find(1, i + 1)
            return tuple(out)
        top = shift + mask.bit_length() - 1
        return tuple(top - m.start() for m in _ONE.finditer(format(mask, "b")))[::-1]

    @property
    def max_exp(self) -> int:
        if self.mask == 0:
            raise ValueError("zero polynomial has no exponents")
        return self.shift + self.mask.bit_length() - 1

    def is_zero(self) -> bool:
        return self.mask == 0

    def __bool__(self):
        return self.mask != 0

    def __len__(self):
        return self.mask.bit_count()

    def __add__(self, other):
        """The sum.  Raises ResourceLimit, before allocating, when the two
        exponent ranges together span more than MAX_SPAN bits."""
        if not isinstance(other, F2LaurentPoly):
            return NotImplemented
        a, sa, b, sb = self.mask, self.shift, other.mask, other.shift
        if a == 0:
            return other
        if b == 0:
            return self
        if sa > sb:  # a starts lowest, and b is shifted onto it
            a, sa, b, sb = b, sb, a, sa
        if sb - sa + b.bit_length() > MAX_SPAN + 1 or a.bit_length() > MAX_SPAN + 1:
            raise _span_limit(sa, max(sa + a.bit_length(), sb + b.bit_length()) - 1)
        return F2LaurentPoly._raw(a ^ b << sb - sa, sa)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        if not isinstance(other, F2LaurentPoly):
            return NotImplemented
        return F2LaurentPoly._raw(
            mask_mul(self.mask, other.mask), self.shift + other.shift
        )

    def shifted(self, k: int) -> "F2LaurentPoly":
        """Multiply by t**k."""
        return F2LaurentPoly._raw(self.mask, self.shift + k)

    def spread(self, k: int) -> "F2LaurentPoly":
        """Substitute t -> t**k (k >= 1)."""
        return F2LaurentPoly._raw(mask_spread(self.mask, k), self.shift * k)

    def flip(self) -> "F2LaurentPoly":
        """Substitute t -> 1/t."""
        if self.mask == 0:
            return self
        return F2LaurentPoly._raw(
            mask_reverse(self.mask), -(self.shift + self.mask.bit_length() - 1)
        )

    def exact_div(self, other: "F2LaurentPoly"):
        """Exact quotient self/other in F2[t,1/t], or None if not divisible."""
        if other.mask == 0:
            raise ZeroDivisionError("division by zero polynomial")
        q, r = mask_divmod(self.mask, other.mask)
        return None if r else F2LaurentPoly._raw(q, self.shift - other.shift)

    def divmod(self, d: int) -> tuple["F2LaurentPoly", int]:
        """(q, r) with self = q*d + r for a poly mask d with d(0) = 1 and r the
        poly mask of degree < deg d, the canonical representative of self mod d.
        Below t**0, q is self/d mod t**-shift by the series, which leaves a
        polynomial self - q*d for mask_divmod."""
        a, k = self.mask, self.shift
        if k >= 0:
            q, r = mask_divmod(a << k, d)
            return F2LaurentPoly._raw(q, 0), r
        low = _series_quot(a, d, -k)
        q, r = mask_divmod((a ^ mask_mul(low, d)) >> -k, d)
        return F2LaurentPoly._raw(q << -k | low, k), r

    def to_string(self, var: str = "t") -> str:
        if self.mask == 0:
            return "0"
        if len(self) > MAX_PRINT_TERMS:
            raise ResourceLimit(f"work limit: printing a polynomial needs {len(self)} terms, "
                                f"above the {MAX_PRINT_TERMS}-term limit")
        terms = ["1" if e == 0 else var if e == 1 else f"{var}^{e}" for e in self.support()]
        return "+".join(terms)

    @classmethod
    def from_string(cls, text: str) -> "F2LaurentPoly":
        """Parse ``0``, or ``+``-joined terms ``1 | t | t^<int>`` (``s`` accepted too).

        Spaces are dropped; every other character belongs to a term, which
        must match whole, so a newline makes its term bad.  One term is
        t**e at once; more are packed, where a repeated exponent cancels."""
        if not isinstance(text, str):
            raise TypeError(f"a polynomial must be a string, got {text!r}")
        text = text.replace(" ", "")
        if text == "0":
            return cls.zero()
        exps = []
        for term in text.split("+"):
            m = _TERM_RE.fullmatch(term)
            if not m:
                raise ValueError(f"bad polynomial term: {term!r}")
            exps.append(0 if term == "1" else int(m.group(1) or 1))
        if len(exps) == 1:
            return cls._raw(1, exps[0])
        return cls._raw(*_pack(exps))

    def __str__(self):
        return self.to_string()

    # the one repr besides Value's: every lamplighter value prints through
    # this atom, and its mask may pass CPython's 4300-digit int-to-str limit
    def __repr__(self):
        return f"F2LaurentPoly({self.to_string()!r})"


def _pack(exps) -> tuple[int, int]:
    """The mask and shift of the sum of t**e over the nonempty exps, where a
    repeated exponent cancels: one bit toggle per term in a byte buffer.
    Raises ResourceLimit, before allocating, for a span above MAX_SPAN."""
    lo = min(exps)
    span = max(exps) - lo
    if span > MAX_SPAN:
        raise _span_limit(lo, lo + span)
    buf = bytearray(span // 8 + 1)
    for e in exps:
        e -= lo
        buf[e >> 3] ^= 1 << (e & 7)
    return int.from_bytes(buf, "little"), lo


def _span_limit(lo: int, hi: int) -> ResourceLimit:
    """The error for a polynomial with exponents lo to hi, past MAX_SPAN."""
    return ResourceLimit(f"work limit: a polynomial with exponents {lo} to {hi} "
                         f"spans more than {MAX_SPAN} bits")
