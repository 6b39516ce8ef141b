"""The lamplighter group and its commensurations in canonical coordinates.

The group is K x| Z where K is the direct sum of copies of Z/2Z indexed
by Z and the generator t of Z shifts indices.  We model K additively as
F2 Laurent polynomials (the lamp at position i is t**i), so conjugation
by t**n is multiplication by t**n.

A commensuration is stored as a triple (der, lin, flip):

* ``der``    -- a virtual derivation, recorded by its level m >= 1 and
                its value v = tau(t**m) in K;
* ``lin``    -- a t**m-equivariant commensuration of K, i.e. an
                invertible m x m matrix over F2(s) acting on the
                coordinates of K in the basis (1, t, ..., t**(m-1))
                over F2[s, 1/s] with s = t**m;
* ``flip``   -- whether the class inverts the Z-direction
                (t -> 1/t, lamp i -> lamp -i).

The triple acts by (k, n) -> (lin(flip(k)) + tau(t**(eps*n)), eps*n)
with eps = -1 exactly when flip is set, and composition is right to
left.  Canonical forms use the minimal level from which each component
arises by raising, so equality of classes is equality of triples.

Conventions fixed here once and for all:

* flip conjugation of the linear part is A -> R * A(1/s) * R**-1 where
  R is the basis-reversal matrix with R[0][0] = 1 and
  R[m-j][j] = 1/s for j = 1, ..., m-1 (this is the coordinate matrix of
  k -> k(1/t) at level m);
* flip conjugation of a derivation value is v -> t**m * v(1/t).
"""

from __future__ import annotations

import math

from . import ratfun
from .errors import (
    DimensionMismatch,
    ExponentMismatch,
    NotAHomomorphism,
    NotDivisible,
    OutOfDomain,
    ResourceLimit,
    SingularMatrix,
    json_int,
    json_matrix,
    json_object,
)
from .f2poly import (
    F2LaurentPoly,
    mask_content,
    mask_deg,
    mask_divmod,
    mask_gcd,
    mask_geometric,
    mask_interleave,
    mask_lcm,
    mask_mod,
    mask_mul,
    mask_reverse,
    mask_spread,
    masks_aligned,
    masks_divided,
    masks_scaled,
)
from .frozen import Value
from .polymat import PolyMat, gauss_jordan

# Composing at the lcm of two levels, and the derivation image of a composite
# or inverse, may need a higher level; the work grows with it (a LEVEL_CAP x
# LEVEL_CAP matrix over F2(s)), so _scaled_to, which raise_to and compose call
# first, and the j search stop at the cap.
LEVEL_CAP = 512

_ZERO = F2LaurentPoly.zero()
_ONE = F2LaurentPoly.one()


def _fold(v: int, m: int) -> int:
    """The poly mask v mod 1 + t**m, the one reduction of ``least_level``.

    t**m is 1 modulo 1 + t**m, so v is congruent to its part below any
    multiple h of m xored with the part above, moved down by h.  With h
    the multiple of m at about half the length, each fold halves v, until
    it has at most m bits: about log2(len(v) / m) big-int shifts, ands and
    xors, where a division by 1 + t**m spends one xor per quotient bit.
    Timed against ``mask_mod`` in turn in one process (CPython 3.11,
    x86_64): 1.1 against 5.2 us per value on the derivations of the
    compose_high ops of the benchmark's lamp_large (seed 1), 0.3 against
    0.4-0.6 us on those of lamp_mix, and 12 against 157 us on 10**5 bits
    with m = 1."""
    while v.bit_length() > m:
        blocks = -(-v.bit_length() // m)  # of m bits, the last one short
        h = (blocks + 1) // 2 * m
        v = (v >> h) ^ (v & ((1 << h) - 1))
    return v


def _least_level(m: int, arises_from) -> int:
    """Least divisor d of m with arises_from(d), else m, for a test that
    holds at m and whose divisors of m that pass are the multiples of the
    least one: the rotations that fix a cyclic word of m bits, and the
    powers of t with which a level-m map commutes, form subgroups of Z/m.

    So the least level is reached by prime descent from m: for each prime
    p of m, d is replaced by d/p while arises_from(d/p) holds, at most as
    many tests as m has prime factors with multiplicity, where an ascending
    scan tests every divisor below the answer."""
    d, rest, p = m, m, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # the prime left
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            while e and arises_from(d // p):
                d //= p
                e -= 1
        p += 1
    return d


def _power_k(k: F2LaurentPoly, n: int, e: int) -> F2LaurentPoly:
    """The K-part of (k, n)**e, for any integer e, on masks.

    (k, n)**e is (sum of t**(n*i) * k over i in I, n*e), with I = [0, e) for
    e >= 0 and [e, 0) for e < 0, as (k, n)**-1 = (t**-n * k, -n).  For
    n != 0 that sum is k times the geometric series G(|n|, |e|) of
    ``mask_geometric``, shifted to the least n*i: one series, one product
    and one shift, with no element built and no recursion through the
    inverse.  For k = 0 no series is formed, and for n = 0 the sum is k
    when e is odd and 0 otherwise."""
    if not k or not e:
        return _ZERO
    if n == 0:
        return k if e % 2 else _ZERO
    lo = min(e, 0)  # I = [lo, lo + |e|)
    low = n * lo if n > 0 else n * (lo + abs(e) - 1)
    return F2LaurentPoly._raw(mask_mul(k.mask, mask_geometric(abs(n), abs(e))), k.shift + low)


# ---------------------------------------------------------------------------
# group elements


class LampElement(Value):
    """Element (k, n) of K x| Z; identity is (0, 0)."""

    __slots__ = ("k", "n")

    def __init__(self, k: F2LaurentPoly, n: int):
        self.k = k
        self.n = n

    @classmethod
    def identity(cls) -> "LampElement":
        return cls(_ZERO, 0)

    @classmethod
    def lamp(cls, i: int) -> "LampElement":
        return cls(F2LaurentPoly.t_power(i), 0)

    @classmethod
    def shift(cls, n: int = 1) -> "LampElement":
        return cls(_ZERO, n)

    def __mul__(self, other):
        if not isinstance(other, LampElement):
            return NotImplemented
        return LampElement(self.k + other.k.shifted(self.n), self.n + other.n)

    def inverse(self) -> "LampElement":
        return LampElement(self.k.shifted(-self.n), -self.n)

    def __pow__(self, e: int) -> "LampElement":
        """g**e for any integer e: the K-part of ``_power_k``."""
        return LampElement(_power_k(self.k, self.n, e), self.n * e)

    def to_json(self):
        return {"k": self.k.to_string(), "n": self.n}

    @classmethod
    def from_json(cls, obj) -> "LampElement":
        obj = json_object(obj, "a lamplighter element")
        return cls(F2LaurentPoly.from_string(obj["k"]), json_int(obj["n"]))


# ---------------------------------------------------------------------------
# virtual derivations


class VDerElt(Value):
    """Virtual derivation from a finite-index subgroup of Z into K.

    Recorded by its level m (the derivation is defined on m*Z) and the
    value tau(t**m).  The cocycle rule tau(t**(a+b)) = tau(t**a) +
    t**a * tau(t**b) makes tau(t**(q*m)) the K-part of (tau(t**m), m)**q
    in K x| Z, so values at other levels are read off group powers: for
    q > 0, tau(t**m) times G(m, q) = 1 + t**m + ... + t**((q-1)*m).  These
    series telescope, G(d, a*b) = G(d, a) * G(a*d, b), so a value at any
    level that the derivation arises from is one product or one exact
    division away from the value at any other.
    """

    __slots__ = ("level", "value")

    def __init__(self, level: int, value: F2LaurentPoly):
        if level < 1:
            raise ExponentMismatch(f"derivation level must be >= 1, got {level}")
        self.level = level
        self.value = value

    @classmethod
    def zero(cls) -> "VDerElt":
        return cls(1, _ZERO)

    def raise_to(self, n: int) -> "VDerElt":
        if n == self.level:
            return self
        return VDerElt(n, self.eval_at(n))

    def least_level(self) -> int:
        """The least level d | m from which the derivation arises.

        Raising from d multiplies the value by G_d = 1 + t**d + ... +
        t**(m-d) = (1 + t**m) / (1 + t**d), so v arises from d exactly when
        1 + t**m divides v * (1 + t**d).  Reduced mod 1 + t**m by the
        halving fold (``_fold``), v is the m-bit cyclic word w, and
        w * t**d is w rotated by d, so that holds exactly when rotating w
        by d fixes it.  The d
        that fix w form the subgroup of Z/m generated by its least period,
        so the least divisor that fixes w is the least level.
        """
        v = self.value
        if v.is_zero():
            return 1
        m = self.level
        w = _fold(v.mask, m)
        full = (1 << m) - 1
        return _least_level(m, lambda d: (w << d | w >> (m - d)) & full == w)

    def at_level(self, n: int) -> "VDerElt":
        """The same derivation at level n, a multiple of its least level.

        That level divides g = gcd(m, n), so the value is lowered to g by
        one exact division by G(g, m/g) and raised to n by one product
        with G(g, n/g); a level that divides m takes the division alone,
        a multiple of m the product alone."""
        m = self.level
        if n == m:
            return self
        g = math.gcd(m, n)
        v, shift = self.value.mask, self.value.shift
        if g < m:
            v = mask_divmod(v, mask_geometric(g, m // g))[0]
        if g < n:
            v = mask_mul(v, mask_geometric(g, n // g))
        return VDerElt(n, F2LaurentPoly._raw(v, shift))

    def canonical(self) -> "VDerElt":
        """The same derivation at its least level."""
        return self.at_level(self.least_level())

    def flip_conj(self) -> "VDerElt":
        """Conjugate by the orientation flip, at the same level."""
        return VDerElt(self.level, self.value.flip().shifted(self.level))

    def eval_at(self, n: int) -> F2LaurentPoly:
        """tau(t**n), n a multiple of the level: the K-part of
        (value, level)**(n/level), read off masks by ``_power_k`` (one
        geometric series, one product and one shift), with no group element
        built."""
        if n % self.level:
            raise NotDivisible(f"{self.level} does not divide {n}")
        return _power_k(self.value, self.level, n // self.level)


# ---------------------------------------------------------------------------
# equivariant commensurations of K


def _min_u_power_poly(d: int, k: int) -> int:
    """Minimal D (mask, variable w) with d(u) dividing D(u**k); d odd."""
    uk = mask_mod(1 << k, d)
    pivots = {}
    cur = mask_mod(1, d)
    j = 0
    while True:
        r, combo = cur, 1 << j
        while r:
            lead = r.bit_length() - 1
            hit = pivots.get(lead)
            if hit is None:
                break
            r ^= hit[0]
            combo ^= hit[1]
        if r == 0:
            return combo
        pivots[r.bit_length() - 1] = (r, combo)
        j += 1
        cur = mask_mod(mask_mul(cur, uk), d)


class CommInftyElt(Value):
    """Equivariant commensuration of K with an F2[t**m, t**-m]-linear
    representative, stored as num/den with num an F2[s, 1/s]-linear map
    of K (a PolyMat, by the images of 1, t, ..., t**(m-1)) and den a
    scalar polynomial in s = t**m.

    Invariants: den has nonzero constant term and shares no factor with
    the gcd of the numerator entries.  Equality of canonical instances
    is equality of commensuration classes.
    """

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, num: PolyMat, den: int = 1):
        """num is the nonzero numerator of an invertible matrix and den
        has nonzero constant term; their common factor is divided out.
        It is the gcd of den and the entries of num, which
        ``PolyMat.content_mask`` takes by one remainder of each column
        modulo den(s), reading no column entry by entry.

        This is the reducing constructor, for num / den that may share a
        factor: compose and the lowering of at_level build through it.
        raise_to, flip_conj, from_entries and inverse, whose num and den
        are coprime by construction, build through _coprime instead."""
        g = num.content_mask(den)
        if g > 1:
            den = mask_divmod(den, g)[0]
            num = num.scalar_div(g)
        self.level = level
        self.num = num
        self.den = den

    @classmethod
    def _coprime(cls, level: int, num: PolyMat, den: int) -> "CommInftyElt":
        """num / den as given, for a den prime to the content of num.

        Its four callers meet that by construction:

        * raise_to, from level m to n = k*m: dw is the least D with den
          dividing D(s**k), and the raised numerator is num * dw(s**k) / den
          over F2[w], w = s**k.  If a prime p(w) divided dw and every
          raised entry, then den would divide c * (dw / p)(s**k), where c is
          the content of num; since c is prime to den, den would divide
          (dw / p)(s**k), against the least choice of dw.
        * flip_conj: s -> 1/s and the factor s**deg den map the content of
          num and den to their reversals, up to powers of s, and reversal
          keeps polynomials with nonzero constant term coprime.
        * from_entries: each entry is in lowest terms first and den is the
          lcm of their denominators.  If p**a exactly divides den, then
          p**a exactly divides the denominator of some entry, whose
          numerator is then prime to p, and its entry of num is that
          numerator times a factor of den / (its denominator), which p
          does not divide.
        * inverse: it divides out g, the gcd of d = det N / u**v and
          den * adj(N), itself, as g = gcd(d, den * c) for c the gcd of d
          and the entries of adj(N): gcd(d, den * x) = gcd(d, den * gcd(d, x)).
        """
        self = object.__new__(cls)
        self.level = level
        self.num = num
        self.den = den
        return self

    @classmethod
    def identity(cls, level: int = 1) -> "CommInftyElt":
        return cls(level, PolyMat.identity(level))

    @classmethod
    def from_entries(cls, level: int, entries) -> "CommInftyElt":
        """Build from an array of entry strings (see ``ratfun``), the matrix
        num / den over F2(s); raises SingularMatrix if singular.

        Every entry is parsed, in lowest terms, before the level and the
        shape are checked.  den is the lcm of the entry denominators other
        than 1, the least common one, so (1+s^k)/(1+s^k) stays 1 and not a
        dense quotient of it.  Each numerator, times den/d where its d is
        not den, is moved to the least power of s of any entry by
        ``masks_aligned``, which refuses a linear part whose images would
        pass the span cap: one matrix of poly masks, whose columns
        interleave into num and whose elimination tests det = 0 (a common
        power of s changes neither)."""
        rows = [[ratfun.parse(x) for x in row] for row in entries]
        if level < 1:
            raise ExponentMismatch(f"commensuration level must be >= 1, got {level}")
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if len(rows) != level or ncols != level:
            raise DimensionMismatch(
                f"level {level} needs a {level} x {level} matrix, "
                f"got {len(rows)} x {ncols}"
            )
        den = 1
        for row in rows:
            for _, d, _ in row:
                if d != 1:
                    den = mask_lcm(den, d)
        pairs = [[(n if d == den else mask_mul(n, mask_divmod(den, d)[0]), shift) if n else (0, 0)
                  for n, d, shift in row] for row in rows]
        masks, base = masks_aligned(pairs, level)
        num = PolyMat.from_masks(level, masks, base)
        if not gauss_jordan(masks, level):
            raise SingularMatrix("commensuration matrix must be invertible")
        return cls._coprime(level, num, den)

    def to_strings(self, var: str = "t") -> list[list[str]]:
        """The entries of the matrix num / den, as strings in var."""
        masks, shift = self.num.entry_masks()
        return [[ratfun.to_string(mask, self.den, shift, var) for mask in row] for row in masks]

    def raise_to(self, n: int) -> "CommInftyElt":
        """The same map at level n, a multiple of the level: the numerator
        that ``_scaled_to`` gives, raised, over its dw."""
        if n == self.level:
            return self
        num, dw = self._scaled_to(n)
        return CommInftyElt._coprime(n, num.raised(n // self.level), dw)

    def _scaled_to(self, n: int) -> tuple[PolyMat, int]:
        """(num * dw(s**k) / den, dw) at this level m, for k = n / m: dw is
        the least D with den dividing D(s**k), so at level n the map is that
        numerator, raised by k, over dw (in w = s**k).  For n = m it is
        (num, den).  A level n above LEVEL_CAP raises ResourceLimit before
        any work."""
        m = self.level
        if n == m:
            return self.num, self.den
        if n % m:
            raise NotDivisible(f"{m} does not divide {n}")
        if n > LEVEL_CAP:
            raise ResourceLimit(
                f"work limit: raising a linear part from level {m} to level {n} "
                f"passes {LEVEL_CAP}"
            )
        if self.den == 1:
            return self.num, 1
        k = n // m
        dw = _min_u_power_poly(self.den, k)
        # den divides dw(s**k) by the choice of dw
        return self.num.scalar_mul(mask_divmod(mask_spread(dw, k), self.den)[0]), dw

    def least_level(self) -> int:
        """The least level d | m at which the map is equivariant: the least
        d with which num commutes."""
        return _least_level(self.level, self.num.commutes_with)

    def at_level(self, n: int) -> "CommInftyElt":
        """The same map at level n, a multiple of its least level.

        That level divides g = gcd(m, n), so the map commutes with t**g: it
        is lowered to g at once, over the denominator den(s**(m/g)) in
        the variable t**g, and raised from g to n.  A level that divides m
        takes the lowering alone, a multiple of m the raising alone."""
        m = self.level
        g = math.gcd(m, n)
        low = self
        if g < m:
            low = CommInftyElt(g, self.num.lowered(m // g), mask_spread(self.den, m // g))
        return low.raise_to(n)

    def canonical(self) -> "CommInftyElt":
        """The same map at its least level."""
        return self.at_level(self.least_level())

    def compose(self, other: "CommInftyElt") -> "CommInftyElt":
        if self.level != other.level:
            raise ValueError("levels must agree")
        return CommInftyElt(
            self.level, self.num * other.num, mask_mul(self.den, other.den)
        )

    def inverse(self) -> "CommInftyElt":
        """The inverse map, den * adj(N) * u**-shift / det N for num =
        u**shift * N, with the factor u**v of det N moved into the shift.

        It is reduced on the entry masks that ``gauss_jordan`` leaves,
        before they are scaled: with d = det N / u**v (an odd mask, so
        powers of u do not change a gcd with it) and c the gcd of d and the
        entries (``mask_content`` at n = 1, which stops once it is 1), the
        gcd of d and den * adj(N) is g = gcd(d, den * c), as
        gcd(d, den * x) = gcd(d, den * gcd(d, x)).  So the inverse is
        adj(N) / c times den * c / g over d / g, one exact division and one
        scale per entry, and in lowest terms: its entries are interleaved
        once, into a numerator built through _coprime."""
        n = self.level
        masks, shift = self.num.entry_masks()
        rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(masks)]
        det = gauss_jordan(rows, n)
        v = (det & -det).bit_length() - 1
        det >>= v
        c = mask_content(det, (x for row in rows for x in row[n:]), 1)
        dc = mask_mul(self.den, c)
        g = mask_gcd(det, dc)
        f, det = mask_divmod(dc, g)[0], mask_divmod(det, g)[0]
        adj = [masks_scaled(masks_divided(row[n:], c), f) for row in rows]
        return CommInftyElt._coprime(n, PolyMat.from_masks(n, adj, -shift - v), det)

    def flip_conj(self) -> "CommInftyElt":
        # A(1/s) = N(1/s) * s**deg / (s**deg * D(1/s)), and s**deg * D(1/s)
        # is the reversed denominator
        num = self.num.flip().shifted(self.level * (self.den.bit_length() - 1))
        return CommInftyElt._coprime(self.level, num, mask_reverse(self.den))

    def apply(self, k: F2LaurentPoly):
        """Image of a K element, num(k) / den(t**level), or None when it is
        outside the domain: when den(t**level) does not divide num(k).  One
        division of the image's mask, as den(t**level) is a poly mask with
        nonzero constant term."""
        y = self.num.apply(k)
        if self.den == 1:
            return y
        q, r = mask_divmod(y.mask, mask_spread(self.den, self.level))
        return None if r else F2LaurentPoly._raw(q, y.shift)


# ---------------------------------------------------------------------------
# finite-index submodules of K


class SubmoduleBasis(Value):
    """Finite-index F2[s, 1/s]-submodule of K at a level, by an HNF basis."""

    __slots__ = ("level", "rows")

    def __init__(self, level: int, rows):
        if level < 1:
            raise ExponentMismatch(f"submodule level must be >= 1, got {level}")
        rows = tuple(tuple(row) for row in rows)
        widths = sorted({len(r) for r in rows})
        if len(rows) != level or widths != [level]:
            raise DimensionMismatch(
                f"level {level} needs a {level} x {level} basis, "
                f"got {len(rows)} rows of lengths {widths}"
            )
        from . import hnf  # here only: a call without a submodule never compiles it

        if not hnf.is_hnf(rows):
            raise ValueError("basis is not in Hermite normal form")
        self.level = level
        self.rows = rows

    @classmethod
    def full(cls, level: int = 1) -> "SubmoduleBasis":
        return cls(level, [[_ONE if i == j else _ZERO for j in range(level)]
                           for i in range(level)])

    @classmethod
    def from_generators(cls, level: int, gens) -> "SubmoduleBasis":
        """The span of the generator rows, which must have full rank."""
        if not gens:
            raise SingularMatrix("no generators")
        from . import hnf

        H, pivots = hnf.row_echelon(gens)
        if len(pivots) < level:
            raise SingularMatrix("generators do not span a finite-index submodule")
        return cls(level, H[:level])

    @property
    def index_log2(self) -> int:
        """log2 of the index in K: the sum of the diagonal degrees, as the
        constructor has checked the Hermite form."""
        return sum(mask_deg(row[i].mask) for i, row in enumerate(self.rows))

    def generators_as_k(self) -> list[F2LaurentPoly]:
        """The rows as elements of K: the images of 1, t, ..., t**(m-1)
        under the map whose matrix has the rows as its columns, each the
        interleave of its row.  The Hermite form has no entry below s**0,
        so the rows need no alignment."""
        return [F2LaurentPoly._raw(mask_interleave([x.mask << x.shift for x in row], self.level), 0)
                for row in self.rows]

    def to_json(self):
        return {
            "level": self.level,
            "H": [[x.to_string("s") for x in r] for r in self.rows],
        }

    @classmethod
    def from_json(cls, obj) -> "SubmoduleBasis":
        obj = json_object(obj, "a submodule basis")
        rows = [
            [F2LaurentPoly.from_string(x) for x in r] for r in json_matrix(obj["H"], "H")
        ]
        return cls(json_int(obj["level"]), rows)


# ---------------------------------------------------------------------------
# commensurations of the lamplighter group


class LampComm(Value):
    """Canonical commensuration (der, lin, flip) of the lamplighter group."""

    __slots__ = ("der", "lin", "flip")

    def __init__(self, der: VDerElt, lin: CommInftyElt, flip: bool):
        if der.level != lin.level:
            raise ValueError("components must share a level; use make()")
        self.der = der
        self.lin = lin
        self.flip = bool(flip)

    @classmethod
    def make(cls, der: VDerElt, lin: CommInftyElt, flip: bool) -> "LampComm":
        """The canonical class of (der, lin, flip): both components at the
        lcm of their least levels, the least level at which both are
        defined.  Each is moved there in one step from the level it is
        given at (``at_level``), without first going to its own least
        level.  The linear part's least level divides its level, so a
        derivation whose least level is a multiple of that level fixes the
        lcm alone, with no search of the linear part's."""
        d = der.least_level()
        level = d if d % lin.level == 0 else math.lcm(d, lin.least_level())
        return cls(der.at_level(level), lin.at_level(level), flip)

    @classmethod
    def identity(cls) -> "LampComm":
        return cls(VDerElt.zero(), CommInftyElt.identity(1), False)

    @property
    def level(self) -> int:
        return self.der.level

    def to_json(self):
        return {
            "level": self.level,
            "der": self.der.value.to_string(),
            "A": self.lin.to_strings("s"),
            "flip": self.flip,
        }

    @classmethod
    def from_json(cls, obj) -> "LampComm":
        obj = json_object(obj, "a class")
        level = json_int(obj["level"])
        der = VDerElt(level, F2LaurentPoly.from_string(obj["der"]))
        lin = CommInftyElt.from_entries(level, json_matrix(obj["A"], "A"))
        flip = obj["flip"]
        if not isinstance(flip, bool):
            raise ValueError(f"flip must be a JSON boolean, got {flip!r}")
        return cls.make(der, lin, flip)


def _apply_lin_to_vder(level: int, num: PolyMat, den: int, value: F2LaurentPoly, op: str):
    """Image of a derivation value under the equivariant commensuration
    num / den at the given level; num may be the same map at any level that
    divides it, as its action on K is the same.

    The image need not lie in K; the result is the least j >= 1 such that
    (num / den)(R_j * value) does, together with that element, where R_j
    is the level-raising multiplier 1 + s + ... + s**(j-1) with
    s = t**level.  A j with j * level above LEVEL_CAP raises
    ResourceLimit, naming the operation ``op``.

    With den = 1 the image num(value) is in K, so the answer is (1, that
    image) with no gcd.  Otherwise den requires the factor den / g of R_j,
    g the gcd of den and the coordinates of the image at the level: the
    image's mask is the Kronecker layout of those coordinates, so
    ``mask_content`` takes one remainder of it modulo den(s), and reads the
    coordinates of that remainder only, until g is 1.  compose passes its
    first factor's numerator at that factor's own level, so a derivation
    value much denser than it takes ``PolyMat._act``'s strand route, at
    most one product per column of that level.
    """
    y = num.apply(value)
    if den == 1:
        return 1, y
    # y is t**y.shift times y.mask, and a power of t permutes the coordinates up
    # to powers of s, which are prime to the odd den: so read those of y.mask
    g = mask_content(den, (y.mask,), level)
    dreq = mask_divmod(den, g)[0]  # den divides R_j * y iff dreq | R_j
    j = 1
    r = mask_mod(1, dreq)
    spow = mask_mod(2, dreq)
    while r:
        j += 1
        if j * level > LEVEL_CAP:
            raise ResourceLimit(
                f"work limit: {op} needs a level above {LEVEL_CAP} from level {level} "
                f"with a denominator of degree {den.bit_length() - 1}"
            )
        r ^= spow
        spow = mask_mod(spow << 1, dreq)
    q = mask_divmod(mask_mul(mask_geometric(level, j), y.mask), mask_spread(den, level))[0]
    return j, F2LaurentPoly._raw(q, y.shift)


def comm_compose(c1: LampComm, c2: LampComm) -> LampComm:
    """The class of c1 after c2 (right-to-left composition), at the lcm L
    of their levels l1 and l2, with no raised numerator built.

    Each linear part is scaled at its own level (``_scaled_to``): at L, a1
    is the level-l1 numerator n1 over dw1, and a2 is n2, raised by L / l2,
    over dw2.  The numerator of the product is n1 after that raised n2,
    whose columns are formed one at a time (``PolyMat.after_raised``), over
    dw1 * dw2, reduced to lowest terms.  The derivation image applies n1,
    at level l1, to c2's derivation value at L.  A level L above LEVEL_CAP
    raises ResourceLimit, naming l1, before any work."""
    level = math.lcm(c1.level, c2.level)
    n1, dw1 = c1.lin._scaled_to(level)
    d2, a2 = c2.der, c2.lin
    if c1.flip:
        # flipping commutes with raising, and costs less at c2's own level
        d2, a2 = d2.flip_conj(), a2.flip_conj()
    n2, dw2 = a2._scaled_to(level)
    j, applied = _apply_lin_to_vder(level, n1, dw1, d2.raise_to(level).value, "compose")
    # the linear part stays at this level: make() lowers it to its least level
    d1 = c1.der.raise_to(j * level)
    lin = CommInftyElt(level, n1.after_raised(n2, level // a2.level), mask_mul(dw1, dw2))
    return LampComm.make(VDerElt(d1.level, d1.value + applied), lin, c1.flip != c2.flip)


def comm_invert(c: LampComm) -> LampComm:
    a = c.lin.flip_conj() if c.flip else c.lin
    beta = a.inverse()
    v = c.der.flip_conj().value if c.flip else c.der.value
    j, applied = _apply_lin_to_vder(c.level, beta.num, beta.den, v, "invert")
    return LampComm.make(VDerElt(j * c.level, applied), beta, c.flip)


def comm_apply(c: LampComm, g: LampElement) -> LampElement:
    """Image of a group element; raises OutOfDomain off the domain."""
    level = c.level
    if g.n % level:
        raise OutOfDomain(f"exponent {g.n} is not a multiple of the level {level}")
    kk = g.k.flip() if c.flip else g.k
    img = c.lin.apply(kk)
    if img is None:
        raise OutOfDomain("lamp configuration is outside the domain")
    n2 = -g.n if c.flip else g.n
    return LampElement(img + c.der.eval_at(n2), n2)


def comm_domain(c: LampComm):
    """Largest domain on which the class applies exactly.

    Returns (D, L): the HNF basis of the submodule D of K and the level
    L such that c applies on {(k, l*L) : k in D, l in Z} and nowhere
    else.

    For the linear part num / den, D = {y : num*y in den*K} in the
    coordinates at level L.  It is read off the Hermite form over
    F2[s, 1/s] of the module M spanned by the rows (column i of num | e_i),
    i < L, and den*F^(2L), with no transform.  The y with (0 | y) in M
    are those with y*num^T in den*F^L, plus den*F^L, which D already
    holds since den*K lies in it: so they form D.  M has full rank, and
    the last L rows of its triangular form vanish on the first block
    and span every element of M that does, so their second blocks are
    the HNF basis of D.  Since den*F^(2L) lies in M, the form is
    ``hnf.hnf_mod`` modulo den, whose entries never reach deg den (Domich,
    Kannan and Trotter, Math. Oper. Res. 12, 1987; Cohen, GTM 138,
    Algorithm 2.4.8).  For den = 1, D is K, with no elimination at all.

    num is s**shift times its entry masks, and s**shift is a unit of
    F2[s, 1/s]: the automorphism (x | y) -> (s**-shift * x | y) of F^(2L)
    maps den*F^(2L) onto itself, M onto the module of the masks, and fixes
    every (0 | y), so it leaves D as it is.  So the masks enter ``hnf_mod``
    as they are, and it reduces them modulo den.

    A flipped class applies lin after the flip F, an involution that maps
    K onto K, so lin(F k) lies in K exactly when F(lin(F k)) does: its
    domain is that of the flip conjugate F*lin*F, read off the same way.
    """
    level = c.level
    if c.lin.den == 1:  # num maps K into K, and F(K) = K
        return SubmoduleBasis.full(level), level
    from . import hnf

    lin = c.lin.flip_conj() if c.flip else c.lin
    masks = lin.num.entry_masks()[0]
    rows = [list(col) + [int(r == i) for r in range(level)] for i, col in enumerate(zip(*masks))]
    H = hnf.hnf_mod(rows, 2 * level, lin.den)[level:]
    return SubmoduleBasis(level, [[F2LaurentPoly._raw(x, 0) for x in r[level:]] for r in H]), level


def diagonal_embed(n: int, rows) -> LampComm:
    """Block-diagonal action of an invertible F2 matrix on consecutive
    n-blocks of lamps, as a level-n commensuration."""
    if len(rows) != n:
        raise DimensionMismatch(
            f"a {len(rows)}x{len(rows)} matrix cannot act on blocks of size {n}"
        )
    for i, row in enumerate(rows):
        if len(row) != n:
            raise DimensionMismatch(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise ValueError(f"entry ({i}, {j}) is {v!r}, not 0 or 1")
    # the 0/1 entries as constant poly masks: t**j goes to the sum of t**i over
    # the rows i with a 1 in column j, and det over F2[u] is det over F2
    masks = [[int(v) for v in row] for row in rows]
    num = PolyMat.from_masks(n, masks, 0)
    if not gauss_jordan(masks, n):
        raise SingularMatrix("matrix is not invertible over F2")
    return LampComm.make(VDerElt.zero(), CommInftyElt(n, num), False)


def comm_from_partial(
    level: int,
    domain: SubmoduleBasis,
    gen_images,
    t_image: LampElement,
) -> LampComm:
    """Reconstruct the canonical class from images of the domain
    generators and of t**level.

    The generator images must be torsion, their span must be full, and
    the image of t**level must project to +-level in the Z-direction.
    The span is full when the matrix H of the images has det H != 0, and
    as det X != 0 that is tested on the numerator of A = H * X**-1: it has
    the shape of the class's own linear part, which for a permuted
    triangular class the column peel of ``gauss_jordan`` eliminates
    whole, where H may leave a dense core.
    The relations then hold by construction, so none is checked: the
    linear part A = H * X**-1 maps column i of X (generator i, flipped
    when the shift is inverted) to column i of H (its image) exactly, and
    being F2(s)-linear it does so on every shift of a generator;
    VDerElt(level, value) evaluates at +-level to the image of t**level;
    and make() changes neither map.
    """
    if domain.level != level:
        raise DimensionMismatch(
            f"the domain has level {domain.level}, expected {level}"
        )
    gen_images = list(gen_images)
    if len(gen_images) != level:
        raise DimensionMismatch(
            f"expected {level} generator images, got {len(gen_images)}"
        )
    if abs(t_image.n) != level:
        raise ExponentMismatch(
            f"image of t**{level} must have Z-part +-{level}, got {t_image.n}"
        )
    eps = 1 if t_image.n > 0 else -1
    for img in gen_images:
        if img.n != 0:
            raise NotAHomomorphism("image of a torsion generator must be torsion")
    gens = domain.generators_as_k()
    x = PolyMat.from_images(level, [g.flip() if eps < 0 else g for g in gens])
    h = PolyMat.from_images(level, [img.k for img in gen_images])
    lin = CommInftyElt(level, h).compose(CommInftyElt(level, x).inverse())
    if not gauss_jordan(lin.num.entry_masks()[0], level):
        raise NotAHomomorphism("generator images do not span a finite-index submodule")
    value = t_image.k if eps > 0 else t_image.k.shifted(level)
    return LampComm.make(VDerElt(level, value), lin, eps < 0)


# ---------------------------------------------------------------------------
# the quotient dimension


def quotient_dim(k1: SubmoduleBasis, m: int) -> int:
    """F2-dimension of K1 / (1 + t**m) K1 for an invariant submodule K1.

    K1 of level m1 is free of rank m1 over F2[s, 1/s] with s = t**m1, and
    1 + t**m acts on it as the scalar 1 + s**q with q = m / m1, so the
    quotient has dimension m1 * deg(1 + s**q) = m.
    """
    if m < 1:
        raise ExponentMismatch(f"the commutator exponent must be >= 1, got {m}")
    if m % k1.level:
        raise NotDivisible(
            f"submodule level {k1.level} must divide the commutator exponent {m}"
        )
    return m

