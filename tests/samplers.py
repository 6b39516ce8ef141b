"""Seeded pseudo-random samplers and independent oracles for the test suite.

Each sampler draws from the ``random.Random`` it is given, so a fixed
seed gives a fixed sample; ``tests/test_samplers.py`` pins that output.
``FieldMat`` is a matrix over an exact field with one scalar object per
entry and the field elimination.  On it ``MatF2Rat`` (over F2(t), with ``F2RatFun`` as its scalar field) and
``f2_rank`` are the oracles that the fraction-free elimination of
``commlab.polymat`` is compared against, ``bareiss_rescaled_rows`` replays
that elimination over the field to find the rows it meets with a zero
pivot-column entry at a pivot unlike the one before, and ``MatQFraction`` (one
``Fraction`` per entry) is the oracle of ``commlab.matrices.MatQ``; the program
itself computes in no field F2(t), which is only the text format of an
entry (``commlab.ratfun``), and ``F2RatFun`` reads and writes that text
through it.  ``k_to_coords`` and ``coords_to_k`` give the coordinates of
K at a level through the ``f2poly`` interleave pair, and
``residue_coords`` is their oracle; ``polymat_from_entries`` builds a
``PolyMat`` from an n x n array of entries in u, one ``coords_to_k`` per
column; ``interleave_by_bits`` and
``deinterleave_by_bits`` are the oracles of that pair, one digit at a
time.  ``act_per_mask`` maps one mask through a ``PolyMat`` with a call
of its own, by the route that ``_strands_pay`` picks for it, the oracle of
``PolyMat._act``.  ``vder_canonical_by_trial`` finds
the least level of a virtual derivation by one division per divisor of
its level, the oracle of ``VDerElt.canonical``, and
``make_by_least_levels`` takes each component of a class to its least
level and raises both to the lcm, the oracle of ``LampComm.make``, and
``least_level_by_scan`` tests the divisors of a level in ascending order,
the oracle of ``lamplighter._least_level``.  ``lamp_power_by_inverse``
raises a lamplighter element to a negative power through its inverse and
to a positive one by the defining sum of the geometric series, the oracle
of ``LampElement.__pow__`` and ``VDerElt.eval_at``.
``hnf_f2poly`` is the
Hermite form of a nonsingular square matrix read off
``commlab.hnf.row_echelon``, and ``row_echelon_with_transform``
is the Hermite form over F2[s, 1/s] that also tracks the unimodular
transform U with H = U*mat; with ``left_kernel``, ``row_times_mat`` and
``module_intersect`` it gives ``comm_domain_by_kernel``, the three-HNF
route (left kernel, HNF of the kernel rows, ``flip_basis`` of that
basis) that ``commlab.lamplighter.comm_domain`` is compared against.
``log_series`` and ``exp_series`` sum the unitriangular log and exp on
any such matrix class: the oracle of the integer series of
``commlab.unipotent``; ``series_by_fractions`` sums any coefficient list
on one, the oracle of that series itself (``commlab.unipotent._series``).
``from_entries_by_polys`` reads a linear part through one pair of
``F2LaurentPoly`` per entry, the oracle of
``commlab.lamplighter.CommInftyElt.from_entries``.  ``adjugate_masks``
gives the determinant and adjugate of a linear part's numerator by
``gauss_jordan``, and ``inverse_by_scaling`` reduces den * adj(N) / det N
after scaling every entry by den, the oracle of
``commlab.lamplighter.CommInftyElt.inverse``.
``ci_lamp_class`` draws the row-permuted triangular classes of the
lamplighter digest of ``tests/test_outputs.py``, and ``sparse_poly`` the
sparse polynomials of that digest; ``dense_der_class`` draws the classes
of its compose digest, with derivations far denser than their level, and
``compose_by_raising`` composes two classes with both linear parts raised
to the lcm of their levels and multiplied there, the oracle of
``commlab.lamplighter.comm_compose``.  ``solve_inner_by_definition`` solves
the inner-derivation systems over ``MatQFraction`` with every check in
the order of its definition.
"""

import math
from fractions import Fraction

from commlab import ratfun
from commlab.f2poly import (
    F2LaurentPoly,
    _strands_pay,
    mask_content,
    mask_deinterleave,
    mask_divmod,
    mask_gcd,
    mask_geometric,
    mask_interleave,
    mask_lcm,
    mask_mul,
    mask_strands,
    masks_divided,
    masks_scaled,
)
from commlab.errors import (
    DegenerateAction,
    DimensionMismatch,
    ExponentMismatch,
    IncompatibleCocycle,
    SingularMatrix,
)
from commlab.hnf import row_echelon
from commlab.lamplighter import (CommInftyElt, LampComm, LampElement, SubmoduleBasis, VDerElt,
                                 _apply_lin_to_vder)
from commlab.polymat import PolyMat, gauss_jordan

_ZERO = F2LaurentPoly.zero()


def f2_rank(masks) -> int:
    """Rank of a collection of F2 row vectors given as int masks."""
    pivots = {}
    rank = 0
    for m in masks:
        while m:
            lead = m.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = m
                rank += 1
                break
            m ^= p
    return rank


def k_to_coords(k: F2LaurentPoly, m: int) -> list[F2LaurentPoly]:
    """Coordinates of k over F2[s, 1/s], s = t**m, in the basis 1, t, ..., t**(m-1)."""
    xs = mask_deinterleave(k.mask << k.shift % m, m)
    return [F2LaurentPoly._raw(x, k.shift // m) for x in xs]


def coords_to_k(xs, m: int) -> F2LaurentPoly:
    """The element of K with coordinates xs at level m."""
    lo = min((x.shift for x in xs if x), default=0)
    masks = [x.mask << x.shift - lo if x else 0 for x in xs]
    return F2LaurentPoly._raw(mask_interleave(masks, m), m * lo)


def polymat_from_entries(n: int, entries) -> PolyMat:
    """The map whose matrix over F2[u, 1/u], u = t**n, is the n x n array
    of F2LaurentPoly entries: image j has column j as its coordinates."""
    return PolyMat.from_images(n, [coords_to_k(col, n) for col in zip(*entries)])


def interleave_by_bits(masks, n: int) -> int:
    """Oracle of ``mask_interleave``: for each set digit e of masks[i],
    found one at a time in its digit string, bit n*e + i is set."""
    out = 0
    for i, m in enumerate(masks):
        digits = format(m, "b")[::-1]
        e = digits.find("1")
        while e >= 0:
            out |= 1 << n * e + i
            e = digits.find("1", e + 1)
    return out


def deinterleave_by_bits(a: int, n: int) -> list[int]:
    """Oracle of ``mask_deinterleave``: each set digit p of a, found one
    at a time in its digit string, is bit p // n of strand p mod n."""
    out = [0] * n
    digits = format(a, "b")[::-1]
    p = digits.find("1")
    while p >= 0:
        out[p % n] |= 1 << p // n
        p = digits.find("1", p + 1)
    return out


def residue_coords(k: F2LaurentPoly, m: int) -> list[F2LaurentPoly]:
    """Oracle: coordinates by collecting each residue class's exponents."""
    exps = [[] for _ in range(m)]
    for e in k.support():
        exps[e % m].append(e // m)
    return [F2LaurentPoly(qs) for qs in exps]


def act_per_mask(a: PolyMat, mask: int, base: int) -> int:
    """Oracle of PolyMat._act: the image of t**base * mask under a, as a
    mask at t**(n*(base // n) + a.shift), by one of two routes as
    ``_strands_pay`` picks from the set bits of mask and of all columns:
    one shift-xor per set bit, t**(n*e + j) going to t**(n*e) times image
    j, or one carry-less product per column j, of image j and strand j of
    mask aligned to its residue."""
    n, cols = a.n, a.cols
    if _strands_pay(mask.bit_count(), n, sum(map(int.bit_count, cols))):
        acc = 0
        for c, s in zip(cols, mask_strands(mask << base % n, n)):
            if c and s:
                acc ^= mask_mul(c, s)
        return acc
    e0 = base // n
    acc = 0
    while mask:
        low = mask & -mask
        e, j = divmod(base + low.bit_length() - 1, n)
        acc ^= cols[j] << n * (e - e0)
        mask ^= low
    return acc


def lamp_power_by_inverse(g: LampElement, e: int) -> LampElement:
    """Oracle of ``LampElement.__pow__`` and ``VDerElt.eval_at``: g**e for
    e < 0 as the power -e of g.inverse(), and for e > 0 as k times the
    defining sum 1 + t**|n| + ... + t**(|n|*(e-1)), shifted by n*(e-1) for
    n < 0; a power of t (k = 0) is formed with no sum."""
    if e < 0:
        return lamp_power_by_inverse(g.inverse(), -e)
    n = g.n
    if n == 0:
        return LampElement(g.k if e % 2 else _ZERO, 0)
    if g.k.is_zero():
        return LampElement(_ZERO, n * e)
    k = g.k * F2LaurentPoly(range(0, abs(n) * e, abs(n)))
    return LampElement(k.shifted(n * (e - 1)) if n < 0 else k, n * e)


def least_level_by_scan(m: int, arises_from) -> int:
    """Oracle of ``lamplighter._least_level``: the divisors of m tested in
    ascending order, the first that passes, else m."""
    return next((d for d in range(1, m) if m % d == 0 and arises_from(d)), m)


def vder_canonical_by_trial(v: VDerElt) -> VDerElt:
    """Oracle: the least d | m such that 1 + t**d + ... + t**(m-d) divides
    the value, with the quotient, trying each divisor d in turn."""
    if v.value.is_zero():
        return VDerElt(1, _ZERO)
    m = v.level
    for d in range(1, m + 1):
        if m % d == 0:
            lowered = v.value.exact_div(F2LaurentPoly._raw(mask_geometric(d, m // d), 0))
            if lowered is not None:
                return VDerElt(d, lowered)


def make_by_least_levels(der: VDerElt, lin: CommInftyElt, flip: bool) -> LampComm:
    """Oracle of LampComm.make: each component at its least level by
    ``canonical``, then both raised to the lcm of those levels."""
    dc, lc = der.canonical(), lin.canonical()
    level = math.lcm(dc.level, lc.level)
    return LampComm(dc.raise_to(level), lc.raise_to(level), flip)


def compose_by_raising(c1: LampComm, c2: LampComm) -> LampComm:
    """Oracle of comm_compose: both linear parts raised to the lcm L of the
    levels, as maps at level L, and multiplied there; the derivation image
    is taken by the raised first factor."""
    level = math.lcm(c1.level, c2.level)
    a1 = c1.lin.raise_to(level)
    d2, a2 = c2.der, c2.lin
    if c1.flip:
        d2, a2 = d2.flip_conj(), a2.flip_conj()
    d2, a2 = d2.raise_to(level), a2.raise_to(level)
    j, applied = _apply_lin_to_vder(level, a1.num, a1.den, d2.value, "compose")
    d1 = c1.der.raise_to(j * level)
    return LampComm.make(VDerElt(d1.level, d1.value + applied), a1.compose(a2), c1.flip != c2.flip)


def row_echelon_with_transform(mat):
    """Oracle: the canonical row echelon form over F2[s, 1/s] with its
    transform, (H, U, pivots) with H = U*mat and U invertible over the
    ring, by the same Euclidean steps and reductions as
    ``commlab.hnf.row_echelon``, each applied to U as well."""
    H = [list(row) for row in mat]
    nr = len(H)
    nc = len(H[0]) if nr else 0
    U = [[F2LaurentPoly.one() if i == j else _ZERO for j in range(nr)] for i in range(nr)]

    def row_add(i, j, q):
        H[i] = [a + q * b for a, b in zip(H[i], H[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        live = [i for i in range(r, nr) if H[i][c]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: H[i][c].mask.bit_length())
            base = live[0]
            b = H[base][c]
            for i in live[1:]:
                a = H[i][c]
                row_add(i, base, F2LaurentPoly._raw(mask_divmod(a.mask, b.mask)[0], a.shift - b.shift))
            live = [i for i in live if H[i][c]]
        p = live[0]
        H[r], H[p] = H[p], H[r]
        U[r], U[p] = U[p], U[r]
        unit = F2LaurentPoly.t_power(-H[r][c].shift)
        H[r] = [unit * x for x in H[r]]
        U[r] = [unit * x for x in U[r]]
        pivots.append(c)
        r += 1
    for pr, pc in enumerate(pivots):
        d = H[pr][pc].mask
        for i in range(pr):
            q = H[i][pc].divmod(d)[0]
            if q:
                row_add(i, pr, q)
    return tuple(map(tuple, H)), tuple(map(tuple, U)), tuple(pivots)


def hnf_f2poly(mat):
    """Hermite normal form H of a square matrix: the canonical basis of
    its row span, read off ``commlab.hnf.row_echelon``.

    Requires det != 0 up to powers of s; raises SingularMatrix otherwise.
    """
    mat = tuple(tuple(row) for row in mat)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    if n == 0:
        return ()
    H, pivots = row_echelon(mat)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular over F2[s, 1/s]")
    return H


def hnf_with_transform(mat):
    """Oracle: (H, U) with H the Hermite form of a nonsingular square
    matrix and H = U*mat."""
    H, U, pivots = row_echelon_with_transform(mat)
    if len(pivots) < len(mat):
        raise SingularMatrix("matrix is singular over F2[s, 1/s]")
    return H, U


def left_kernel(mat):
    """Generators of {y : y*mat = 0} over F2[s, 1/s], as rows: the rows of
    U below the rank."""
    H, U, pivots = row_echelon_with_transform(mat)
    return U[len(pivots):]


def row_times_mat(y, mat):
    """Row vector times matrix over F2[s, 1/s]."""
    return tuple(sum((c * row[j] for c, row in zip(y, mat)), _ZERO) for j in range(len(mat[0])))


def module_intersect(ha, hb, n: int):
    """HNF basis of rowspan(ha) & rowspan(hb), both full rank n: the
    images in ha of the left kernel of ha stacked on hb."""
    gens = [row_times_mat(y[:len(ha)], ha) for y in left_kernel(tuple(ha) + tuple(hb))]
    return SubmoduleBasis.from_generators(n, gens).rows


def flip_basis(basis: SubmoduleBasis) -> SubmoduleBasis:
    """Oracle: F(D) for the flip F, k -> k(1/t), as the span of the
    coordinates of the flipped generators of D."""
    m = basis.level
    return SubmoduleBasis.from_generators(
        m, [k_to_coords(g.flip(), m) for g in basis.generators_as_k()])


def comm_domain_by_kernel(c: LampComm):
    """Oracle: the domain of a class by three Hermite forms.  The left
    kernel of the rows (column i of num) and (den*e_i) gives generators
    y of {y : num*y in den*K}, their HNF is the domain of the linear
    part, and a flipped class flips that basis (``flip_basis``)."""
    level = c.level
    masks, shift = c.lin.num.entry_masks()
    stacked = [[F2LaurentPoly._raw(masks[r][i], shift) for r in range(level)]
               for i in range(level)]
    stacked += [[F2LaurentPoly._raw(c.lin.den, 0) if r == i else _ZERO for r in range(level)]
                for i in range(level)]
    basis = SubmoduleBasis.from_generators(level, [y[:level] for y in left_kernel(stacked)])
    return (flip_basis(basis) if c.flip else basis), level


def from_entries_by_polys(level: int, entries) -> CommInftyElt:
    """``CommInftyElt.from_entries`` by the route that reads each entry into
    a pair of F2LaurentPoly as written: one gcd per entry, the lcm of every
    denominator, the numerators as F2LaurentPoly into
    ``polymat_from_entries``, and the elimination of its ``entry_masks``.
    The same checks in the same order, with the same errors."""
    def parse(text):
        if not isinstance(text, str):
            raise TypeError(f"a rational function must be a string, got {text!r}")
        top, slash, bottom = text.replace(" ", "").partition("/")
        num = F2LaurentPoly.from_string(top.strip("()"))
        if not slash:
            return num, F2LaurentPoly.one()
        den = F2LaurentPoly.from_string(bottom.strip("()"))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        return num, den

    rows = [[parse(x) for x in row] for row in entries]
    if level < 1:
        raise ExponentMismatch(f"commensuration level must be >= 1, got {level}")
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    if len(rows) != level or ncols != level:
        raise DimensionMismatch(
            f"level {level} needs a {level} x {level} matrix, got {len(rows)} x {ncols}")
    rows = [[(mask_divmod(n.mask, g)[0], mask_divmod(d.mask, g)[0], n.shift - d.shift)
             for n, d in row for g in (mask_gcd(n.mask, d.mask),)] for row in rows]
    den = 1
    for row in rows:
        for _, d, _ in row:
            den = mask_lcm(den, d)
    num = polymat_from_entries(level, [
        [F2LaurentPoly._raw(mask_mul(n, mask_divmod(den, d)[0]), shift) for n, d, shift in row]
        for row in rows
    ])
    if not gauss_jordan(num.entry_masks()[0], level):
        raise SingularMatrix("commensuration matrix must be invertible")
    return CommInftyElt._coprime(level, num, den)


def adjugate_masks(lin: CommInftyElt) -> tuple[int, list[list[int]], int]:
    """(d, adj, e) for lin = u**shift * N / den: d = det N / u**v, with u**v
    the power of u in det N, the entry masks of adj(N), by
    ``gauss_jordan`` on [N | I], and e = -shift - v, so that the inverse
    is u**e * den * adj(N) / d."""
    n = lin.level
    masks, shift = lin.num.entry_masks()
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(masks)]
    det = gauss_jordan(rows, n)
    v = (det & -det).bit_length() - 1
    return det >> v, [row[n:] for row in rows], -shift - v


def inverse_by_scaling(lin: CommInftyElt) -> CommInftyElt:
    """``CommInftyElt.inverse`` by the reduction that scales first: every
    entry of adj(N) is multiplied by den, the gcd g of d and all of them
    is taken, and the scaled entries and d are divided by g."""
    det, adj, e = adjugate_masks(lin)
    adj = [masks_scaled(row, lin.den) for row in adj]
    g = mask_content(det, (x for row in adj for x in row), 1)
    if g > 1:
        det = mask_divmod(det, g)[0]
        adj = [masks_divided(row, g) for row in adj]
    return CommInftyElt._coprime(lin.level, PolyMat.from_masks(lin.level, adj, e), det)


class F2RatFun:
    """Element t**shift * num/den of the field F2(t): num and den are poly
    masks with nonzero constant term and gcd 1, and all unit factors t**k
    live in the shift, so equality is a tuple comparison."""

    __slots__ = ("num", "den", "shift")

    def __init__(self, num=0, den=1, shift=0):
        """Build from poly masks (bit i = coefficient of t**i) and a unit shift."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if num == 0:
            self.num, self.den, self.shift = 0, 1, 0
            return
        low = (num & -num).bit_length() - 1
        num >>= low
        shift += low
        low = (den & -den).bit_length() - 1
        den >>= low
        shift -= low
        g = mask_gcd(num, den)
        if g > 1:
            num = mask_divmod(num, g)[0]
            den = mask_divmod(den, g)[0]
        self.num, self.den, self.shift = num, den, shift

    @classmethod
    def zero(cls) -> "F2RatFun":
        return cls(0)

    @classmethod
    def one(cls) -> "F2RatFun":
        return cls(1)

    @classmethod
    def t_power(cls, e: int) -> "F2RatFun":
        return cls(1, 1, e)

    @classmethod
    def from_poly(cls, p: F2LaurentPoly) -> "F2RatFun":
        return cls(p.mask, 1, p.shift)

    @classmethod
    def from_string(cls, text: str) -> "F2RatFun":
        return cls(*ratfun.parse(text))

    def to_string(self, var: str = "t") -> str:
        return ratfun.to_string(self.num, self.den, self.shift, var)

    def is_zero(self) -> bool:
        return self.num == 0

    def is_poly(self) -> bool:
        """True when the element lies in F2[t, 1/t]."""
        return self.den == 1

    def to_poly(self) -> F2LaurentPoly:
        if self.den != 1:
            raise ValueError("not a Laurent polynomial")
        return F2LaurentPoly._raw(self.num, self.shift)

    def __bool__(self):
        return self.num != 0

    def __add__(self, other):
        if not isinstance(other, F2RatFun):
            return NotImplemented
        if self.num == 0:
            return other
        if other.num == 0:
            return self
        lo = min(self.shift, other.shift)
        n = mask_mul(self.num << (self.shift - lo), other.den) ^ mask_mul(
            other.num << (other.shift - lo), self.den
        )
        return F2RatFun(n, mask_mul(self.den, other.den), lo)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        if not isinstance(other, F2RatFun):
            return NotImplemented
        return F2RatFun(
            mask_mul(self.num, other.num),
            mask_mul(self.den, other.den),
            self.shift + other.shift,
        )

    def inverse(self) -> "F2RatFun":
        if self.num == 0:
            raise ZeroDivisionError("inverse of zero")
        return F2RatFun(self.den, self.num, -self.shift)

    def __truediv__(self, other):
        if not isinstance(other, F2RatFun):
            return NotImplemented
        return self * other.inverse()

    def __neg__(self):
        return self

    def __eq__(self, other):
        return (
            isinstance(other, F2RatFun)
            and (self.num, self.den, self.shift) == (other.num, other.den, other.shift)
        )

    def __hash__(self):
        return hash((self.num, self.den, self.shift))

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"F2RatFun({self.to_string()!r})"


class FieldMat:
    """Immutable rectangular matrix over an exact field, one scalar object
    per entry, with the field elimination that the program does not use:
    a subclass adds ``zero``, ``one`` and the hooks ``_coerce`` and
    ``_inv_scalar``.  One forward elimination, ``_echelon``, serves every
    elimination: ``det`` and ``rank`` read it directly, and ``_rref`` adds
    back-substitution for ``inv``, ``solve`` and ``nullspace``."""

    __slots__ = ("rows", "_nc")

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(self._coerce(x) for x in row) for row in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        self.rows = rows
        self._nc = ncols if ncols is not None else 0

    @classmethod
    def _raw(cls, rows, ncols=None):
        self = object.__new__(cls)
        self.rows = tuple(tuple(row) for row in rows)
        self._nc = len(self.rows[0]) if self.rows else (ncols or 0)
        return self

    @classmethod
    def identity(cls, n: int):
        one, zero = cls.one, cls.zero
        return cls._raw(
            (tuple(one if i == j else zero for j in range(n)) for i in range(n)),
            ncols=n,
        )

    @classmethod
    def column(cls, entries):
        return cls([[x] for x in entries], ncols=1)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self._nc

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def transpose(self):
        if not self.rows:
            return type(self)._raw(((),) * self._nc, ncols=0)
        return type(self)._raw(zip(*self.rows), ncols=self.nrows)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return type(self)._raw(
            (tuple(a + b for a, b in zip(r1, r2))
             for r1, r2 in zip(self.rows, other.rows)),
            ncols=self._nc,
        )

    def __mul__(self, other):
        if type(other) is type(self):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = other.transpose().rows
            zero = self.zero
            out = []
            for row in self.rows:
                support = [(k, a) for k, a in enumerate(row) if a]
                out.append(tuple(
                    sum((a * col[k] for k, a in support if col[k]), zero)
                    for col in cols
                ))
            return type(self)._raw(out, ncols=other.ncols)
        try:
            scalar = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return type(self)._raw(
            (tuple(a * scalar for a in row) for row in self.rows), ncols=self._nc
        )

    # the scalars commute, so c * M is M * c
    __rmul__ = __mul__

    @classmethod
    def zeros(cls, r: int, c: int):
        return cls._raw(((cls.zero,) * c for _ in range(r)), ncols=c)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return type(self)._raw(
            (tuple(a - b for a, b in zip(r1, r2))
             for r1, r2 in zip(self.rows, other.rows)),
            ncols=self._nc,
        )

    def __neg__(self):
        return type(self)._raw(
            (tuple(-a for a in row) for row in self.rows), ncols=self._nc
        )

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.rows == other.rows
            and self._nc == other._nc
        )

    def __hash__(self):
        return hash((self.rows, self._nc))

    def _echelon(self, aug: int = 0):
        """Forward elimination to row echelon form.

        Returns (rows as lists, pivot column list, signed product of the
        pivots).  The last ``aug`` columns are carried along but never
        used as pivots.  Pivot rows are not scaled, so for a square
        matrix of full rank the product is its determinant.
        """
        rows = [list(r) for r in self.rows]
        nr, nc = len(rows), self._nc
        pivots = []
        det = self.one
        r = 0
        for c in range(nc - aug):
            if r == nr:
                break
            p = next((i for i in range(r, nr) if rows[i][c]), None)
            if p is None:
                continue
            if p != r:
                rows[r], rows[p] = rows[p], rows[r]
                det = -det
            det = det * rows[r][c]
            inv = self._inv_scalar(rows[r][c])
            for i in range(r + 1, nr):
                if rows[i][c]:
                    f = rows[i][c] * inv
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return rows, pivots, det

    def _rref(self, aug: int = 0):
        """``_echelon`` plus back-substitution: the reduced row echelon
        form, as (rows as lists, pivot column list)."""
        rows, pivots, _ = self._echelon(aug)
        for r in reversed(range(len(pivots))):
            c = pivots[r]
            inv = self._inv_scalar(rows[r][c])
            rows[r] = [x * inv for x in rows[r]]
            for i in range(r):
                if rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        return rows, pivots

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        _, pivots, det = self._echelon()
        return det if len(pivots) == self.nrows else self.zero

    def rank(self) -> int:
        return len(self._echelon()[1])

    def inv(self):
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        aug = type(self)._raw(
            (r + i for r, i in zip(self.rows, type(self).identity(n).rows)), ncols=2 * n
        )
        rows, pivots = aug._rref(aug=n)
        if len(pivots) < n:
            raise SingularMatrix("matrix is not invertible")
        return type(self)._raw((row[n:] for row in rows), ncols=n)

    def solve(self, b: "FieldMat"):
        """One exact solution of self * x = b, or None if inconsistent."""
        if b.nrows != self.nrows:
            raise ValueError("shape mismatch")
        k = b.ncols
        nc = self.ncols
        aug = type(self)._raw(
            (r + br for r, br in zip(self.rows, b.rows)), ncols=nc + k
        )
        rows, pivots = aug._rref(aug=k)
        if any(any(row[nc:]) for row in rows[len(pivots):]):
            return None
        out = [[self.zero] * k for _ in range(nc)]
        for r, c in enumerate(pivots):
            out[c] = rows[r][nc:]
        return type(self)._raw(out, ncols=k)

    def nullspace(self):
        """Basis of the right kernel, as a list of column matrices."""
        nc = self.ncols
        rows, pivots = self._rref()
        basis = []
        for f in (c for c in range(nc) if c not in pivots):
            vec = [self.zero] * nc
            vec[f] = self.one
            for r, c in enumerate(pivots):
                vec[c] = -rows[r][f]
            basis.append(type(self).column(vec))
        return basis

    def to_strings(self):
        return [[str(x) for x in row] for row in self.rows]

    def __repr__(self):
        return f"{type(self).__name__}({self.to_strings()!r})"


def bareiss_rescaled_rows(rows, n: int) -> list[bool]:
    """The rows that ``polymat._bareiss(rows, n)`` meets with a zero entry
    in the pivot column at a pivot piv other than the previous pivot prev,
    in order, each as whether prev divides piv.

    Replayed by elimination over the field F2(u): after each pivot the
    rows of ``_bareiss`` are that pivot times the rows of the Gauss-Jordan
    form over F2(u) with pivots scaled to 1 (Bareiss 1968), so they have
    the same zeros and take the same pivots, and piv / prev is the entry
    of the field form at the next pivot.  With no columns after the first
    n only the rows below a pivot are met, as in ``_bareiss``."""
    mat = [[F2RatFun(m) for m in row] for row in rows]
    out = []
    for k in range(n):
        live = [i for i in range(k, n) if mat[i][k]]
        if not live:
            break
        p = max(live, key=lambda i: sum(not x for x in mat[i][k:n]))
        mat[k], mat[p] = mat[p], mat[k]
        ratio = mat[k][k]
        top = mat[k] = [x / ratio for x in mat[k]]
        for i in range(k + 1, n) if len(top) == n else (i for i in range(n) if i != k):
            a = mat[i][k]
            if a:
                mat[i] = [x - a * y for x, y in zip(mat[i], top)]
            elif ratio != F2RatFun.one():
                out.append(ratio.den == 1 and ratio.shift >= 0)
    return out


class MatF2Rat(FieldMat):
    """Matrix over the rational function field F2(t)."""

    __slots__ = ()
    zero = F2RatFun.zero()
    one = F2RatFun.one()

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, F2RatFun):
            return x
        if isinstance(x, str):
            return F2RatFun.from_string(x)
        if isinstance(x, int) and x in (0, 1):
            return F2RatFun(x)
        raise TypeError(f"cannot coerce {x!r} to F2(t)")

    @staticmethod
    def _inv_scalar(x):
        return x.inverse()


class MatQFraction(FieldMat):
    """Matrix over Q with one Fraction per entry: the oracle for the
    common-denominator ``commlab.matrices.MatQ``."""

    __slots__ = ()
    zero = Fraction(0)
    one = Fraction(1)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} to a rational")

    @staticmethod
    def _inv_scalar(x):
        return 1 / x


def log_series(x):
    """log(I + x) for a strictly upper triangular ``FieldMat`` x: the
    alternating finite series sum of (-1)**(k+1) x**k / k."""
    acc = power = x
    for k in range(2, x.nrows):
        power = power * x
        acc = acc + power * Fraction((-1) ** (k + 1), k)
    return acc


def exp_series(x):
    """exp(x) for a strictly upper triangular ``FieldMat`` x: the finite
    series sum of x**k / k!."""
    acc = type(x).identity(x.nrows) + x
    power = x
    fact = 1
    for k in range(2, x.nrows):
        power = power * x
        fact *= k
        acc = acc + power * Fraction(1, fact)
    return acc


def series_by_fractions(x, coeffs):
    """The sum of (c / d) * x**k over the (k, c, d) in coeffs, for a square
    ``FieldMat`` x, each power formed as the product of k copies of x."""
    n = x.nrows
    acc = type(x).zeros(n, n)
    for k, c, d in coeffs:
        power = type(x).identity(n)
        for _ in range(k):
            power = power * x
        acc = acc + power * Fraction(c, d)
    return acc


def solve_inner_by_definition(ts, vs):
    """x with (T_i - 1) x = v_i for MatQ T_i and columns v_i, over
    ``MatQFraction``: the oracle of ``commlab.solvable.solve_inner_derivation``.
    Its checks run in the order of their definition: the T_i commute, the
    v_i satisfy (T_j - 1) v_i = (T_i - 1) v_j, the stacked T_i - 1 have
    full rank, and the stacked system is consistent."""
    ts = [MatQFraction(t.rows) for t in ts]
    vs = [MatQFraction(v.rows) for v in vs]
    for i, ti in enumerate(ts):
        for tj in ts[i + 1:]:
            if ti * tj != tj * ti:
                raise IncompatibleCocycle("the matrices do not commute")
    ident = MatQFraction.identity(ts[0].nrows)
    diffs = [t - ident for t in ts]
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            if diffs[j] * vs[i] != diffs[i] * vs[j]:
                raise IncompatibleCocycle("right-hand sides fail the commuting-cocycle identity")
    stacked = MatQFraction([row for d in diffs for row in d.rows])
    if stacked.rank() < ident.nrows:
        raise DegenerateAction("the actions share a nonzero fixed vector")
    x = stacked.solve(MatQFraction([row for v in vs for row in v.rows]))
    if x is None:
        raise IncompatibleCocycle("the stacked linear system is inconsistent")
    return x


def random_element(rng, max_exp: int = 8) -> LampElement:
    support = [e for e in range(-max_exp, max_exp + 1) if rng.random() < 0.25]
    return LampElement(F2LaurentPoly(support), rng.randrange(-3, 4))


def random_submodule(rng, max_level: int = 3, max_index_log: int = 6) -> SubmoduleBasis:
    level = rng.randrange(1, max_level + 1)
    budget = rng.randrange(0, max_index_log + 1)
    rows = []
    for i in range(level):
        d = rng.randrange(0, budget + 1)
        budget -= d
        diag_mask = 1
        if d:
            diag_mask |= 1 << d
            for e in range(1, d):
                if rng.random() < 0.5:
                    diag_mask |= 1 << e
        row = [_ZERO] * level
        row[i] = F2LaurentPoly._raw(diag_mask, 0)
        for j in range(i + 1, level):
            if rng.random() < 0.3:
                row[j] = F2LaurentPoly._raw(rng.randrange(1, 4), 0)
        rows.append(row)
    return SubmoduleBasis.from_generators(level, rows)


def _random_ratfun(rng, max_deg: int = 2) -> F2RatFun:
    num = rng.randrange(1, 1 << (max_deg + 1))
    den = rng.randrange(0, 1 << max_deg) * 2 + 1
    return F2RatFun(num, den, rng.randrange(-1, 2))


def random_comm(rng, max_level: int = 6, max_deg: int = 8) -> LampComm:
    """Pseudo-random canonical commensuration within a degree envelope."""
    level = rng.randrange(1, max_level + 1)
    ident = MatF2Rat.identity(level)
    mat = ident
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        rows = [list(r) for r in ident.rows]
        if kind == 0 and level > 1:
            i, j = rng.sample(range(level), 2)
            rows[i][j] = _random_ratfun(rng)
        elif kind == 1:
            i = rng.randrange(level)
            rows[i][i] = F2RatFun.t_power(rng.choice((-1, 1)))
        else:
            perm = list(range(level))
            rng.shuffle(perm)
            rows = [
                [ident.rows[perm[i]][j] for j in range(level)]
                for i in range(level)
            ]
        mat = mat * MatF2Rat(rows)
    support = [e for e in range(-max_deg, max_deg + 1) if rng.random() < 0.2]
    der = VDerElt(level, F2LaurentPoly(support))
    return LampComm.make(der, CommInftyElt.from_entries(level, mat.to_strings()), rng.random() < 0.5)


def sparse_poly(rng, lo, hi, terms) -> str:
    """A Laurent polynomial in t with up to ``terms`` exponents drawn from
    [lo, hi), as text."""
    exps = sorted({rng.randrange(lo, hi) for _ in range(terms)})
    return "+".join("1" if e == 0 else "t" if e == 1 else f"t^{e}" for e in exps) or "0"


def ci_lamp_class(rng, level):
    """A class drawn as by the lamplighter digest of ``tests/test_outputs.py``:
    a row-permuted lower-triangular linear part with a diagonal of 1, s,
    1/s and 1 + s + s^2 and entries over 1, 1 + s or 1 + s + s^2, a sparse
    derivation value of span up to 10^4, and a random flip."""

    def entry():
        num = sparse_poly(rng, -2, 3, rng.randrange(1, 4)).replace("t", "s")
        den = rng.choice(("1", "1", "1+s", "1+s+s^2"))
        return num if den == "1" else f"({num})/({den})"

    rows = [[entry() if j < i and rng.random() < 0.3
             else rng.choice(("1", "s", "s^-1", "1+s+s^2")) if j == i else "0"
             for j in range(level)] for i in range(level)]
    der = sparse_poly(rng, -rng.choice((4, 5000)), rng.choice((4, 5000)), rng.randrange(0, 40))
    return LampComm.from_json({"level": level, "der": der,
                               "A": [rows[p] for p in rng.sample(range(level), level)],
                               "flip": rng.random() < 0.5})


def dense_der_class(rng, level, with_den, flip):
    """A class drawn as by the compose digest of ``tests/test_outputs.py``: a
    row-permuted triangular linear part with one to three entries above the
    diagonal, over den = 1 or, with_den, with one diagonal entry over 1 + s,
    1 + s + s^2 or 1 + s^2 + s^3, and a derivation with a term at about half
    of the exponents in [-4l, 4l) or [-16l, 16l) at level l."""
    rows = [["0"] * level for _ in range(level)]
    for i in range(level):
        rows[i][i] = rng.choice(("1", "s", "s^-1", "1+s+s^2"))
    for _ in range(rng.randrange(1, 4)):
        i, j = sorted(rng.sample(range(level), 2))
        rows[i][j] = sparse_poly(rng, -2, 5, rng.randrange(1, 4)).replace("t", "s")
    if with_den:
        i = rng.randrange(level)
        rows[i][i] = f"({rows[i][i]})/({rng.choice(('1+s', '1+s+s^2', '1+s^2+s^3'))})"
    rng.shuffle(rows)
    span = rng.choice((4, 16)) * level
    der = "+".join(f"t^{e}" for e in range(-span, span) if rng.random() < 0.5) or "0"
    return LampComm.from_json({"level": level, "der": der, "A": rows, "flip": flip})
