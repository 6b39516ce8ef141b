"""Commensurators of reduced solvable S-arithmetic groups.

Three computational pieces live here:

* the solvable Baumslag-Solitar groups BS(1, n), modeled as affine maps
  x -> n**a * x + b with b an n-integer, together with their
  commensurations q |x q* acting by affine conjugation on explicit
  finite-index subgroups;

* an exact solver for systems (T_i - 1) x = v_i arising from inner
  derivations of commuting torus actions with no common fixed vector;

* the iterated semidirect-product group law on block descriptions
  (central Hom block, GL block, Hom block, reduced-part automorphism)
  with the GL part acting by pre- and post-composition.  The two
  reduced parts implemented, the trivial one and the Q x| Q* of
  BS(1, n), act trivially on every block, so the law has no
  reduced-part action factors.

Conventions for the block group law, fixed here once: elements multiply
right-to-left, a semidirect pair is written (normal part, acting part)
with (b1, a1)(b2, a2) = (b1 + a1 . b2, a1 a2), and an acting part
twists a Hom block by postcomposition with its action on the target and
precomposition with the inverse of its action on the source.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import (
    BaseMismatch,
    DegenerateAction,
    DimensionMismatch,
    IncompatibleCocycle,
    OutOfDomain,
    ResourceLimit,
    UnknownInstantiation,
    ZeroInput,
    json_int,
    json_object,
)
from .frozen import Frozen, Value
from .matrices import MatQ, format_rational, parse_rational

# Bound on the multiplicative order K that bs_comm_domain searches for.
ORDER_CAP = 4 * 10**6
_BABY_STEPS = 1 << 15  # of that search
# Bound on |a| * n.bit_length(), at most twice the bits of a BS power n**a:
# a printable answer needs n**a of up to about 2 * 4300 digits, 28600 bits.
MAX_POWER_BITS = 1 << 16


# ---------------------------------------------------------------------------
# affine maps and Baumslag-Solitar elements


class AffineMap(Frozen):
    """x -> r*x + q with r != 0; the group Q x| Q* under composition."""

    __slots__ = ("r", "q")

    def __init__(self, r, q):
        super().__init__(Fraction(r), Fraction(q))
        if self.r == 0:
            raise ZeroInput("scale must be nonzero")

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(Fraction(1), Fraction(0))

    def __call__(self, x) -> Fraction:
        return self.r * Fraction(x) + self.q

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        return AffineMap(self.r * other.r, self.r * other.q + self.q)

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.r, -self.q / self.r)


def _n_coprime_denominator(x: Fraction, n: int) -> int:
    d = x.denominator
    g = math.gcd(d, n)
    while g > 1:
        while d % g == 0:
            d //= g
        g = math.gcd(d, n)
    return d


def _is_n_integral(x: Fraction, n: int) -> bool:
    return _n_coprime_denominator(x, n) == 1


def _check_base(n: int) -> None:
    if n < 2:
        raise DegenerateAction(f"BS(1, n) needs base n >= 2, got {n}")


def _scaled(n: int, a: int, x: Fraction) -> Fraction:
    """n**a * x, the power formed only for x != 0 and refused past MAX_POWER_BITS."""
    if x and abs(a) * n.bit_length() > MAX_POWER_BITS:
        raise ResourceLimit(f"work limit: the power {n}**{a} has more than {MAX_POWER_BITS} bits")
    return Fraction(n) ** a * x if x else x


class BSElement(Frozen):
    """Element of BS(1, n) as the affine map x -> n**a * x + b."""

    __slots__ = ("n", "a", "b")

    def __init__(self, n: int, a: int, b):
        super().__init__(n, a, Fraction(b))
        _check_base(self.n)
        if not _is_n_integral(self.b, self.n):
            raise OutOfDomain(f"translation {self.b} is not a {self.n}-integer")

    @classmethod
    def identity(cls, n: int) -> "BSElement":
        return cls(n, 0, Fraction(0))

    def inverse(self) -> "BSElement":
        return BSElement(self.n, -self.a, -_scaled(self.n, -self.a, self.b))

    def to_json(self):
        return {"n": self.n, "a": self.a, "b": format_rational(self.b)}

    @classmethod
    def from_json(cls, obj) -> "BSElement":
        obj = json_object(obj, "a BS element")
        return cls(json_int(obj["n"]), json_int(obj["a"]), parse_rational(obj["b"]))


def bs_mul(g: BSElement, h: BSElement) -> BSElement:
    if g.n != h.n:
        raise BaseMismatch(f"bases {g.n} and {h.n} differ")
    return BSElement(g.n, g.a + h.a, g.b + _scaled(g.n, g.a, h.b))


def bs_comm_domain(c: AffineMap, n: int) -> tuple[int, int]:
    """Congruence parameters (K, D) of the conjugation commensuration.

    D clears the n-coprime denominator parts of the scale and the
    translation of c; K is the multiplicative order of n modulo the
    n-coprime denominator d of the translation.  Conjugation by c maps
    every element with a in K*Z and b in D*Z[1/n] back into BS(1, n).
    K is found by baby and giant steps (Shanks).  The baby steps n**j,
    j < B = _BABY_STEPS, return j at the first n**j = 1.  Failing that,
    K >= B, so those B powers are distinct, and the first giant step
    n**(i*B) among them, n**(i*B) = n**j, gives K = i*B - j.  A baby step
    is a product by the small n and a giant step a full product mod d,
    hence B of the first to ORDER_CAP / B of the second.  A K above
    ORDER_CAP raises ResourceLimit.
    """
    _check_base(n)
    d_r = _n_coprime_denominator(c.r, n)
    d_q = _n_coprime_denominator(c.q, n)
    d = d_r * d_q // math.gcd(d_r, d_q)
    if d_q == 1:
        return 1, d
    baby, x = {}, 1
    for j in range(_BABY_STEPS):  # x = n**j
        if j and x == 1:
            return j, d
        baby[x] = j
        x = x * n % d_q
    y = 1
    for i in range(1, -(-ORDER_CAP // _BABY_STEPS) + 1):
        y = y * x % d_q  # x = n**B
        if y in baby:
            k = i * _BABY_STEPS - baby[y]
            if k <= ORDER_CAP:
                return k, d
            break
    modulus = d_q if d_q.bit_length() <= 64 else f"a {d_q.bit_length()}-bit integer"
    raise ResourceLimit(f"work limit: the conjugation domain needs the order of {n} "
                        f"modulo {modulus}, which exceeds {ORDER_CAP}")


def bs_comm_apply(c: AffineMap, g: BSElement) -> BSElement:
    """Conjugate c . g . c**-1, defined on the congruence subgroup."""
    k, d = bs_comm_domain(c, g.n)
    if g.a % k or not _is_n_integral(g.b / d, g.n):
        raise OutOfDomain(
            f"element outside the congruence subgroup (K={k}, D={d})"
        )
    return BSElement(g.n, g.a, c.r * g.b + c.q - _scaled(g.n, g.a, c.q))


# ---------------------------------------------------------------------------
# inner derivations of commuting torus actions


def solve_inner_derivation(ts, vs) -> MatQ:
    """Exact x with (T_i - 1) x = v_i for all i.

    The T_i must commute, have no common nonzero fixed vector, and the
    v_i must satisfy (T_j - 1) v_i = (T_i - 1) v_j; then x exists and is
    unique.  The checks fail in that order: IncompatibleCocycle if the
    T_i do not commute or the v_i fail the identity, DegenerateAction if
    they share a fixed vector.

    Two products share the denominator of T_i times that of T_j, so the
    commutation is tested on the integer numerators, on rows packed as
    the base-X digits of one int with X = 2^b > 4 dim M^2, M the largest
    |numerator entry| (``MatQ._commute``): each digit of a difference of
    products is at most 2 dim M^2 < X / 2 in absolute value, so the test
    is exact.  Each block [T_i - 1 | v_i], T - 1 being T's numerator with
    den taken off the diagonal, is put over one denominator.  While the
    rank is below dim, each block joins the rows before it and all of them
    are eliminated afresh (``MatQ._gauss_jordan``), so every entry stays a
    minor of the input.  Once the rank is dim, x = num / d is fixed, and
    each remaining block [A | b] is checked by one integer product,
    A num = d b, as is each row the last elimination left past its
    pivots, zero but for its last entry.  The identity is checked only
    when this finds a rank below dim or a row that x does not solve.
    This keeps the order above:

    * If the T_i commute and x solves every block, then
      (T_j - 1) v_i - (T_i - 1) v_j = (T_j T_i - T_i T_j) x = 0, so the
      identity holds whenever every block is solved.
    * If the T_i commute, the identity holds and the rank is dim, the
      system is consistent.  Over the algebraic closure the space splits
      into joint generalized eigenspaces W of the A_i = T_i - 1.  On each
      W some A_i is invertible, or else the commuting nilpotent A_i | W
      would share a kernel vector, a common fixed vector.  Then
      x_W = A_i^-1 v_i solves every block on W, since
      A_i (A_j x_W - v_j) = A_j v_i - A_i v_j = 0.  So a system with no
      solution that passes the identity has a rank below dim, and a block
      that fails A num = d b once the rank is dim fails the identity.
    """
    ts = [t if isinstance(t, MatQ) else MatQ(t) for t in ts]
    vs = [v if isinstance(v, MatQ) else MatQ(v) for v in vs]
    if not ts or len(ts) != len(vs):
        raise DimensionMismatch(
            f"need matching nonempty lists, got {len(ts)} matrices and {len(vs)} vectors"
        )
    dim = ts[0].nrows
    for t in ts:
        if not t.is_square() or t.nrows != dim:
            raise DimensionMismatch(
                f"all matrices must be {dim}x{dim}, got {t.nrows}x{t.ncols}"
            )
    for v in vs:
        if v.nrows != dim or v.ncols != 1:
            raise DimensionMismatch(
                f"the right-hand sides must be {dim}x1 columns, got {v.nrows}x{v.ncols}"
            )
    if not MatQ._commute([t.num for t in ts], dim):
        raise IncompatibleCocycle("the matrices do not commute")
    # rows still to check against x: the rows the last elimination leaves
    # past its pivots, zero but for their last entry, and blocks after the
    # rank is dim
    rows, aug, pivots, d, rest = [], [], [], 1, []
    for t, v in zip(ts, vs):
        den = math.lcm(t.den, v.den)
        fd, fv = den // t.den, den // v.den
        block = []
        for r, (row, (y,)) in enumerate(zip(t.num, v.num)):
            row = [fd * x for x in row]
            row[r] -= den
            row.append(fv * y)
            block.append(row)
        if len(pivots) < dim:
            # a fresh elimination of every row so far: no entry outgrows the
            # minors of the input
            rows += block
            aug = rows[:]
            pivots, d, _ = MatQ._gauss_jordan(aug, dim)
            rest = aug[len(pivots):]
            del aug[len(pivots):]
        else:
            rest += block
    if len(pivots) == dim:
        xs = [0] * dim + [-d]  # (num, -d) for x = num / d
        for row, p in zip(aug, pivots):
            xs[p] = row[dim]
        if not any([sum(map(mul, row, xs)) for row in rest]):
            return MatQ._lowest(tuple([(x,) for x in xs[:dim]]), d, 1)
    diffs = [t - MatQ.identity(dim) for t in ts]
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            if diffs[j] * vs[i] != diffs[i] * vs[j]:
                raise IncompatibleCocycle("right-hand sides fail the commuting-cocycle identity")
    raise DegenerateAction("the actions share a nonzero fixed vector")


# ---------------------------------------------------------------------------
# the iterated semidirect product of block descriptions


class TrivialReduced(Value):
    """Reduced part with only the identity automorphism."""

    __slots__ = ()
    name = "trivial"

    def identity(self):
        return None

    def holds(self, a) -> bool:
        """Whether ``a`` is an element of this reduced part."""
        return a is None

    def compose(self, a, b):
        return None

    def invert(self, a):
        return None


class BSReduced(Value):
    """Reduced part Q x| Q*, the commensurations of a solvable
    Baumslag-Solitar group; it fixes the exponent direction, so it acts
    trivially on every block."""

    __slots__ = ()
    name = "bs"

    def identity(self):
        return AffineMap.identity()

    def holds(self, a) -> bool:
        return isinstance(a, AffineMap)

    def compose(self, a, b):
        return a.compose(b)

    def invert(self, a):
        return a.inverse()


_REDUCED_TAGS = {"trivial": TrivialReduced, "bs": BSReduced}


def reduced_part(tag: str):
    """The reduced-part instantiation named by ``tag``."""
    cls = _REDUCED_TAGS.get(tag)
    if cls is None:
        raise UnknownInstantiation(f"unknown reduced part {tag!r}")
    return cls()


class CommSpace(Frozen):
    """Dimension data (N0, N1, dZ, dZ1) and the reduced-part instantiation.

    The reduced part is ``TrivialReduced`` or ``BSReduced``, values with
    no fields, so two spaces are equal when their dimensions and the
    classes of their reduced parts are.  Neither acts on the blocks,
    which is why ``comm_desc_mul`` and ``comm_desc_inv`` carry no action
    factors for it.
    """

    __slots__ = ("n0", "n1", "dz", "dz1", "red")

    def __init__(self, n0: int, n1: int, dz: int, dz1: int, red: TrivialReduced | BSReduced):
        super().__init__(n0, n1, dz, dz1, red)
        dims = zip(("N0", "N1", "dZ", "dZ1"), (self.n0, self.n1, self.dz, self.dz1))
        for name, value in dims:
            if value < 0:
                raise DimensionMismatch(f"{name} must be >= 0, got {value}")

    def identity_desc(self) -> "CommDesc":
        return CommDesc(
            self,
            MatQ.zeros(self.dz, self.n0),
            MatQ.identity(self.n0),
            MatQ.zeros(self.n0, self.n1),
            MatQ.zeros(self.dz1, self.n1),
            self.red.identity(),
        )


class CommDesc(Frozen):
    """Element of the iterated semidirect product: a central Hom block
    dZ x N0, an invertible GL block N0 x N0, a Hom block N0 x N1, a Hom
    block dZ1 x N1, and a reduced-part element."""

    __slots__ = ("space", "h_central", "p", "h_10", "h_1z", "red")

    def __init__(self, space: CommSpace, h_central: MatQ, p: MatQ, h_10: MatQ, h_1z: MatQ, red):
        super().__init__(space, h_central, p, h_10, h_1z, red)
        s = self.space
        shapes = (
            (self.h_central, s.dz, s.n0),
            (self.p, s.n0, s.n0),
            (self.h_10, s.n0, s.n1),
            (self.h_1z, s.dz1, s.n1),
        )
        for mat, r, c in shapes:
            if mat.nrows != r or mat.ncols != c:
                raise DimensionMismatch(
                    f"block of shape {mat.nrows}x{mat.ncols}, expected {r}x{c}"
                )
        if not s.red.holds(self.red):
            raise DimensionMismatch(
                f"the {s.red.name!r} reduced part has no element of type "
                f"{type(self.red).__name__}"
            )


def comm_desc_mul(x: CommDesc, y: CommDesc) -> CommDesc:
    """Right-to-left product in the iterated semidirect product."""
    s = x.space
    if s != y.space:
        raise DimensionMismatch("descriptions live in different products")
    return CommDesc(
        s,
        x.h_central + y.h_central * x.p.inv(),
        x.p * y.p,
        x.h_10 + x.p * y.h_10,
        x.h_1z + y.h_1z,
        s.red.compose(x.red, y.red),
    )


def comm_desc_inv(x: CommDesc) -> CommDesc:
    p_inv = x.p.inv()
    return CommDesc(
        x.space,
        -(x.h_central * x.p),
        p_inv,
        -(p_inv * x.h_10),
        -x.h_1z,
        x.space.red.invert(x.red),
    )


class StructureReport(Frozen):
    """Shape of the commensurator of a reduced solvable group."""

    __slots__ = ("n", "dim_z", "iso", "space")


def reduced_comm_structure(n: int, dim_z: int, aut_desc: str) -> StructureReport:
    """Commensurator shape Hom(Q**N, Z(G)(Q)) x| Aut for a reduced group,
    with a concrete block instantiation for the named reduced part."""
    if n < 0 or dim_z < 0:
        raise ValueError("dimensions must be nonnegative")
    space = CommSpace(0, n, 0, dim_z, reduced_part(aut_desc))
    aut_name = "(Q |x Q*)" if aut_desc == "bs" else "Aut(triv)"
    iso = f"Hom(Q^{n}, Q^{dim_z}) x| {aut_name}"
    if dim_z == 0:
        iso = f"Hom(Q^{n}, 0) x| {aut_name} = {aut_name}"
    return StructureReport(n, dim_z, iso, space)
