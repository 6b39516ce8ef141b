"""Unitriangular groups over Q and their S-integer subgroups.

Everything is exact: the matrix logarithm and exponential are finite
sums for unitriangular/nilpotent matrices, p-th roots are exp(log/p),
and automorphisms of the group correspond to bracket-preserving linear
maps on the strictly-upper-triangular matrices.  A congruence-depth
scan realizes each such automorphism as a commensuration of the
S-integer points.

log, exp and roots sum their series on integers (``_series``): each
power of x is formed on its band above the diagonal and cut to lowest
terms by one gcd, and the sum by one more.  The generic series over
matrix classes (``_log_series``, ``_exp_series``, with ``_from_vec`` and
``_apply_map``) serve only the symbolic composite of
``congruence_domain`` and the test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul

from .errors import (
    DimensionMismatch,
    ExceedsFactorBound,
    ExponentMismatch,
    NotAnAutomorphism,
    ResourceLimit,
    SingularMap,
)
from .matrices import Mat, MatQ
from .storus import TRIAL_BOUND, prime_factors

# Size bound for unitriangular matrices (factorial denominators grow with it).
DIMENSION_CAP = 12

# the series coefficients (k, a, b), the term (a / b) * x**k; an n x n
# strictly upper triangular x has x**n = 0, so k < DIMENSION_CAP suffices
_LOG_COEFFS = tuple((k, (-1) ** (k + 1), k) for k in range(1, DIMENSION_CAP))
_EXP_COEFFS = tuple((k, 1, math.factorial(k)) for k in range(DIMENSION_CAP))


def _too_large(n: int) -> ResourceLimit:
    return ResourceLimit(f"dimension capped at {DIMENSION_CAP}, got {n} x {n}")


class UniTriMat:
    """Upper unitriangular matrix with exact rational entries."""

    __slots__ = ("n", "mat")

    def __init__(self, mat):
        mat = mat if isinstance(mat, MatQ) else MatQ(mat)
        n = mat.nrows
        if mat.ncols != n:
            raise DimensionMismatch(f"matrix must be square, got {n} x {mat.ncols}")
        if n > DIMENSION_CAP:
            raise _too_large(n)
        for i, row in enumerate(mat.num):
            if row[i] != mat.den:
                raise ValueError("diagonal entries must be 1")
            if any(row[:i]):
                raise ValueError("matrix must be upper triangular")
        self.n = n
        self.mat = mat

    @classmethod
    def identity(cls, n: int) -> "UniTriMat":
        return cls(MatQ.identity(n))

    def __mul__(self, other):
        if not isinstance(other, UniTriMat):
            return NotImplemented
        return UniTriMat(self.mat * other.mat)

    def inverse(self) -> "UniTriMat":
        return UniTriMat(self.mat.inv())

    def __pow__(self, e: int) -> "UniTriMat":
        if e < 0:
            return self.inverse() ** (-e)
        out = UniTriMat.identity(self.n)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, UniTriMat) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"UniTriMat({self.mat.to_strings()})"


class NilMat:
    """Strictly upper triangular rational matrix (a nilpotent Lie element)."""

    __slots__ = ("n", "mat")

    def __init__(self, mat):
        mat = mat if isinstance(mat, MatQ) else MatQ(mat)
        n = mat.nrows
        if mat.ncols != n:
            raise DimensionMismatch(f"matrix must be square, got {n} x {mat.ncols}")
        if n > DIMENSION_CAP:
            raise _too_large(n)
        if any(any(row[:i + 1]) for i, row in enumerate(mat.num)):
            raise ValueError("matrix must be strictly upper triangular")
        self.n = n
        self.mat = mat

    @classmethod
    def zero(cls, n: int) -> "NilMat":
        return cls(MatQ.zeros(n, n))

    def __add__(self, other):
        return NilMat(self.mat + other.mat)

    def __eq__(self, other):
        return isinstance(other, NilMat) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"NilMat({self.mat.to_strings()})"

    def bracket(self, other: "NilMat") -> "NilMat":
        return NilMat(self.mat * other.mat - other.mat * self.mat)


def _log_series(x):
    """log(I + x) for a strictly upper triangular x of any matrix class:
    the alternating finite series sum of (-1)**(k+1) x**k / k.  It serves
    only the symbolic composite of ``congruence_domain`` and the test
    oracle; ``unitri_log`` sums ``_series``."""
    acc = power = x
    for k in range(2, x.nrows):
        power = power * x
        acc = acc + power * Fraction((-1) ** (k + 1), k)
    return acc


def _exp_series(x):
    """exp(x) for a strictly upper triangular x of any matrix class: the
    finite series sum of x**k / k!.  It serves only the symbolic composite
    of ``congruence_domain`` and the test oracle; ``unitri_exp`` sums
    ``_series``."""
    acc = type(x).identity(x.nrows) + x
    power = x
    fact = 1
    for k in range(2, x.nrows):
        power = power * x
        fact *= k
        acc = acc + power * Fraction(1, fact)
    return acc


def _series(num, den: int, coeffs):
    """The sum of (a / b) * (num / den)**k over the (k, a, b) in coeffs
    with k < n, for a strictly upper triangular n x n integer matrix num
    (a tuple of int tuples) and den > 0, as (integer matrix, denominator).

    (num / den)**k vanishes below its k-th superdiagonal, so each power is
    formed on that band only, as the previous power times num, and cut to
    lowest terms by one gcd; the first zero power ends the sum.  The terms
    are added over the running lcm of their denominators, and the answer
    is not cut to lowest terms.
    """
    n = len(num)
    cols = list(zip(*num))
    power, pden = num, den
    acc = [[0] * n for _ in range(n)]
    lcm = 1
    for k, a, b in coeffs:
        if k >= n:
            break
        if k > 1:
            power = [
                [0] * (i + k)
                + [sum(map(mul, row[i + k - 1:j], cols[j][i + k - 1:j])) for j in range(i + k, n)]
                for i, row in enumerate(power[:n - k])
            ]
            # a fold: gcd(*entries) would build an argument tuple per power
            g = reduce(math.gcd, chain.from_iterable(power), 0)
            if not g:
                break
            pden *= den
            g = math.gcd(g, pden)
            if g > 1:
                power = [[x // g for x in row] for row in power]
                pden //= g
        tden = b * pden if k else b
        if lcm % tden:
            f = tden // math.gcd(lcm, tden)
            lcm *= f
            acc = [list(map(f.__mul__, row)) for row in acc]
        c = a * (lcm // tden)
        if k:
            for i, src in enumerate(power[:n - k]):
                row = acc[i]
                row[i + k:] = map(add, row[i + k:], map(c.__mul__, src[i + k:]))
        else:
            for i, row in enumerate(acc):
                row[i] += c
    return tuple(map(tuple, acc)), lcm


def _strict(g: UniTriMat):
    """The numerator of g - I over g's denominator, in lowest terms like
    g: g's numerator with its diagonal set to 0."""
    return tuple((0,) * (i + 1) + row[i + 1:] for i, row in enumerate(g.mat.num))


def unitri_log(g: UniTriMat) -> NilMat:
    """Exact logarithm: the alternating finite series in (g - I)."""
    return NilMat(MatQ._lowest(*_series(_strict(g), g.mat.den, _LOG_COEFFS), g.n))


def unitri_exp(x: NilMat) -> UniTriMat:
    """Exact exponential: the finite series sum of x**k / k!."""
    return UniTriMat(MatQ._lowest(*_series(x.mat.num, x.mat.den, _EXP_COEFFS), x.n))


def pth_root(g: UniTriMat, p: int) -> UniTriMat:
    """The unique unitriangular solution of X**p = g (any p >= 1):
    exp(log(g) / p), the log's denominator multiplied by p."""
    if p < 1:
        raise ExponentMismatch(f"the root exponent must be >= 1, got {p}")
    num, den = _series(_strict(g), g.mat.den, _LOG_COEFFS)
    return UniTriMat(MatQ._lowest(*_series(num, den * p, _EXP_COEFFS), g.n))


def is_s_integral(g, primes) -> bool:
    """Whether every entry denominator factors inside the prime set: in
    lowest terms the common denominator is their lcm, so it is the one
    to factor."""
    d = (g.mat if isinstance(g, (UniTriMat, NilMat)) else g).den
    for p in primes:
        while d % p == 0:
            d //= p
    return d == 1


# ---------------------------------------------------------------------------
# Lie algebra automorphisms and the commensurations they induce


def _basis_pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _from_vec(cls, n: int, vec):
    """The n x n matrix of class cls with coordinates vec in the basis
    E(i, j), i < j.  A class other than ``MatQ`` is passed only by the
    symbolic composite of ``congruence_domain``."""
    rows = [[cls.zero] * n for _ in range(n)]
    for v, (i, j) in zip(vec, _basis_pairs(n)):
        rows[i][j] = v
    return cls(rows)


def _apply_map(mat, x):
    """The linear map with matrix mat applied to x in the basis E(i, j);
    mat and x share a class, which is other than ``MatQ`` only in the
    symbolic composite of ``congruence_domain``."""
    n = x.nrows
    image = mat * type(mat).column([x.entry(i, j) for i, j in _basis_pairs(n)])
    return _from_vec(type(mat), n, [row[0] for row in image.rows])


class LieAut:
    """Invertible linear map on the strictly upper triangular matrices,
    stored in the elementary-matrix basis E(i, j), i < j, ordered
    lexicographically.  Whether it preserves the bracket is checked by
    lie_aut_check, not assumed."""

    __slots__ = ("n", "mat", "_checked")

    def __init__(self, n: int, mat):
        if n < 0:
            raise DimensionMismatch(f"n must be >= 0, got {n}")
        if n > DIMENSION_CAP:
            raise _too_large(n)
        mat = mat if isinstance(mat, MatQ) else MatQ(mat)
        dim = n * (n - 1) // 2
        if mat.nrows != dim or mat.ncols != dim:
            raise DimensionMismatch(
                f"expected a {dim} x {dim} matrix for n = {n}, "
                f"got {mat.nrows} x {mat.ncols}"
            )
        if dim and not mat.det():
            raise SingularMap("the linear map must be invertible")
        self.n = n
        self.mat = mat
        self._checked = None

    @classmethod
    def identity(cls, n: int) -> "LieAut":
        return cls(n, MatQ.identity(n * (n - 1) // 2))

    @classmethod
    def diagonal(cls, n: int, scales) -> "LieAut":
        """Map scaling each basis element E(i, j) by the given factor."""
        dim = n * (n - 1) // 2
        scales = [Fraction(s) for s in scales]
        if len(scales) != dim:
            raise ValueError("one scale per basis element")
        rows = [
            [scales[i] if i == j else Fraction(0) for j in range(dim)]
            for i in range(dim)
        ]
        return cls(n, rows)

    def to_vec(self, x: NilMat):
        return [x.mat.entry(i, j) for (i, j) in _basis_pairs(self.n)]

    def from_vec(self, vec) -> NilMat:
        return NilMat(_from_vec(MatQ, self.n, vec))

    def apply(self, x: NilMat) -> NilMat:
        return NilMat(_apply_map(self.mat, x.mat))

    def compose(self, other: "LieAut") -> "LieAut":
        if self.n != other.n:
            raise DimensionMismatch(
                f"cannot compose an automorphism for n = {self.n} "
                f"with one for n = {other.n}"
            )
        return LieAut(self.n, self.mat * other.mat)

    def __eq__(self, other):
        return isinstance(other, LieAut) and self.n == other.n and self.mat == other.mat

    def __hash__(self):
        return hash((self.n, self.mat))


def lie_aut_check(aut: LieAut) -> bool:
    """Exact test that the map preserves all basis brackets.

    In the basis E(i, j), [E(i, j), E(k, l)] = d(j, k) E(i, l) - d(l, i) E(k, j)
    with d the Kronecker delta, so the image of a basis bracket is plus or
    minus one column of ``aut.mat``, or zero.  By antisymmetry only pairs
    E(i, j) < E(k, l) in the basis order are checked; there i <= k < l,
    so the second term vanishes and the bracket of the two column images
    must equal column (i, l) when j = k, and zero otherwise.
    """
    if aut._checked is not None:
        return aut._checked
    pairs = _basis_pairs(aut.n)
    index = {pair: idx for idx, pair in enumerate(pairs)}
    images = [aut.from_vec(col) for col in aut.mat.transpose().rows]
    zero = NilMat.zero(aut.n)
    aut._checked = all(
        images[a].bracket(images[b]) == (images[index[i, l]] if j == k else zero)
        for a, (i, j) in enumerate(pairs)
        for b, (k, l) in enumerate(pairs[a + 1:], a + 1)
    )
    return aut._checked


def comm_from_lie_aut(aut: LieAut, g: UniTriMat) -> UniTriMat:
    """exp(aut(log g)); a homomorphism in g when aut preserves brackets.
    The sizes are compared before the bracket check, the costlier test."""
    if g.n != aut.n:
        raise DimensionMismatch(
            f"an automorphism for n = {aut.n} cannot act on a {g.n}x{g.n} matrix"
        )
    if not lie_aut_check(aut):
        raise NotAnAutomorphism("the linear map does not preserve brackets")
    return unitri_exp(aut.apply(unitri_log(g)))


# ---------------------------------------------------------------------------
# congruence depth of the induced commensuration


class _MPoly:
    """Sparse multivariate polynomial over Q; monomials are sorted
    tuples of variable indices (with multiplicity)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, c) -> "_MPoly":
        c = Fraction(c)
        return cls({(): c} if c else {})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            c2 = out.get(m, 0) + c
            if c2:
                out[m] = c2
            else:
                out.pop(m, None)
        return _MPoly(out)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        return _MPoly(out)


class _MPolyMat(Mat):
    """Matrix over the ring of ``_MPoly``; rationals are read as constants.
    It has no elimination hook: only sums and products are used."""

    __slots__ = ()
    zero = _MPoly()
    one = _MPoly.const(1)

    @classmethod
    def _coerce(cls, x):
        return x if isinstance(x, _MPoly) else _MPoly.const(x)


def _factored(n: int, known=()) -> dict:
    """The factorization of n by prime_factors; ExceedsFactorBound if it
    leaves a cofactor."""
    factors, rest = prime_factors(n, known)
    if rest > 1:
        raise ExceedsFactorBound(f"cannot factor {rest}: no prime factor up to {TRIAL_BOUND}")
    return factors


def congruence_domain(aut: LieAut, primes) -> int:
    """Least D = P**e making the induced map S-integral on the depth-D
    congruence subgroup.

    P is the product of the primes outside S occurring in denominators
    of the map and of the exp/log factorials for this size, and e is
    the least exponent for which every coefficient of the symbolic
    composite sends entries in D * Z[1/S] into Z[1/S].  The scan is a
    sufficient certificate; minimality beyond the scanned form is not
    claimed.
    """
    if not lie_aut_check(aut):
        raise NotAnAutomorphism("the linear map does not preserve brackets")
    primes = set(primes)
    n = aut.n
    # the common denominator of the map is the lcm of its entry denominators
    dens = {aut.mat.den} | set(range(2, n))
    outside = set().union(*(_factored(d, primes) for d in dens)) - primes
    # the symbolic composite exp(aut(log(I + X))), one variable per entry of X
    variables = [_MPoly({(idx,): Fraction(1)}) for idx in range(n * (n - 1) // 2)]
    log = _log_series(_from_vec(_MPolyMat, n, variables))
    out = _exp_series(_apply_map(_MPolyMat(aut.mat.rows), log))
    # least exponent clearing every coefficient
    known = primes | outside
    e = 0
    for row in out.rows:
        for entry in row:
            for mono, coef in entry.terms.items():
                for q, v in _factored(coef.denominator, known).items():
                    if q in outside:
                        e = max(e, -(-v // len(mono)))  # ceil(v / deg)
    return math.prod(outside) ** e
