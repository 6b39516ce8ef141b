"""Unitriangular groups over Q and their S-integer subgroups.

Everything is exact: the matrix logarithm and exponential are finite
sums for unitriangular/nilpotent matrices, and so is every rational
power g**r = sum of C(r, k) (g - I)**k (Higham, Functions of Matrices,
2008, section 1.2), which gives the p-th root (r = 1/p), the inverse
(r = -1) and every integer power (r = e).  Automorphisms of the group
correspond to bracket-preserving linear maps on the strictly-upper-triangular
matrices.  Each such map phi induces the commensuration exp(phi(log g))
of the S-integer points on the congruence subgroup of least depth D,
which ``congruence_domain`` reads off the images of the root elements.

log, exp, roots, inverses and powers each sum one series on integers
(``_series``), which reads only the entries above the diagonal of g's
or x's numerator: each power is formed on its band above the diagonal
and cut to lowest terms by one gcd, the terms are summed once over the
lcm of their denominators, and the sum is cut by one more gcd; the
root, inverse and power coefficients are binomial ones (``_binomial``).
A map's images of the basis elements E(i, j) are read as integer
matrices over its one denominator (``_root_images``); the bracket check
multiplies their nonzero entries, and each step of the congruence
depth's bisection sums one integer exp series per image.
"""

from __future__ import annotations

import math
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
from .frozen import Value
from .matrices import MatQ

# Size bound for unitriangular matrices (factorial denominators grow with it).
DIMENSION_CAP = 12

# the series coefficients (k, c, d), the term (c / d) * x**k; an n x n
# strictly upper triangular x has x**n = 0, so k < DIMENSION_CAP suffices
_LOG_COEFFS = tuple((k, (-1) ** (k + 1), k) for k in range(1, DIMENSION_CAP))
_EXP_COEFFS = tuple((k, 1, math.factorial(k)) for k in range(DIMENSION_CAP))


def _too_large(n: int) -> ResourceLimit:
    return ResourceLimit(f"dimension capped at {DIMENSION_CAP}, got {n} x {n}")


def _unchecked(cls, mat: MatQ):
    """An instance of cls, UniTriMat or NilMat, on a MatQ of size at most
    DIMENSION_CAP that has cls's shape by construction, taken without the
    constructor's scan."""
    self = object.__new__(cls)
    self.n = mat.nrows
    self.mat = mat
    return self


class UniTriMat(Value):
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

    # a MatQ that is unitriangular by construction: products, exp and the
    # binomial series of unitriangular matrices
    _raw = classmethod(_unchecked)

    @classmethod
    def identity(cls, n: int) -> "UniTriMat":
        return cls(MatQ.identity(n))

    def __mul__(self, other):
        if not isinstance(other, UniTriMat):
            return NotImplemented
        return UniTriMat._raw(self.mat * other.mat)

    def inverse(self) -> "UniTriMat":
        """g**-1 as the Neumann series sum of (-1)**k (g - I)**k, one
        binomial series (r = -1) on g's integer numerator."""
        return _power(self, -1, 1)

    def __pow__(self, e: int) -> "UniTriMat":
        """g**e for any integer e, one binomial series (r = e)."""
        return _power(self, e, 1)


class NilMat(Value):
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

    # a MatQ that is strictly upper triangular by construction: the log
    # series of a unitriangular matrix
    _raw = classmethod(_unchecked)


def _series(num, den: int, coeffs):
    """The sum of (c / d) * (num / den)**k over the (k, c, d) in coeffs,
    d > 0, with k < n, for a strictly upper triangular n x n integer
    matrix num (a tuple of int tuples) and den > 0, as (integer matrix,
    denominator).  Only the entries above num's diagonal are read, so the
    numerator of a unitriangular g, over its denominator, gives the
    series in g - I.

    (num / den)**k vanishes below its k-th superdiagonal, so each power is
    formed and kept on that band only, as the previous power times num,
    and cut to lowest terms by one gcd; the first zero power ends the sum.
    The terms are then summed once over the lcm of their denominators,
    and the answer is not cut to lowest terms.
    """
    n = len(num)
    cols = list(zip(*num))
    # row i of the k-th power holds its columns i + k, ..., n - 1
    power = [row[i + 1:] for i, row in enumerate(num)]
    pden = den
    terms = []
    lcm = 1
    for k, c, d in coeffs:
        if k >= n:
            break
        if k > 1:
            # entry (i, j) sums over columns i + k - 1, ..., j - 1 of the last
            # power's row i, a prefix of it: the product stops at the column slice
            power = [
                [sum(map(mul, row, cols[j][i + k - 1:j])) for j in range(i + k, n)]
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
        tden = d * pden if k else d
        terms.append((k, c, tden, power))
        lcm = math.lcm(lcm, tden)
    acc = [[0] * n for _ in range(n)]
    for k, c, tden, power in terms:
        c *= lcm // tden
        if k:
            for i, src in enumerate(power[:n - k]):
                row = acc[i]
                row[i + k:] = map(add, row[i + k:], map(c.__mul__, src))
        else:
            for i, row in enumerate(acc):
                row[i] += c
    return tuple(map(tuple, acc)), lcm


def unitri_log(g: UniTriMat) -> NilMat:
    """Exact logarithm: the alternating finite series in (g - I)."""
    return NilMat._raw(MatQ._lowest(*_series(g.mat.num, g.mat.den, _LOG_COEFFS), g.n))


def unitri_exp(x: NilMat) -> UniTriMat:
    """Exact exponential: the finite series sum of x**k / k!."""
    return UniTriMat._raw(MatQ._lowest(*_series(x.mat.num, x.mat.den, _EXP_COEFFS), x.n))


def _binomial(a: int, b: int, n: int):
    """The terms (k, c, d), k < n, with c / d = C(a / b, k), b > 0: each
    is the previous times (a/b - k + 1) / k, cut to lowest terms with
    d > 0 by one gcd.  They end at the first zero coefficient, after which
    every one is zero (a / b a whole number >= 0)."""
    c = d = 1
    for k in range(n):
        if not c:
            return
        yield k, c, d
        c *= a - k * b
        d *= (k + 1) * b
        g = math.gcd(c, d)
        c, d = c // g, d // g


def _power(g: UniTriMat, a: int, b: int) -> UniTriMat:
    """g**(a / b), b > 0: the binomial series sum of C(a / b, k) (g - I)**k,
    finite since (g - I)**n = 0, summed by one ``_series`` on g's integer
    numerator."""
    return UniTriMat._raw(MatQ._lowest(*_series(g.mat.num, g.mat.den, _binomial(a, b, g.n)), g.n))


def pth_root(g: UniTriMat, p: int) -> UniTriMat:
    """The unique unitriangular solution of X**p = g (any p >= 1):
    g**(1/p), one binomial series in g - I.  It equals exp(log(g) / p),
    whose p-th power is g, since (1 + x)**(1/p) and exp(log(1 + x) / p)
    are the same power series."""
    if p < 1:
        raise ExponentMismatch(f"the root exponent must be >= 1, got {p}")
    return _power(g, 1, p)


def is_s_integral(g, primes) -> bool:
    """Whether every entry denominator factors inside the prime set: in
    lowest terms the common denominator is their lcm, so it is the one
    to factor.  A set with a member that is not prime is NotPrime."""
    from .storus import prime_set

    d = (g.mat if isinstance(g, (UniTriMat, NilMat)) else g).den
    for p in prime_set(primes):
        while d % p == 0:
            d //= p
    return d == 1


# ---------------------------------------------------------------------------
# Lie algebra automorphisms and the commensurations they induce


def _basis_pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _from_vec(n: int, vec):
    """The rows (a tuple of tuples) of the n x n matrix with coordinates
    vec in the basis E(i, j), i < j, and 0 elsewhere."""
    rows = [[0] * n for _ in range(n)]
    for v, (i, j) in zip(vec, _basis_pairs(n)):
        rows[i][j] = v
    return tuple(map(tuple, rows))


def _check_size(aut, n: int) -> None:
    if n != aut.n:
        raise DimensionMismatch(f"an automorphism for n = {aut.n} cannot act on a {n}x{n} matrix")


class LieAut(Value):
    """Invertible linear map on the strictly upper triangular matrices,
    stored in the elementary-matrix basis E(i, j), i < j, ordered
    lexicographically.  Whether it preserves the bracket is checked by
    lie_aut_check, not assumed.  Its fields are (n, mat): the slot
    _checked caches lie_aut_check's verdict, and a ``_`` slot is no field,
    so a checked map and a fresh one compare and hash alike."""

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
        scales = list(scales)
        if len(scales) != dim:
            raise ValueError("one scale per basis element")
        rows = [[scales[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
        return cls(n, rows)

    def apply(self, x: NilMat) -> NilMat:
        """The image of x: the map's integer matrix times the numerators
        of x's coordinates, over the product of the two denominators."""
        _check_size(self, x.n)
        vec = [x.mat.num[i][j] for i, j in _basis_pairs(self.n)]
        image = [sum(map(mul, row, vec)) for row in self.mat.num]
        return NilMat(MatQ._lowest(_from_vec(self.n, image), x.mat.den * self.mat.den, self.n))


def _root_images(aut: LieAut):
    """The image of each basis element E(i, j) as an integer matrix:
    column (i, j) of aut.mat.num laid out strictly upper triangular, so
    that aut sends E(i, j) to it over aut.mat.den."""
    return [_from_vec(aut.n, col) for col in zip(*aut.mat.num)]


def _commutator(a, b) -> dict:
    """a b - b a as the dict of its nonzero entries, for integer matrices
    each given as the list of its nonzero entries (r, s, v) and the map
    from a row r to the list of that row's (s, v)."""
    out = {}
    for (entries, _), (_, rows), sign in ((a, b, 1), (b, a, -1)):
        for r, s, v in entries:
            for t, w in rows.get(s, ()):
                out[r, t] = out.get((r, t), 0) + sign * v * w
    return {key: v for key, v in out.items() if v}


def lie_aut_check(aut: LieAut) -> bool:
    """Exact test that the map preserves all basis brackets.

    In the basis E(i, j), [E(i, j), E(k, l)] = d(j, k) E(i, l) - d(l, i) E(k, j)
    with d the Kronecker delta.  By antisymmetry only pairs E(i, j) < E(k, l)
    in the basis order are checked; there i <= k < l, so the second term
    vanishes.  With A, B and C the integer images (``_root_images``) of
    E(i, j), E(k, l) and E(i, l) over the map's denominator den, the
    bracket is preserved when A B - B A equals den C if j = k, and zero
    otherwise; the products run over the nonzero entries of the images.
    """
    if aut._checked is not None:
        return aut._checked
    pairs = _basis_pairs(aut.n)
    index = {pair: idx for idx, pair in enumerate(pairs)}
    den = aut.mat.den
    sparse, scaled = [], []
    for image in _root_images(aut):
        entries = [(r, s, v) for r, row in enumerate(image) for s, v in enumerate(row) if v]
        rows = {}
        for r, s, v in entries:
            rows.setdefault(r, []).append((s, v))
        sparse.append((entries, rows))
        scaled.append({(r, s): den * v for r, s, v in entries})
    aut._checked = all(
        _commutator(sparse[a], sparse[b]) == (scaled[index[i, l]] if j == k else {})
        for a, (i, j) in enumerate(pairs)
        for b, (k, l) in enumerate(pairs[a + 1:], a + 1)
    )
    return aut._checked


def comm_from_lie_aut(aut: LieAut, g: UniTriMat) -> UniTriMat:
    """exp(aut(log g)); a homomorphism in g when aut preserves brackets.
    The sizes are compared before the bracket check, the costlier test."""
    _check_size(aut, g.n)
    if not lie_aut_check(aut):
        raise NotAnAutomorphism("the linear map does not preserve brackets")
    return unitri_exp(aut.apply(unitri_log(g)))


# ---------------------------------------------------------------------------
# congruence depth of the induced commensuration


def _exp_is_p_integral(num, scale: int, den: int, p: int) -> bool:
    """Whether exp(scale * num / den) is p-integral, for a strictly upper
    triangular integer matrix num: one integer series, then one gcd to
    read the denominator of its sum in lowest terms."""
    num, lcm = _series([[scale * x for x in row] for row in num], den, _EXP_COEFFS)
    return lcm // math.gcd(lcm, *chain.from_iterable(num)) % p != 0


def congruence_domain(aut: LieAut, primes) -> int:
    """The least depth D at which the induced commensuration is defined:
    it sends Gamma(D) = {g in U_n(Z[1/S]) : g = I mod D} into U_n(Z[1/S]),
    and a depth works exactly when D divides it.

    Gamma(D) is generated by the root elements e_ij(x) = I + x E(i, j),
    x in D Z[1/S], and the commensuration sends e_ij(x) to exp(x N_ij),
    N_ij the image of E(i, j).  For a prime p outside S, if exp(p**e N)
    is p-integral then so is exp(p**(e+1) N), its p-th power, and by
    continuity so is exp(t p**e N) for every t in Z_p.  So D is the
    product of the p**e_p, e_p the least e that makes exp(p**e N_ij)
    p-integral for every i < j, found by bisection.  e_p is at most
    v_p(den) + [p < n], den the map's denominator: then p**e N_ij / den
    has valuation at least [p < n], which outweighs v_p(k!) < k.  So
    only primes that divide den or are below n can occur.  den is
    factored by prime_factors, and a cofactor it leaves is
    ExceedsFactorBound.
    """
    from .storus import TRIAL_BOUND, is_prime, prime_factors, prime_set

    primes = prime_set(primes)
    if not lie_aut_check(aut):
        raise NotAnAutomorphism("the linear map does not preserve brackets")
    n, den = aut.n, aut.mat.den
    images = _root_images(aut)
    tops, rest = prime_factors(den, primes)
    if rest > 1:
        raise ExceedsFactorBound(f"cannot factor {rest}: no prime factor up to {TRIAL_BOUND}")
    for p in filter(is_prime, range(2, n)):
        tops[p] = tops.get(p, 0) + 1
    depth = 1
    for p, top in tops.items():
        if p in primes:
            continue
        low = 0
        while low < top:
            mid = (low + top) // 2
            if all(_exp_is_p_integral(image, p**mid, den, p) for image in images):
                top = mid
            else:
                low = mid + 1
        depth *= p**top
    return depth
