"""S-arithmetic ranks of rational tori built from quadratic factors.

A torus here is a product of split factors Gm, norm-one tori of real or
imaginary quadratic fields, and their full restrictions of scalars,
each tagged by a squarefree discriminant.  The group of S-integer
points is, up to finite index, free abelian of rank

    N = rank_R - rank_Q + sum over p in S of rank_Qp,

and each local rank reduces to deciding whether the discriminant is a
square in the local field.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    ExceedsFactorBound,
    FiniteOrder,
    InvalidTorusSpec,
    NotPrime,
    ReducibleCharPoly,
    ZeroInput,
    json_list,
    json_object,
)
from .frozen import Frozen

TRIAL_BOUND = 10**6
# psi_12, the least strong pseudoprime to all twelve bases of is_prime
# (Sorenson and Webster, Math. Comp. 86, 2017): they prove primality below it
PRIME_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for 64-bit-ish inputs
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_set(primes) -> frozenset:
    """The prime set S, each member checked in increasing order:
    ExceedsFactorBound from PRIME_BOUND on, where is_prime certifies
    nothing, and NotPrime for any other integer, on which a divide-out
    loop would never end (1) or count a composite as a prime (4)."""
    primes = frozenset(primes)
    for p in sorted(primes):
        if p >= PRIME_BOUND:
            raise ExceedsFactorBound(
                f"cannot certify {p} as prime: the Miller-Rabin bases prove "
                f"primality only below {PRIME_BOUND}"
            )
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    return primes


def prime_factors(n: int, known=()) -> tuple[dict, int]:
    """The factorization {p: multiplicity} of n >= 1, and the cofactor
    left uncertified (1 when the factorization is complete).

    The primes in ``known`` (checked by ``prime_set``) are divided out
    first and the rest is trial-divided up to TRIAL_BOUND.  A remaining
    factor is prime when it is below the square of the first divisor not
    tried (about TRIAL_BOUND**2), or below PRIME_BOUND and certified by
    ``is_prime``; any other is returned as the cofactor.
    """
    out = {}
    for p in known:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    p = 2
    while p * p <= n and p <= TRIAL_BOUND:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if 1 < n and (n < p * p or n < PRIME_BOUND and is_prime(n)):
        out[n] = 1
        n = 1
    return out, n


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor with the same sign.

    Factors by ``prime_factors``: trial division up to 10**6, and a
    leftover certified prime.  An input whose unfactored part is neither 1
    nor a perfect square is rejected.
    """
    if n == 0:
        return 0
    factors, rest = prime_factors(abs(n))
    # a square cofactor has even multiplicities throughout, so adds nothing
    if math.isqrt(rest) ** 2 != rest:
        raise ExceedsFactorBound(f"cannot certify the squarefree part of {rest}")
    out = math.prod(p for p, e in factors.items() if e % 2)
    return -out if n < 0 else out


def is_square_qp(x, p: int) -> bool:
    """Whether x in Q* is a square in the p-adic field Q_p, p checked
    by prime_set."""
    from .matrices import _rational  # here only: the torus layer runs without matrices

    x = _rational(x)
    if x == 0:
        raise ZeroInput("0 has no meaningful p-adic square class here")
    prime_set((p,))
    return _is_square_qp(x, p)


def _is_square_qp(x, p: int) -> bool:
    """is_square_qp for a nonzero int or Fraction x and a p that
    prime_set has already checked."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    if v % 2:
        return False
    # unit part u = num/den mod suitable power of p
    if p == 2:
        u = num * pow(den, -1, 8) % 8
        return u == 1
    u = num * pow(den, -1, p) % p
    return pow(u, (p - 1) // 2, p) == 1


class TorusFactor(Frozen):
    """One factor: ``kind`` is "Gm", "NormOne" or "RestScalars", and ``d``
    the squarefree discriminant of the last two."""

    __slots__ = ("kind", "d")

    def __init__(self, kind: str, d: int | None = None):
        super().__init__(kind, d)
        if self.kind == "Gm":
            if self.d is not None:
                raise InvalidTorusSpec("Gm carries no discriminant")
            return
        if self.kind not in ("NormOne", "RestScalars"):
            raise InvalidTorusSpec(f"unknown torus factor {self.kind!r}")
        if self.d in (0, 1) or self.d is None:
            raise InvalidTorusSpec("discriminant must be squarefree and not 0 or 1")
        if squarefree_part(self.d) != self.d:
            raise InvalidTorusSpec(f"discriminant {self.d} is not squarefree")


class TorusSpec(Frozen):
    """Product of Gm / norm-one / restriction-of-scalars quadratic factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[TorusFactor, ...] = ()):
        super().__init__(factors)

    @classmethod
    def gm(cls) -> "TorusSpec":
        return cls((TorusFactor("Gm"),))

    @classmethod
    def norm_one(cls, d: int) -> "TorusSpec":
        return cls((TorusFactor("NormOne", d),))

    @classmethod
    def rest_scalars(cls, d: int) -> "TorusSpec":
        return cls((TorusFactor("RestScalars", d),))

    def __mul__(self, other: "TorusSpec") -> "TorusSpec":
        return TorusSpec(self.factors + other.factors)

    def to_json(self):
        return [
            {"kind": f.kind} if f.d is None else {"kind": f.kind, "d": f.d}
            for f in self.factors
        ]

    @classmethod
    def from_json(cls, obj) -> "TorusSpec":
        factors = (json_object(f, "a torus factor") for f in json_list(obj, "a torus"))
        return cls(tuple(TorusFactor(f["kind"], f.get("d")) for f in factors))


class RankReport(Frozen):
    __slots__ = ("rank_R", "rank_Q", "rank_Qp", "N")

    def to_json(self):
        return {
            "rank_R": self.rank_R,
            "rank_Q": self.rank_Q,
            "rank_Qp": {str(p): r for p, r in sorted(self.rank_Qp.items())},
            "N": self.N,
        }


def _local_rank(spec: TorusSpec, is_square) -> int:
    """Rank of the torus over a field in which the discriminant d of a
    factor has a square root exactly when is_square(d)."""
    total = 0
    for f in spec.factors:
        if f.kind == "Gm":
            total += 1
        elif f.kind == "NormOne":
            total += 1 if is_square(f.d) else 0
        else:  # RestScalars
            total += 2 if is_square(f.d) else 1
    return total


def rank_over(spec: TorusSpec, fieldtag) -> int:
    """Rank of the torus over R, Q, or Q_p.

    ``fieldtag`` is "R", "Q", or ("Qp", p); is_square_qp checks p at
    each factor with a discriminant.
    """
    if not isinstance(spec, TorusSpec):
        raise InvalidTorusSpec("expected a TorusSpec")
    if fieldtag == "R":
        return _local_rank(spec, lambda d: d > 0)
    if fieldtag == "Q":
        return _local_rank(spec, lambda d: False)  # d squarefree, not 1
    p = fieldtag[1]
    return _local_rank(spec, lambda d: is_square_qp(d, p))


def s_rank(spec: TorusSpec, primes) -> RankReport:
    """Free rank of the S-integer points, with the per-field breakdown.
    S is checked once, by prime_set, so the Q_p ranks test squares
    without checking p again."""
    primes = sorted(prime_set(primes))
    r_r = rank_over(spec, "R")
    r_q = rank_over(spec, "Q")
    r_p = {p: _local_rank(spec, lambda d, p=p: _is_square_qp(d, p)) for p in primes}
    n = r_r - r_q + sum(r_p.values())
    return RankReport(r_r, r_q, r_p, n)


def torus_from_matrix2(mat) -> TorusSpec:
    """Zariski closure type of the cyclic group generated by a 2x2
    integer matrix with determinant +-1 and irrational eigenvalues.

    det = 1 gives the norm-one torus of the squarefree part of
    trace**2 - 4.  For det = -1 the closure's identity component is the
    norm-one torus of the square of the matrix, whose discriminant has
    squarefree part equal to that of trace**2 + 4.  Any other shape than
    2 x 2 raises DimensionMismatch.
    """
    if len(mat) != 2 or any(len(row) != 2 for row in mat):
        raise DimensionMismatch(
            f"a torus needs a 2 x 2 matrix, got rows of lengths {[len(row) for row in mat]}")
    (a, b), (c, d) = mat
    det = a * d - b * c
    tr = a + d
    if det not in (1, -1):
        raise InvalidTorusSpec(f"determinant must be +-1, got {det}")
    disc = tr * tr - 4 * det
    root = math.isqrt(abs(disc))
    if disc >= 0 and root * root == disc:
        raise ReducibleCharPoly(
            f"characteristic polynomial splits over Q (disc = {disc})"
        )
    if det == 1 and tr in (-1, 0, 1):
        # x^2 -+ x + 1 and x^2 + 1 are cyclotomic
        raise FiniteOrder(f"matrix has finite order (trace {tr}, det 1)")
    if det == 1:
        return TorusSpec.norm_one(squarefree_part(disc))
    return TorusSpec.norm_one(squarefree_part(tr * tr + 4))


def is_square_qp_bruteforce(x, p: int) -> bool:
    """Search oracle: x is a square in Q_p when its p-adic valuation is
    even and its unit part is among the squares modulo p**2 (2**6 for
    p = 2), which by Hensel's lemma decides a p-adic unit.
    """
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("0 is excluded")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    mod = 2**6 if p == 2 else p**2
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    if v % 2:
        return False
    target = num * pow(den, -1, mod) % mod
    return any(y * y % mod == target for y in range(mod // 2 + 1))
