"""Bit-packed matrices over F2 and matrix-valued polynomials.

A BitMat stores one Python int per row (bit j of row i is the (i, j)
entry), so F2 matrix products are a handful of shifts and xors.  A
PolyMat is a Laurent polynomial whose coefficients are BitMats; it
represents a square matrix over F2[u, 1/u] coefficient-by-coefficient,
which keeps products of large equivariant-commensuration matrices fast.
"""

from __future__ import annotations

from .f2poly import F2LaurentPoly, mask_gcd


class BitMat:
    """Square matrix over F2, one int mask per row."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = tuple(rows)
        if len(self.rows) != n:
            raise ValueError("row count mismatch")

    @classmethod
    def zero(cls, n: int) -> "BitMat":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "BitMat":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_lists(cls, rows) -> "BitMat":
        n = len(rows)
        return cls(n, tuple(sum((1 << j) for j, v in enumerate(r) if v & 1) for r in rows))

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __add__(self, other):
        return BitMat(self.n, tuple(a ^ b for a, b in zip(self.rows, other.rows)))

    def __mul__(self, other):
        out = []
        brows = other.rows
        for a in self.rows:
            acc = 0
            while a:
                low = a & -a
                acc ^= brows[low.bit_length() - 1]
                a &= a - 1
            out.append(acc)
        return BitMat(self.n, out)

    def __eq__(self, other):
        return isinstance(other, BitMat) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def rank(self) -> int:
        return f2_rank(self.rows)

    def is_invertible(self) -> bool:
        return self.rank() == self.n


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


class PolyMat:
    """Square-matrix-valued Laurent polynomial: sum of coeffs[i] * u**(shift+i).

    Normal form: the coefficient list is empty (the zero matrix) or has
    nonzero first and last coefficient.
    """

    __slots__ = ("n", "shift", "coeffs")

    def __init__(self, n: int, coeffs, shift: int = 0):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            shift += 1
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.n = n
        self.coeffs = tuple(coeffs)
        self.shift = shift if coeffs else 0

    @classmethod
    def identity(cls, n: int) -> "PolyMat":
        return cls(n, (BitMat.identity(n),))

    @classmethod
    def constant(cls, bm: BitMat) -> "PolyMat":
        return cls(bm.n, (bm,))

    def __mul__(self, other):
        if not isinstance(other, PolyMat):
            return NotImplemented
        la, lb = len(self.coeffs), len(other.coeffs)
        out = [None] * (la + lb - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                p = a * b
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        zero = BitMat.zero(self.n)
        return PolyMat(
            self.n, (c if c is not None else zero for c in out),
            self.shift + other.shift,
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolyMat)
            and self.n == other.n
            and self.shift == other.shift
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.shift, self.coeffs))

    def scalar_mul(self, mask: int) -> "PolyMat":
        """Multiply by the nonzero scalar polynomial in u given as a mask."""
        out = [BitMat.zero(self.n) for _ in range(len(self.coeffs) + mask.bit_length() - 1)]
        m = mask
        while m:
            low = m & -m
            k = low.bit_length() - 1
            for i, c in enumerate(self.coeffs):
                out[i + k] = out[i + k] + c
            m &= m - 1
        return PolyMat(self.n, out, self.shift)

    def scalar_div(self, mask: int) -> "PolyMat":
        """Exact quotient by the scalar polynomial in u given as an odd mask.

        The inverse of scalar_mul: the quotient coefficients Q_e solve
        N_e = sum of Q_(e-k) over the terms u**k of the mask, in order of e.
        """
        taps = [k for k in range(1, mask.bit_length()) if mask >> k & 1]
        out = []
        for e in range(len(self.coeffs) - mask.bit_length() + 1):
            rows = self.coeffs[e].rows
            for k in taps:
                if k <= e:
                    rows = [a ^ b for a, b in zip(rows, out[e - k])]
            out.append(rows)
        return PolyMat(self.n, (BitMat(self.n, r) for r in out), self.shift)

    def entry(self, i: int, j: int) -> F2LaurentPoly:
        mask = 0
        for e, c in enumerate(self.coeffs):
            if (c.rows[i] >> j) & 1:
                mask |= 1 << e
        return F2LaurentPoly._raw(mask, self.shift)

    @classmethod
    def from_entries(cls, n: int, entries) -> "PolyMat":
        """Build from an n x n array of F2LaurentPoly."""
        polys = [[entries[i][j] for j in range(n)] for i in range(n)]
        nonzero = [p for row in polys for p in row if not p.is_zero()]
        lo = min(p.shift for p in nonzero)
        hi = max(p.shift + p.mask.bit_length() for p in nonzero)
        rows = [[0] * n for _ in range(hi - lo)]
        for i in range(n):
            for j in range(n):
                p = polys[i][j]
                m, base = p.mask, p.shift - lo
                while m:
                    low = m & -m
                    rows[base + low.bit_length() - 1][i] |= 1 << j
                    m &= m - 1
        return cls(n, (BitMat(n, r) for r in rows), lo)

    def apply(self, vec) -> list[F2LaurentPoly]:
        """Matrix action on a length-n vector of F2LaurentPoly (in u)."""
        zero = F2LaurentPoly.zero()
        out = [zero] * self.n
        for e, c in enumerate(self.coeffs):
            power = self.shift + e
            for i, rowmask in enumerate(c.rows):
                acc = zero
                m = rowmask
                while m:
                    low = m & -m
                    acc = acc + vec[low.bit_length() - 1]
                    m &= m - 1
                if not acc.is_zero():
                    out[i] = out[i] + acc.shifted(power)
        return out

    def content_mask(self, g: int) -> int:
        """gcd of the mask g and all entry polynomials, as a mask."""
        for i in range(self.n):
            for j in range(self.n):
                mask = 0
                for e, c in enumerate(self.coeffs):
                    if (c.rows[i] >> j) & 1:
                        mask |= 1 << e
                if mask:
                    g = mask_gcd(g, mask)
                    if g == 1:
                        return 1
        return g
