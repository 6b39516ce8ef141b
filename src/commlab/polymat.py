"""Matrix polynomials over F2[u, 1/u], stored coefficient by coefficient.

An F2 matrix is a tuple of n int row masks (bit j of row i is the (i, j)
entry), so F2 matrix products are a handful of shifts and xors.  A
PolyMat is a Laurent polynomial in u whose coefficients are such tuples;
it represents an n x n matrix over F2[u, 1/u], which keeps products of
large equivariant-commensuration matrices fast.  Only this module reads
the rows of a coefficient, so the level changes, shift commute test and
basis-reversal conjugation that the lamplighter module needs live here.
``entry_masks`` reads all entries in one pass, and ``gauss_jordan`` is
the one elimination over F2[u], so no matrix over F2(u) is ever formed.
"""

from __future__ import annotations

from .f2poly import F2LaurentPoly, mask_divmod, mask_gcd, mask_mul


def gauss_jordan(rows: list, n: int) -> int:
    """Fraction-free Gauss-Jordan elimination over F2[u] (Bareiss 1968), in place.

    rows holds n lists of poly masks: a square matrix N in the first n
    columns, then any further columns B.  Returns det N, or 0 when N is
    singular; otherwise the columns after the first n end up as adj(N) * B.
    Every entry formed is a minor of the input, so each division by the
    previous pivot is exact, and over F2 a row swap changes no sign.
    """
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return 0
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        piv = top[k]
        for row in rows[:k] + rows[k + 1:]:
            a = row[k]
            for j in range(k + 1, len(row)):
                row[j] = mask_divmod(mask_mul(piv, row[j]) ^ mask_mul(a, top[j]), prev)[0]
        prev = piv
    return prev


def _mat_mul(a: tuple, b: tuple) -> tuple:
    """Product of two F2 matrices given as row-mask tuples."""
    out = []
    for r in a:
        acc = 0
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r &= r - 1
        out.append(acc)
    return tuple(out)


def _mat_add(a: tuple, b: tuple) -> tuple:
    return tuple(x ^ y for x, y in zip(a, b))


class PolyMat:
    """Square-matrix-valued Laurent polynomial: sum of coeffs[i] * u**(shift+i),
    each coefficient a tuple of n row masks.

    Normal form: the coefficient tuple is empty (the zero matrix) or has
    nonzero first and last coefficient.
    """

    __slots__ = ("n", "shift", "coeffs")

    def __init__(self, n: int, coeffs, shift: int = 0):
        coeffs = list(coeffs)
        while coeffs and not any(coeffs[0]):
            coeffs.pop(0)
            shift += 1
        while coeffs and not any(coeffs[-1]):
            coeffs.pop()
        self.n = n
        self.coeffs = tuple(coeffs)
        self.shift = shift if coeffs else 0

    @classmethod
    def identity(cls, n: int) -> "PolyMat":
        return cls(n, (tuple(1 << i for i in range(n)),))

    def __mul__(self, other):
        if not isinstance(other, PolyMat):
            return NotImplemented
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not any(a):
                continue
            for j, b in enumerate(other.coeffs):
                if not any(b):
                    continue
                p = _mat_mul(a, b)
                out[i + j] = p if out[i + j] is None else _mat_add(out[i + j], p)
        zero = (0,) * self.n
        return PolyMat(
            self.n, (zero if c is None else c for c in out), self.shift + other.shift
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
        out = [(0,) * self.n] * (len(self.coeffs) + mask.bit_length() - 1)
        m = mask
        while m:
            low = m & -m
            k = low.bit_length() - 1
            for i, c in enumerate(self.coeffs):
                out[i + k] = _mat_add(out[i + k], c)
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
            rows = self.coeffs[e]
            for k in taps:
                if k <= e:
                    rows = _mat_add(rows, out[e - k])
            out.append(rows)
        return PolyMat(self.n, out, self.shift)

    def entry_masks(self) -> list[list[int]]:
        """The n x n entries as poly masks: entry (i, j) is
        u**shift times the polynomial in u whose mask is [i][j]."""
        out = [[0] * self.n for _ in range(self.n)]
        for e, c in enumerate(self.coeffs):
            bit = 1 << e
            for row, r in zip(out, c):
                while r:
                    low = r & -r
                    row[low.bit_length() - 1] |= bit
                    r ^= low
        return out

    @classmethod
    def from_entries(cls, n: int, entries) -> "PolyMat":
        """Build from an n x n array of F2LaurentPoly."""
        polys = [[entries[i][j] for j in range(n)] for i in range(n)]
        nonzero = [p for row in polys for p in row if not p.is_zero()]
        if not nonzero:
            return cls(n, ())
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
        return cls(n, map(tuple, rows), lo)

    def apply(self, vec) -> list[F2LaurentPoly]:
        """Matrix action on a length-n vector of F2LaurentPoly (in u)."""
        zero = F2LaurentPoly.zero()
        out = [zero] * self.n
        for e, c in enumerate(self.coeffs):
            power = self.shift + e
            for i, rowmask in enumerate(c):
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
                    if (c[i] >> j) & 1:
                        mask |= 1 << e
                if mask:
                    g = mask_gcd(g, mask)
                    if g == 1:
                        return 1
        return g

    # ------------------------------------------------------------------
    # the F2-linear map on coordinates: u is the shift by n coordinates

    def commutes_with(self, d: int) -> bool:
        """Whether the matrix commutes with T_d, the shift by d coordinates:
        e_i goes to e_(i+d) when i + d < n, else to u * e_(i+d-n).

        At each power of u, row i of self * T_d is row i moved down d
        columns, its top d columns from the next lower power; row i of
        T_d * self is row i - d, taken from the next lower power when i < d.
        """
        n = self.n
        low = (1 << d) - 1
        zero = (0,) * n
        prev = zero
        for cur in self.coeffs + (zero,):
            for i in range(n):
                left = cur[i - d] if i >= d else prev[i - d]
                if (cur[i] >> d) | ((prev[i] & low) << (n - d)) != left:
                    return False
            prev = cur
        return True

    def raised(self, k: int) -> "PolyMat":
        """The same map as an (n*k) x (n*k) matrix over F2[w, 1/w], w = u**k.

        Coordinate j + n*a with 0 <= a < k is coordinate j times u**a, so
        the u**c coefficient is the block at rows n*a and columns n*a2 of
        the w**e coefficient wherever c + a2 = a + k*e.
        """
        n = self.n
        coeffs = {}
        for ci, rows in enumerate(self.coeffs):
            c = self.shift + ci
            for a2 in range(k):
                a = (c + a2) % k
                e = (c + a2 - a) // k
                out = coeffs.get(e)
                if out is None:
                    out = coeffs[e] = [0] * (n * k)
                off_r, off_c = n * a, n * a2
                for j, r in enumerate(rows):
                    if r:
                        out[j + off_r] ^= r << off_c
        zero = (0,) * (n * k)
        lo, hi = min(coeffs), max(coeffs)
        return PolyMat(
            n * k, (tuple(coeffs[e]) if e in coeffs else zero for e in range(lo, hi + 1)), lo
        )

    def lowered(self, k: int) -> "PolyMat":
        """Inverse of raised(k) on a matrix that commutes with the shift by
        n / k coordinates.

        With u = v**k, the v**(k*e + a) coefficient at size d = n / k is
        rows d*a, ..., d*a + d - 1 of the u**e coefficient, cut to d columns.
        """
        d = self.n // k
        low = (1 << d) - 1
        return PolyMat(
            d,
            (tuple(c[i + d * a] & low for i in range(d)) for c in self.coeffs for a in range(k)),
            self.shift * k,
        )

    def flip(self) -> "PolyMat":
        """R * A(1/u) * R**-1, where R is the basis reversal with R[0][0] = 1
        and R[n-j][j] = 1/u for j = 1, ..., n-1, and R**-1 = R(1/u)."""
        n = self.n
        first = (1,) + (0,) * (n - 1)
        rest = (0,) + tuple(1 << (n - i) for i in range(1, n))
        r = PolyMat(n, (rest, first), -1)
        rinv = PolyMat(n, (first, rest))
        rev = PolyMat(n, reversed(self.coeffs), -(self.shift + len(self.coeffs) - 1))
        return r * rev * rinv
