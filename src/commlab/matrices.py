"""Dense exact matrices over Q (``MatQ``) on a base class for exact scalars.

There is no matrix class over F2(t): lamplighter linear parts stay
matrix polynomials (``polymat``), eliminated fraction-free over F2[u].

A subclass fixes the scalars through the class attributes ``zero`` and
``one`` and the hook ``_coerce``.  Products and sums need only these, so
the scalars may be any commutative ring; elimination needs the field
hook ``_inv_scalar`` too.  One forward elimination, ``_echelon``, serves
every elimination: ``det`` and ``rank`` read it directly, and ``_rref``
adds back-substitution for ``inv``, ``solve`` and ``nullspace``.
Products skip zero entries: each left row's nonzero entries are
collected once, and a term is formed only where the column entry is
nonzero too, because the unitriangular, nilpotent and diagonal matrices
of the Q side are mostly zeros.  Degenerate shapes (0xn, nx0, 0x0) are
legal for every operation, so zero-dimensional blocks can flow through
group-law formulas unchanged.  ``parse_rational`` reads every rational literal.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ResourceLimit, SingularMatrix

# 10**e has e + 1 digits, and CPython converts no int of more than 4300 digits
# to a string by default; Fraction("1e10000000") alone would take seconds.
MAX_DECIMAL_EXPONENT = 4299
_DIGITS = r"\d+(?:_\d+)*"  # a digit run as Fraction reads it
_EXPONENT = re.compile(
    rf"\s*[-+]?(?=\.?\d)(?:{_DIGITS})?(?:\.(?:{_DIGITS})?)?[eE][-+]?({_DIGITS})\s*"
)


def parse_rational(x) -> Fraction:
    """A string or number, numbers read as decimals: 0.1 is 1/10.  A
    decimal exponent above MAX_DECIMAL_EXPONENT is a ResourceLimit."""
    text = str(x)
    m = _EXPONENT.fullmatch(text)
    if m and int(m.group(1)) > MAX_DECIMAL_EXPONENT:
        raise ResourceLimit(
            f"work limit: the literal {text[:40]!r} has an exponent above {MAX_DECIMAL_EXPONENT}"
        )
    return Fraction(text)


class Mat:
    """Immutable rectangular matrix over an exact commutative ring."""

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
    def zeros(cls, r: int, c: int):
        return cls._raw(((cls.zero,) * c for _ in range(r)), ncols=c)

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

    def is_square(self) -> bool:
        return self.nrows == self.ncols

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

    def solve(self, b: "Mat"):
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


class MatQ(Mat):
    """Matrix over Q with arbitrary-precision rational entries."""

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

