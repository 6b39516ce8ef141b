"""Exact matrices over Q (``MatQ``) and the reading and writing of rationals.

There is one elimination core per ring: ``MatQ._gauss_jordan`` over Z
here, and ``polymat.gauss_jordan`` over F2[u] for the lamplighter linear
parts.  Both are fraction-free Gauss-Jordan eliminations (Bareiss 1968),
so no matrix over a field of fractions is formed in the program.

A ``MatQ`` is an integer matrix ``num`` over one positive denominator
``den``, with ``ncols`` columns, kept in lowest terms: gcd(den, every
entry) is 1, and the zero matrix has den 1.  Its fields are (num, den,
ncols), so equality compares them, and ``ncols`` being a field keeps a
0xn matrix apart from a 0xm one, whose ``num`` is the same empty tuple.  A
product is one integer product over den1 * den2, a sum one rescale to the
lcm of the denominators, a scalar product scales num and den, and each
result takes one gcd back to lowest terms.  ``det``, ``inv`` and the
inner-derivation solver of ``commlab.solvable`` read the one
elimination; the solver resumes it block by block, each new row entering
at the scale of the pivots found so far, and tests the commutation of
its maps with ``MatQ._commute``, which compares the two products of a
pair as dot products with rows packed into one int each (a Kronecker
substitution).
A ``Fraction`` is formed only where an entry is read:
``entry``, ``rows`` and ``to_strings``.  Degenerate shapes (0xn, nx0,
0x0) are legal for every operation, so zero-dimensional blocks can flow
through group-law formulas unchanged.

``parse_rational`` reads every rational literal and
``format_rational`` writes every one.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub

from .errors import ResourceLimit, SingularMatrix
from .frozen import Value

# 10**e has e + 1 digits, and CPython converts no int of more than 4300 digits
# to a string by default; Fraction("1e10000000") alone would take seconds.
MAX_DECIMAL_EXPONENT = 4299
# An int of up to this many bits has its digits counted exactly in a
# ResourceLimit message (forming 10**d then takes 0.06 s; 2**23 bits, 1.3 s).
EXACT_DIGIT_BITS = 1 << 20
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


def format_rational(x: Fraction) -> str:
    """x as ``str`` writes a Fraction.  A numerator or denominator with
    more digits than CPython converts to a string is a ResourceLimit."""
    try:
        return str(x)
    except ValueError:
        raise too_many_digits(max(abs(x.numerator), x.denominator), "a rational") from None


def too_many_digits(big: int, what: str) -> ResourceLimit:
    """The ResourceLimit for printing ``what``, which holds the too long int
    big.  Its digit count is exact up to EXACT_DIGIT_BITS bits; past that,
    where forming 10**d would take seconds, it is the lower bound read off
    the bit length."""
    d = int(big.bit_length() * math.log10(2))
    if big.bit_length() <= EXACT_DIGIT_BITS:
        size = f"a {d + (big >= 10**d)}-digit integer"
    else:
        size = f"an integer of at least {d} digits"
    return ResourceLimit(
        f"work limit: printing {what} needs {size}, above the "
        f"{sys.get_int_max_str_digits()}-digit limit of integer string conversion"
    )


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class MatQ(Value):
    """Matrix over Q: the integer matrix num (a tuple of int tuples), with
    ncols columns, over the positive integer den, in lowest terms."""

    __slots__ = ("num", "den", "ncols")

    def __init__(self, rows, ncols=None):
        rows = [[(x if type(x) is Fraction else _rational(x)).as_integer_ratio() for x in row]
                for row in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        # the lcm of reduced denominators leaves no common factor
        den = math.lcm(*[d for row in rows for _, d in row])
        self.num = tuple([tuple([n * (den // d) for n, d in row]) for row in rows])
        self.den = den
        self.ncols = ncols if ncols is not None else 0

    @classmethod
    def _raw(cls, num, den: int, ncols: int) -> "MatQ":
        """num / den, already in lowest terms with den > 0."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        self.ncols = ncols
        return self

    @classmethod
    def _lowest(cls, num, den: int, ncols: int) -> "MatQ":
        """num / den for any nonzero den, cut to lowest terms by one gcd."""
        if den < 0:
            num = tuple([tuple([-x for x in row]) for row in num])
            den = -den
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple([tuple([x // g for x in row]) for row in num])
                den //= g
        return cls._raw(num, den, ncols)

    @classmethod
    def identity(cls, n: int) -> "MatQ":
        return cls._raw(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, n)

    @classmethod
    def zeros(cls, r: int, c: int) -> "MatQ":
        return cls._raw(((0,) * c,) * r, 1, c)

    @classmethod
    def column(cls, entries) -> "MatQ":
        return cls([[x] for x in entries], ncols=1)

    @property
    def nrows(self) -> int:
        return len(self.num)

    @property
    def rows(self):
        """The entries as Fractions, read-only."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def is_square(self) -> bool:
        return len(self.num) == self.ncols

    def _combine(self, other, op):
        """op(self, other) entrywise, for op add or sub."""
        if type(other) is not MatQ:
            return NotImplemented
        if (len(self.num), self.ncols) != (len(other.num), other.ncols):
            raise ValueError("shape mismatch")
        a, b, den = self.num, other.num, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            fa, fb = den // self.den, den // other.den
            a = [[fa * x for x in row] for row in a]
            b = [[fb * x for x in row] for row in b]
        num = tuple([tuple(map(op, r1, r2)) for r1, r2 in zip(a, b)])
        return MatQ._lowest(num, den, self.ncols)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        num = tuple([tuple([-x for x in row]) for row in self.num])
        return MatQ._raw(num, self.den, self.ncols)

    @staticmethod
    def _num_product(a, b, ncols: int):
        """The integer product of the numerators a and b (tuples of int
        tuples), b with ncols columns: the one product loop over Q."""
        cols = tuple(zip(*b)) if b else ((),) * ncols
        return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])

    def __mul__(self, other):
        if type(other) is MatQ:
            if self.ncols != len(other.num):
                raise ValueError("shape mismatch")
            num = MatQ._num_product(self.num, other.num, other.ncols)
            return MatQ._lowest(num, self.den * other.den, other.ncols)
        try:
            scalar = _rational(other)
        except (TypeError, ValueError):
            return NotImplemented
        p = scalar.numerator
        num = tuple([tuple([p * x for x in row]) for row in self.num])
        return MatQ._lowest(num, self.den * scalar.denominator, self.ncols)

    # the scalars commute, so c * M is M * c
    __rmul__ = __mul__

    @staticmethod
    def _commute(nums, n: int) -> bool:
        """Whether the n x n integer matrices nums commute pairwise, each
        pair tested on packed rows (a Kronecker substitution).

        Row k of a matrix B packs to the int P_B[k] = sum_j B[k][j] * X^j,
        X = 2^b > 4 n M^2 for M the largest |entry| of nums.  Then row i
        of A B packs to sum_k A[i][k] P_B[k], n products of an int by a
        packed row, so a pair costs 2n dot products, not the 2n^3 products
        of A B and B A.  The test is exact: an entry of A B - B A has
        absolute value at most 2 n M^2 < X / 2, so a packed row of the
        difference is 0 only if every digit is.
        """
        if len(nums) < 2 or n < 2:  # 1 x 1 matrices commute
            return True
        m = max(map(abs, chain.from_iterable(chain.from_iterable(nums))))
        b = (4 * n * m * m).bit_length()
        packed = []
        for num in nums:
            rows = []
            for row in num:
                p = 0
                for x in reversed(row):  # Horner's rule in X
                    p = (p << b) + x
                rows.append(p)
            packed.append(rows)
        for i, (a, pa) in enumerate(zip(nums, packed)):
            for c, pc in zip(nums[i + 1:], packed[i + 1:]):
                if [sum(map(mul, row, pc)) for row in a] != [sum(map(mul, row, pa)) for row in c]:
                    return False
        return True

    @staticmethod
    def _gauss_jordan(aug: list, width: int, pivots=(), prev: int = 1):
        """Fraction-free Gauss-Jordan elimination over Z (Bareiss 1968), in place.

        aug holds integer rows.  Pivots are sought in the first ``width``
        columns; later columns are carried along.  Returns (pivot columns,
        d, sign).  Every entry formed is a minor of the input, so each
        division by the previous pivot is exact.  At the end every pivot
        equals the last one, d (1 when there is none), and the k-th row
        has its pivot in column pivots[k], so the reduced row echelon form
        is aug / d.  sign is that of the row permutation: a square matrix
        of full rank has determinant sign * d.

        Given the (pivots, d) of an earlier call whose pivot rows are the
        first len(pivots) rows of aug, the elimination resumes: each later
        row a is a new input row, and enters as d * a - sum_k a[p_k] R_k
        over the pivot rows R_k, the minors that the steps so far would
        have made of it, with no division; the remaining columns then take
        the usual steps.  sign is then that of this call's swaps.
        """
        pivots = list(pivots)
        sign, nr = 1, len(aug)
        if pivots:
            tops = aug[:len(pivots)]
            for i in range(len(pivots), nr):
                a = aug[i]
                row = [prev * x for x in a]
                for p, top in zip(pivots, tops):
                    f = a[p]
                    if f:
                        row = [x - f * y for x, y in zip(row, top)]
                aug[i] = row
        for c in range(width):
            r = len(pivots)
            if r == nr:
                break
            if c in pivots:
                continue
            p = next((i for i in range(r, nr) if aug[i][c]), None)
            if p is None:
                continue
            if p != r:
                aug[r], aug[p] = aug[p], aug[r]
                sign = -sign
            top = aug[r]
            piv = top[c]
            for i, row in enumerate(aug):
                if i == r:
                    continue
                a = row[c]
                if a:
                    aug[i] = [(piv * x - a * y) // prev for x, y in zip(row, top)]
                elif piv != prev:  # every row moves to the scale of the new pivot
                    aug[i] = [piv * x // prev for x in row]
            pivots.append(c)
            prev = piv
        return pivots, prev, sign

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        n = len(self.num)
        pivots, d, sign = self._gauss_jordan([list(r) for r in self.num], n)
        return Fraction(sign * d, self.den**n) if len(pivots) == n else Fraction(0)

    def inv(self) -> "MatQ":
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = len(self.num)
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.num)]
        pivots, d, _ = self._gauss_jordan(aug, n)
        if len(pivots) < n:
            raise SingularMatrix("matrix is not invertible")
        # (num / den)^-1 = den * num^-1, and num^-1 is the right half over d
        den = self.den
        return MatQ._lowest(tuple(tuple(den * x for x in row[n:]) for row in aug), d, n)

    def to_strings(self):
        den = self.den
        return [[format_rational(Fraction(x, den)) for x in row] for row in self.num]
