"""The rational function field F2(t) in canonical form.

A nonzero element is written t**shift * num/den where num and den are
ordinary F2[t] polynomials with nonzero constant term and gcd 1; all
unit factors t**k live in the shift.  This makes equality a tuple
comparison.
"""

from __future__ import annotations

from .f2poly import F2LaurentPoly, mask_divmod, mask_gcd, mask_mul


class F2RatFun:
    """Element of F2(t), reduced and unit-normalized."""

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
    def from_polys(cls, num: F2LaurentPoly, den: F2LaurentPoly) -> "F2RatFun":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        return cls(num.mask, den.mask, num.shift - den.shift)

    def is_zero(self) -> bool:
        return self.num == 0

    def is_poly(self) -> bool:
        """True when the element lies in F2[t, 1/t]."""
        return self.den == 1

    def to_poly(self) -> F2LaurentPoly:
        if self.den != 1:
            raise ValueError("not a Laurent polynomial")
        return F2LaurentPoly._raw(self.num, self.shift)

    def num_poly(self) -> F2LaurentPoly:
        """Numerator including the unit shift."""
        return F2LaurentPoly._raw(self.num, self.shift)

    def den_poly(self) -> F2LaurentPoly:
        return F2LaurentPoly._raw(self.den, 0)

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
            and self.num == other.num
            and self.den == other.den
            and self.shift == other.shift
        )

    def __hash__(self):
        return hash((self.num, self.den, self.shift))

    def to_string(self, var: str = "t") -> str:
        if self.den == 1:
            return self.num_poly().to_string(var)
        return f"({self.num_poly().to_string(var)})/({self.den_poly().to_string(var)})"

    @classmethod
    def from_string(cls, text: str) -> "F2RatFun":
        """Parse ``poly`` or ``poly/poly``, each side optionally parenthesized."""
        if not isinstance(text, str):
            raise TypeError(f"a rational function must be a string, got {text!r}")
        text = text.replace(" ", "")
        if "/" in text:
            top, bottom = text.split("/", 1)
            return cls.from_polys(
                F2LaurentPoly.from_string(top.strip("()")),
                F2LaurentPoly.from_string(bottom.strip("()")),
            )
        return cls.from_poly(F2LaurentPoly.from_string(text.strip("()")))

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"F2RatFun({self.to_string()!r})"
