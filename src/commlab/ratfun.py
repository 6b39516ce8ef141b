"""F2(t) as the entry format of a linear part, and nothing else.

The program computes in no field of rational functions: a lamplighter
linear part is an F2[s, 1/s]-linear map over one scalar denominator
(``lamplighter.CommInftyElt``).  An entry of its matrix is written
``poly`` or ``poly/poly``, each side optionally parenthesized, in the
term syntax of ``F2LaurentPoly.from_string``.
"""

from __future__ import annotations

from .f2poly import F2LaurentPoly, mask_divmod, mask_gcd


def parse(text: str) -> tuple[F2LaurentPoly, F2LaurentPoly]:
    """The numerator and denominator of ``text``, as written (unreduced)."""
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


def to_string(num: int, den: int, shift: int, var: str) -> str:
    """t**shift * num/den in lowest terms, for poly masks num and den with
    den(0) = 1."""
    g = mask_gcd(num, den)
    top = F2LaurentPoly._raw(mask_divmod(num, g)[0], shift).to_string(var)
    if den == g:
        return top
    return f"({top})/({F2LaurentPoly._raw(mask_divmod(den, g)[0], 0).to_string(var)})"
