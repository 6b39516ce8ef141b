"""F2(t) as the entry format of a linear part, and nothing else.

The program computes in no field of rational functions: a lamplighter
linear part is an F2[s, 1/s]-linear map over one scalar denominator
(``lamplighter.CommInftyElt``).  An entry of its matrix is written
``poly`` or ``poly/poly``, each side optionally in one pair of
parentheses, in the term syntax of ``F2LaurentPoly.from_string``.

Parse and print speak one triple (num, den, shift), the element
t**shift * num/den with num and den poly masks: ``parse`` returns it in
lowest terms and ``to_string`` writes it, so each inverts the other.
"""

from __future__ import annotations

from .f2poly import F2LaurentPoly, mask_divmod, mask_gcd


def parse(text: str) -> tuple[int, int, int]:
    """The triple (num, den, shift) of ``text`` in lowest terms: num and
    den are coprime poly masks, den and a nonzero num odd, and zero is
    (0, 1, 0).  The gcd is taken only for a denominator other than a
    power of t."""
    if not isinstance(text, str):
        raise TypeError(f"a rational function must be a string, got {text!r}")
    if text == "0":
        return 0, 1, 0
    top, slash, bottom = text.replace(" ", "").partition("/")
    num = F2LaurentPoly.from_string(_unwrapped(top))
    if not slash:
        return num.mask, 1, num.shift
    den = F2LaurentPoly.from_string(_unwrapped(bottom))
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return 0, 1, 0
    n, d = num.mask, den.mask
    if d != 1:
        g = mask_gcd(n, d)
        n, d = mask_divmod(n, g)[0], mask_divmod(d, g)[0]
    return n, d, num.shift - den.shift


def _unwrapped(side: str) -> str:
    """The side without one enclosing pair of parentheses, if it has one;
    any other parenthesis is left for ``from_string`` to refuse."""
    return side[1:-1] if side[:1] == "(" and side[-1:] == ")" else side


def to_string(num: int, den: int, shift: int, var: str) -> str:
    """t**shift * num/den in lowest terms, for poly masks num and den with
    den(0) = 1."""
    if not num:  # most entries of a large class
        return "0"
    if den == 1:
        return F2LaurentPoly._raw(num, shift).to_string(var)
    g = mask_gcd(num, den)
    top = F2LaurentPoly._raw(mask_divmod(num, g)[0], shift).to_string(var)
    if den == g:
        return top
    return f"({top})/({F2LaurentPoly._raw(mask_divmod(den, g)[0], 0).to_string(var)})"
