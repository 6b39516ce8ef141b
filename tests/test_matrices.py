import random
import time
from fractions import Fraction

import pytest

from commlab.errors import ResourceLimit, SingularMatrix
from commlab.matrices import EXACT_DIGIT_BITS, MatQ, format_rational
from commlab.solvable import AffineMap, BSElement, solve_inner_derivation
from commlab.storus import is_square_qp, is_square_qp_bruteforce
from commlab.unipotent import LieAut, NilMat, UniTriMat
from samplers import F2RatFun, MatF2Rat


def rand_matq(rng, n):
    return MatQ(
        [[Fraction(rng.randrange(-5, 6), rng.choice([1, 2, 3])) for _ in range(n)]
         for _ in range(n)]
    )


def rand_matf2(rng, n):
    return MatF2Rat(
        [[F2RatFun(rng.randrange(0, 8), rng.randrange(0, 4) * 2 + 1, rng.randrange(-1, 2))
          for _ in range(n)] for _ in range(n)]
    )


def test_inverse_examples():
    assert MatF2Rat.identity(2).inv() == MatF2Rat.identity(2)
    a = MatF2Rat([["t", "0"], ["0", "1"]])
    assert a.inv() == MatF2Rat([["t^-1", "0"], ["0", "1"]])
    b = MatF2Rat([["1", "1"], ["0", "1"]])
    assert b.inv() == b
    assert b * b.inv() == MatF2Rat.identity(2)


def test_singular_rejected():
    with pytest.raises(SingularMatrix):
        MatF2Rat([["1", "1"], ["1", "1"]]).inv()
    with pytest.raises(SingularMatrix):
        MatQ([[1, 2], [2, 4]]).inv()


def test_double_inverse_sampled():
    rng = random.Random(5)
    done = 0
    while done < 40:
        a = rand_matf2(rng, rng.randrange(1, 4))
        if not a.det():
            continue
        assert a.inv().inv() == a
        assert a * a.inv() == MatF2Rat.identity(a.nrows)
        done += 1


def test_zero_by_zero_is_legal():
    e = MatF2Rat.identity(0)
    assert e.inv() == e
    assert e.det() == F2RatFun.one()
    assert e * e == e
    q = MatQ.identity(0)
    assert q.inv() == q and q.det() == 1


def test_degenerate_shapes():
    a = MatQ.zeros(0, 3)
    b = MatQ.zeros(3, 2)
    prod = a * b
    assert (prod.nrows, prod.ncols) == (0, 2)
    back = MatQ.zeros(2, 3) * MatQ.zeros(3, 0)
    assert (back.nrows, back.ncols) == (2, 0)
    assert (MatQ.zeros(2, 3) * b).nrows == 2


def test_det_multiplicative():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 4)
        a, b = rand_matq(rng, n), rand_matq(rng, n)
        assert (a * b).det() == a.det() * b.det()


def test_string_round_trip():
    a = MatQ([["1/2", "-3"], ["0", "7/5"]])
    assert MatQ(a.to_strings()) == a
    b = MatF2Rat([["(1+t)/(1+t+t^2)", "0"], ["t^-1", "1"]])
    assert MatF2Rat(b.to_strings()) == b


def test_a_huge_int_is_refused_without_counting_its_digits():
    # 10**d is formed only up to EXACT_DIGIT_BITS bits; past that the message
    # gives the lower bound read off the bit length (2**(10**8) has 30102999
    # digits and more)
    big = Fraction(1 << 10**8)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="needs an integer of at least 30102999 digits"):
        format_rational(big)
    assert time.perf_counter() - start < 1
    # at the bound the count is still exact: 2**(2**20 - 1) has 315653 digits
    with pytest.raises(ResourceLimit, match="needs a 315653-digit integer"):
        format_rational(Fraction(1 << (EXACT_DIGIT_BITS - 1)))
    with pytest.raises(ResourceLimit, match="needs an integer of at least 315653 digits"):
        format_rational(Fraction(1 << EXACT_DIGIT_BITS))


@pytest.mark.parametrize("build", [
    lambda x: MatQ([[x]]),
    lambda x: MatQ.identity(1) * x,
    lambda x: UniTriMat([["1", x], ["0", "1"]]),
    lambda x: NilMat([["0", x], ["0", "0"]]),
    lambda x: LieAut(2, [[x]]),
    lambda x: LieAut.diagonal(2, [x]),
    lambda x: solve_inner_derivation([[[x]]], [[["1"]]]),
    lambda x: AffineMap(x, "0"),
    lambda x: AffineMap("1", x),
    lambda x: AffineMap(2, 1)(x),
    lambda x: BSElement(2, 0, x),
    lambda x: is_square_qp(x, 3),
    lambda x: is_square_qp_bruteforce(x, 3),
], ids=["MatQ", "scalar", "UniTriMat", "NilMat", "LieAut", "LieAut.diagonal", "solve-inner",
        "AffineMap.r", "AffineMap.q", "AffineMap.call", "BSElement.b", "is_square_qp",
        "is_square_qp_bruteforce"])
def test_a_string_entry_is_read_by_parse_rational(build):
    # a decimal literal reads as parse_rational reads it, its exponent cap
    # included; ints and Fractions pass as they are, and a float is refused
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="has an exponent above 4299"):
        build("1e200000")
    assert time.perf_counter() - start < 0.5
    assert build("2.5e1") == build(25) == build(Fraction(25))
    with pytest.raises(TypeError):
        build(25.0)
