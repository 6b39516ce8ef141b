"""Properties of the products and eliminations of ``commlab.matrices.MatQ``
and of the field matrices of ``samplers`` (``MatF2Rat`` over F2(t)); the
common-denominator ``MatQ`` is also compared with ``MatQFraction``, one
``Fraction`` per entry, operation by operation, and its elimination core
``MatQ._gauss_jordan`` with the reduced row echelon form of
``MatQFraction``.  ``MatQ`` has no rank, solve or nullspace, so over Q
those laws run on ``MatQFraction``, the oracle of that comparison."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.errors import SingularMatrix
from commlab.matrices import MatQ
from samplers import F2RatFun, MatF2Rat, MatQFraction

SCALARS = {
    MatQ: st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    MatQFraction: st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    MatF2Rat: st.builds(
        F2RatFun, st.integers(0, 7), st.sampled_from([1, 3, 5, 7]), st.integers(-1, 1)
    ),
}
# the zero of each entry ring (MatQ keeps no field hooks; the oracles do)
ZERO = {MatQ: Fraction(0), MatQFraction: MatQFraction.zero, MatF2Rat: MatF2Rat.zero}
FIELDS = pytest.mark.parametrize("cls", [MatQ, MatF2Rat], ids=["Q", "F2(t)"])
ORACLE_FIELDS = pytest.mark.parametrize("cls", [MatQFraction, MatF2Rat], ids=["Q", "F2(t)"])
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def matrices(draw, cls, nrows, ncols):
    """An nrows x ncols matrix; half of the draws are a product through a
    narrower inner dimension, so singular and rank-deficient ones are common."""
    entries = SCALARS[cls]

    def block(r, c):
        return cls([[draw(entries) for _ in range(c)] for _ in range(r)], ncols=c)

    if draw(st.booleans()):
        return block(nrows, ncols)
    inner = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
    return block(nrows, inner) * block(inner, ncols)


@st.composite
def square(draw, cls):
    n = draw(st.integers(0, 5))
    return draw(matrices(cls, n, n))


@st.composite
def rectangular(draw, cls):
    return draw(matrices(cls, draw(st.integers(0, 5)), draw(st.integers(0, 5))))


def rank(a) -> int:
    """The rank, for a MatQ the pivot count of its elimination core."""
    if type(a) is MatQ:
        return len(MatQ._gauss_jordan([list(row) for row in a.num], a.ncols)[0])
    return a.rank()


@FIELDS
@PROPERTY
@given(data=st.data())
def test_det_rank_and_inv_agree(cls, data):
    a = data.draw(square(cls))
    n = a.nrows
    singular = a.det() == ZERO[cls]
    assert singular == (rank(a) < n)
    if singular:
        with pytest.raises(SingularMatrix):
            a.inv()
    else:
        assert a * a.inv() == cls.identity(n)
        assert a.inv() * a == cls.identity(n)


@FIELDS
@PROPERTY
@given(data=st.data())
def test_det_multiplicative_property(cls, data):
    a = data.draw(square(cls))
    b = data.draw(matrices(cls, a.nrows, a.nrows))
    assert (a * b).det() == a.det() * b.det()


@ORACLE_FIELDS
@PROPERTY
@given(data=st.data())
def test_rank_of_transpose_and_nullspace(cls, data):
    a = data.draw(rectangular(cls))
    rank = a.rank()
    assert rank == a.transpose().rank() <= min(a.nrows, a.ncols)
    kernel = a.nullspace()
    assert len(kernel) == a.ncols - rank
    for v in kernel:
        assert a * v == cls.zeros(a.nrows, 1)
    if kernel:
        stacked = cls([[v.entry(i, 0) for v in kernel] for i in range(a.ncols)])
        assert stacked.rank() == len(kernel)


@ORACLE_FIELDS
@PROPERTY
@given(data=st.data())
def test_solve_finds_a_solution_exactly_when_one_exists(cls, data):
    a = data.draw(rectangular(cls))
    k = data.draw(st.integers(0, 2))
    if data.draw(st.booleans()):
        b = a * data.draw(matrices(cls, a.ncols, k))  # consistent by construction
        assert a.solve(b) is not None
    else:
        b = data.draw(matrices(cls, a.nrows, k))
    x = a.solve(b)
    if x is not None:
        assert (x.nrows, x.ncols) == (a.ncols, k) and a * x == b
    else:
        # a certificate of inconsistency: y with y^T a = 0 and y^T b != 0
        left = a.transpose().nullspace()
        assert any(any((y.transpose() * b).rows[0]) for y in left)


@FIELDS
@PROPERTY
@given(data=st.data())
def test_scalar_product_is_the_same_on_either_side(cls, data):
    a = data.draw(rectangular(cls))
    c = data.draw(SCALARS[cls])
    entrywise = cls([[c * x for x in row] for row in a.rows], ncols=a.ncols)
    assert c * a == a * c == entrywise


def textbook_product(a, b):
    """(ab)[i][j] = sum over k of a[i][k] * b[k][j], every term formed."""
    cls = type(a)
    return cls(
        [[sum((a.entry(i, k) * b.entry(k, j) for k in range(a.ncols)), ZERO[cls])
          for j in range(b.ncols)] for i in range(a.nrows)],
        ncols=b.ncols,
    )


@st.composite
def sparse_or_dense(draw, cls, nrows, ncols):
    """An nrows x ncols matrix; in half of the draws about three entries
    in four are zero."""
    sparse = draw(st.booleans())

    def entry():
        if sparse and draw(st.integers(0, 3)):
            return ZERO[cls]
        return draw(SCALARS[cls])

    return cls([[entry() for _ in range(ncols)] for _ in range(nrows)], ncols=ncols)


@FIELDS
@PROPERTY
@given(data=st.data())
def test_product_is_the_textbook_triple_sum(cls, data):
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(sparse_or_dense(cls, n, k))
    b = data.draw(sparse_or_dense(cls, k, m))
    assert a * b == textbook_product(a, b)
    assert ((a * b).nrows, (a * b).ncols) == (n, m)
    if k != m:
        with pytest.raises(ValueError, match="shape mismatch"):
            b * b


# ---------------------------------------------------------------------------
# the common-denominator MatQ against the Fraction-entry oracle

# numerators and denominators whose lcms and gcds mix the primes 2, 3 and 5
RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10, 12]))


@st.composite
def rational_rows(draw, nrows, ncols):
    """Rows of Fractions; half of the draws are a product through a
    narrower inner dimension, so rank-deficient ones are common."""

    def block(r, c):
        return [[draw(RATIONALS) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        return block(nrows, ncols)
    inner = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
    left, right = block(nrows, inner), block(inner, ncols)
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
            if right else [Fraction(0)] * ncols for row in left]


@st.composite
def pair(draw, nrows, ncols):
    """The same matrix as a MatQ and as a MatQFraction."""
    rows = draw(rational_rows(nrows, ncols))
    return MatQ(rows, ncols=ncols), MatQFraction(rows, ncols=ncols)


SIDES = st.integers(0, 5)


def canonical(mat):
    """mat is int tuples over a positive denominator in lowest terms."""
    num, den = mat.num, mat.den
    assert type(num) is tuple and all(type(row) is tuple and len(row) == mat.ncols for row in num)
    assert all(type(x) is int for row in num for x in row) and type(den) is int
    assert den > 0 and math.gcd(den, *(x for row in num for x in row)) == 1
    if not any(any(row) for row in num):
        assert den == 1


def agrees(mat, oracle):
    """mat is canonical and equals oracle."""
    canonical(mat)
    assert (mat.nrows, mat.ncols) == (oracle.nrows, oracle.ncols)
    assert mat.rows == oracle.rows
    assert mat.to_strings() == oracle.to_strings()


@PROPERTY
@given(data=st.data())
def test_matq_ring_operations_agree_with_the_fraction_oracle(data):
    r, c, k = data.draw(SIDES), data.draw(SIDES), data.draw(SIDES)
    (a, a_), (b, b_) = data.draw(pair(r, c)), data.draw(pair(r, c))
    m, m_ = data.draw(pair(c, k))
    s = data.draw(RATIONALS | st.integers(-3, 3))
    agrees(a, a_)
    agrees(a + b, a_ + b_)
    agrees(a - b, a_ - b_)
    agrees(-a, -a_)
    agrees(a * m, a_ * m_)
    agrees(s * a, s * a_)
    agrees(a * s, a_ * s)
    assert (a == b) == (a_ == b_)
    assert (a - a) == MatQ.zeros(r, c) and (a - a).den == 1


@st.composite
def integer_rows(draw, nrows, ncols):
    """Integer rows: dense; sparse, so that pivots are sought below and
    rows have a 0 in a pivot column; or a product through a narrower inner
    dimension, so of deficient rank."""
    kind = draw(st.sampled_from(["dense", "sparse", "product"]))
    entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]) if kind == "sparse" else st.integers(-6, 6)

    def block(r, c):
        return [[draw(entries) for _ in range(c)] for _ in range(r)]

    if kind != "product":
        return block(nrows, ncols)
    inner = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
    left, right = block(nrows, inner), block(inner, ncols)
    return [[sum(map(operator.mul, row, col)) for col in zip(*right)] if right else [0] * ncols
            for row in left]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_gauss_jordan_is_d_times_the_reduced_form(data):
    # non-square and rank-deficient integer matrices, the columns from width
    # on carried along as the solver carries its right-hand sides
    r, c = data.draw(SIDES), data.draw(SIDES)
    num = data.draw(integer_rows(r, c))
    width = data.draw(st.integers(0, c))
    inputs = [list(row) for row in num]
    aug = inputs[:]
    pivots, d, sign = MatQ._gauss_jordan(aug, width)
    assert inputs == [list(row) for row in num]  # rows replaced, none changed
    rows, pivots_ = MatQFraction(num, ncols=c)._rref(aug=c - width)
    assert pivots == pivots_
    assert aug == [[d * x for x in row] for row in rows]
    if pivots == list(range(r)) and width == r:  # a square block of full rank
        assert sign * d == MatQFraction([row[:r] for row in num], ncols=r).det()
    # the rank of the transpose
    full = len(MatQ._gauss_jordan([list(row) for row in num], c)[0])
    assert len(MatQ._gauss_jordan([list(col) for col in zip(*num)], r)[0]) == full


def commute_by_products(nums, n):
    return all(MatQ._num_product(a, b, n) == MatQ._num_product(b, a, n)
               for i, a in enumerate(nums) for b in nums[i + 1:])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_packed_commutation_agrees_with_the_products(data):
    # integer matrices of up to 70 bits: drawn, or polynomials in one drawn
    # matrix (so they commute), or those with one entry moved by 1
    n = data.draw(st.integers(0, 5))
    bits = data.draw(st.sampled_from([2, 8, 70]))
    entries = st.integers(-(2**bits), 2**bits)
    base = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    nums = []
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
            sq = MatQ._num_product(base, base, n)
            m = [[a * x + b * y + (i == j) for j, (x, y) in enumerate(zip(r1, r2))]
                 for i, (r1, r2) in enumerate(zip(base, sq))]
        else:
            m = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
        if n and data.draw(st.booleans()):
            m[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] += 1
        nums.append(tuple(map(tuple, m)))
    assert MatQ._commute(nums, n) == commute_by_products(nums, n)


def test_packed_commutation_sees_one_unit_near_the_bound():
    # the entries of A B and B A sit near the bound n M^2 of a product entry,
    # and differ by 1 in the entry (0, 1) only; -A commutes with A
    for m in (3, 2**64 + 1, 3**200):
        a = ((m, m - 1), (0, m - 1))
        b = ((m, m), (0, m - 1))
        ab, ba = MatQ._num_product(a, b, 2), MatQ._num_product(b, a, 2)
        assert ab[0][1] - ba[0][1] == 1 and (ab[0][0], ab[1]) == (ba[0][0], ba[1])
        assert ab[0][1] > 2 * m * m - 3 * m
        neg = tuple(tuple(-x for x in row) for row in a)
        assert MatQ._commute([a, b], 2) is False
        assert MatQ._commute([b, a], 2) is False
        assert MatQ._commute([a, neg, neg], 2) is True
        assert MatQ._commute([a, neg, b], 2) is False
    # A B - B A has the row (0, c 2^j, -c), which packs to 0 in the base
    # X = 2^j of the entries' own size, but not in one above 4 n M^2
    a = ((0, 0, 0), (0, -1, 0), (0, 0, 1))
    for j in range(1, 80):
        for c in (1, 3):
            b = ((0, c << j, c), (0, 0, 0), (0, 0, 0))
            assert not commute_by_products([a, b], 3)
            assert MatQ._commute([a, b], 3) is False


@PROPERTY
@given(data=st.data())
def test_matq_elimination_agrees_with_the_fraction_oracle(data):
    r = data.draw(SIDES)
    s, s_ = data.draw(pair(r, r))
    assert s.det() == s_.det()
    if s_.det():
        agrees(s.inv(), s_.inv())
    else:
        with pytest.raises(SingularMatrix):
            s.inv()
