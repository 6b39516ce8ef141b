"""Properties of the matrix-valued polynomials over F2."""

from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.f2poly import F2LaurentPoly, mask_mul
from commlab.polymat import PolyMat, gauss_jordan
from commlab.ratfun import F2RatFun
from samplers import MatF2Rat

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

laurent_polys = st.builds(F2LaurentPoly, st.lists(st.integers(-4, 4), max_size=4))


@st.composite
def polymats(draw, n=None):
    """n x n (n = 1..6 unless given), with 0 to 6 coefficients at a shift
    in [-3, 3]."""
    if n is None:
        n = draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    coeffs = draw(st.lists(entries, max_size=6))
    return PolyMat(n, map(tuple, coeffs), draw(st.integers(-3, 3)))


nonzero_polymats = polymats().filter(lambda a: a.coeffs)
same_size_pairs = st.integers(1, 6).flatmap(lambda n: st.tuples(polymats(n), polymats(n)))


def _entry(a, i, j):
    """Oracle: entry (i, j) by a walk over every coefficient."""
    mask = 0
    for e, c in enumerate(a.coeffs):
        if (c[i] >> j) & 1:
            mask |= 1 << e
    return F2LaurentPoly._raw(mask, a.shift)


def _entries(a):
    return [[_entry(a, i, j) for j in range(a.n)] for i in range(a.n)]


def _shift_matrix(n, d):
    """T_d on n coordinates: e_i goes to e_(i+d), or to u * e_(i+d-n)."""
    return PolyMat(n, (
        tuple(1 << (r - d) if r >= d else 0 for r in range(n)),
        tuple(1 << (r - d + n) if r < d else 0 for r in range(n)),
    ))


@PROPERTY
@given(polymats(), st.integers(0, 63).map(lambda m: 2 * m + 1))
def test_scalar_div_inverts_scalar_mul(mat, mask):
    # odd masks of degree 0 to 6
    assert mat.scalar_mul(mask).scalar_div(mask) == mat


@PROPERTY
@given(same_size_pairs)
def test_product_is_the_entrywise_product(pair):
    a, b = pair
    zero = F2LaurentPoly.zero()
    want = [
        [sum((_entry(a, i, k) * _entry(b, k, j) for k in range(a.n)), zero) for j in range(a.n)]
        for i in range(a.n)
    ]
    assert _entries(a * b) == want


@PROPERTY
@given(polymats())
def test_from_entries_rebuilds_the_matrix(a):
    # the zero matrix too: all-zero entries give the zero PolyMat
    assert PolyMat.from_entries(a.n, _entries(a)) == a


@PROPERTY
@given(polymats())
def test_entry_masks_agree_with_the_entry_walk(a):
    masks = a.entry_masks()
    assert [[F2LaurentPoly._raw(m, a.shift) for m in row] for row in masks] == _entries(a)


@PROPERTY
@given(polymats(), st.lists(laurent_polys, min_size=6, max_size=6))
def test_apply_is_the_entrywise_action(a, vec):
    vec = vec[:a.n]
    zero = F2LaurentPoly.zero()
    want = [sum((_entry(a, i, j) * vec[j] for j in range(a.n)), zero) for i in range(a.n)]
    assert a.apply(vec) == want


@PROPERTY
@given(nonzero_polymats, st.integers(2, 4))
def test_lowering_inverts_raising(a, k):
    raised = a.raised(k)
    assert raised.n == a.n * k
    assert raised.commutes_with(a.n)
    assert raised.lowered(k) == a


@PROPERTY
@given(nonzero_polymats, st.integers(1, 3))
def test_commute_test_agrees_with_the_products(a, k):
    # raised matrices commute with some shifts, so both answers occur
    b = a.raised(k)
    for d in range(1, b.n + 1):
        t = _shift_matrix(b.n, d)
        assert b.commutes_with(d) == (b * t == t * b), d


@PROPERTY
@given(same_size_pairs)
def test_flip_is_a_multiplicative_involution(pair):
    a, b = pair
    assert a.flip().flip() == a
    assert (a * b).flip() == a.flip() * b.flip()


@st.composite
def augmented(draw):
    """(N, B): N an n x n matrix of poly masks (n = 1..6), B of 0 to 3
    columns.  Half the masks are 0, so pivots often need a row swap, and
    half the N are a product through a narrower inner dimension, so
    singular ones are common."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, 15) | st.just(0)

    def block(r, c):
        return [[draw(masks) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        mat = block(n, n)
    else:
        inner = draw(st.integers(0, n - 1))
        left, right = block(n, inner), block(inner, n)
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for t in range(inner):
                    mat[i][j] ^= mask_mul(left[i][t], right[t][j])
    return mat, block(n, draw(st.integers(0, 3)))


@PROPERTY
@given(augmented())
def test_gauss_jordan_agrees_with_field_elimination(case):
    mat, b = case
    n = len(mat)
    rows = [row + extra for row, extra in zip(mat, b)]
    det = gauss_jordan(rows, n)
    oracle = MatF2Rat([[F2RatFun(m) for m in row] for row in mat])
    assert F2RatFun(det) == oracle.det()
    if det:
        adj_b = oracle.inv() * MatF2Rat([[F2RatFun(m) for m in row] for row in b], ncols=len(b[0]))
        assert [[F2RatFun(m) for m in row[n:]] for row in rows] == [
            [x * F2RatFun(det) for x in row] for row in adj_b.rows
        ]
