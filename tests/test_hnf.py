import random
import time
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commlab.errors import SingularMatrix
from commlab.f2poly import F2LaurentPoly as P
from commlab.hnf import is_hnf, row_echelon, solve_membership
from commlab.lamplighter import SubmoduleBasis
from samplers import (
    hnf_f2poly,
    hnf_with_transform,
    left_kernel,
    module_intersect,
    row_echelon_with_transform,
    row_times_mat,
)

ZERO = P.zero()
ONE = P.one()
S = P([1])


def rand_poly(rng, lo=-2, hi=4, p=0.4):
    return P([e for e in range(lo, hi + 1) if rng.random() < p])


def rand_nonsingular(rng, n):
    while True:
        mat = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
        try:
            hnf_f2poly(mat)
            return mat
        except SingularMatrix:
            continue


def hnf_and_transform(mat):
    """(H, U) of the oracle, with the program's H asserted equal to its H."""
    h, u = hnf_with_transform(mat)
    assert hnf_f2poly(mat) == h
    return h, u


def mat_mul(a, b):
    n = len(b[0])
    return [
        [sum((x * b[k][j] for k, x in enumerate(row)), ZERO) for j in range(n)]
        for row in a
    ]


def test_identity_and_unit_normalization():
    ident = [[ONE, ZERO], [ZERO, ONE]]
    h, u = hnf_and_transform(ident)
    assert h == ((ONE, ZERO), (ZERO, ONE))
    assert u == ((ONE, ZERO), (ZERO, ONE))
    # s is a unit: diag(s, 1) reduces to the identity
    h, u = hnf_and_transform([[S, ZERO], [ZERO, ONE]])
    assert h == ((ONE, ZERO), (ZERO, ONE))
    assert u == ((P([-1]), ZERO), (ZERO, ONE))


def test_hand_reduction():
    # rows (1+s, 0) and (1, 1) span the kernel-of-augmentation submodule;
    # Euclidean reduction gives pivots 1 and 1+s
    h, u = hnf_and_transform([[P([0, 1]), ZERO], [ONE, ONE]])
    assert h == ((ONE, ONE), (ZERO, P([0, 1])))
    assert mat_mul(list(u), [[P([0, 1]), ZERO], [ONE, ONE]]) == [list(r) for r in h]
    assert SubmoduleBasis(2, h).index_log2 == 1


def test_singular_rejected():
    with pytest.raises(SingularMatrix):
        hnf_f2poly([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(SingularMatrix):
        hnf_with_transform([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(ValueError):
        hnf_f2poly([[ONE, ONE]])
    # one row for two columns: the echelon form runs out of rows first
    start = time.perf_counter()
    with pytest.raises(SingularMatrix, match="do not span a finite-index submodule"):
        SubmoduleBasis.from_generators(2, [[ONE, S]])
    assert time.perf_counter() - start < 0.5


def test_zero_by_zero():
    assert hnf_f2poly([]) == ()
    assert row_echelon([]) == ((), ())
    assert row_echelon_with_transform([]) == ((), (), ())


def test_submodule_index_examples():
    assert SubmoduleBasis(2, [[ONE, ZERO], [ZERO, ONE]]).index_log2 == 0
    assert SubmoduleBasis(2, [[P([0, 1]), ZERO], [ZERO, ONE]]).index_log2 == 1
    assert SubmoduleBasis(2, [[P([0, 1]), ZERO], [ZERO, P([0, 1])]]).index_log2 == 2
    with pytest.raises(ValueError):
        SubmoduleBasis(2, [[S, ZERO], [ZERO, ONE]])  # unit diagonal entry


def test_hnf_is_idempotent():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randrange(1, 4)
        h = hnf_f2poly(rand_nonsingular(rng, n))
        assert is_hnf(h)
        h2, u2 = hnf_and_transform(h)
        assert h2 == h
        ident = tuple(
            tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
        )
        assert u2 == ident


def test_index_additive_under_products():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(1, 4)
        a = rand_nonsingular(rng, n)
        b = rand_nonsingular(rng, n)
        ia = SubmoduleBasis(n, hnf_f2poly(a)).index_log2
        ib = SubmoduleBasis(n, hnf_f2poly(b)).index_log2
        iab = SubmoduleBasis(n, hnf_f2poly(mat_mul(a, b))).index_log2
        assert iab == ia + ib


def test_transform_is_exact():
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randrange(1, 4)
        mat = rand_nonsingular(rng, n)
        h, u = hnf_and_transform(mat)
        assert mat_mul(list(u), mat) == [list(r) for r in h]


def test_membership_solver():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 4)
        h = hnf_f2poly(rand_nonsingular(rng, n))
        coeffs = [rand_poly(rng) for _ in range(n)]
        vec = row_times_mat(coeffs, h)
        got = solve_membership(h, vec)
        assert got is not None
        assert row_times_mat(got, h) == tuple(vec)


def test_left_kernel_annihilates():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randrange(1, 4)
        top = rand_nonsingular(rng, n)
        stacked = [list(r) for r in top] + [list(r) for r in top]
        kern = left_kernel(stacked)
        assert row_echelon(stacked) == row_echelon_with_transform(stacked)[::2]
        assert len(kern) == n
        for y in kern:
            assert all(x.is_zero() for x in row_times_mat(y, stacked))


def test_module_intersect():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(1, 3)
        ha = hnf_f2poly(rand_nonsingular(rng, n))
        hb = hnf_f2poly(rand_nonsingular(rng, n))
        hc = module_intersect(ha, hb, n)
        assert is_hnf(hc)
        # every generator of the intersection lies in both spans
        for row in hc:
            assert solve_membership(ha, row) is not None
            assert solve_membership(hb, row) is not None
        # maximality: elements of span(ha) that happen to lie in span(hb)
        # must lie in the intersection
        for _ in range(20):
            x = row_times_mat([rand_poly(rng) for _ in range(n)], ha)
            if solve_membership(hb, x) is not None:
                assert solve_membership(hc, x) is not None
        # span(ha * hb) is inside span(hb), so its meet with span(ha)
        # witnesses deep common elements
        for row in SubmoduleBasis.from_generators(n, mat_mul(list(ha), list(hb))).rows:
            if solve_membership(ha, row) is not None:
                assert solve_membership(hc, row) is not None


def test_is_hnf_rejects_unreduced_entries():
    d = P([0, 1, 3])  # degree 3 diagonal
    assert is_hnf([[ONE, P([2])], [ZERO, d]])  # t^2 has degree < 3
    assert not is_hnf([[ONE, P([3])], [ZERO, d]])  # t^3 is not reduced
    assert not is_hnf([[ONE, P([-1])], [ZERO, d]])  # negative exponents
    assert not is_hnf([[ONE, ONE], [ZERO, ONE]])  # nonzero above a unit pivot
    assert not is_hnf([[S]])  # diagonal must have nonzero constant term


def test_module_intersect_with_self_and_full():
    rng = random.Random(14)
    full = hnf_f2poly([[ONE]])
    for _ in range(15):
        ha = hnf_f2poly(rand_nonsingular(rng, 1))
        assert module_intersect(ha, ha, 1) == ha
        assert module_intersect(ha, full, 1) == ha


def det(mat):
    """Leibniz determinant over F2[s, 1/s] (no signs in characteristic 2)."""
    total = ZERO
    for perm in permutations(range(len(mat))):
        term = ONE
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        total = total + term
    return total


@st.composite
def generator_matrices(draw):
    """A 2x2 or 3x3 matrix of short polynomials with one entry s^(+-N) + p,
    N up to 5000, so the elimination divides long masks by short ones
    (the series route) and short by short (the schoolbook loop)."""
    n = draw(st.integers(2, 3))
    entry = st.sets(st.integers(-3, 6), max_size=5).map(P)
    mat = [[draw(entry) for _ in range(n)] for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    big = draw(st.integers(100, 5000)) * draw(st.sampled_from([-1, 1]))
    mat[i][j] = mat[i][j] + P([big])
    return mat


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(generator_matrices())
def test_hnf_invariants_with_a_long_entry(mat):
    try:
        h, u = hnf_and_transform(mat)
    except SingularMatrix:
        assume(False)
    assert is_hnf(h)
    for h_row, u_row in zip(h, u):
        assert row_times_mat(u_row, mat) == h_row
    d = det(u)
    assert d.mask == 1  # a power of s: U is unimodular
