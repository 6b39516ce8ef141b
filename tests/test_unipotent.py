import math
import random
import time
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commlab.errors import (
    DimensionMismatch,
    ExceedsFactorBound,
    ExponentMismatch,
    NotAnAutomorphism,
    NotPrime,
    ResourceLimit,
    SingularMap,
)
from commlab.matrices import MatQ
from commlab.unipotent import (
    DIMENSION_CAP,
    LieAut,
    NilMat,
    UniTriMat,
    comm_from_lie_aut,
    congruence_domain,
    is_s_integral,
    lie_aut_check,
    pth_root,
    unitri_exp,
    unitri_log,
)
from commlab.unipotent import _EXP_COEFFS, _LOG_COEFFS, _binomial, _series
from commlab.storus import is_prime
from samplers import MatQFraction, exp_series, log_series, series_by_fractions


def elementary(n, i, j, c=1):
    rows = [[F(1) if a == b else F(0) for b in range(n)] for a in range(n)]
    rows[i][j] = F(c)
    return UniTriMat(rows)


def rand_unitri(rng, n, denoms=(1, 2)):
    rows = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = F(rng.randrange(-4, 5), rng.choice(denoms))
    return UniTriMat(rows)


# --------------------------------------------------------------- log and exp


def test_log_examples():
    assert unitri_log(UniTriMat.identity(3)) == NilMat(MatQ.zeros(3, 3))
    assert unitri_log(elementary(3, 0, 2)).mat == MatQ([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    g = UniTriMat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert unitri_log(g).mat == MatQ([["0", "1", "-1/2"], ["0", "0", "1"], ["0", "0", "0"]])


def test_exp_examples():
    assert unitri_exp(NilMat(MatQ.zeros(3, 3))) == UniTriMat.identity(3)
    assert unitri_exp(NilMat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])) == elementary(3, 0, 2)
    x = NilMat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert unitri_exp(x).mat == MatQ([["1", "1", "1/2"], ["0", "1", "1"], ["0", "0", "1"]])


def test_log_exp_inverse_sampled():
    rng = random.Random(40)
    for _ in range(100):
        n = rng.randrange(1, 7)
        g = rand_unitri(rng, n, denoms=(1, 2, 3))
        assert unitri_exp(unitri_log(g)) == g
    for _ in range(50):
        n = rng.randrange(1, 7)
        x = NilMat(
            [
                [F(rng.randrange(-4, 5), rng.choice([1, 2, 3])) if j > i else F(0)
                 for j in range(n)]
                for i in range(n)
            ]
        )
        assert unitri_log(unitri_exp(x)) == x


@st.composite
def strict_rows(draw):
    """The rows of a strictly upper triangular n x n rational matrix, n
    from 0 to 12: small entries over small denominators, or entries of up
    to 200 bits over a pool of up to three denominators of up to 200 bits.
    The entries come from a Random with a drawn seed, so that every size
    is reached with either kind and large entries stay large."""
    n = draw(st.integers(0, DIMENSION_CAP))
    big = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    if big:
        pool = [rng.randrange(1, 2**200) for _ in range(rng.randrange(1, 4))]
        return [[F(rng.randrange(-2**200, 2**200), rng.choice(pool)) if j > i else F(0)
                 for j in range(n)] for i in range(n)]
    return [[F(rng.randrange(-9, 10), rng.choice([1, 2, 3, 4, 5, 6, 7, 9])) if j > i else F(0)
             for j in range(n)] for i in range(n)]


def unitri_from(rows):
    return UniTriMat([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)])


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(strict_rows())
def test_log_and_exp_match_the_fraction_series(rows):
    """The integer band series against the generic series summed over one
    Fraction per entry, both ways round."""
    n = len(rows)
    g = unitri_from(rows)
    oracle_log = log_series(MatQFraction(g.mat.rows) - MatQFraction.identity(n))
    assert unitri_log(g).mat.rows == oracle_log.rows
    x = NilMat(rows)
    assert unitri_exp(x).mat.rows == exp_series(MatQFraction(rows)).rows
    assert unitri_exp(unitri_log(g)) == g
    assert unitri_log(unitri_exp(x)) == x


# dens for _series: 2, 3, 6, 12, 120 and 11! share factors with the term
# denominators k, k! and those of C(a / b, k); 2**61 - 1 and 10**30 + 57 are
# prime to 11!
_SERIES_DENS = (1, 2, 3, 6, 12, 120, math.factorial(11), 2**61 - 1, 10**30 + 57)


@st.composite
def series_inputs(draw):
    """(num, den, coeffs) for ``_series``: an n x n integer matrix, n from
    0 to 12, whose entries on and below the diagonal are junk that must
    not be read, a den from _SERIES_DENS, and the log, exp or binomial
    coefficients C(a / b, k), k < n."""
    n = draw(st.integers(0, DIMENSION_CAP))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = draw(st.sampled_from([4, 64]))
    num = tuple(tuple(rng.randrange(-2**bits, 2**bits) for _ in range(n)) for _ in range(n))
    kind = draw(st.sampled_from(["log", "exp", "binomial"]))
    if kind == "binomial":
        coeffs = tuple(_binomial(draw(st.integers(-6, 6)), draw(st.integers(1, 7)), n))
    else:
        coeffs = _LOG_COEFFS if kind == "log" else _EXP_COEFFS
    return num, draw(st.sampled_from(_SERIES_DENS)), coeffs


def _strict_part(num, den):
    return MatQFraction([[F(x, den) if j > i else F(0) for j, x in enumerate(row)]
                         for i, row in enumerate(num)])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(series_inputs())
# x**2 = 0, so the series ends after its linear term; diagonal entries of 7
@example((((7, 1, 0, 0, 0), (0, 7, 0, 0, 0), (0, 0, 7, 1, 0), (0, 0, 0, 7, 0), (0, 0, 0, 0, 7)),
          6, _EXP_COEFFS))
@example((((5, 3, -2), (-1, 5, 4), (9, 8, 5)), 6, tuple(_binomial(1, 3, 3))))
def test_series_matches_the_fraction_sum(args):
    """The band series, summed once over the lcm of its term denominators,
    against the sum of (c / d) * (x / den)**k over one Fraction per entry,
    x the part of num above the diagonal.  The answer is not in lowest
    terms, so it is compared as a Fraction matrix."""
    num, den, coeffs = args
    out, lcm = _series(num, den, coeffs)
    assert lcm > 0
    got = MatQFraction([[F(v, lcm) for v in row] for row in out])
    assert got == series_by_fractions(_strict_part(num, den), coeffs)


def test_series_ends_at_the_first_zero_power():
    """x = E(0, 1) + E(2, 3) at n = 5 has x**2 = 0: the sum stops there,
    so its denominator is lcm(1, den), with no k! of a later term."""
    x = [[0] * 5 for _ in range(5)]
    x[0][1] = x[2][3] = 1
    out, lcm = _series(tuple(map(tuple, x)), 6, _EXP_COEFFS)
    assert lcm == 6
    assert out == tuple(tuple(6 * (i == j) + x[i][j] for j in range(5)) for i in range(5))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(strict_rows(), st.sampled_from([1, 2, 3, 5, 7]))
def test_pth_root_is_a_root(rows, p):
    g = unitri_from(rows)
    assert pth_root(g, p) ** p == g


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(strict_rows(), st.integers(-4, 4))
def test_power_is_the_repeated_product(rows, e):
    """g ** e, one binomial series, against the product of |e| copies of
    g (e >= 0) or of its inverse (e < 0)."""
    g = unitri_from(rows)
    base = g if e >= 0 else g.inverse()
    assert g ** e == reduce(mul, [base] * abs(e), UniTriMat.identity(len(rows)))


@st.composite
def root_degrees(draw):
    """p from 1, 2, 3, 5 and 7, or the least probable prime (storus.is_prime)
    at or above a drawn integer of a drawn bit length up to 127, so of up
    to 128 bits."""
    if draw(st.booleans()):
        return draw(st.sampled_from([1, 2, 3, 5, 7]))
    bits = draw(st.integers(2, 127))
    p = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    while not is_prime(p):
        p += 1
    return p


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(strict_rows(), root_degrees())
def test_root_and_inverse_match_the_fraction_series(rows, p):
    """The binomial series against the elimination (the inverse) and
    against exp(log(g) / p) summed over one Fraction per entry (the root)."""
    n = len(rows)
    g = unitri_from(rows)
    assert g.inverse().mat == g.mat.inv()
    log = log_series(MatQFraction(g.mat.rows) - MatQFraction.identity(n))
    assert pth_root(g, p).mat.rows == exp_series(log * F(1, p)).rows


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(strict_rows(), st.integers(0, 2**32))
def test_unchecked_results_pass_the_checking_constructor(rows, seed):
    """Products, exp, inverses and roots skip the unitriangular scan, and
    log the strictly upper triangular one; each result is what UniTriMat
    or NilMat, which scan, builds from its matrix."""
    n = len(rows)
    g = unitri_from(rows)
    h = rand_unitri(random.Random(seed), n, denoms=(1, 2, 3, 5))
    for out in (g * h, h * g, unitri_exp(NilMat(rows)), g.inverse(), pth_root(g, 3), g ** 3):
        checked = UniTriMat(out.mat)
        assert type(out) is UniTriMat and out.n == checked.n == n
        assert out == checked and out.mat.rows == checked.mat.rows
    log = unitri_log(g)
    checked = NilMat(log.mat)
    assert type(log) is NilMat and log.n == checked.n == n
    assert log == checked and log.mat.rows == checked.mat.rows


def test_exp_of_a_log_with_large_denominators_is_fast():
    """At n = 12 a log with 200-bit entry denominators has a 2000-bit
    denominator, and its powers have far smaller ones than its
    denominator's powers: cutting each power to lowest terms keeps log,
    exp and root at about 10 ms each."""
    rng = random.Random(48)
    n = DIMENSION_CAP
    d = rng.randrange(2**199, 2**200)
    g = unitri_from([[F(rng.randrange(-2**200, 2**200), d) if j > i else F(0)
                      for j in range(n)] for i in range(n)])
    start = time.perf_counter()
    x = unitri_log(g)
    back = unitri_exp(x)
    root = pth_root(g, 3)
    elapsed = time.perf_counter() - start
    assert x.mat.den.bit_length() > 2000
    assert back == g and root ** 3 == g
    assert elapsed < 2, elapsed


# ------------------------------------------------------------------- roots


def test_pth_root_examples():
    i4 = UniTriMat.identity(4)
    assert pth_root(i4, 7) == i4
    half = pth_root(elementary(3, 0, 2), 2)
    assert half.mat == MatQ([["1", "0", "1/2"], ["0", "1", "0"], ["0", "0", "1"]])


def test_pth_root_uniqueness_roundtrip():
    rng = random.Random(41)
    for _ in range(60):
        g = rand_unitri(rng, 4)
        for p in (2, 3, 5):
            assert pth_root(g, p) ** p == g
            assert pth_root(g ** p, p) == g
    with pytest.raises(ExponentMismatch):
        pth_root(UniTriMat.identity(2), 0)


def test_radicability_in_s_integers():
    rng = random.Random(42)
    for _ in range(60):
        g = rand_unitri(rng, 4, denoms=(1, 2, 4, 8))
        assert is_s_integral(pth_root(g, 2), {2})
    witness = elementary(4, 0, 1)
    r3 = pth_root(witness, 3)
    assert r3.mat.entry(0, 1) == F(1, 3)
    assert not is_s_integral(r3, {2})


@pytest.mark.parametrize("bad", [1, 0, 4, -3])
def test_a_prime_set_with_a_non_prime_is_refused(bad):
    """1 used to make the divide-out loops of is_s_integral and of the
    factorization in congruence_domain run forever, and 4 was read as a
    prime."""
    for call in (lambda s: is_s_integral(elementary(3, 0, 1, F(1, 6)), s),
                 lambda s: congruence_domain(LieAut.identity(3), s)):
        start = time.perf_counter()
        with pytest.raises(NotPrime, match=f"^{bad} is not prime$"):
            call({2, bad})
        assert time.perf_counter() - start < 0.1


def test_is_s_integral_examples():
    assert is_s_integral(elementary(3, 0, 2, F(1, 2)), {2}) is True
    assert is_s_integral(elementary(3, 0, 2, F(1, 2)), set()) is False
    assert is_s_integral(elementary(3, 0, 1, F(3, 10)), {2, 5}) is True
    assert is_s_integral(elementary(3, 0, 1, F(3, 10)), {2}) is False


# ------------------------------------------------------- Lie automorphisms


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.builds(F, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10, 14])),
                 min_size=n, max_size=n),
        min_size=n, max_size=n)),
    st.sets(st.sampled_from([2, 3, 5, 7])),
)
def test_is_s_integral_reads_the_common_denominator(rows, primes):
    """In lowest terms the common denominator is the lcm of the entry
    denominators, so it factors inside S exactly when each of them does."""

    def s_unit(d):
        for p in primes:
            while d % p == 0:
                d //= p
        return d == 1

    mat = MatQ(rows)
    assert is_s_integral(mat, primes) == all(s_unit(x.denominator) for row in rows for x in row)


def test_lie_aut_check_examples():
    assert lie_aut_check(LieAut.identity(3)) is True
    # uniform scaling doubles one side of the bracket and quadruples the other
    assert lie_aut_check(LieAut.diagonal(3, [2, 2, 2])) is False
    assert lie_aut_check(LieAut.diagonal(3, [2, 4, 2])) is True
    assert lie_aut_check(LieAut(3, flip(3))) is True
    assert lie_aut_check(LieAut(3, -flip(3))) is False


def bracket(x, y):
    return NilMat(x.mat * y.mat - y.mat * x.mat)


def basis_pairs(n):
    """The basis E(i, j), i < j, of the strictly upper triangular n x n
    matrices, ordered as ``LieAut`` orders it."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def from_vec(n, vec) -> NilMat:
    """The strictly upper triangular matrix with coordinates vec."""
    rows = [[0] * n for _ in range(n)]
    for v, (i, j) in zip(vec, basis_pairs(n)):
        rows[i][j] = v
    return NilMat(rows)


def to_vec(x: NilMat):
    """The coordinates of x in the basis E(i, j), i < j."""
    return [x.mat.entry(i, j) for i, j in basis_pairs(x.n)]


def bracket_check_by_definition(aut):
    """aut([x, y]) == [aut(x), aut(y)] for every ordered pair of basis
    elements, each side through a full ``apply`` and dense ``MatQ``
    products."""
    dim = aut.mat.nrows
    basis = [from_vec(aut.n, [int(k == idx) for k in range(dim)]) for idx in range(dim)]
    images = [aut.apply(x) for x in basis]
    return all(
        aut.apply(bracket(basis[a], basis[b])) == bracket(images[a], images[b])
        for a in range(dim) for b in range(dim)
    )


def conjugated_diagonal(rng, n, denoms=(1, 2, 3, 5)):
    """Ad(h) after the diagonal map E(i, j) -> (d_i / d_j) E(i, j), for a
    random unitriangular h: a bracket-preserving map with dense columns."""
    h = rand_unitri(rng, n, denoms)
    d = [F(rng.choice([1, 2, 3, 5, 7, -1]), rng.choice([1, 2, 3, 5])) for _ in range(n)]
    diagonal = LieAut.diagonal(n, [d[i] / d[j] for i in range(n) for j in range(i + 1, n)])
    return LieAut(n, inner_map(h.mat) * diagonal.mat)


def flip(n):
    """The matrix of x -> -J x^T J, J the antidiagonal permutation: E(i, j)
    goes to -E(n-1-j, n-1-i).  It preserves brackets but is no
    conjugation: a conjugation sends E(i, j), E(j, l) to A, B with
    B A = 0, the flip to A, B with A B = 0, so a check that got the sign
    of B A wrong passes the one and fails the other."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return MatQ([[-int(pairs[r] == (n - 1 - j, n - 1 - i)) for i, j in pairs]
                 for r in range(len(pairs))])


@st.composite
def dense_maps(draw):
    """(n, matrix) for n from 2 to 5: Ad(h) after a diagonal map, that
    after the flip, either with one entry changed, or small random
    integers (a few of them singular)."""
    n = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["conjugated", "flipped", "perturbed", "random"]))
    dim = n * (n - 1) // 2
    if kind == "random":
        return n, [[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)]
    mat = conjugated_diagonal(rng, n).mat
    if kind == "flipped" or (kind == "perturbed" and rng.random() < 0.5):
        mat = mat * flip(n)
    rows = [list(row) for row in mat.rows]
    if kind == "perturbed":
        rows[rng.randrange(dim)][rng.randrange(dim)] += rng.choice([-1, F(1, 2), 2])
    return n, rows


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(dense_maps())
def test_lie_aut_check_agrees_with_the_definition_on_dense_maps(case):
    n, rows = case
    try:
        aut = LieAut(n, rows)
    except SingularMap:
        return
    assert lie_aut_check(aut) is bracket_check_by_definition(aut)


def graded_inner(rng, n):
    """Matrix of a bracket-preserving map that is not diagonal: conjugation
    by a random unitriangular g, then a graded scaling of E(i, j) by
    lam[i] * ... * lam[j - 1]."""
    lam = [F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])) for _ in range(n)]
    scales = [math.prod(lam[i:j]) for i in range(n) for j in range(i + 1, n)]
    inner = inner_map(rand_unitri(rng, n).mat)
    return MatQ([[s * x for x in row] for s, row in zip(scales, inner.rows)])


def inner_map(g):
    """Matrix of x -> g x g**-1, its columns read off to_vec/from_vec."""
    n = g.nrows
    g_inv = g.inv()
    cols = [to_vec(NilMat(g * from_vec(n, e).mat * g_inv))
            for e in MatQ.identity(n * (n - 1) // 2).rows]
    return MatQ([list(row) for row in zip(*cols)], ncols=len(cols))


def test_lie_aut_check_agrees_with_the_definition():
    rng = random.Random(46)
    outcomes = set()
    for n in range(2, 6):
        dim = n * (n - 1) // 2
        for _ in range(6):
            good = graded_inner(rng, n)
            perturbed = [list(row) for row in good.rows]
            perturbed[rng.randrange(dim)][rng.randrange(dim)] += rng.choice([-1, F(1, 2), 2])
            scales = [F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2])) for _ in range(dim)]
            maps = {
                "diagonal": LieAut.diagonal(n, scales).mat,
                "graded": good,
                "perturbed": perturbed,
                "random": [[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)],
            }
            for family, mat in maps.items():
                try:
                    aut = LieAut(n, mat)
                except SingularMap:
                    continue
                expected = bracket_check_by_definition(aut)
                assert lie_aut_check(aut) is expected, (family, mat)
                assert lie_aut_check(aut) is expected  # the cached answer
                outcomes.add((family, expected))
    assert {result for _, result in outcomes} == {True, False}
    assert ("graded", False) not in outcomes


def test_lie_aut_singular_rejected():
    dim = 3
    with pytest.raises(SingularMap):
        LieAut(3, MatQ.zeros(dim, dim))


def test_lie_aut_rejects_a_negative_size():
    # n = -2 gives n(n-1)/2 = 3, so the size of the matrix alone cannot tell
    with pytest.raises(DimensionMismatch, match="^n must be >= 0, got -2$"):
        LieAut(-2, MatQ.identity(3))
    assert LieAut(0, MatQ.identity(0)).n == 0


def test_comm_from_lie_aut_examples():
    g = elementary(3, 0, 1)
    assert comm_from_lie_aut(LieAut.identity(3), g) == g
    graded = LieAut.diagonal(3, [2, 4, 2])
    assert comm_from_lie_aut(graded, g) == elementary(3, 0, 1, 2)
    with pytest.raises(NotAnAutomorphism):
        comm_from_lie_aut(LieAut.diagonal(3, [2, 2, 2]), g)
    # the sizes are compared before the brackets are
    with pytest.raises(DimensionMismatch, match="n = 3 cannot act on a 2x2 matrix"):
        comm_from_lie_aut(LieAut.diagonal(3, [2, 2, 2]), elementary(2, 0, 1))


def test_comm_from_lie_aut_is_homomorphism():
    rng = random.Random(43)
    graded = LieAut.diagonal(3, [2, 4, 2])
    for _ in range(40):
        a, b = rand_unitri(rng, 3), rand_unitri(rng, 3)
        assert comm_from_lie_aut(graded, a * b) == comm_from_lie_aut(
            graded, a
        ) * comm_from_lie_aut(graded, b)


def test_comm_from_lie_aut_respects_composition():
    rng = random.Random(44)
    a1 = LieAut.diagonal(3, [2, 4, 2])
    a2 = LieAut.diagonal(3, [F(1, 2), F(1, 4), F(1, 2)])
    for _ in range(30):
        g = rand_unitri(rng, 3)
        assert comm_from_lie_aut(LieAut(3, a1.mat * a2.mat), g) == comm_from_lie_aut(
            a1, comm_from_lie_aut(a2, g)
        )


# --------------------------------------------------------- congruence depth


def prime_divisors(m):
    out, p = set(), 2
    while p * p <= m:
        if m % p == 0:
            out.add(p)
            while m % p == 0:
                m //= p
        p += 1
    return out | ({m} if m > 1 else set())


def depth_point(rng, n, d, primes):
    """A random point of the depth-d congruence subgroup: each entry above
    the diagonal is d times an S-integer."""
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = d * F(rng.randrange(-6, 7), math.prod(p ** rng.randrange(0, 3) for p in primes))
    return UniTriMat(rows)


def assert_least_depth(aut, primes, d, rng, points=10):
    """d is the least congruence depth of aut.  Soundness: random points of
    Gamma(d) have S-integral images.  Minimality: for each prime p | d some
    root element e_ij(d / p), a point of Gamma(d / p), has an image that is
    not S-integral."""
    n = aut.n
    for _ in range(points):
        assert is_s_integral(comm_from_lie_aut(aut, depth_point(rng, n, d, primes)), primes)
    for p in prime_divisors(d):
        assert any(not is_s_integral(comm_from_lie_aut(aut, elementary(n, i, j, d // p)), primes)
                   for i in range(n) for j in range(i + 1, n)), (aut.mat, primes, d, p)


def test_congruence_domain_examples():
    assert congruence_domain(LieAut.identity(3), set()) == 1
    assert congruence_domain(LieAut.identity(3), {5}) == 1
    assert congruence_domain(LieAut.diagonal(3, [2, 4, 2]), {2}) == 1
    third = LieAut.diagonal(3, [F(1, 3), F(1, 3), 1])
    d = congruence_domain(third, {2})
    assert d == 3
    # a diagonal map sends e_ij(x) to I + x c E(i, j): no factorial enters,
    # so the scan's extra factor 2 is gone
    assert congruence_domain(LieAut.diagonal(3, [F(4, 3), F(4, 3), 1]), {7}) == 3


def test_congruence_domain_in_small_sizes():
    # no basis element for n = 0 and 1; for n = 2, exp(x E(0, 1)) = I + x E(0, 1)
    assert congruence_domain(LieAut.identity(0), set()) == 1
    assert congruence_domain(LieAut.identity(1), {2}) == 1
    assert congruence_domain(LieAut.identity(2), set()) == 1
    assert congruence_domain(LieAut.diagonal(2, [F(3, 20)]), set()) == 20
    assert congruence_domain(LieAut.diagonal(2, [F(3, 20)]), {5}) == 4
    assert congruence_domain(LieAut.diagonal(2, [F(-7, 1)]), {3}) == 1


@pytest.mark.parametrize("p", [2, 3, 7])
def test_congruence_domain_of_a_deep_denominator(p):
    """The bisection runs over [0, 200 + [p < 3]]: about eight tests of
    the images, not one per exponent."""
    aut = LieAut.diagonal(3, [F(1, p**200), F(1, p**200), 1])
    start = time.perf_counter()
    assert congruence_domain(aut, {5}) == p**200
    assert time.perf_counter() - start < 1
    assert_least_depth(aut, {5}, p**200, random.Random(p), points=3)


def test_congruence_domain_factor_bound():
    # a prime beyond the trial bound is certified below its square, and
    # above it by is_prime
    for p in (10**12 + 39, 10**14 + 31):
        assert congruence_domain(LieAut.diagonal(3, [F(1, p), F(1, p), 1]), {2}) == p
    # a product of two primes beyond the trial bound is left unfactored
    n = 1000003 * 1000033
    start = time.perf_counter()
    with pytest.raises(ExceedsFactorBound, match=f"cannot factor {n}"):
        congruence_domain(LieAut.diagonal(3, [F(1, n), F(1, n), 1]), {2})
    assert time.perf_counter() - start < 1


def test_congruence_domain_soundness():
    rng = random.Random(45)
    for aut, primes in (
        (LieAut.diagonal(3, [F(1, 3), F(1, 3), 1]), {2}),
        (LieAut.diagonal(3, [F(2, 5), F(4, 25), F(2, 5)]), {2}),
        (LieAut.diagonal(4, [2, 6, 18, 3, 9, 3]), {2}),
    ):
        d = congruence_domain(aut, primes)
        for _ in range(25):
            assert is_s_integral(comm_from_lie_aut(aut, depth_point(rng, aut.n, d, primes)), primes)


class OraclePoly:
    """Sparse multivariate polynomial over Q, as a dict from sorted tuples
    of variable indices to coefficients."""

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            c2 = out.get(m, 0) + c
            if c2:
                out[m] = c2
            else:
                out.pop(m, None)
        return OraclePoly(out)

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return OraclePoly({m: c * other for m, c in self.terms.items() if other})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        return OraclePoly(out)


def oracle_congruence_domain(aut, primes):
    """The depth D = P**e that congruence_domain returned before it found
    the least one, written out with hand-built loops over matrix indices:
    P the primes outside S in the map's denominators and in 2, ..., n - 1,
    the symbolic composite exp(aut(log(I + X))) in one variable per entry
    of X, the map applied coefficient-wise as image (i2, j2) +=
    aut.mat[(i2, j2), (i, j)] * log (i, j), and e the least exponent that
    clears every coefficient.  It is a sufficient depth, so the least one
    divides it."""

    def mat_mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), OraclePoly())
                 for j in range(n)] for i in range(n)]

    def const(c):
        return OraclePoly({(): F(c)} if c else {})

    n = aut.n
    outside = set()
    for row in aut.mat.rows:
        for x in row:
            outside |= prime_divisors(x.denominator)
    for k in range(2, n):
        outside |= prime_divisors(k)
    outside -= primes
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    x = [[OraclePoly() for _ in range(n)] for _ in range(n)]
    for idx, (i, j) in enumerate(pairs):
        x[i][j] = OraclePoly({(idx,): F(1)})
    log = [[OraclePoly() for _ in range(n)] for _ in range(n)]
    power = x
    for k in range(1, n):
        for i in range(n):
            for j in range(n):
                log[i][j] = log[i][j] + power[i][j] * F((-1) ** (k + 1), k)
        power = mat_mul(power, x)
    image = [[OraclePoly() for _ in range(n)] for _ in range(n)]
    for idx, (i, j) in enumerate(pairs):
        for idx2, (i2, j2) in enumerate(pairs):
            image[i2][j2] = image[i2][j2] + log[i][j] * aut.mat.entry(idx2, idx)
    out = [[const(int(i == j)) for j in range(n)] for i in range(n)]
    power = [[const(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n):
        power = mat_mul(power, image)
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + power[i][j] * F(1, math.factorial(k))
    e = 0
    for i in range(n):
        for j in range(n):
            for mono, coef in out[i][j].terms.items():
                den = coef.denominator
                for q in prime_divisors(den) - primes:
                    assert q in outside
                    v = 0
                    while den % q == 0:
                        den //= q
                        v += 1
                    e = max(e, -(-v // len(mono)))
    return math.prod(outside) ** e


def test_congruence_domain_agrees_with_the_oracle():
    """Inner maps x -> g x g**-1 and diagonal conjugations, neither of
    them symmetric in general, so a transposed map is caught: the least
    depth divides the oracle's sufficient one and has its witnesses, and
    on some maps it is a proper divisor."""
    rng = random.Random(47)
    answers = set()
    for n in (3, 4, 5):
        for _ in range(2):
            inner = LieAut(n, inner_map(rand_unitri(rng, n, denoms=(1, 2, 3, 5)).mat))
            d = [F(rng.choice([1, 2, 3, 5, 6, 7]), rng.choice([1, 2, 3, 5])) for _ in range(n)]
            diagonal = LieAut.diagonal(n, [d[i] / d[j] for i in range(n) for j in range(i + 1, n)])
            for aut in (inner, diagonal):
                for primes in (set(), {2}, {3}, {2, 3}):
                    depth = congruence_domain(aut, primes)
                    sufficient = oracle_congruence_domain(aut, primes)
                    assert sufficient % depth == 0, (aut.mat, primes, depth, sufficient)
                    assert_least_depth(aut, primes, depth, rng, points=3)
                    answers.add((depth, sufficient))
    assert min(answers)[0] == 1 and max(d for d, _ in answers) > 100, sorted(answers)
    assert any(d < sufficient for d, sufficient in answers)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    st.integers(3, 5).flatmap(lambda n: st.lists(
        st.builds(F, st.sampled_from([1, 2, 3, 5, -1, 7]), st.sampled_from([1, 2, 3])),
        min_size=n, max_size=n)),
    st.sets(st.sampled_from([2, 3, 5, 7]), max_size=2),
)
def test_congruence_domain_on_diagonal_torus_actions(d, primes):
    """The diagonal maps E(i, j) -> (d_i / d_j) E(i, j) that the benchmark
    times: congruence_domain factors the common denominator of the map,
    the oracle every entry denominator."""
    n = len(d)
    aut = LieAut.diagonal(n, [d[i] / d[j] for i in range(n) for j in range(i + 1, n)])
    depth = congruence_domain(aut, primes)
    assert oracle_congruence_domain(aut, primes) % depth == 0
    assert_least_depth(aut, primes, depth, random.Random(depth), points=3)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(0, 2**32), st.sets(st.sampled_from([2, 3, 5, 7])))
def test_congruence_domain_is_the_least_depth(n, seed, primes):
    """On Ad(h) after a diagonal map, whose root images are dense: the
    soundness and minimality witnesses pin D exactly, and D divides the
    oracle's sufficient depth."""
    rng = random.Random(seed)
    aut = conjugated_diagonal(rng, n, denoms=(1, 2, 3, 5, 7, 9))
    depth = congruence_domain(aut, primes)
    assert oracle_congruence_domain(aut, primes) % depth == 0
    assert_least_depth(aut, primes, depth, rng)


def heisenberg_aut(rng, denoms=(1, 2, 3)):
    """A random bracket-preserving map for n = 3, in the basis E(0, 1),
    E(0, 2), E(1, 2): an invertible A = [[a, b], [c, d]] on the span of
    E(0, 1) and E(1, 2), plus a central part x E(0, 2) and y E(0, 2) on
    their images, and E(0, 2) -> det A E(0, 2).  A conjugation is the
    identity modulo E(0, 2), so for A != I the map is not inner, and the
    image a E(0, 1) + c E(1, 2) + x E(0, 2) squares to a c E(0, 2), so
    the factorials of exp enter where no inner or diagonal map has them."""
    while True:
        a, b, c, d, x, y = (F(rng.randrange(-3, 4), rng.choice(denoms)) for _ in range(6))
        if a * d - b * c and (a, b, c, d) != (1, 0, 0, 1):
            return LieAut(3, [[a, 0, b], [x, a * d - b * c, y], [c, 0, d]])


def test_congruence_domain_of_a_map_that_is_not_inner():
    # E(0, 1) -> E(0, 1) + E(1, 2), fixing E(0, 2) and E(1, 2): exp(t N)
    # holds t**2 / 2 at (0, 2), so the prime 2 < n enters with no
    # denominator in the map
    aut = LieAut(3, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    assert lie_aut_check(aut)
    assert congruence_domain(aut, set()) == 2
    assert congruence_domain(aut, {2}) == 1
    assert_least_depth(aut, set(), 2, random.Random(2))
    rng = random.Random(48)
    for _ in range(12):
        aut = heisenberg_aut(rng)
        assert lie_aut_check(aut)
        for primes in (set(), {2}, {3}):
            depth = congruence_domain(aut, primes)
            assert oracle_congruence_domain(aut, primes) % depth == 0
            assert_least_depth(aut, primes, depth, rng, points=3)


def test_congruence_domain_rejects_non_automorphism():
    with pytest.raises(NotAnAutomorphism):
        congruence_domain(LieAut.diagonal(3, [2, 2, 2]), set())


# ------------------------------------------------------------------- guards


def test_shape_validation():
    with pytest.raises(ValueError):
        UniTriMat([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        UniTriMat([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        NilMat([[1, 0], [0, 0]])
    with pytest.raises(DimensionMismatch, match="square, got 1 x 2"):
        UniTriMat([[1, 1]])
    with pytest.raises(DimensionMismatch, match="square, got 2 x 1"):
        NilMat([[0], [0]])
    with pytest.raises(ResourceLimit, match="capped at 12, got 13 x 13"):
        UniTriMat.identity(13)
    UniTriMat.identity(12)
    # the Lie algebra side has the same cap, checked before any other work
    with pytest.raises(ResourceLimit, match="capped at 12, got 13 x 13"):
        NilMat(MatQ.zeros(13, 13))
    NilMat(MatQ.zeros(12, 12))
    with pytest.raises(ResourceLimit, match="capped at 12, got 13 x 13"):
        LieAut(13, [[1]])
    LieAut.identity(12)
    # sizes that disagree are a domain error naming both sizes
    with pytest.raises(DimensionMismatch, match="3 x 3 matrix for n = 3, got 1 x 1"):
        LieAut(3, [[1]])
