import math
import random
from fractions import Fraction as F

import pytest

from commlab.errors import (
    DimensionMismatch,
    ExponentMismatch,
    NotAnAutomorphism,
    ResourceLimit,
    SingularMap,
)
from commlab.matrices import MatQ
from commlab.unipotent import (
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
    assert unitri_log(UniTriMat.identity(3)) == NilMat.zero(3)
    assert unitri_log(elementary(3, 0, 2)).mat == MatQ([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    g = UniTriMat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert unitri_log(g).mat == MatQ([["0", "1", "-1/2"], ["0", "0", "1"], ["0", "0", "0"]])


def test_exp_examples():
    assert unitri_exp(NilMat.zero(3)) == UniTriMat.identity(3)
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


def test_is_s_integral_examples():
    assert is_s_integral(elementary(3, 0, 2, F(1, 2)), {2}) is True
    assert is_s_integral(elementary(3, 0, 2, F(1, 2)), set()) is False
    assert is_s_integral(elementary(3, 0, 1, F(3, 10)), {2, 5}) is True
    assert is_s_integral(elementary(3, 0, 1, F(3, 10)), {2}) is False


# ------------------------------------------------------- Lie automorphisms


def test_lie_aut_check_examples():
    assert lie_aut_check(LieAut.identity(3)) is True
    # uniform scaling doubles one side of the bracket and quadruples the other
    assert lie_aut_check(LieAut.diagonal(3, [2, 2, 2])) is False
    assert lie_aut_check(LieAut.diagonal(3, [2, 4, 2])) is True


def bracket_check_by_definition(aut):
    """aut([x, y]) == [aut(x), aut(y)] for every ordered pair of basis
    elements, each side through a full ``apply``."""
    dim = aut.mat.nrows
    basis = [aut.from_vec([int(k == idx) for k in range(dim)]) for idx in range(dim)]
    images = [aut.apply(x) for x in basis]
    return all(
        aut.apply(basis[a].bracket(basis[b])) == images[a].bracket(images[b])
        for a in range(dim) for b in range(dim)
    )


def graded_inner(rng, n):
    """Matrix of a bracket-preserving map that is not diagonal: conjugation
    by a random unitriangular g, then a graded scaling of E(i, j) by
    lam[i] * ... * lam[j - 1]."""
    lam = [F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])) for _ in range(n)]
    scales = [math.prod(lam[i:j]) for i in range(n) for j in range(i + 1, n)]
    g = rand_unitri(rng, n).mat
    g_inv = g.inv()
    ident = LieAut.identity(n)
    cols = []
    for e in MatQ.identity(len(scales)).rows:
        image = ident.to_vec(NilMat(g * ident.from_vec(e).mat * g_inv))
        cols.append([s * x for s, x in zip(scales, image)])
    return MatQ(cols).transpose()


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


def test_comm_from_lie_aut_examples():
    g = elementary(3, 0, 1)
    assert comm_from_lie_aut(LieAut.identity(3), g) == g
    graded = LieAut.diagonal(3, [2, 4, 2])
    assert comm_from_lie_aut(graded, g) == elementary(3, 0, 1, 2)
    with pytest.raises(NotAnAutomorphism):
        comm_from_lie_aut(LieAut.diagonal(3, [2, 2, 2]), g)


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
        assert comm_from_lie_aut(a1.compose(a2), g) == comm_from_lie_aut(
            a1, comm_from_lie_aut(a2, g)
        )


# --------------------------------------------------------- congruence depth


def test_congruence_domain_examples():
    assert congruence_domain(LieAut.identity(3), set()) == 1
    assert congruence_domain(LieAut.identity(3), {5}) == 1
    assert congruence_domain(LieAut.diagonal(3, [2, 4, 2]), {2}) == 1
    third = LieAut.diagonal(3, [F(1, 3), F(1, 3), 1])
    d = congruence_domain(third, {2})
    assert d == 3


def test_congruence_domain_soundness():
    rng = random.Random(45)
    for aut, primes in (
        (LieAut.diagonal(3, [F(1, 3), F(1, 3), 1]), {2}),
        (LieAut.diagonal(3, [F(2, 5), F(4, 25), F(2, 5)]), {2}),
        (LieAut.diagonal(4, [2, 6, 18, 3, 9, 3]), {2}),
    ):
        d = congruence_domain(aut, primes)
        for _ in range(25):
            n = aut.n
            rows = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    denom = 1
                    for p in primes:
                        denom *= p ** rng.randrange(0, 3)
                    rows[i][j] = d * F(rng.randrange(-6, 7), denom)
            img = comm_from_lie_aut(aut, UniTriMat(rows))
            assert is_s_integral(img, primes)


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
    # sizes that disagree are a domain error naming both sizes
    with pytest.raises(DimensionMismatch, match="3 x 3 matrix for n = 3, got 1 x 1"):
        LieAut(3, [[1]])
    with pytest.raises(DimensionMismatch, match="n = 3 with one for n = 4"):
        LieAut.identity(3).compose(LieAut.identity(4))
