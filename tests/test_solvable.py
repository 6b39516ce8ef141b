import json
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.errors import (
    BaseMismatch,
    DegenerateAction,
    DimensionMismatch,
    IncompatibleCocycle,
    OutOfDomain,
    ResourceLimit,
    UnknownInstantiation,
    ZeroInput,
)
from commlab import solvable
from commlab.matrices import MatQ
from commlab.solvable import (
    AffineMap,
    BSElement,
    BSReduced,
    CommDesc,
    CommSpace,
    TrivialReduced,
    bs_comm_apply,
    bs_comm_domain,
    bs_mul,
    comm_desc_inv,
    comm_desc_mul,
    reduced_comm_structure,
    reduced_part,
    solve_inner_derivation,
)
from samplers import solve_inner_by_definition


def rand_affine(rng):
    return AffineMap(
        F(rng.choice([1, 2, 3, -1, 5, -2]), rng.choice([1, 2, 3])),
        F(rng.randrange(-4, 5), rng.choice([1, 2, 3, 6])),
    )


def rand_bs(rng, k, d):
    return BSElement(
        2,
        k * rng.randrange(-3, 4),
        d * F(rng.randrange(-8, 9), 2 ** rng.randrange(0, 4)),
    )


def _odd_part(n):
    while n % 2 == 0:
        n //= 2
    return n


def _mult_order(n, mod):
    if mod == 1:
        return 1
    k, acc = 1, n % mod
    while acc != 1:
        acc = acc * n % mod
        k += 1
    return k


def _nested_domain_element(rng, c1, c2):
    """Element of BS(1,2) on which c2, then c1, then c1 . c2 all apply."""
    k = d = 1
    for c in (c1, c2, c1.compose(c2)):
        kk, dd = bs_comm_domain(c, 2)
        k, d = math.lcm(k, kk), math.lcm(d, dd)
    _, d1 = bs_comm_domain(c1, 2)
    b_scale = d * _odd_part(c2.r.denominator) * d1
    k = math.lcm(k, _mult_order(2, _odd_part(c2.q.denominator * d1)))
    return rand_bs(rng, k, b_scale)


# -------------------------------------------------------------- BS(1, n)


def test_bs_mul_examples():
    t = BSElement(2, 1, 0)
    e = BSElement(2, 0, 1)
    assert bs_mul(BSElement.identity(2), e) == e
    assert bs_mul(bs_mul(t, e), t.inverse()) == BSElement(2, 0, 2)
    assert bs_mul(BSElement(2, 0, F(1, 2)), BSElement(2, 1, 0)) == BSElement(2, 1, F(1, 2))


def test_bs_base_mismatch_and_invariants():
    with pytest.raises(BaseMismatch):
        bs_mul(BSElement(2, 0, 1), BSElement(3, 0, 1))
    with pytest.raises(OutOfDomain):
        BSElement(2, 0, F(1, 3))  # 1/3 is not a 2-integer
    for n in (1, 0):
        with pytest.raises(DegenerateAction):
            BSElement(n, 0, 1)
        with pytest.raises(DegenerateAction):
            bs_comm_domain(AffineMap(1, F(1, 3)), n)
    with pytest.raises(ZeroInput):
        AffineMap(0, 1)
    BSElement(6, 0, F(5, 12))  # 12 = 2^2 * 3 divides a power of 6


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(2, 6), st.integers(-5, 5), st.integers(-50, 50), st.integers(0, 4))
def test_bs_element_json_round_trip(n, a, m, j):
    # m / n**j, reduced, runs over the n-integral translations
    g = BSElement(n, a, F(m, n**j))
    assert BSElement.from_json(json.loads(json.dumps(g.to_json()))) == g


def test_bs_group_axioms():
    rng = random.Random(50)
    for _ in range(100):
        g, h, k = (rand_bs(rng, 1, 1) for _ in range(3))
        assert bs_mul(bs_mul(g, h), k) == bs_mul(g, bs_mul(h, k))
        assert bs_mul(g, g.inverse()) == BSElement.identity(2)


def test_bs_comm_domain_examples():
    assert bs_comm_domain(AffineMap(1, 0), 2) == (1, 1)
    assert bs_comm_domain(AffineMap(2, 0), 2) == (1, 1)
    assert bs_comm_domain(AffineMap(1, F(1, 3)), 2) == (2, 3)
    assert bs_comm_domain(AffineMap(F(1, 5), F(1, 2)), 2) == (1, 5)
    assert bs_comm_domain(AffineMap(1, F(1, 7)), 2) == (3, 7)  # ord(2 mod 7) = 3


def _order_by_powers(n, d, cap):
    """The order of n mod d by one product per power, or None above cap."""
    k, x = 1, n % d
    while x != 1:
        if k == cap:
            return None
        x, k = x * n % d, k + 1
    return k


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(2, 30), st.integers(2, 600), st.integers(1, 300), st.integers(1, 40))
def test_order_search_matches_the_power_loop(n, d, cap, baby):
    # small caps and baby-step counts, so that the giant steps and the cap
    # boundary are reached; there are no more baby steps than the cap, as in
    # the module's constants
    if math.gcd(n, d) != 1:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvable, "ORDER_CAP", cap)
        mp.setattr(solvable, "_BABY_STEPS", min(baby, cap))
        try:
            got = bs_comm_domain(AffineMap(1, F(1, d)), n)[0]
        except ResourceLimit:
            got = None
    assert got == _order_by_powers(n, d, cap)


def test_order_search_on_large_moduli():
    # 2 has order 40009 mod 2**40009 - 1: past the baby steps, on 40009-bit ints
    assert bs_comm_domain(AffineMap(1, F(1, 2**40009 - 1)), 2) == (40009, 2**40009 - 1)
    # 3 mod 10**4303 has an order far above ORDER_CAP; the detail names its size
    with pytest.raises(ResourceLimit, match="modulo a 14295-bit integer"):
        bs_comm_domain(AffineMap(1, F(1, 10**4303)), 3)


def test_the_order_search_stops_at_its_first_hit():
    # 2 has order 2 mod 3, found at the second baby step; under a cap of
    # 2**35 a search that builds its giant-step table first forms 2**20 entries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvable, "ORDER_CAP", 2**35)
        start = time.perf_counter()
        assert bs_comm_domain(AffineMap(1, F(1, 3)), 2) == (2, 3)
        assert time.perf_counter() - start < 0.02


def test_bs_comm_apply_examples():
    e = BSElement(2, 0, 1)
    assert bs_comm_apply(AffineMap.identity(), e) == e
    assert bs_comm_apply(AffineMap(2, 0), e) == BSElement(2, 0, 2)
    assert bs_comm_apply(AffineMap(1, F(1, 3)), BSElement(2, 2, 0)) == BSElement(2, 2, -1)
    with pytest.raises(OutOfDomain):
        bs_comm_apply(AffineMap(1, F(1, 3)), BSElement(2, 1, 0))
    with pytest.raises(OutOfDomain):
        bs_comm_apply(AffineMap(F(1, 3), 0), BSElement(2, 0, 1))


def test_bs_domain_is_subgroup_with_image_inside():
    rng = random.Random(51)
    for _ in range(100):
        c = rand_affine(rng)
        k, d = bs_comm_domain(c, 2)
        g, h = rand_bs(rng, k, d), rand_bs(rng, k, d)
        prod = bs_mul(g, h.inverse())
        assert prod.a % k == 0
        assert (prod.b / d).denominator.bit_count() == 1  # a power of two
        bs_comm_apply(c, prod)  # stays defined, lands in BS(1,2)


def test_bs_comm_apply_homomorphism_and_compatibility():
    rng = random.Random(52)
    for _ in range(150):
        c = rand_affine(rng)
        k, d = bs_comm_domain(c, 2)
        g, h = rand_bs(rng, k, d), rand_bs(rng, k, d)
        assert bs_comm_apply(c, bs_mul(g, h)) == bs_mul(
            bs_comm_apply(c, g), bs_comm_apply(c, h)
        )
    for _ in range(100):
        c1, c2 = rand_affine(rng), rand_affine(rng)
        g = _nested_domain_element(rng, c1, c2)
        assert bs_comm_apply(c1.compose(c2), g) == bs_comm_apply(
            c1, bs_comm_apply(c2, g)
        )


def test_affine_group():
    rng = random.Random(53)
    for _ in range(60):
        a, b = rand_affine(rng), rand_affine(rng)
        assert a.compose(a.inverse()) == AffineMap.identity()
        for x in (F(0), F(1, 3), F(-7, 2)):
            assert a.compose(b)(x) == a(b(x))


# ------------------------------------------------------- inner derivations


def test_solve_inner_examples():
    assert solve_inner_derivation([MatQ([[2]])], [MatQ([[3]])]) == MatQ([[3]])
    assert solve_inner_derivation([MatQ([[2]])], [MatQ([[0]])]) == MatQ([[0]])
    x = solve_inner_derivation(
        [MatQ([[2, 0], [0, 3]]), MatQ([[3, 0], [0, 2]])],
        [MatQ.column([1, 2]), MatQ.column([2, 1])],
    )
    assert x == MatQ.column([1, 1])


def test_solve_inner_rejections():
    with pytest.raises(DegenerateAction, match="^the actions share a nonzero fixed vector$"):
        solve_inner_derivation([MatQ([[1, 0], [0, 2]])], [MatQ.column([0, 1])])
    # this system also has no solution; the identity is named, as it is checked first
    with pytest.raises(IncompatibleCocycle,
                       match="^right-hand sides fail the commuting-cocycle identity$"):
        solve_inner_derivation(
            [MatQ([[2, 0], [0, 3]]), MatQ([[3, 0], [0, 2]])],
            [MatQ.column([1, 2]), MatQ.column([2, 2])],
        )
    with pytest.raises(IncompatibleCocycle, match="^the matrices do not commute$"):
        solve_inner_derivation(
            [MatQ([[1, 1], [0, 2]]), MatQ([[2, 0], [1, 1]])],
            [MatQ.column([0, 0]), MatQ.column([0, 0])],
        )
    # a shared fixed vector and a failed identity: the identity is named
    with pytest.raises(IncompatibleCocycle,
                       match="^right-hand sides fail the commuting-cocycle identity$"):
        solve_inner_derivation(
            [MatQ([[1, 0], [0, 2]]), MatQ([[1, 0], [0, 3]])],
            [MatQ.column([0, 1]), MatQ.column([0, 0])],
        )


def _planted_system(rng, dim, count, fixed=False, staggered=False, wide=False):
    """Commuting T_i = C D_i C^-1, D_i diagonal with eigenvalues != 1, a
    planted x and v_i = (T_i - 1) x.  With ``fixed`` every D_i has the
    eigenvalue 1 at one shared place, so the T_i share a fixed vector;
    with ``staggered`` (count <= dim) each D_i has it at a place of its
    own, so every T_i - 1 is singular but the stack has full rank.  With
    ``wide`` the eigenvalues and x have numerators and denominators of 60
    to 64 bits."""
    base = MatQ.identity(dim)
    # random unimodular conjugator keeps everything exact
    conj = MatQ.identity(dim)
    for _ in range(dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j:
            rows = [list(r) for r in MatQ.identity(dim).rows]
            rows[i][j] = F(rng.randrange(-2, 3))
            conj = conj * MatQ(rows)
    cinv = conj.inv()
    eigs = [F(2), F(3), F(-1), F(5), F(1, 2), F(3, 2), F(-1, 2), F(5, 2)]

    def eig():
        if wide:
            return F(rng.choice((1, -1)) * rng.randrange(2**60, 2**64), rng.randrange(2**60, 2**64))
        return rng.choice(eigs)

    one = rng.randrange(dim) if fixed else None
    ones = rng.sample(range(dim), count) if staggered else [one] * count
    ts = []
    for place in ones:
        diag = MatQ(
            [
                [(F(1) if i == place else eig()) if i == j else F(0) for j in range(dim)]
                for i in range(dim)
            ]
        )
        ts.append(conj * diag * cinv)
    if wide:
        x = MatQ.column([F(rng.randrange(-(2**64), 2**64), rng.randrange(2**60, 2**64))
                         for _ in range(dim)])
    else:
        x = MatQ.column([F(rng.randrange(-4, 5), rng.choice([1, 2])) for _ in range(dim)])
    vs = [(t - base) * x for t in ts]
    return ts, vs, x


def test_solve_inner_planted():
    rng = random.Random(54)
    solved = 0
    while solved < 40:
        dim = rng.randrange(1, 7)
        ts, vs, x = _planted_system(rng, dim, rng.randrange(1, 4))
        got = solve_inner_derivation(ts, vs)
        assert got == x
        # exact residual
        for t, v in zip(ts, vs):
            assert (t - MatQ.identity(dim)) * got == v
        solved += 1


@st.composite
def inner_systems(draw):
    """(ts, vs): a planted system of ``_planted_system`` with dim 1 to 5
    and 1 to 3 matrices, as it is, with one v entry changed, with one T
    swapped for a small random matrix (which commutes with the others
    only by chance), with a shared eigenvalue 1, or with both a shared
    eigenvalue 1 and a changed v entry; or "staggered", with dim 2 to 5
    and 2 or 3 matrices, each T_i with the eigenvalue 1 at a place of its
    own, so the first block is singular and the stack has full rank, as
    it is or with a changed v entry; or "wide", with eigenvalues and x of
    60- to 64-bit numerators and denominators."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(
        ["planted", "changed", "swapped", "fixed", "fixed changed", "staggered",
         "staggered changed", "wide"]))
    dim, count = rng.randrange(1, 6), rng.randrange(1, 4)
    staggered = kind.startswith("staggered")
    if staggered:
        dim = max(dim, 2)
        count = max(2, min(count, dim))
    ts, vs, _ = _planted_system(rng, dim, count, fixed=kind.startswith("fixed"),
                                staggered=staggered, wide=kind == "wide")
    if kind.endswith("changed"):
        k = rng.randrange(count)
        rows = [list(r) for r in vs[k].rows]
        rows[rng.randrange(dim)][0] += rng.choice([F(1), F(-1, 3), F(2)])
        vs[k] = MatQ(rows)
    elif kind == "swapped":
        ts[rng.randrange(count)] = MatQ(
            [[F(rng.randrange(-3, 4), rng.choice([1, 2])) for _ in range(dim)] for _ in range(dim)]
        )
    return ts, vs


def outcome(solve, ts, vs):
    """The solution's entries, or the error's class and message."""
    try:
        return solve(ts, vs).rows
    except (DegenerateAction, IncompatibleCocycle) as exc:
        return type(exc), str(exc)


def test_solve_inner_agrees_with_the_definition():
    """The same solution, or the same error with the same message, as the
    checks in the order of their definition over one Fraction per entry;
    at least 20 draws have a singular first block, so the solver
    eliminates again with the next block."""
    short = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=210)
    @given(inner_systems())
    def check(system):
        ts, vs = system
        assert outcome(solve_inner_derivation, ts, vs) == outcome(solve_inner_by_definition, ts, vs)
        short.append(len(ts) > 1 and (ts[0] - MatQ.identity(ts[0].nrows)).det() == 0)

    check()
    assert sum(short) >= 20, sum(short)


# ------------------------------------------- iterated semidirect product


def rand_desc(rng, space):
    def rnd():
        return F(rng.randrange(-3, 4), rng.choice([1, 2, 3]))

    def randmat(r, c):
        return MatQ([[rnd() for _ in range(c)] for _ in range(r)], ncols=c)

    while True:
        p = randmat(space.n0, space.n0)
        if space.n0 == 0 or p.det():
            break
    red = space.red.identity()
    if isinstance(space.red, BSReduced):
        red = AffineMap(F(rng.choice([1, 2, 3, -1]), rng.choice([1, 2])), rnd())
    return CommDesc(
        space,
        randmat(space.dz, space.n0),
        p,
        randmat(space.n0, space.n1),
        randmat(space.dz1, space.n1),
        red,
    )


SPACES = [
    CommSpace(2, 1, 1, 1, TrivialReduced()),
    CommSpace(1, 2, 2, 0, BSReduced()),
    CommSpace(0, 1, 0, 0, BSReduced()),
    CommSpace(3, 2, 1, 2, TrivialReduced()),
]


def test_comm_desc_group_axioms():
    rng = random.Random(55)
    for space in SPACES:
        ident = space.identity_desc()
        assert comm_desc_mul(ident, ident) == ident
        for _ in range(40):
            a, b, c = (rand_desc(rng, space) for _ in range(3))
            assert comm_desc_mul(comm_desc_mul(a, b), c) == comm_desc_mul(
                a, comm_desc_mul(b, c)
            )
            assert comm_desc_mul(a, ident) == a
            assert comm_desc_mul(ident, a) == a
            ai = comm_desc_inv(a)
            assert comm_desc_mul(a, ai) == ident
            assert comm_desc_mul(ai, a) == ident


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.tuples(*[st.integers(0, 3)] * 4), st.sampled_from(["trivial", "bs"]),
       st.integers(0, 2**32))
def test_comm_desc_law_is_a_group_law(dims, tag, seed):
    """Associativity, the identity and inverses, each operand over its own
    CommSpace, so that the product compares spaces by value."""
    rng = random.Random(seed)
    a, b, c = (rand_desc(rng, CommSpace(*dims, reduced_part(tag))) for _ in range(3))
    ident = CommSpace(*dims, reduced_part(tag)).identity_desc()
    assert comm_desc_mul(comm_desc_mul(a, b), c) == comm_desc_mul(a, comm_desc_mul(b, c))
    assert comm_desc_mul(a, ident) == a == comm_desc_mul(ident, a)
    assert comm_desc_mul(a, comm_desc_inv(a)) == ident == comm_desc_mul(comm_desc_inv(a), a)


def test_comm_desc_block_conventions():
    space = CommSpace(2, 1, 1, 1, TrivialReduced())
    zero = space.identity_desc()

    def pure_central(mat):
        return CommDesc(space, mat, MatQ.identity(2), MatQ.zeros(2, 1),
                        MatQ.zeros(1, 1), None)

    a = pure_central(MatQ([[1, 2]]))
    b = pure_central(MatQ([[3, 5]]))
    assert comm_desc_mul(a, b).h_central == MatQ([[4, 7]])  # abelian kernel
    doubling = CommDesc(space, MatQ.zeros(1, 2), MatQ([[2, 0], [0, 2]]),
                        MatQ.zeros(2, 1), MatQ.zeros(1, 1), None)
    twisted = comm_desc_mul(doubling, a)
    assert twisted.h_central == MatQ([["1/2", "1"]])  # precompose with P^-1
    assert comm_desc_mul(doubling, zero).p == MatQ([[2, 0], [0, 2]])


def test_comm_desc_dimension_mismatch():
    a = SPACES[0].identity_desc()
    b = SPACES[3].identity_desc()
    with pytest.raises(DimensionMismatch):
        comm_desc_mul(a, b)
    with pytest.raises(DimensionMismatch):
        CommDesc(SPACES[0], MatQ.zeros(2, 2), MatQ.identity(2),
                 MatQ.zeros(2, 1), MatQ.zeros(1, 1), None)
    for space, red in ((SPACES[0], AffineMap.identity()), (SPACES[2], None)):
        ident = space.identity_desc()
        with pytest.raises(DimensionMismatch):  # the reduced part cannot hold red
            CommDesc(space, ident.h_central, ident.p, ident.h_10, ident.h_1z, red)


def test_comm_space_rejects_negative_dimensions():
    for dims, detail in (((-1, 0, 0, 0), "N0 must be >= 0, got -1"),
                         ((0, -2, 0, 0), "N1 must be >= 0, got -2"),
                         ((0, 0, -3, 0), "dZ must be >= 0, got -3"),
                         ((0, 0, 0, -4), "dZ1 must be >= 0, got -4")):
        with pytest.raises(DimensionMismatch, match=f"^{detail}$"):
            CommSpace(*dims, TrivialReduced())
    assert CommSpace(0, 0, 0, 0, TrivialReduced()).identity_desc().p == MatQ.identity(0)


# ------------------------------------------------------ structure reports


def test_reduced_comm_structure():
    report = reduced_comm_structure(1, 0, "bs")
    assert "Q |x Q*" in report.iso
    assert report.space.n1 == 1 and report.space.dz1 == 0
    pure = reduced_comm_structure(0, 2, "trivial")
    assert pure.space.n1 == 0 and pure.space.dz1 == 2
    hom = reduced_comm_structure(2, 1, "trivial")
    assert hom.space.identity_desc().h_1z.nrows == 1
    assert hom.space.identity_desc().h_1z.ncols == 2
    with pytest.raises(UnknownInstantiation):
        reduced_comm_structure(1, 0, "nope")
