"""Acceptance suite: one test per criterion, exact checks at full scale.

Each test prints a PASS line with its runtime; run with ``pytest -v -s``
to see them.  Random sampling is seeded, so the suite is deterministic.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from commlab import cli, lamplighter as lamp, solvable, storus, unipotent
from commlab.errors import IncompatibleCocycle
from commlab.f2poly import F2LaurentPoly as P
from commlab.f2poly import mask_mul
from commlab.matrices import MatQ
from commlab.solvable import AffineMap, BSElement
from commlab.unipotent import UniTriMat

import samplers
from samplers import f2_rank


def _report(num, label, elapsed, budget):
    print(f"PASS  criterion {num}: {label}  [{elapsed:.2f}s < {budget}s]")


def test_criterion_1_torus_example(capsys):
    start = time.time()
    spec = storus.torus_from_matrix2([[2, 1], [1, 1]])
    assert spec == storus.TorusSpec.norm_one(5)
    table = [((), 1), ((3,), 1), ((11,), 2), ((3, 11), 2)]
    for primes, want in table:
        assert storus.s_rank(spec, primes).N == want
    assert cli.run(["demo", "torus-example"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out
    elapsed = time.time() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "demo torus-example gives N = 1, 1, 2, 2", elapsed, 1)


def test_criterion_2_padic_oracle_equivalence(capsys):
    start = time.time()
    primes = [p for p in range(2, 51) if storus.is_prime(p)]
    ds = [
        d for d in range(-50, 51)
        if d not in (0, 1) and storus.squarefree_part(d) == d
    ]
    mismatches = sum(
        1
        for p in primes
        for d in ds
        if storus.is_square_qp(d, p) != storus.is_square_qp_bruteforce(d, p)
    )
    assert mismatches == 0
    elapsed = time.time() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report(
            2,
            f"is_square_qp matches mod-p^k search on {len(primes) * len(ds)} pairs",
            elapsed, 10,
        )


def test_criterion_3_lamplighter_group_laws(capsys):
    start = time.time()
    rng = random.Random(2024)
    comms = [samplers.random_comm(rng, max_level=6, max_deg=8) for _ in range(1000)]
    # associativity on 333 disjoint triples
    for i in range(0, 999, 3):
        a, b, c = comms[i], comms[i + 1], comms[i + 2]
        assert lamp.comm_compose(lamp.comm_compose(a, b), c) == lamp.comm_compose(
            a, lamp.comm_compose(b, c)
        )
    # two-sided inverses for every sample
    ident = lamp.LampComm.identity()
    for c in comms:
        ci = lamp.comm_invert(c)
        assert lamp.comm_compose(c, ci) == ident
        assert lamp.comm_compose(ci, c) == ident
    # apply/compose compatibility on 200 pairs
    for i in range(0, 400, 2):
        c1, c2 = comms[i], comms[i + 1]
        c12 = lamp.comm_compose(c1, c2)
        level = math.lcm(c1.level, c2.level, c12.level)
        qmask = 1
        for c in (c1, c2, c12):
            lifted = c.lin.raise_to(level)
            qmask = mask_mul(qmask, lifted.den)
            qmask = mask_mul(qmask, lifted.flip_conj().den)
        qpoly = P._raw(qmask, 0).spread(level)
        k = qpoly * P([e for e in range(-4, 5) if rng.random() < 0.3])
        g = lamp.LampElement(k, level * rng.randrange(-2, 3))
        assert lamp.comm_apply(c12, g) == lamp.comm_apply(c1, lamp.comm_apply(c2, g))
    elapsed = time.time() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _report(3, "group laws on 1000 canonical commensurations", elapsed, 60)


def _invertible(rows) -> bool:
    """Whether a square 0/1 matrix, given as lists, is invertible over F2."""
    return f2_rank(sum(v << j for j, v in enumerate(r)) for r in rows) == len(rows)


def _gl_elements(n):
    out = []
    for bits in itertools.product([0, 1], repeat=n * n):
        rows = [list(bits[i * n:(i + 1) * n]) for i in range(n)]
        if _invertible(rows):
            out.append(rows)
    return out


def _f2_matmul(a, b, n):
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % 2 for j in range(n)]
        for i in range(n)
    ]


def test_criterion_4_diagonal_embedding(capsys):
    start = time.time()
    for n in (1, 2, 3):
        mats = _gl_elements(n)
        embeds = {tuple(map(tuple, m)): lamp.diagonal_embed(n, m) for m in mats}
        assert len(set(embeds.values())) == len(mats)  # injective
        if n == 3:
            assert len(mats) == 168
        for m1 in mats:
            for m2 in mats:
                got = lamp.comm_compose(
                    embeds[tuple(map(tuple, m1))], embeds[tuple(map(tuple, m2))]
                )
                assert got == embeds[tuple(map(tuple, _f2_matmul(m1, m2, n)))]
    rng = random.Random(4)
    seen = {}
    def rand_gl4():
        while True:
            rows = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
            if _invertible(rows):
                return rows
    for _ in range(1000):
        m1, m2 = rand_gl4(), rand_gl4()
        e1 = seen.setdefault(tuple(map(tuple, m1)), lamp.diagonal_embed(4, m1))
        e2 = seen.setdefault(tuple(map(tuple, m2)), lamp.diagonal_embed(4, m2))
        prod = _f2_matmul(m1, m2, 4)
        ep = seen.setdefault(tuple(map(tuple, prod)), lamp.diagonal_embed(4, prod))
        assert lamp.comm_compose(e1, e2) == ep
    assert len(set(seen.values())) == len(seen)
    elapsed = time.time() - start
    with capsys.disabled():
        _report(4, "GL embeddings exhaustive (n <= 3) + 1000 pairs (n = 4)", elapsed, 60)


def _f2_rank_of_polys(polys) -> int:
    live = [p for p in polys if not p.is_zero()]
    if not live:
        return 0
    base = min(p.shift for p in live)
    return f2_rank([p.mask << (p.shift - base) for p in live])


def _window_quotient_dim(k1, m, width) -> int:
    """dim K1 / (1 + t**m) K1 by F2 ranks of shifted generators on an
    exponent window of half-width ``width``."""
    m1 = k1.level
    q = m // m1
    j_max = max(1, width // m1 + 1)
    gens = k1.generators_as_k()
    mult = P.one() + P.t_power(m)
    rows_top = [g.shifted(j * m1) for g in gens for j in range(-j_max, j_max + 1)]
    rows_sub = [
        (mult * g).shifted(j * m1) for g in gens for j in range(-j_max, j_max - q + 1)
    ]
    return _f2_rank_of_polys(rows_top) - _f2_rank_of_polys(rows_sub)


def quotient_dim_oracle(k1, m) -> int:
    """Independent reference for lamp.quotient_dim: windowed linear
    algebra at width 4 * (m + max degree), which must agree at double
    width."""
    maxdeg = max(
        (x.max_exp * k1.level + k1.level - 1 for row in k1.rows for x in row if not x.is_zero()),
        default=0,
    )
    width = 4 * (m + maxdeg)
    dim = _window_quotient_dim(k1, m, width)
    assert _window_quotient_dim(k1, m, 2 * width) == dim
    return dim


def test_criterion_5_quotient_dimension(capsys):
    start = time.time()
    rng = random.Random(5)
    samples = 0
    while samples < 50:
        k1 = samplers.random_submodule(rng, max_level=2, max_index_log=6)
        assert k1.index_log2 <= 6
        for m in range(1, 9):
            if m % k1.level:
                continue
            assert lamp.quotient_dim(k1, m) == m == quotient_dim_oracle(k1, m)
        samples += 1
    elapsed = time.time() - start
    with capsys.disabled():
        _report(5, "quotient dimension equals m on 50 invariant submodules", elapsed, 60)


def test_criterion_6_unique_radicability(capsys):
    start = time.time()
    rng = random.Random(6)
    for _ in range(1000):
        rows = [[F(1) if i == j else F(0) for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                rows[i][j] = F(rng.randrange(-8, 9), 2 ** rng.randrange(0, 4))
        g = UniTriMat(rows)
        r = unipotent.pth_root(g, 2)
        assert unipotent.is_s_integral(r, {2})
        assert r * r == g
        assert unipotent.pth_root(g * g, 2) == g
    witness = UniTriMat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    cube = unipotent.pth_root(witness, 3)
    assert cube.mat.entry(0, 1) == F(1, 3)
    assert not unipotent.is_s_integral(cube, {2})
    elapsed = time.time() - start
    with capsys.disabled():
        _report(6, "square roots stay in U4(Z[1/2]) on 1000 samples", elapsed, 60)


def test_criterion_7_log_exp_inverses(capsys):
    start = time.time()
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(1, 7)
        rows = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = F(rng.randrange(-9, 10), rng.choice([1, 2, 3, 5]))
        g = UniTriMat(rows)
        x = unipotent.unitri_log(g)
        assert unipotent.unitri_exp(x) == g
        assert unipotent.unitri_log(unipotent.unitri_exp(x)) == x
    elapsed = time.time() - start
    with capsys.disabled():
        _report(7, "log/exp exact inverses on 1000 samples, n <= 6", elapsed, 60)


def test_criterion_8_bs_commensurations(capsys):
    start = time.time()
    assert solvable.bs_comm_domain(AffineMap(1, F(1, 3)), 2) == (2, 3)
    rng = random.Random(8)
    count = 0
    while count < 1000:
        c = AffineMap(
            F(rng.choice([1, 2, 3, -1, 5, -2]), rng.choice([1, 2, 3])),
            F(rng.randrange(-4, 5), rng.choice([1, 2, 3, 6])),
        )
        if count % 5 == 0:
            c = AffineMap(c.r, F(1, 3))
        k, d = solvable.bs_comm_domain(c, 2)
        g = BSElement(2, k * rng.randrange(-3, 4),
                      d * F(rng.randrange(-8, 9), 2 ** rng.randrange(0, 4)))
        h = BSElement(2, k * rng.randrange(-3, 4),
                      d * F(rng.randrange(-8, 9), 2 ** rng.randrange(0, 4)))
        lhs = solvable.bs_comm_apply(c, solvable.bs_mul(g, h))
        rhs = solvable.bs_mul(solvable.bs_comm_apply(c, g), solvable.bs_comm_apply(c, h))
        assert lhs == rhs
        count += 1
    # composition compatibility, exact
    for _ in range(300):
        c1 = AffineMap(F(rng.choice([1, 2, 3, -1])), F(rng.randrange(-3, 4), rng.choice([1, 3])))
        c2 = AffineMap(F(rng.choice([1, 2, 5])), F(rng.randrange(-3, 4), rng.choice([1, 2, 3])))
        kk = dd = 1
        for c in (c1, c2, c1.compose(c2)):
            k2, d2 = solvable.bs_comm_domain(c, 2)
            kk, dd = math.lcm(kk, k2), math.lcm(dd, d2)
        odd = c2.q.denominator * dd
        while odd % 2 == 0:
            odd //= 2
        acc, order = 2 % odd if odd > 1 else 0, 1
        while odd > 1 and acc != 1:
            acc, order = acc * 2 % odd, order + 1
        kk = math.lcm(kk, order)
        scale = dd * c2.r.denominator * solvable.bs_comm_domain(c1, 2)[1]
        g = BSElement(2, kk * rng.randrange(-2, 3),
                      scale * F(rng.randrange(-6, 7), 2 ** rng.randrange(0, 3)))
        assert solvable.bs_comm_apply(c1.compose(c2), g) == solvable.bs_comm_apply(
            c1, solvable.bs_comm_apply(c2, g)
        )
    elapsed = time.time() - start
    with capsys.disabled():
        _report(8, "BS(1,2) conjugation on 1000 samples incl. q = 1/3", elapsed, 60)


def test_criterion_9_inner_derivation_solver(capsys):
    start = time.time()
    rng = random.Random(9)
    eigs = [F(2), F(3), F(-1), F(5), F(1, 2), F(3, 2), F(-1, 2), F(5, 2)]
    solved = 0
    ident_cache = {}
    while solved < 200:
        dim = rng.randrange(1, 7)
        ident = ident_cache.setdefault(dim, MatQ.identity(dim))
        conj = ident
        for _ in range(dim):
            i, j = rng.randrange(dim), rng.randrange(dim)
            if i != j:
                rows = [list(r) for r in ident.rows]
                rows[i][j] = F(rng.randrange(-2, 3))
                conj = conj * MatQ(rows)
        cinv = conj.inv()
        ts = []
        for _ in range(rng.randrange(2, 4)):
            diag = MatQ([[rng.choice(eigs) if i == j else F(0) for j in range(dim)]
                         for i in range(dim)])
            ts.append(conj * diag * cinv)
        x = MatQ.column([F(rng.randrange(-4, 5), rng.choice([1, 2])) for _ in range(dim)])
        vs = [(t - ident) * x for t in ts]
        got = solvable.solve_inner_derivation(ts, vs)
        assert got == x
        for t, v in zip(ts, vs):
            assert (t - ident) * got == v  # residual exactly zero
        solved += 1
        if solved <= 50:
            # perturb one right-hand side; the cocycle identity must fail
            bad = [MatQ(v.rows, ncols=1) for v in vs]
            pos = rng.randrange(dim)
            rows = [list(r) for r in bad[0].rows]
            rows[pos][0] += F(1, 3)
            bad[0] = MatQ(rows, ncols=1)
            try:
                solvable.solve_inner_derivation(ts, bad)
                raise AssertionError("perturbed system was not rejected")
            except IncompatibleCocycle:
                pass
    elapsed = time.time() - start
    with capsys.disabled():
        _report(9, "200 planted systems solved, 50 perturbed rejected", elapsed, 60)


def _rand_desc(rng, space):
    def rnd():
        return F(rng.randrange(-3, 4), rng.choice([1, 2, 3]))

    def randmat(r, c):
        return MatQ([[rnd() for _ in range(c)] for _ in range(r)], ncols=c)

    while True:
        p = randmat(space.n0, space.n0)
        if space.n0 == 0 or p.det():
            break
    red = space.red.identity()
    if isinstance(space.red, solvable.BSReduced):
        red = AffineMap(F(rng.choice([1, 2, 3, -1]), rng.choice([1, 2])), rnd())
    return solvable.CommDesc(
        space,
        randmat(space.dz, space.n0),
        p,
        randmat(space.n0, space.n1),
        randmat(space.dz1, space.n1),
        red,
    )


def test_criterion_10_comm_desc_group_axioms(capsys):
    start = time.time()
    rng = random.Random(10)
    spaces = [
        solvable.CommSpace(4, 3, 2, 1, solvable.TrivialReduced()),
        solvable.CommSpace(2, 2, 1, 2, solvable.TrivialReduced()),
        solvable.CommSpace(1, 4, 3, 0, solvable.BSReduced()),
        solvable.CommSpace(3, 1, 0, 4, solvable.BSReduced()),
        solvable.CommSpace(0, 1, 0, 0, solvable.BSReduced()),
    ]
    ident = {id(s): s.identity_desc() for s in spaces}
    for trial in range(500):
        space = spaces[trial % len(spaces)]
        a, b, c = (_rand_desc(rng, space) for _ in range(3))
        assert solvable.comm_desc_mul(solvable.comm_desc_mul(a, b), c) == \
            solvable.comm_desc_mul(a, solvable.comm_desc_mul(b, c))
        idd = ident[id(space)]
        assert solvable.comm_desc_mul(a, idd) == a
        assert solvable.comm_desc_mul(idd, a) == a
        ai = solvable.comm_desc_inv(a)
        assert solvable.comm_desc_mul(a, ai) == idd
        assert solvable.comm_desc_mul(ai, a) == idd
    elapsed = time.time() - start
    with capsys.disabled():
        _report(10, "semidirect-product axioms on 500 random triples", elapsed, 60)
