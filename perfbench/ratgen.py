"""``rational_mix``: every op goes through ``MatQ``/``Fraction``, none
through the F2 layers.  Each op gets its own freshly generated input."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from commlab import solvable, storus, unipotent
from commlab.matrices import MatQ
from commlab.solvable import AffineMap, BSElement, CommDesc, CommSpace
from commlab.unipotent import LieAut, NilMat, UniTriMat

from common import Op

# Ops per size stratum; about 2000 ops in all.  Cost grows steeply with
# the matrix size, so every seed gets the same count at every size.
RATIONAL_STRATA = {  # kind -> (sizes, ops per size)
    "unitri_log": (range(2, 7), 50), "unitri_exp": (range(2, 7), 40),
    "unitri_root": (range(2, 7), 48), "unitri_mul": (range(2, 7), 32),
    "unitri_inv": (range(2, 7), 32), "solve_inner": (range(1, 7), 50),
    "desc_mul": (range(5), 48), "desc_inv": (range(5), 32),  # the five product shapes
    "bs_domain": ((2, 3, 5, 6), 25), "bs_conj": ((2, 3, 5, 6), 25),
    "torus_rank": ((0,), 80), "lie_congruence": ((3, 4, 5), 4),
}

ROOT_PRIMES = (2, 2, 3, 5)  # root degrees, cycled within each size: the same mix on every seed
SQUAREFREE = [-15, -14, -13, -11, -10, -7, -6, -5, -3, -2, -1,
              2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23]
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
EIGS = ["2", "3", "-1", "5", "1/2", "3/2", "-1/2", "5/2"]


def frac(rng, lo=-9, hi=9, dens=(1, 2, 3, 5)) -> str:
    return str(Fraction(rng.randrange(lo, hi + 1), rng.choice(dens)))


def matq(rows, ncols=None) -> MatQ:
    """Parse string rows the way the CLI does."""
    return MatQ([[Fraction(str(x)) for x in row] for row in rows], ncols=ncols)


def unitri_rows(rng, n, strict=False):
    return [
        ["0" if j < i else ("0" if strict else "1") if j == i else frac(rng) for j in range(n)]
        for i in range(n)
    ]


def inner_system(rng, dim):
    """Commuting T_i = C diag C^-1 with eigenvalues != 1, a planted x and
    v_i = (T_i - 1) x, as strings.  C is a product of integer elementary
    matrices, so C and C^-1 are integral and built by row/column moves."""
    conj = [[int(r == c) for c in range(dim)] for r in range(dim)]
    inv = [row[:] for row in conj]
    for _ in range(dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j:
            a = rng.randrange(-2, 3)
            for row in conj:  # conj <- conj * E(i, j, a)
                row[j] += a * row[i]
            inv[i] = [x - a * y for x, y in zip(inv[i], inv[j])]  # inv <- E(i, j, -a) * inv
    x = [Fraction(rng.randrange(-4, 5), rng.choice((1, 2))) for _ in range(dim)]
    ts, vs = [], []
    for _ in range(rng.randrange(2, 4)):
        twice = [int(2 * Fraction(rng.choice(EIGS))) for _ in range(dim)]  # 2 * eigenvalues
        t = [[Fraction(sum(conj[r][k] * twice[k] * inv[k][c] for k in range(dim)), 2)
              for c in range(dim)] for r in range(dim)]
        v = [sum((t[r][c] - (r == c)) * x[c] for c in range(dim)) for r in range(dim)]
        ts.append([[str(e) for e in row] for row in t])
        vs.append([str(e) for e in v])
    return ts, vs, [str(e) for e in x]


SPACES = [  # (N0, N1, dZ, dZ1, reduced part), the five product shapes of the test suite
    (4, 3, 2, 1, "trivial"), (2, 2, 1, 2, "trivial"), (1, 4, 3, 0, "bs"),
    (3, 1, 0, 4, "bs"), (0, 1, 0, 0, "bs"),
]


def desc_json(rng, shape):
    n0, n1, dz, dz1, red = shape

    def block(r, c):
        return [[frac(rng, -3, 3, (1, 2, 3)) for _ in range(c)] for _ in range(r)]

    # P = upper unitriangular * diagonal with nonzero entries: invertible by construction
    p = [[frac(rng, -3, 3, (1, 2, 3)) if j > i else "0" for j in range(n0)] for i in range(n0)]
    for i in range(n0):
        p[i][i] = str(Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2))))
    rng.shuffle(p)
    out = {"h_central": block(dz, n0), "P": p, "h_10": block(n0, n1),
           "h_1z": block(dz1, n1), "red": None}
    if red == "bs":
        out["red"] = {"r": str(Fraction(rng.choice((1, 2, 3, -1)), rng.choice((1, 2)))),
                      "q": frac(rng, -3, 3, (1, 2, 3))}
    return out


def make_space(shape):
    n0, n1, dz, dz1, red = shape
    reduced = solvable.BSReduced() if red == "bs" else solvable.TrivialReduced()
    return CommSpace(n0, n1, dz, dz1, reduced)


def parse_desc(space, obj):
    red = space.red.identity()
    if obj["red"] is not None:
        red = AffineMap(Fraction(obj["red"]["r"]), Fraction(obj["red"]["q"]))
    return CommDesc(
        space,
        matq(obj["h_central"], ncols=space.n0), matq(obj["P"], ncols=space.n0),
        matq(obj["h_10"], ncols=space.n1), matq(obj["h_1z"], ncols=space.n1), red,
    )


def affine_json(rng):
    return {"r": str(Fraction(rng.choice((1, 2, 3, -1, 5, -2)), rng.choice((1, 2, 3)))),
            "q": str(Fraction(rng.randrange(-4, 5), rng.choice((1, 2, 3, 6))))}


def torus_json(rng):
    factors = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(("NormOne", "NormOne", "RestScalars", "Gm"))
        factors.append({"kind": kind} if kind == "Gm" else {"kind": kind, "d": rng.choice(SQUAREFREE)})
    return factors, sorted(rng.sample(PRIMES, rng.randrange(0, 5)))


def lie_json(rng, n):
    """Diagonal torus action E(i,j) -> (d_i/d_j) E(i,j): preserves brackets."""
    d = [Fraction(rng.choice((1, 2, 3, 5, -1, 7)), rng.choice((1, 2, 3))) for _ in range(n)]
    scales = [str(d[i] / d[j]) for i in range(n) for j in range(i + 1, n)]
    return scales, sorted(rng.sample(PRIMES[:4], rng.randrange(0, 3)))


# ---------------------------------------------------------------------------
# exact checks


def check_log(g):
    return lambda x: unipotent.unitri_exp(x) == g or "exp(log g) != g"


def check_exp(x):
    return lambda g: unipotent.unitri_log(g) == x or "log(exp x) != x"


def check_root(g, p):
    return lambda r: r ** p == g or "r**p != g"


def check_mul(g, h):
    return lambda gh: gh * h.inverse() == g or "(g h) h^-1 != g"


def check_inv(g):
    ident = UniTriMat.identity(g.n)
    return lambda gi: g * gi == ident or "g g^-1 != 1"


def check_solve(ts, vs, planted):
    def check(x):
        if x != planted:
            return "solution differs from the planted x"
        ident = MatQ.identity(x.nrows)
        for t, v in zip(ts, vs):
            if (t - ident) * x != v:
                return "(T - 1) x != v"
        return True

    return check


def check_desc_mul(b, a):
    return lambda ab: solvable.comm_desc_mul(ab, solvable.comm_desc_inv(b)) == a or "(a b) b^-1 != a"


def check_desc_inv(a):
    ident = a.space.identity_desc()
    return lambda ai: solvable.comm_desc_mul(a, ai) == ident or "a a^-1 != 1"


def check_bs_domain(c, n):
    def check(out):
        k, d = out
        if k < 1 or d < 1:
            return "congruence parameters must be positive"
        solvable.bs_comm_apply(c, BSElement(n, k, Fraction(d)))  # raises off the domain
        return True

    return check


def check_bs_conj(c, g):
    def check(cg):
        want = solvable.bs_comm_apply(c, solvable.bs_mul(g, g))
        return solvable.bs_mul(cg, cg) == want or "c(g)^2 != c(g^2)"

    return check


def check_torus(spec, primes):
    """Recompute the rank with the brute-force p-adic square oracle."""

    def local(field):
        total = 0
        for f in spec.factors:
            if f.kind == "Gm":
                total += 1
                continue
            if field == "R":
                square = f.d > 0
            elif field == "Q":
                square = False
            else:
                square = storus.is_square_qp_bruteforce(f.d, field)
            total += (1 if square else 0) if f.kind == "NormOne" else (2 if square else 1)
        return total

    def check(report):
        want = {p: local(p) for p in sorted(set(primes))}
        n = local("R") - local("Q") + sum(want.values())
        return (report.rank_Qp == want and report.N == n) or "ranks differ from the oracle"

    return check


def check_lie(aut, primes, rng_seed):
    def check(out):
        ok, depth = out
        if ok is not True or depth < 1:
            return "not a Lie automorphism or a bad depth"
        rng = random.Random(rng_seed)
        n = aut.n
        rows = [[Fraction(int(i == j)) if j <= i else Fraction(depth * rng.randrange(-2, 3))
                 for j in range(n)] for i in range(n)]
        image = unipotent.comm_from_lie_aut(aut, UniTriMat(rows))
        return unipotent.is_s_integral(image, set(primes)) or "image of a depth-D point is not S-integral"

    return check


def lie_congruence(n, mat, primes):
    """Build the map afresh, so its bracket check is not a cached answer."""
    aut = LieAut(n, mat)
    return unipotent.lie_aut_check(aut), unipotent.congruence_domain(aut, primes)


# ---------------------------------------------------------------------------


def build(seed: int):
    rng = random.Random(seed)
    spaces = [make_space(s) for s in SPACES]
    specs = [(kind, n, i) for kind, (sizes, per) in RATIONAL_STRATA.items()
             for n in sizes for i in range(per)]
    rng.shuffle(specs)
    ops = []
    for kind, n, i in specs:
        if kind == "unitri_log":
            g = UniTriMat(matq(unitri_rows(rng, n)))
            ops.append(Op(kind, unipotent.unitri_log, (g,), check_log(g)))
        elif kind == "unitri_exp":
            x = NilMat(matq(unitri_rows(rng, n, strict=True)))
            ops.append(Op(kind, unipotent.unitri_exp, (x,), check_exp(x)))
        elif kind == "unitri_root":
            g, p = UniTriMat(matq(unitri_rows(rng, n))), ROOT_PRIMES[i % len(ROOT_PRIMES)]
            ops.append(Op(kind, unipotent.pth_root, (g, p), check_root(g, p)))
        elif kind == "unitri_mul":
            g, h = UniTriMat(matq(unitri_rows(rng, n))), UniTriMat(matq(unitri_rows(rng, n)))
            ops.append(Op(kind, operator.mul, (g, h), check_mul(g, h)))
        elif kind == "unitri_inv":
            g = UniTriMat(matq(unitri_rows(rng, n)))
            ops.append(Op(kind, UniTriMat.inverse, (g,), check_inv(g)))
        elif kind == "solve_inner":
            ts_s, vs_s, x_s = inner_system(rng, n)
            ts = [matq(t) for t in ts_s]
            vs = [MatQ.column([Fraction(e) for e in v]) for v in vs_s]
            planted = MatQ.column([Fraction(e) for e in x_s])
            ops.append(Op(kind, solvable.solve_inner_derivation, (ts, vs), check_solve(ts, vs, planted)))
        elif kind == "desc_mul":
            a = parse_desc(spaces[n], desc_json(rng, SPACES[n]))
            b = parse_desc(spaces[n], desc_json(rng, SPACES[n]))
            ops.append(Op(kind, solvable.comm_desc_mul, (a, b), check_desc_mul(b, a)))
        elif kind == "desc_inv":
            a = parse_desc(spaces[n], desc_json(rng, SPACES[n]))
            ops.append(Op(kind, solvable.comm_desc_inv, (a,), check_desc_inv(a)))
        elif kind == "bs_domain":
            obj = affine_json(rng)
            c = AffineMap(Fraction(obj["r"]), Fraction(obj["q"]))
            ops.append(Op(kind, solvable.bs_comm_domain, (c, n), check_bs_domain(c, n)))
        elif kind == "bs_conj":
            obj = affine_json(rng)
            c = AffineMap(Fraction(obj["r"]), Fraction(obj["q"]))
            k, d = solvable.bs_comm_domain(c, n)
            b = Fraction(d * rng.randrange(-8, 9), n ** rng.randrange(0, 4))
            g = BSElement.from_json({"n": n, "a": k * rng.randrange(-3, 4), "b": str(b)})
            ops.append(Op(kind, solvable.bs_comm_apply, (c, g), check_bs_conj(c, g)))
        elif kind == "torus_rank":
            factors, primes = torus_json(rng)
            spec = storus.TorusSpec.from_json(factors)
            ops.append(Op(kind, storus.s_rank, (spec, primes), check_torus(spec, primes)))
        else:
            scales, primes = lie_json(rng, n)
            aut = LieAut.diagonal(n, scales)
            ops.append(Op(kind, lie_congruence, (n, aut.mat, primes),
                          check_lie(aut, primes, rng.randrange(1 << 30))))
    return ops
