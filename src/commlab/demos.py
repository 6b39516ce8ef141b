"""The worked computations that ``comm-lab demo`` reproduces.

``DEMOS`` maps each demo's name to its function, which takes a seed,
prints one PASS/FAIL line per check and returns whether all passed.
Only the ``demo`` leaf imports this module, and each demo imports the
layer it runs in its own body.
"""

from __future__ import annotations

import itertools


def _check(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    line = f"{tag}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def _demo_torus_example(_seed: int) -> bool:
    from . import storus
    spec = storus.torus_from_matrix2([[2, 1], [1, 1]])
    ok = _check("closure of [[2,1],[1,1]] is the norm-one torus of disc 5",
                spec == storus.TorusSpec.norm_one(5))
    expected = {(): 1, (3,): 1, (11,): 2, (3, 11): 2}
    for primes, want in expected.items():
        n = storus.s_rank(spec, primes).N
        label = "{" + ",".join(map(str, primes)) + "}"
        ok &= _check(f"free rank of the S-integer points for S = {label}",
                     n == want, f"N = {n}")
    return ok


def _demo_lamplighter_gl_embed(_seed: int) -> bool:
    from . import lamplighter as lamp
    mats = []
    for bits in itertools.product([0, 1], repeat=4):
        a, b, c, d = bits
        if a * d ^ b * c:
            mats.append([[a, b], [c, d]])
    ok = _check("GL_2(F2) has 6 elements", len(mats) == 6)
    embeds = [lamp.diagonal_embed(2, m) for m in mats]
    ok &= _check("the embedding is injective", len(set(embeds)) == 6)
    good = 0
    for i, m1 in enumerate(mats):
        for j, m2 in enumerate(mats):
            prod = [[(m1[0][0] * m2[0][k] + m1[0][1] * m2[1][k]) % 2 for k in range(2)],
                    [(m1[1][0] * m2[0][k] + m1[1][1] * m2[1][k]) % 2 for k in range(2)]]
            if lamp.comm_compose(embeds[i], embeds[j]) == lamp.diagonal_embed(2, prod):
                good += 1
    ok &= _check("all 36 products agree with the matrix products", good == 36)
    sw = lamp.diagonal_embed(2, [[0, 1], [1, 0]])
    img = lamp.comm_apply(sw, lamp.LampElement.lamp(4))
    ok &= _check("the swap exchanges lamps 4 and 5", img == lamp.LampElement.lamp(5))
    return ok


def _demo_bs_bogopolski(seed: int) -> bool:
    import random
    from fractions import Fraction
    from . import solvable
    from .solvable import AffineMap, BSElement
    report = solvable.reduced_comm_structure(1, 0, "bs")
    ok = _check("commensurator shape for the solvable Baumslag-Solitar groups",
                "Q |x Q*" in report.iso, report.iso)
    k, d = solvable.bs_comm_domain(AffineMap(1, Fraction(1, 3)), 2)
    ok &= _check("congruence parameters for conjugation by x -> x + 1/3",
                 (k, d) == (2, 3), f"K = {k}, D = {d}")
    rng = random.Random(seed)
    fails = 0
    for _ in range(200):
        c = AffineMap(
            Fraction(rng.choice([1, 2, 3, -1, 5]), rng.choice([1, 2, 3])),
            Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3, 6])),
        )
        kk, dd = solvable.bs_comm_domain(c, 2)
        g = BSElement(2, kk * rng.randrange(-3, 4),
                      dd * Fraction(rng.randrange(-8, 9), 2 ** rng.randrange(0, 4)))
        h = BSElement(2, kk * rng.randrange(-3, 4),
                      dd * Fraction(rng.randrange(-8, 9), 2 ** rng.randrange(0, 4)))
        lhs = solvable.bs_comm_apply(c, solvable.bs_mul(g, h))
        rhs = solvable.bs_mul(solvable.bs_comm_apply(c, g), solvable.bs_comm_apply(c, h))
        if lhs != rhs:
            fails += 1
    ok &= _check("conjugation is a homomorphism on 200 sampled domains", fails == 0)
    return ok


def _demo_radicability(seed: int) -> bool:
    import random
    from fractions import Fraction
    from . import unipotent
    from .unipotent import UniTriMat
    rng = random.Random(seed)
    fails = 0
    for _ in range(200):
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                rows[i][j] = Fraction(rng.randrange(-8, 9), 2 ** rng.randrange(0, 4))
        g = UniTriMat(rows)
        r = unipotent.pth_root(g, 2)
        if not unipotent.is_s_integral(r, {2}) or r * r != g:
            fails += 1
    ok = _check("square roots of 200 samples stay 2-integral and roundtrip", fails == 0)
    witness = UniTriMat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r3 = unipotent.pth_root(witness, 3)
    ok &= _check(
        "the cube root of the (1,2)-elementary matrix leaves Z[1/2]",
        not unipotent.is_s_integral(r3, {2}),
        f"entry (1,2) = {r3.mat.entry(0, 1)}",
    )
    return ok


DEMOS = {
    "torus-example": _demo_torus_example,
    "lamplighter-gl-embed": _demo_lamplighter_gl_embed,
    "bs-bogopolski": _demo_bs_bogopolski,
    "radicability": _demo_radicability,
}
