"""Digests of exact outputs on seeded inputs beyond the benchmark's
reach, each pinned by a test.  A change that moves such answers on
purpose re-pins the values, which ``PYTHONPATH=src python
tests/test_outputs.py`` prints, and names the change in CHANGES.md.
"""

import hashlib
import math
import random
from fractions import Fraction

from commlab.errors import CommLabError, SingularMap
from commlab.f2poly import F2LaurentPoly
from commlab.lamplighter import (CommInftyElt, LampComm, LampElement, SubmoduleBasis, VDerElt,
                                 comm_apply, comm_compose, comm_domain, comm_from_partial,
                                 comm_invert, diagonal_embed)
from commlab.matrices import MatQ
from commlab.solvable import AffineMap, bs_comm_domain, solve_inner_derivation
from commlab.storus import is_prime
from commlab.unipotent import (LieAut, NilMat, UniTriMat, comm_from_lie_aut, lie_aut_check,
                               pth_root, unitri_exp, unitri_log)

from samplers import ci_lamp_class, dense_der_class, sparse_poly as poly


def unipotent_digest() -> str:
    """The `rational_mix` workload reaches n <= 6 only: this hashes
    unitri_log, unitri_exp, UniTriMat.inverse, g ** e for e = -3..3,
    pth_root for p = 2, 3, 5, 7 and 2^127 - 1 and comm_from_lie_aut under
    a diagonal aut for seeded g with n = 1..12, over small and over
    200-bit denominators, and the lie_aut_check verdicts for n = 2..8 on
    Ad(g) after a diagonal map, whose column (i, j) is g E(i, j) g^-1
    scaled, and on the same map with the image of the center changed (no
    automorphism for n >= 3); then the solve_inner_derivation answer, or
    the error's name and message, on seeded planted systems of commuting
    T_i and on copies with a v entry changed, a T swapped for a random
    matrix, a shared eigenvalue 1, or both of the last and the first."""
    h = hashlib.sha256()
    for n in range(1, 13):
        for big in (False, True):
            rng = random.Random(1000 * n + big)
            if big:
                pool = [rng.randrange(2**199, 2**200) for _ in range(3)]
                entry = lambda: Fraction(rng.randrange(-2**200, 2**200), rng.choice(pool))
            else:
                entry = lambda: Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 5)))
            g = UniTriMat([[entry() if j > i else Fraction(int(i == j)) for j in range(n)]
                           for i in range(n)])
            x = NilMat([[entry() if j > i else Fraction(0) for j in range(n)] for i in range(n)])
            d = [Fraction(rng.choice((1, 2, 3, 5, -1, 7)), rng.choice((1, 2, 3))) for _ in range(n)]
            aut = LieAut.diagonal(n, [d[i] / d[j] for i in range(n) for j in range(i + 1, n)])
            for out in (unitri_log(g), unitri_exp(x), pth_root(g, 2), pth_root(g, 3),
                        comm_from_lie_aut(aut, g), g.inverse(), pth_root(g, 5), pth_root(g, 7),
                        pth_root(g, 2**127 - 1), *(g ** e for e in range(-3, 4))):
                h.update(repr(out.mat.to_strings()).encode())
    for n in range(2, 9):
        rng = random.Random(2000 + n)
        g = MatQ([[Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 5))) if j > i
                   else Fraction(int(i == j)) for j in range(n)] for i in range(n)])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        d = [Fraction(rng.choice((1, 2, 3, 5, -1, 7)), rng.choice((1, 2, 3))) for _ in range(n)]
        cols = []
        for i, j in pairs:
            image = g * MatQ([[int((r, s) == (i, j)) for s in range(n)] for r in range(n)]) * g.inv()
            cols.append([image.entry(r, s) * d[i] / d[j] for r, s in pairs])
        rows = [list(row) for row in zip(*cols)]
        changed = [list(row) for row in rows]
        # the image of the center E(0, n - 1) changes: for n >= 3 the center is a
        # bracket, so the changed map is no automorphism
        changed[n - 2][n - 2] += rng.choice((-1, 2))
        for mat in (rows, changed):
            try:
                verdict = lie_aut_check(LieAut(n, mat))
            except SingularMap:
                verdict = "singular"
            h.update(repr((n, verdict)).encode())
    eigs = [Fraction(e) for e in ("2", "3", "-1", "5", "1/2", "3/2", "-1/2", "5/2")]
    kinds = ("planted", "changed", "swapped", "fixed", "fixed changed")
    for i in range(250):
        rng = random.Random(3000 + i)
        kind = kinds[i % len(kinds)]
        dim, count = rng.randrange(1, 7), rng.randrange(1, 4)
        conj = MatQ.identity(dim)
        for _ in range(dim):
            r, c = rng.randrange(dim), rng.randrange(dim)
            rows = [[int(a == b) for b in range(dim)] for a in range(dim)]
            rows[r][c] += rng.randrange(-2, 3) if r != c else 0
            conj = conj * MatQ(rows)
        one = rng.randrange(dim) if kind.startswith("fixed") else None
        ts = [conj * MatQ([[(Fraction(1) if a == one else rng.choice(eigs)) if a == b else 0
                            for b in range(dim)] for a in range(dim)]) * conj.inv()
              for _ in range(count)]
        x = MatQ.column([Fraction(rng.randrange(-4, 5), rng.choice((1, 2))) for _ in range(dim)])
        vs = [(t - MatQ.identity(dim)) * x for t in ts]
        if kind.endswith("changed"):
            k = rng.randrange(count)
            vs[k] = vs[k] + MatQ.column([rng.choice((1, Fraction(-1, 3))) if a == 0 else 0
                                         for a in range(dim)])
        elif kind == "swapped":
            ts[rng.randrange(count)] = MatQ([[Fraction(rng.randrange(-3, 4), rng.choice((1, 2)))
                                              for _ in range(dim)] for _ in range(dim)])
        try:
            answer = solve_inner_derivation(ts, vs).to_strings()
        except CommLabError as exc:
            answer = (type(exc).__name__, str(exc))
        h.update(repr((i, answer)).encode())
    return h.hexdigest()


def lamplighter_digest() -> str:
    """The `lamp_large` workload reaches levels 8-12 and degree <= 256
    only: this hashes VDerElt.canonical at levels 12, 60, 360 and 720 on
    values raised from a seeded divisor level, with and without one term
    added, and the to_json of comm_compose both ways and of comm_invert on
    classes of ``ci_lamp_class`` at levels whose lcm reaches 60, with
    derivation values of up to 10^4 bits, denominators and flips (a
    CommLabError is hashed by name); then, for each of those classes and
    its copy with the flip toggled, comm_domain with its index_log2 and
    the comm_from_partial rebuild from the images of the domain generators
    and of t**level, and comm_domain with its index_log2 of the flipped
    class over the flip conjugate of the linear part, the shape whose
    unreduced echelon form once swelled; SubmoduleBasis.from_generators
    with its index_log2 on seeded rows at levels 1-4 with entries up to
    s^+-1000; and comm_compose both ways and comm_invert on seeded classes
    of lamp_large's high-level shape: levels 8-12, polynomial entries
    (den = 1), derivations of degree up to 256, so composition runs at lcm
    up to 132 on the den = 1 route of the derivation image; the to_json
    and lin.den of each of those classes as parsed; and from_json of 40
    seeded classes at levels 1-5 whose entries are written as a user may:
    zero over a denominator, quotients f*a/(f*b) left unreduced,
    denominators with a factor s, spaces and parentheses (to_json and
    lin.den, or the error's name and message), and the error name and
    message of 20 malformed classes; and, for six level-60 classes c of
    ``ci_lamp_class`` and their flip conjugates F*c*F, from_json of F*c*F,
    comm_invert of both and the comm_from_partial rebuild of the flipped
    shape; comm_from_partial on image sets that span no finite-index
    submodule (all zero, one repeated, one a multiple or a sum of others)
    at levels 2-6, with t**level sent to t**level and to t**-level (the
    error's name and message); and LampComm.make on a derivation at level
    j*L and a linear part at level L of ``ci_lamp_class``, each raised from
    a seeded divisor level, so the two least levels need not divide each
    other; diagonal_embed on seeded n x n F2 matrices, n = 1-6, invertible
    and singular (the to_json, or the error's name and message); and
    comm_domain with its index_log2 of seeded classes of lamp_large's
    domain shape, levels 2-3 over a denominator with an entry s^-N, N up
    to 10^3."""
    h = hashlib.sha256()

    def hashed(c):
        h.update(repr((c.to_json(), c.lin.den)).encode())
        return c

    def parsed(obj):
        return hashed(LampComm.from_json(obj))

    def lamp(rng, level):
        return hashed(ci_lamp_class(rng, level))

    for m in (12, 60, 360, 720):
        divs = [d for d in range(1, m + 1) if m % d == 0]
        for i in range(30):
            rng = random.Random(100 * m + i)
            span = rng.choice((60, 5000))
            value = F2LaurentPoly.from_string(poly(rng, -span, span, 40))
            v = VDerElt(rng.choice(divs), value).raise_to(m)
            extra = VDerElt(m, v.value + F2LaurentPoly.from_string(poly(rng, -60, m + 60, 1)))
            for x in (v, extra):
                c = x.canonical()
                h.update(repr((m, c.level, c.value.to_string())).encode())

    for i in range(40):
        rng = random.Random(7000 + i)
        l1, l2 = rng.choice([(12, 5), (4, 15), (20, 3), (6, 10), (5, 6), (8, 6), (3, 4)])
        try:
            c1, c2 = lamp(rng, l1), lamp(rng, l2)
            outs = [comm_compose(c1, c2), comm_compose(c2, c1), comm_invert(c1), comm_invert(c2)]
            h.update(repr([c.to_json() for c in outs]).encode())
        except CommLabError as exc:
            h.update(repr((i, type(exc).__name__)).encode())
            continue
        for c in (c1, c2):
            for x in (c, LampComm(c.der, c.lin, not c.flip)):
                basis, level = comm_domain(x)
                h.update(repr((level, basis.to_json(), basis.index_log2)).encode())
                # rebuild the class from the images of the domain generators and of t**level
                images = [comm_apply(x, LampElement(g, 0)) for g in basis.generators_as_k()]
                back = comm_from_partial(level, basis, images, comm_apply(x, LampElement.shift(level)))
                h.update(repr((back == x, back.to_json())).encode())
            basis, level = comm_domain(LampComm(c.der, c.lin.flip_conj(), True))
            h.update(repr((level, basis.to_json(), basis.index_log2)).encode())

    def laurent(rng):
        exps = {rng.randrange(-3, 4) for _ in range(rng.randrange(0, 3))}
        if rng.random() < 0.5:
            exps ^= {rng.choice((-1000, 1000, rng.randrange(-1000, 1001)))}
        return F2LaurentPoly(exps)

    for i in range(60):
        rng = random.Random(9000 + i)
        level = rng.randrange(1, 5)
        gens = [[laurent(rng) for _ in range(level)] for _ in range(level + rng.randrange(0, 3))]
        try:
            basis = SubmoduleBasis.from_generators(level, gens)
            h.update(repr((basis.to_json(), basis.index_log2)).encode())
        except CommLabError as exc:
            h.update(repr((i, type(exc).__name__)).encode())

    def high(rng, level):
        # row-permuted upper triangular with polynomial entries, so den = 1
        rows = [["0"] * level for _ in range(level)]
        for i in range(level):
            rows[i][i] = "1+s" if rng.random() < 0.1 else rng.choice(("s^-1", "1", "1", "s"))
        for _ in range(rng.randrange(0, 3)):
            i, j = sorted(rng.sample(range(level), 2))
            rows[i][j] = poly(rng, 0, 9, rng.randrange(1, 5)).replace("t", "s")
        rng.shuffle(rows)
        der = poly(rng, -256, 257, rng.randrange(0, 26))
        return parsed({"level": level, "der": der, "A": rows, "flip": rng.random() < 0.5})

    for i in range(60):
        rng = random.Random(11000 + i)
        c1, c2 = high(rng, rng.randrange(8, 13)), high(rng, rng.randrange(8, 13))
        try:
            outs = [comm_compose(c1, c2), comm_compose(c2, c1), comm_invert(c1), comm_invert(c2)]
            h.update(repr([c.to_json() for c in outs]).encode())
        except CommLabError as exc:
            h.update(repr((i, type(exc).__name__)).encode())

    def written(rng):
        # an entry as a user may write it
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice(("0", "0/(1+s)", "(0)/(s^2)", "(s+s)/(1+s^2)"))
        num = F2LaurentPoly.from_string(poly(rng, -2, 3, rng.randrange(1, 4)))
        if kind == 1:
            return num.to_string("s")
        f = F2LaurentPoly.from_string(rng.choice(("1+t", "t", "1+t+t^2", "t+t^2")))
        den = F2LaurentPoly.from_string(rng.choice(("1", "t^2", "1+t", "t+t^3", "1+t^2+t^3")))
        top, bottom = (f * num).to_string("s"), (f * den).to_string("s")
        if kind == 4:
            return f" ( {top.replace('+', ' + ')} ) / ( {bottom.replace('+', ' + ')} ) "
        return f"({top})/({bottom})"

    for i in range(40):
        rng = random.Random(13000 + i)
        level = rng.randrange(1, 6)
        rows = [[written(rng) if c <= r or rng.random() < 0.2 else "0" for c in range(level)]
                for r in range(level)]
        rng.shuffle(rows)
        try:
            parsed({"level": level, "der": poly(rng, -9, 10, rng.randrange(0, 5)), "A": rows,
                    "flip": rng.random() < 0.5})
        except CommLabError as exc:
            h.update(repr((i, type(exc).__name__, str(exc))).encode())

    bad = ("x", "1/0", "0/0", "s^", "1/1/1", "s^-", "t^2.5", "", "1++s", "(1+s)/(s+s)")
    for i in range(20):
        rng = random.Random(14000 + i)
        level = rng.randrange(1, 4)
        rows = [[rng.choice(("1", "s", "(1)/(1+s)", "0")) for _ in range(level)]
                for _ in range(level)]
        if i % 5 != 4:
            rows[rng.randrange(level)][rng.randrange(level)] = rng.choice(bad + (1,))
        if i % 4 == 3:
            rows[-1].pop()
        try:
            LampComm.from_json({"level": level + (i % 5 == 4), "der": "0", "A": rows,
                                "flip": False})
            h.update(repr((i, "parsed")).encode())
        except (CommLabError, ValueError, TypeError, ZeroDivisionError) as exc:
            h.update(repr((i, type(exc).__name__, str(exc))).encode())

    # the flip conjugates F*c*F of the level-60 classes of ci_lamp_class for
    # seeds 0-5: parsed from their JSON, inverted with c, and rebuilt from the
    # domain images of the flipped shape (F*c*F unflipped and c flipped)
    flip = LampComm(VDerElt.zero(), CommInftyElt.identity(1), True)
    for seed in range(6):
        c = lamp(random.Random(seed), 60)
        conj = parsed(comm_compose(flip, comm_compose(c, flip)).to_json())
        for x in (c, conj):
            try:
                h.update(repr(comm_invert(x).to_json()).encode())
            except CommLabError as exc:
                h.update(repr((seed, type(exc).__name__, str(exc))).encode())
        for x in (LampComm(conj.der, conj.lin, False), LampComm(c.der, c.lin, True)):
            basis, level = comm_domain(x)
            images = [comm_apply(x, LampElement(g, 0)) for g in basis.generators_as_k()]
            back = comm_from_partial(level, basis, images, comm_apply(x, LampElement.shift(level)))
            h.update(repr((back == x, back.to_json())).encode())

    # comm_from_partial on image sets that span no finite-index submodule: all
    # zero, one image repeated, one a multiple (1 + s) or s of another, or one
    # the sum of two others; over the full domain and over a seeded domain, with
    # t**level sent to t**level and to t**-level
    for level in range(2, 7):
        for i in range(8):
            rng = random.Random(15000 + 10 * level + i)
            domain = SubmoduleBasis.full(level)
            if i % 2:
                c = lamp(rng, level)
                if c.level == level:
                    domain = comm_domain(LampComm(c.der, c.lin, rng.random() < 0.5))[0]
            ks = [F2LaurentPoly.from_string(poly(rng, -6, 3 * level, rng.randrange(1, 5)))
                  for _ in range(level)]
            a, b = rng.sample(range(level), 2)
            kind = i % 4
            if kind == 0:
                ks = [F2LaurentPoly.zero()] * level
            elif kind == 1:
                ks[a] = ks[b]
            elif kind == 2 or level == 2:
                ks[a] = ks[b].shifted(level) + (ks[b] if rng.random() < 0.5 else F2LaurentPoly.zero())
            else:
                ks[rng.choice([e for e in range(level) if e not in (a, b)])] = ks[a] + ks[b]
            der = F2LaurentPoly.from_string(poly(rng, -9, 10, rng.randrange(0, 4)))
            for n in (level, -level):
                try:
                    back = comm_from_partial(level, domain, [LampElement(k, 0) for k in ks],
                                             LampElement(der, n))
                    h.update(repr((level, i, n, back.to_json())).encode())
                except CommLabError as exc:
                    h.update(repr((level, i, n, type(exc).__name__, str(exc))).encode())

    # LampComm.make on a derivation at level j*L and a linear part at level L,
    # each raised from a seeded divisor level, so the least levels need not
    # divide each other and the linear part is sometimes lowered, then raised
    for i in range(40):
        rng = random.Random(16000 + i)
        L = rng.choice((4, 6, 12))
        j = rng.randrange(1, 4)
        c = lamp(rng, rng.choice([d for d in range(1, L) if L % d == 0]))
        lin = c.lin.raise_to(L)
        # half the time from a divisor of j*L that does not divide L
        d = rng.choice([d for d in range(1, j * L + 1) if j * L % d == 0 and (L % d != 0) == (i % 2)]
                       or [j * L])
        der = VDerElt(d, F2LaurentPoly.from_string(poly(rng, -40, 40, rng.randrange(0, 12))))
        made = LampComm.make(der.raise_to(j * L), lin, c.flip)
        h.update(repr((i, made.level, made.to_json(), made.lin.den)).encode())

    # diagonal_embed on seeded n x n F2 matrices, n = 1-6: drawn at random
    # (either kind), built from the identity by row additions and swaps
    # (invertible), and drawn with one row the sum of two others or zero
    # (singular); the to_json, or the error's name and message
    for n in range(1, 7):
        for i in range(12):
            rng = random.Random(17000 + 100 * n + i)
            if i % 3 == 0:
                rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
            elif i % 3 == 1:
                rows = [[int(r == c) for c in range(n)] for r in range(n)]
                for _ in range(2 * n):
                    a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
                    if rng.random() < 0.7 and a != b:
                        rows[a] = [x ^ y for x, y in zip(rows[a], rows[b])]
                    else:
                        rows[a], rows[b] = rows[b], rows[a]
            else:
                rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
                k = rng.randrange(n)
                others = [r for r in range(n) if r != k]
                rows[k] = ([x ^ y for x, y in zip(*(rows[r] for r in rng.sample(others, 2)))]
                           if len(others) >= 2 else [0] * n)
            try:
                h.update(repr((n, i, diagonal_embed(n, rows).to_json())).encode())
            except CommLabError as exc:
                h.update(repr((n, i, type(exc).__name__, str(exc))).encode())

    # comm_domain with its index_log2 of classes of lamp_large's domain shape:
    # levels 2-3, a row-permuted upper triangular linear part over a
    # denominator, whose entry (0, 1) holds a term s^-N, N up to 10^3
    dens = ("1+s", "1+s+s^2", "1+s^2+s^3")
    for i in range(60):
        rng = random.Random(18000 + i)
        level = rng.randrange(2, 4)
        rows = [["0"] * level for _ in range(level)]
        for r in range(level):
            rows[r][r] = rng.choice(("1", "s", "s^-1", "1+s", f"(1)/({rng.choice(dens)})"))
        for _ in range(rng.randrange(0, 3)):
            r, c = sorted(rng.sample(range(level), 2))
            rows[r][c] = f"({poly(rng, -2, 4, rng.randrange(1, 4)).replace('t', 's')})/({rng.choice(dens)})"
        big = rng.choice((1000, rng.randrange(1, 1001)))
        rows[0][1] = rng.choice((f"s^-{big}", f"(s^-{big}+s)/({rng.choice(dens)})"))
        rng.shuffle(rows)
        c = parsed({"level": level, "der": poly(rng, -9, 10, rng.randrange(0, 4)), "A": rows,
                    "flip": rng.random() < 0.5})
        basis, lvl = comm_domain(c)
        h.update(repr((i, lvl, basis.to_json(), basis.index_log2)).encode())
    return h.hexdigest()


def compose_digest() -> str:
    """comm_compose both ways on 96 seeded pairs of classes at coprime
    levels 2-30, so the composite's level is their product, up to 870
    (past LEVEL_CAP = 512 the error's name and message is hashed), drawn
    by ``dense_der_class``: a row-permuted triangular linear part over
    den = 1, or with a denominator on either side, on both or on neither,
    each flip on either side, and a derivation far denser than its level,
    so that the strand route of the action runs.  A composite is hashed by
    its level, flip, derivation mask and shift, and numerator columns,
    shift and den, which fix it as its to_json does at a fraction of the
    cost at level 870."""
    h = hashlib.sha256()
    pairs = [(a, b) for a in range(2, 31) for b in range(a + 1, 31) if math.gcd(a, b) == 1]
    for i in range(96):
        rng = random.Random(20000 + i)
        l1, l2 = rng.choice(pairs)
        c1 = dense_der_class(rng, l1, i % 2 == 1, i // 4 % 2 == 1)
        c2 = dense_der_class(rng, l2, i // 2 % 2 == 1, i // 8 % 2 == 1)
        for a, b in ((c1, c2), (c2, c1)):
            try:
                c = comm_compose(a, b)
                h.update(repr((i, c.level, c.flip, c.der.value.shift, c.der.value.mask,
                               c.lin.num.shift, c.lin.num.cols, c.lin.den)).encode())
            except CommLabError as exc:
                h.update(repr((i, type(exc).__name__, str(exc))).encode())
    return h.hexdigest()


def bs_domain_digest() -> str:
    """bs_comm_domain's (K, D), or the error's name and message, on 60
    seeded maps AffineMap(r, q) and bases n = 2-30.  q's denominator is d
    times a power of n, with d drawn from three ranges in turn: below
    10^3, where K is below the 2^15 baby steps; a prime in [2^16, 2^22),
    where K is mostly between 2^15 and ORDER_CAP = 4*10^6; and a prime in
    [10^9, 10^10), where K is mostly above ORDER_CAP (a ResourceLimit).
    The power of n and a drawn r change D but not K."""
    h = hashlib.sha256()
    for i in range(60):
        rng = random.Random(19000 + i)
        n = rng.randrange(2, 31)
        lo, hi = ((2, 10**3), (2**16, 2**22), (10**9, 10**10))[i % 3]
        d = rng.randrange(lo, hi)
        while i % 3 and not is_prime(d):
            d = rng.randrange(lo, hi)
        q = Fraction(rng.choice((1, -1, 5, 7)), d * n ** rng.randrange(0, 3))
        r = Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 3, 7, n)))
        try:
            answer = bs_comm_domain(AffineMap(r, q), n)
        except CommLabError as exc:
            answer = (type(exc).__name__, str(exc))
        h.update(repr((i, answer)).encode())
    return h.hexdigest()


def test_unipotent_outputs_are_pinned():
    assert unipotent_digest() == "2f65d3c2112f47a2937cf5a6e795741bdacb282e6f640adc4a1ba8af34ede805"


def test_lamplighter_outputs_are_pinned():
    assert lamplighter_digest() == "7dd1342a90a5f45602a94bfc52dc3731ab214bf82ede8b6d2a39133832727f87"


def test_compose_outputs_are_pinned():
    assert compose_digest() == "0d5169f067f1f053bb7ac1600a8e6455547f016035cfc5bcd96e5cdb3b5f1de3"


def test_bs_domain_outputs_are_pinned():
    assert bs_domain_digest() == "6788084aafcc68e1f505736d8fe1fc953c8a3e2dfc9ac547964b9266d7c48984"


if __name__ == "__main__":
    for digest in (unipotent_digest, lamplighter_digest, compose_digest, bs_domain_digest):
        print(digest.__name__, digest())
