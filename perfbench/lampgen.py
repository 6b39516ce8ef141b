"""Lamplighter workloads: ``lamp_mix`` (many small objects) and
``lamp_large`` (big-int masks and loops that grow with the exponent).

Inputs are generated here as JSON, strings and ints and parsed by the
program's own ``from_json``/constructors.  Domain-derived inputs (apply
elements, from-partial data) are prepared through the program during
set-up and handed back to it as JSON.
"""

from __future__ import annotations

import math
import operator
import random

from commlab import hnf
from commlab import lamplighter as lamp
from commlab.errors import OutOfDomain
from commlab.f2poly import F2LaurentPoly, mask_mul

from common import (
    Op, clmul, f2_invertible, f2_matmul, mask_exps, poly_str, ratfun_str,
    shuffled_kinds,
)

ZERO = F2LaurentPoly.zero()


# ---------------------------------------------------------------------------
# input generators (JSON, strings, ints)


def comm_json(rng, min_level=1, max_level=6, max_deg=8, der_density=0.2,
              corner=None, entry=ratfun_str):
    """A commensuration P*U: U upper triangular over F2(s) with nonzero
    diagonal and zero to two off-diagonal entries made by ``entry``, P a
    row permutation, so it is invertible by construction.  ``corner``, if
    given, is the entry U[0][1]."""
    level = rng.randrange(min_level, max_level + 1)
    rows = [["0"] * level for _ in range(level)]
    for i in range(level):
        if rng.random() < 0.1:
            rows[i][i] = "1+s"
        else:
            rows[i][i] = poly_str([rng.choice((-1, 0, 0, 1))], "s")
    if level > 1:
        for _ in range(rng.randrange(0, 3)):
            i, j = sorted(rng.sample(range(level), 2))
            rows[i][j] = entry(rng)
    if corner is not None:
        rows[0][1] = corner
    rng.shuffle(rows)
    der = [e for e in range(-max_deg, max_deg + 1) if rng.random() < der_density]
    return {"level": level, "der": poly_str(der), "A": rows, "flip": rng.random() < 0.5}


def poly_entry(rng, max_deg=8):
    """Nonzero polynomial in s of degree at most max_deg."""
    return poly_str(mask_exps(rng.randrange(1, 1 << (max_deg + 1))), "s")


def monic_poly(rng, max_deg=3):
    """Polynomial in s with constant term 1 and degree 1..max_deg."""
    deg = rng.randrange(1, max_deg + 1)
    return [0, deg] + [e for e in range(1, deg) if rng.random() < 0.5]


def submodule_json(rng, max_level=2, max_index_log=6):
    """Generator rows of an invariant submodule of index at most 2**max_index_log."""
    level = rng.randrange(1, max_level + 1)
    budget = rng.randrange(0, max_index_log + 1)
    rows = []
    for i in range(level):
        d = rng.randrange(0, budget + 1)
        budget -= d
        diag = [0] + ([d] if d else []) + [e for e in range(1, d) if rng.random() < 0.5]
        row = ["0"] * level
        row[i] = poly_str(diag, "s")
        for j in range(i + 1, level):
            if rng.random() < 0.3:
                row[j] = poly_str(mask_exps(rng.randrange(1, 4)), "s")
        rows.append(row)
    return level, rows


def parse_rows(rows):
    return [[F2LaurentPoly.from_string(x) for x in row] for row in rows]


def element_json(k: F2LaurentPoly, n: int):
    return {"k": k.to_string(), "n": n}


# ---------------------------------------------------------------------------
# set-up helpers that go through the program


def domain_element(rng, basis, level, n_mult):
    """An element of the domain {(k, l*L) : k in D}: a sum of shifted
    domain generators, exponent n_mult * L."""
    gens = basis.generators_as_k()
    k = ZERO
    for g in gens:
        if rng.random() < 0.7:
            k = k + g.shifted(level * rng.randrange(-3, 4))
    return lamp.LampElement.from_json(element_json(k, level * n_mult))


def partial_data(c):
    """from-partial input of a class: its domain basis and the images of
    the domain generators and of t**L, in the CLI's JSON shape."""
    basis, level = lamp.comm_domain(c)
    return {
        "level": level,
        "H": basis.to_json()["H"],
        "gen_images": [
            lamp.comm_apply(c, lamp.LampElement(g, 0)).to_json()
            for g in basis.generators_as_k()
        ],
        "t_image": lamp.comm_apply(c, lamp.LampElement(ZERO, level)).to_json(),
    }


def parse_partial(data):
    level = int(data["level"])
    basis = lamp.SubmoduleBasis.from_json({"level": level, "H": data["H"]})
    imgs = [lamp.LampElement.from_json(x) for x in data["gen_images"]]
    return level, basis, imgs, lamp.LampElement.from_json(data["t_image"])


# ---------------------------------------------------------------------------
# exact checks, run after the timed phase


def check_compose_apply(c1, c2, k_exps, n_mult):
    """apply(c1 o c2, g) == apply(c1, apply(c2, g)) on an element g of the
    common domain (lamp test-suite construction)."""

    def check(c12):
        level = math.lcm(c1.level, c2.level, c12.level)
        qmask = 1
        for c in (c1, c2, c12):
            lifted = c.lin.raise_to(level)
            qmask = mask_mul(qmask, lifted.den)
            qmask = mask_mul(qmask, lifted.flip_conj().den)
        k = F2LaurentPoly._raw(qmask, 0).spread(level) * F2LaurentPoly(k_exps)
        g = lamp.LampElement(k, level * n_mult)
        if lamp.comm_apply(c12, g) != lamp.comm_apply(c1, lamp.comm_apply(c2, g)):
            return "apply(c1 o c2) != apply(c1) o apply(c2)"
        return True

    return check


def check_embed(n, m1, m2):
    want = lamp.diagonal_embed(n, f2_matmul(m1, m2))
    return lambda out: out == want or "embedding product differs from the F2 matrix product"


def check_invert(c):
    ident = lamp.LampComm.identity()

    def check(ci):
        if lamp.comm_compose(c, ci) != ident or lamp.comm_compose(ci, c) != ident:
            return "c o c^-1 is not the identity"
        return True

    return check


def check_apply_on(c, g):
    def check(out):
        left = lamp.comm_apply(c, lamp.LampElement(g.k, 0))
        right = lamp.comm_apply(c, lamp.LampElement(ZERO, g.n))
        return out == left * right or "c(k, n) != c(k, 0) c(0, n)"

    return check


def check_apply_split(c, g):
    """c(k, n) == c(k, 0) c(0, n/2) c(0, n/2), with n/2 a multiple of the level."""

    def check(out):
        half = lamp.comm_apply(c, lamp.LampElement(ZERO, g.n // 2))
        want = lamp.comm_apply(c, lamp.LampElement(g.k, 0)) * half * half
        return out == want or "c(k, n) != c(k, 0) c(0, n/2)^2"

    return check


def check_off_domain(out):
    return isinstance(out, OutOfDomain) or f"expected OutOfDomain, got {out!r}"


def check_domain(c):
    def check(out):
        basis, level = out
        if level != c.level:
            return "domain level differs from the class level"
        for g in basis.generators_as_k():
            lamp.comm_apply(c, lamp.LampElement(g, 0))  # raises off the domain
        lamp.comm_apply(c, lamp.LampElement(ZERO, level))
        return True

    return check


def check_equals(want, what):
    return lambda out: out == want or f"{what} differs"


def check_power(g, e):
    """g**e == (k * (1 + t^n + ... + t^(n(e-1))), n*e), by a closed form."""

    def check(out):
        n = g.n
        geo = 0
        for i in range(e):
            geo |= 1 << (abs(n) * i)
        shift = g.k.shift + (n * (e - 1) if n < 0 else 0)
        want = {"k": poly_str(mask_exps(clmul(g.k.mask, geo), shift)), "n": n * e}
        return out.to_json() == want or "power differs from the closed form"

    return check


def check_module(gens, index):
    def check(basis):
        if basis.index_log2 != index:
            return f"index_log2 {basis.index_log2} != {index}"
        for row in gens:
            if hnf.solve_membership(basis.rows, row) is None:
                return "a generator is outside the computed module"
        return True

    return check


# ---------------------------------------------------------------------------
# lamp_mix
#
# Op cost grows steeply with the class level: compose raises both sides to
# the lcm of their levels, and further by a factor set by the denominators
# of the linear parts.  So the op list is stratified: every seed gets the
# same number of ops per level, per pair of (level, denominator) and per
# embedding size.  Only the classes inside each stratum change with the seed.
# Classes whose denominator has degree > 2 (a product of two of the entry
# denominators) are left out: one compose of two such classes can take as
# long as a hundred ordinary ones, so a handful of them would set a pass's
# time by which seed drew them.

LEVELS = range(1, 7)
DENOMINATORS = (0b1, 0b11, 0b101, 0b111)  # 1, 1+s, 1+s^2, 1+s+s^2
EMBED_SIZES = range(1, 5)
SUBJECTS_PER_LEVEL = 7
MIX_PER_STRATUM = {  # op kind -> ops per stratum; about 3000 ops in all
    "compose": 2,         # per ordered pair of (level, denominator) strata: 441 * 2 = 882
    "compose_embed": 58,  # per GL_n(F2) size: 232; compose is 40% of the mix
    "invert": 90,         # per level: 540
    "invert_embed": 15,   # per GL_n(F2) size: 60; invert is 20%
    "apply_on": 34,       # per level: 204
    "apply_off": 20,      # per level 2..6, exponent off the level: 100
    "domain": 50,         # per level: 300
    "from_partial": 50,   # per level: 300
    "quotient_dim": 300,  # over 60 submodules of level 1 and 2
}


def build_mix(seed: int, n_comms: int = 1500):
    rng = random.Random(seed)
    comm_js = [comm_json(rng) for _ in range(n_comms)]
    embed_js = [(n, f2_invertible(rng, n)) for n in EMBED_SIZES for _ in range(12)]
    sub_js = [submodule_json(rng) for _ in range(60)]

    comms = [c for c in map(lamp.LampComm.from_json, comm_js) if c.lin.den in DENOMINATORS]
    embeds = [(n, rows, lamp.diagonal_embed(n, rows)) for n, rows in embed_js]
    subs = [lamp.SubmoduleBasis.from_generators(lv, parse_rows(rows)) for lv, rows in sub_js]

    by_level = {level: [c for c in comms if c.level == level] for level in LEVELS}
    # (level, denominator) -> classes (level 1 never has a denominator here)
    by_kind = {(lv, d): [c for c in by_level[lv] if c.lin.den == d]
               for lv in LEVELS for d in DENOMINATORS}
    by_kind = {k: v for k, v in by_kind.items() if v}
    embeds_by_n = {n: [e for e in embeds if e[0] == n] for n in EMBED_SIZES}
    subjects = {}  # level -> [(class, domain basis, from-partial args)]
    for level in LEVELS:
        subjects[level] = []
        for c in by_level[level][:SUBJECTS_PER_LEVEL]:
            args = parse_partial(partial_data(c))
            subjects[level].append((c, args[1], args))

    per = MIX_PER_STRATUM
    strata = [(a, b) for a in by_kind for b in by_kind]
    specs = [("compose", ab) for ab in strata for _ in range(per["compose"])]
    specs += [("compose_embed", n) for n in EMBED_SIZES for _ in range(per["compose_embed"])]
    specs += [("invert", lv) for lv in LEVELS for _ in range(per["invert"])]
    specs += [("invert_embed", n) for n in EMBED_SIZES for _ in range(per["invert_embed"])]
    for kind in ("apply_on", "domain", "from_partial"):
        specs += [(kind, lv) for lv in LEVELS for _ in range(per[kind])]
    specs += [("apply_off", lv) for lv in LEVELS if lv > 1 for _ in range(per["apply_off"])]
    specs += [("quotient_dim", i) for i in range(per["quotient_dim"])]
    rng.shuffle(specs)

    ops = []
    for kind, key in specs:
        if kind == "compose":
            c1, c2 = rng.choice(by_kind[key[0]]), rng.choice(by_kind[key[1]])
            k_exps = [e for e in range(-4, 5) if rng.random() < 0.3]
            check = check_compose_apply(c1, c2, k_exps, rng.randrange(-2, 3))
            ops.append(Op("compose", lamp.comm_compose, (c1, c2), check))
        elif kind == "compose_embed":
            (n, m1, e1), (_, m2, e2) = rng.choice(embeds_by_n[key]), rng.choice(embeds_by_n[key])
            ops.append(Op("compose", lamp.comm_compose, (e1, e2), check_embed(n, m1, m2)))
        elif kind in ("invert", "invert_embed"):
            c = rng.choice(by_level[key]) if kind == "invert" else rng.choice(embeds_by_n[key])[2]
            ops.append(Op("invert", lamp.comm_invert, (c,), check_invert(c)))
        elif kind == "apply_on":
            c, basis, _ = rng.choice(subjects[key])
            g = domain_element(rng, basis, key, rng.randrange(-3, 4))
            ops.append(Op("apply", lamp.comm_apply, (c, g), check_apply_on(c, g)))
        elif kind == "apply_off":
            c, basis, _ = rng.choice(subjects[key])
            on = domain_element(rng, basis, key, rng.randrange(-3, 4))
            g = lamp.LampElement.from_json(element_json(on.k, on.n + rng.randrange(1, key)))
            ops.append(Op("apply", lamp.comm_apply, (c, g), check_off_domain))
        elif kind == "domain":
            c = rng.choice(by_level[key])
            ops.append(Op("domain", lamp.comm_domain, (c,), check_domain(c)))
        elif kind == "from_partial":
            c, _, args = rng.choice(subjects[key])
            ops.append(Op("from_partial", lamp.comm_from_partial, args,
                          check_equals(c, "from_partial round trip")))
        else:
            k1 = subs[key % len(subs)]
            m = k1.level * (1 + (key // len(subs)) % (8 // k1.level))
            ops.append(Op("quotient_dim", lamp.quotient_dim, (k1, m), check_equals(m, "quotient_dim")))
    return ops


# ---------------------------------------------------------------------------
# lamp_large: size sweeps by decade

LARGE_COUNTS = {  # 600 ops a pass; HNF at shift 10^5 is the slowest kind, 2% of the ops
    "apply_1e3": 116, "apply_1e4": 44, "apply_1e5": 3,
    "power_1e2": 80, "power_1e3": 38, "power_1e4": 3,
    "module_1e3": 80, "module_1e4": 24, "module_1e5": 12,
    "domain_large": 100, "compose_high": 100,
}
HIGH_LEVELS = range(8, 13)
# The HNF cases at 10^4 and 10^5 make the tail of lamp_large, and their
# cost swings by 2-4x with the coefficients of d1, d2 and the corner.  So
# they cycle through this fixed table, and every seed runs the same tail:
# (d1, d2, low terms of the corner), as exponent sets in s.
TAIL_MODULES = (
    ([0, 1, 3], [0, 1, 2, 3], []),
    ([0, 1, 2, 3], [0, 1, 2, 3], [0]),
    ([0, 2, 3], [0, 1, 3], [1, 2]),
    ([0, 3], [0, 1, 2, 3], [0, 1, 2]),
)


def apply_case(rng, decade: int):
    """Class of level 1..3 with a nonzero derivation, and an on-domain
    element with |n| about 10**decade (an even multiple of the level)."""
    while True:
        js = comm_json(rng, max_level=3)
        if js["der"] != "0":
            break
    c = lamp.LampComm.from_json(js)
    basis, level = lamp.comm_domain(c)
    step = 2 * level
    n = step * max(1, round(10 ** decade / step)) * rng.choice((1, -1))
    g = domain_element(rng, basis, level, 0)
    return c, lamp.LampElement.from_json(element_json(g.k, n))


def power_case(rng, decade: int):
    k = poly_str([e for e in range(-3, 4) if rng.random() < 0.4] or [0])
    g = lamp.LampElement.from_json({"k": k, "n": rng.choice((1, 2, 3, -1, -2, -3))})
    return g, 10 ** decade


def module_case(rng, decade: int, tail: int | None = None):
    """Generators [[d1, s^-N + a], [0, d2]]: reducing s^-N modulo d2 walks
    the exponent, so the work grows with N = 10**decade.  With ``tail`` set,
    d1, d2 and a are row ``tail`` of TAIL_MODULES instead of random."""
    if tail is None:
        d1, d2 = monic_poly(rng), monic_poly(rng)
        extra = [e for e in range(0, 3) if rng.random() < 0.5]
    else:
        d1, d2, extra = TAIL_MODULES[tail % len(TAIL_MODULES)]
    rows = [[poly_str(d1, "s"), poly_str([-(10 ** decade)] + extra, "s")],
            ["0", poly_str(d2, "s")]]
    gens = parse_rows(rows)
    return gens, max(d1) + max(d2)


def large_domain_case(rng, decade: int):
    """Class whose matrix has an entry s^-N with N = 10**decade."""
    corner = poly_str([-(10 ** decade)], "s")
    return lamp.LampComm.from_json(comm_json(rng, min_level=2, max_level=3, corner=corner))


def high_class(rng, level: int):
    """Class of the given level with polynomial entries and derivation degree <= 256."""
    return lamp.LampComm.from_json(
        comm_json(rng, min_level=level, max_level=level, max_deg=256, der_density=0.05,
                  entry=poly_entry)
    )


def build_large(seed: int):
    """Every seed gets the same kinds and sizes: the same count per decade,
    corner exponent and ordered level pair; the seed picks the values."""
    rng = random.Random(seed)
    high = {lv: [high_class(rng, lv) for _ in range(4)] for lv in HIGH_LEVELS}
    with_corner = {d: [large_domain_case(rng, d) for _ in range(20)] for d in (2, 3)}
    pairs = [(a, b) for a in HIGH_LEVELS for b in HIGH_LEVELS] * (
        LARGE_COUNTS["compose_high"] // len(HIGH_LEVELS) ** 2)
    rng.shuffle(pairs)
    seen = dict.fromkeys(LARGE_COUNTS, 0)  # ops of each kind so far
    ops = []
    for kind in shuffled_kinds(rng, LARGE_COUNTS):
        family, _, size = kind.partition("_")
        i = seen[kind]
        seen[kind] += 1
        if family == "apply":
            c, g = apply_case(rng, int(size[-1]))
            ops.append(Op(kind, lamp.comm_apply, (c, g), check_apply_split(c, g)))
        elif family == "power":
            g, e = power_case(rng, int(size[-1]))
            ops.append(Op(kind, operator.pow, (g, e), check_power(g, e)))
        elif family == "module":
            decade = int(size[-1])
            gens, index = module_case(rng, decade, i if decade >= 4 else None)
            ops.append(Op(kind, lamp.SubmoduleBasis.from_generators, (2, gens),
                          check_module(gens, index)))
        elif family == "domain":
            c = rng.choice(with_corner[2 + i % 2])
            ops.append(Op(kind, lamp.comm_domain, (c,), check_domain(c)))
        else:
            a, b = pairs[i]
            c1, c2 = rng.choice(high[a]), rng.choice(high[b])
            k_exps = [e for e in range(-4, 5) if rng.random() < 0.3]
            ops.append(Op(kind, lamp.comm_compose, (c1, c2),
                          check_compose_apply(c1, c2, k_exps, rng.randrange(-1, 2))))
    return ops


def sweep_cases(seed: int):
    """Fixed-size cases for the per-decade sweeps: name -> (fn, args)."""
    rng = random.Random(seed + 7919)
    cases = {}
    for decade in (3, 4, 5):
        c, g = apply_case(rng, decade)
        cases[f"lamplighter.apply_p50_ms.n1e{decade}"] = (lamp.comm_apply, (c, g))
        gens, _ = module_case(rng, decade, tail=0)
        cases[f"hnf.module_p50_ms.shift1e{decade}"] = (lamp.SubmoduleBasis.from_generators, (2, gens))
    for level in (8, 12):
        cases[f"lamplighter.compose_p50_ms.level{level}"] = (
            lamp.comm_compose, (high_class(rng, level), high_class(rng, level)))
    return cases
