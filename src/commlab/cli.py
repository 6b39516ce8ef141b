"""Command-line entry point.

Every subcommand reads and writes JSON; ``--pretty`` adds an indented
rendering of the same data.  Exit codes: 0 on success, 1 on domain
errors (reported as ``{"error": code, "detail": text}``), 2 on parse
errors.  The ``demo`` subcommand reproduces the worked computations
shipped with the package and prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from fractions import Fraction

from . import lamplighter as lamp
from . import solvable, storus, unipotent
from .errors import CommLabError, UnknownDemo, ZeroInput
from .matrices import MatQ
from .polymat import BitMat
from .solvable import AffineMap, BSElement, CommDesc, CommSpace
from .unipotent import LieAut, NilMat, UniTriMat


def _load_json(text: str):
    """Accept inline JSON or a path to a JSON file."""
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if os.path.exists(text):
            with open(text) as fh:
                return json.load(fh)
        raise


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(json.dumps(obj, sort_keys=True))


def _parse_int_matrix(text: str):
    """Rows separated by ';', entries by ','."""
    return [[int(x) for x in row.split(",")] for row in text.split(";")]


def _matq_from_json(obj) -> MatQ:
    return MatQ([[Fraction(str(x)) for x in row] for row in obj])


def _matq_to_json(mat: MatQ):
    return [[str(x) for x in row] for row in mat.rows]


def _unitri_from_arg(text: str) -> UniTriMat:
    return UniTriMat(_matq_from_json(_load_json(text)))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_torus_rank(args, pretty: bool) -> int:
    if args.matrix:
        spec = storus.torus_from_matrix2(_parse_int_matrix(args.matrix))
    elif args.disc is not None:
        if args.kind == "gm":
            spec = storus.TorusSpec.gm()
        elif args.kind == "restscalars":
            spec = storus.TorusSpec.rest_scalars(args.disc)
        else:
            spec = storus.TorusSpec.norm_one(args.disc)
    else:
        raise ValueError("provide --matrix or --disc")
    primes = [int(p) for p in args.primes.split(",")] if args.primes else []
    report = storus.s_rank(spec, primes)
    out = report.to_json()
    out["torus"] = spec.to_json()
    _emit(out, pretty)
    return 0


def _cmd_lamp(args, pretty: bool) -> int:
    sub = args.lamp_cmd
    if sub == "mul":
        g = lamp.LampElement.from_json(_load_json(args.g))
        h = lamp.LampElement.from_json(_load_json(args.h))
        _emit(lamp.lamp_mul(g, h).to_json(), pretty)
    elif sub == "apply":
        c = lamp.LampComm.from_json(_load_json(args.comm))
        g = lamp.LampElement.from_json(_load_json(args.elem))
        _emit(lamp.comm_apply(c, g).to_json(), pretty)
    elif sub == "compose":
        c1 = lamp.LampComm.from_json(_load_json(args.c1))
        c2 = lamp.LampComm.from_json(_load_json(args.c2))
        _emit(lamp.comm_compose(c1, c2).to_json(), pretty)
    elif sub == "invert":
        c = lamp.LampComm.from_json(_load_json(args.comm))
        _emit(lamp.comm_invert(c).to_json(), pretty)
    elif sub == "from-partial":
        data = _load_json(args.data)
        level = int(data["level"])
        basis = lamp.SubmoduleBasis.from_json({"level": level, "H": data["H"]})
        gen_images = [lamp.LampElement.from_json(x) for x in data["gen_images"]]
        t_image = lamp.LampElement.from_json(data["t_image"])
        c = lamp.comm_from_partial(level, basis, gen_images, t_image)
        _emit(c.to_json(), pretty)
    elif sub == "embed-gl":
        rows = _parse_int_matrix(args.matrix)
        c = lamp.diagonal_embed(args.n, rows)
        _emit(c.to_json(), pretty)
    elif sub == "quotient-dim":
        basis = lamp.SubmoduleBasis.from_json(_load_json(args.submodule))
        dim = lamp.quotient_dim(basis, args.m)
        _emit({"dim": dim, "m": args.m, "index_log2": basis.index_log2}, pretty)
    else:  # pragma: no cover
        raise ValueError(f"unknown lamp subcommand {sub!r}")
    return 0


def _cmd_unipotent(args, pretty: bool) -> int:
    sub = args.uni_cmd
    if sub == "log":
        g = _unitri_from_arg(args.matrix)
        _emit(_matq_to_json(unipotent.unitri_log(g).mat), pretty)
    elif sub == "exp":
        x = NilMat(_matq_from_json(_load_json(args.matrix)))
        _emit(_matq_to_json(unipotent.unitri_exp(x).mat), pretty)
    elif sub == "root":
        g = _unitri_from_arg(args.matrix)
        root = unipotent.pth_root(g, args.p)
        _emit(_matq_to_json(root.mat), pretty)
    elif sub == "apply-aut":
        aut_obj = _load_json(args.aut)
        aut = LieAut(int(aut_obj["n"]), _matq_from_json(aut_obj["L"]))
        g = _unitri_from_arg(args.matrix)
        _emit(_matq_to_json(unipotent.comm_from_lie_aut(aut, g).mat), pretty)
    else:  # pragma: no cover
        raise ValueError(f"unknown unipotent subcommand {sub!r}")
    return 0


def _cmd_bs(args, pretty: bool) -> int:
    sub = args.bs_cmd
    if sub == "mul":
        g = BSElement.from_json(_load_json(args.g))
        h = BSElement.from_json(_load_json(args.h))
        _emit(solvable.bs_mul(g, h).to_json(), pretty)
    elif sub == "conj":
        c = AffineMap(Fraction(args.r), Fraction(args.q))
        g = BSElement.from_json(_load_json(args.elem))
        _emit(solvable.bs_comm_apply(c, g).to_json(), pretty)
    elif sub == "domain":
        c = AffineMap(Fraction(args.r), Fraction(args.q))
        k, d = solvable.bs_comm_domain(c, args.n)
        _emit({"K": k, "D": d}, pretty)
    else:  # pragma: no cover
        raise ValueError(f"unknown bs subcommand {sub!r}")
    return 0


def _space_from_json(obj) -> CommSpace:
    report = solvable.reduced_comm_structure(0, 0, obj.get("red", "trivial"))
    return CommSpace(
        int(obj["N0"]), int(obj["N1"]), int(obj["dZ"]), int(obj["dZ1"]),
        report.space.red,
    )


def _desc_from_json(space: CommSpace, obj) -> CommDesc:
    red = space.red.identity()
    if obj.get("red") is not None:
        red = AffineMap(Fraction(obj["red"]["r"]), Fraction(obj["red"]["q"]))
    return CommDesc(
        space,
        MatQ([[Fraction(x) for x in row] for row in obj["h_central"]], ncols=space.n0),
        MatQ([[Fraction(x) for x in row] for row in obj["P"]], ncols=space.n0),
        MatQ([[Fraction(x) for x in row] for row in obj["h_10"]], ncols=space.n1),
        MatQ([[Fraction(x) for x in row] for row in obj["h_1z"]], ncols=space.n1),
        red,
    )


def _desc_to_json(d: CommDesc):
    out = {
        "h_central": _matq_to_json(d.h_central),
        "P": _matq_to_json(d.p),
        "h_10": _matq_to_json(d.h_10),
        "h_1z": _matq_to_json(d.h_1z),
    }
    out["red"] = (
        {"r": str(d.red.r), "q": str(d.red.q)}
        if isinstance(d.red, AffineMap)
        else None
    )
    return out


def _cmd_comm_desc(args, pretty: bool) -> int:
    spec = _load_json(args.spec)
    space = _space_from_json(spec["space"])
    a = _desc_from_json(space, spec["a"])
    if args.desc_cmd == "mul":
        b = _desc_from_json(space, spec["b"])
        _emit(_desc_to_json(solvable.comm_desc_mul(a, b)), pretty)
    else:
        _emit(_desc_to_json(solvable.comm_desc_inv(a)), pretty)
    return 0


def _cmd_solve_inner(args, pretty: bool) -> int:
    ts = [_matq_from_json(m) for m in _load_json(args.ts)]
    vs = [MatQ.column([Fraction(str(x)) for x in v]) for v in _load_json(args.vs)]
    x = solvable.solve_inner_derivation(ts, vs)
    _emit([str(x.entry(i, 0)) for i in range(x.nrows)], pretty)
    return 0


# ---------------------------------------------------------------------------
# demos reproducing the worked computations


def _check(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    line = f"{tag}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def _demo_torus_example(_seed: int) -> bool:
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
    mats = []
    for bits in itertools.product([0, 1], repeat=4):
        rows = [list(bits[:2]), list(bits[2:])]
        if BitMat.from_lists(rows).is_invertible():
            mats.append(rows)
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


_DEMOS = {
    "torus-example": _demo_torus_example,
    "lamplighter-gl-embed": _demo_lamplighter_gl_embed,
    "bs-bogopolski": _demo_bs_bogopolski,
    "radicability": _demo_radicability,
}


def _cmd_demo(args, _pretty: bool) -> int:
    fn = _DEMOS.get(args.name)
    if fn is None:
        raise UnknownDemo(f"unknown demo {args.name!r}")
    return 0 if fn(args.seed) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comm-lab",
        description="exact computations with commensurators of solvable "
        "S-arithmetic groups",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("torus-rank", help="S-arithmetic rank of a quadratic torus")
    p.add_argument("--disc", type=int, help="squarefree discriminant")
    p.add_argument("--kind", choices=["normone", "restscalars", "gm"],
                   default="normone")
    p.add_argument("--matrix", help='2x2 integer matrix "a,b;c,d"')
    p.add_argument("--primes", default="", help="comma-separated primes")

    p = subs.add_parser("lamp", help="lamplighter commensurations")
    lsubs = p.add_subparsers(dest="lamp_cmd", required=True)
    q = lsubs.add_parser("mul")
    q.add_argument("--g", required=True)
    q.add_argument("--h", required=True)
    q = lsubs.add_parser("apply")
    q.add_argument("--comm", required=True)
    q.add_argument("--elem", required=True)
    q = lsubs.add_parser("compose")
    q.add_argument("--c1", required=True)
    q.add_argument("--c2", required=True)
    q = lsubs.add_parser("invert")
    q.add_argument("--comm", required=True)
    q = lsubs.add_parser("from-partial")
    q.add_argument("--data", required=True)
    q = lsubs.add_parser("embed-gl")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--matrix", required=True, help='F2 matrix "1,0;0,1"')
    q = lsubs.add_parser("quotient-dim")
    q.add_argument("--submodule", required=True)
    q.add_argument("--m", type=int, required=True)

    p = subs.add_parser("unipotent", help="unitriangular groups over Q")
    usubs = p.add_subparsers(dest="uni_cmd", required=True)
    for name in ("log", "exp"):
        q = usubs.add_parser(name)
        q.add_argument("--matrix", required=True)
    q = usubs.add_parser("root")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--matrix", required=True)
    q = usubs.add_parser("apply-aut")
    q.add_argument("--aut", required=True)
    q.add_argument("--matrix", required=True)

    p = subs.add_parser("bs", help="solvable Baumslag-Solitar groups")
    bsubs = p.add_subparsers(dest="bs_cmd", required=True)
    q = bsubs.add_parser("mul")
    q.add_argument("--g", required=True)
    q.add_argument("--h", required=True)
    q = bsubs.add_parser("conj")
    q.add_argument("--r", required=True)
    q.add_argument("--q", required=True)
    q.add_argument("--elem", required=True)
    q = bsubs.add_parser("domain")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", required=True)
    q.add_argument("--q", required=True)

    p = subs.add_parser("comm-desc", help="iterated semidirect-product law")
    dsubs = p.add_subparsers(dest="desc_cmd", required=True)
    for name in ("mul", "inv"):
        q = dsubs.add_parser(name)
        q.add_argument("--spec", required=True)

    p = subs.add_parser("solve-inner", help="inner-derivation linear solver")
    p.add_argument("--ts", required=True, help="JSON list of square matrices")
    p.add_argument("--vs", required=True, help="JSON list of vectors")

    p = subs.add_parser("demo", help="reproduce the worked computations")
    p.add_argument("name", choices=sorted(_DEMOS))
    p.add_argument("--seed", type=int, default=0)

    return parser


_HANDLERS = {
    "torus-rank": _cmd_torus_rank,
    "lamp": _cmd_lamp,
    "unipotent": _cmd_unipotent,
    "bs": _cmd_bs,
    "comm-desc": _cmd_comm_desc,
    "solve-inner": _cmd_solve_inner,
    "demo": _cmd_demo,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args, args.pretty)
    except CommLabError as exc:
        print(json.dumps({"error": exc.code, "detail": exc.detail}))
        return 1
    except ZeroDivisionError as exc:
        print(json.dumps({"error": ZeroInput.code, "detail": str(exc)}))
        return 1
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "ParseError", "detail": str(exc)}))
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
