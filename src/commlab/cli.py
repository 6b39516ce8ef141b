"""Command-line entry point.

Each leaf subcommand is defined once, in ``_build_parser``, together
with the handler that runs it.  The parser is built eagerly, in full,
and imports no compute layer, so ``--help`` and argparse's rejections
load none; each handler, and each demo, imports the layer it runs in
its own body, so a call loads the code of its own family only (a
``lamp`` call never loads ``matrices``, a ``bs`` call never
``f2poly``).  Handlers read JSON (inline or a file path; JSON numbers
are read as decimals, so ``0.1`` is 1/10) and return their result;
``run`` is the one place that prints a result or an error and picks the
exit code: 0 on success, 1 on domain errors (reported as
``{"error": code, "detail": text}``; running out of memory is the code
``ResourceLimit``), 2 on malformed input, a command line that argparse
rejects included.  ``--pretty`` indents the same JSON.  The ``demo``
subcommand reproduces the worked computations shipped with the package,
prints one PASS/FAIL line per check and returns its own exit code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .errors import (CommLabError, ResourceLimit, SingularMatrix, ZeroInput, json_int, json_list,
                     json_matrix, json_object)


def _load_json(text: str):
    """Accept inline JSON or a path to a JSON file.  A JSON number with a
    fraction or an exponent is read as the text of its literal, so that
    ``parse_rational`` reads it exactly, its exponent cap included."""
    text = text.strip()
    try:
        return json.loads(text, parse_float=str)
    except json.JSONDecodeError:
        if os.path.exists(text):
            try:
                with open(text) as fh:
                    return json.load(fh, parse_float=str)
            except OSError as exc:
                raise ValueError(f"cannot read {text!r}: {exc.strerror}") from exc
        raise


def _parse_int_matrix(text: str):
    """Rows separated by ';', entries by ','."""
    return [[int(x) for x in row.split(",")] for row in text.split(";")]


def _matq_from_json(obj, name: str, ncols=None):
    from .matrices import MatQ, parse_rational
    return MatQ([[parse_rational(x) for x in row] for row in json_matrix(obj, name)], ncols=ncols)


def _matq_from_arg(text: str):
    return _matq_from_json(_load_json(text), "--matrix")


def _unitri_from_arg(text: str):
    from .unipotent import UniTriMat
    return UniTriMat(_matq_from_arg(text))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the JSON result that ``run`` prints


def _lamp_elem(text: str):
    from .lamplighter import LampElement
    return LampElement.from_json(_load_json(text))


def _lamp_comm(text: str):
    from .lamplighter import LampComm
    return LampComm.from_json(_load_json(text))


def _affine(args):
    from .matrices import parse_rational
    from .solvable import AffineMap
    return AffineMap(parse_rational(args.r), parse_rational(args.q))


def _bs_elem(text: str):
    from .solvable import BSElement
    return BSElement.from_json(_load_json(text))


def _torus_rank(args):
    from . import storus
    if args.matrix:
        spec = storus.torus_from_matrix2(_parse_int_matrix(args.matrix))
    elif args.kind == "gm":  # Gm has no discriminant, so --disc is not read
        spec = storus.TorusSpec.gm()
    elif args.disc is not None:
        if args.kind == "restscalars":
            spec = storus.TorusSpec.rest_scalars(args.disc)
        else:
            spec = storus.TorusSpec.norm_one(args.disc)
    else:
        raise ValueError("provide --matrix or --disc")
    primes = [int(p) for p in args.primes.split(",")] if args.primes else []
    out = storus.s_rank(spec, primes).to_json()
    out["torus"] = spec.to_json()
    return out


def _lamp_apply(args):
    from .lamplighter import comm_apply
    return comm_apply(_lamp_comm(args.comm), _lamp_elem(args.elem)).to_json()


def _lamp_compose(args):
    from .lamplighter import comm_compose
    return comm_compose(_lamp_comm(args.c1), _lamp_comm(args.c2)).to_json()


def _lamp_invert(args):
    from .lamplighter import comm_invert
    return comm_invert(_lamp_comm(args.comm)).to_json()


def _lamp_domain(args):
    from .lamplighter import comm_domain
    return comm_domain(_lamp_comm(args.comm))[0].to_json()


def _lamp_from_partial(args):
    from . import lamplighter as lamp
    data = json_object(_load_json(args.data), "--data")
    level = json_int(data["level"])
    basis = lamp.SubmoduleBasis.from_json({"level": level, "H": data["H"]})
    gen_images = [lamp.LampElement.from_json(x) for x in json_list(data["gen_images"], "gen_images")]
    t_image = lamp.LampElement.from_json(data["t_image"])
    return lamp.comm_from_partial(level, basis, gen_images, t_image).to_json()


def _lamp_embed_gl(args):
    from .lamplighter import diagonal_embed
    return diagonal_embed(args.n, _parse_int_matrix(args.matrix)).to_json()


def _lamp_quotient_dim(args):
    from .lamplighter import SubmoduleBasis, quotient_dim
    basis = SubmoduleBasis.from_json(_load_json(args.submodule))
    dim = quotient_dim(basis, args.m)
    return {"dim": dim, "m": args.m, "index_log2": basis.index_log2}


def _uni_log(args):
    from .unipotent import unitri_log
    return unitri_log(_unitri_from_arg(args.matrix)).mat.to_strings()


def _uni_exp(args):
    from .unipotent import NilMat, unitri_exp
    return unitri_exp(NilMat(_matq_from_arg(args.matrix))).mat.to_strings()


def _uni_root(args):
    from .unipotent import pth_root
    return pth_root(_unitri_from_arg(args.matrix), args.p).mat.to_strings()


def _uni_apply_aut(args):
    from .unipotent import LieAut, comm_from_lie_aut
    aut_obj = json_object(_load_json(args.aut), "--aut")
    aut = LieAut(json_int(aut_obj["n"]), _matq_from_json(aut_obj["L"], "L"))
    return comm_from_lie_aut(aut, _unitri_from_arg(args.matrix)).mat.to_strings()


def _bs_mul(args):
    from .solvable import bs_mul
    return bs_mul(_bs_elem(args.g), _bs_elem(args.h)).to_json()


def _bs_conj(args):
    from .solvable import bs_comm_apply
    return bs_comm_apply(_affine(args), _bs_elem(args.elem)).to_json()


def _bs_domain(args):
    from .solvable import bs_comm_domain
    k, d = bs_comm_domain(_affine(args), args.n)
    return {"K": k, "D": d}


def _space_from_json(obj):
    from .solvable import CommSpace, reduced_part
    obj = json_object(obj, '--spec["space"]')
    return CommSpace(
        json_int(obj["N0"]), json_int(obj["N1"]),
        json_int(obj["dZ"]), json_int(obj["dZ1"]),
        reduced_part(obj.get("red", "trivial")),
    )


def _desc_from_json(space, obj, name: str):
    from .matrices import parse_rational
    from .solvable import AffineMap, CommDesc
    obj = json_object(obj, name)
    red = space.red.identity()
    if obj.get("red") is not None:
        aff = json_object(obj["red"], f'{name}["red"]')
        red = AffineMap(parse_rational(aff["r"]), parse_rational(aff["q"]))
    h_central = _matq_from_json(obj["h_central"], "h_central", ncols=space.n0)
    p = _matq_from_json(obj["P"], "P", ncols=space.n0)
    # the GL block arrives from outside here; products and inverses of
    # invertible blocks are invertible, so CommDesc itself takes no det
    if p.is_square() and p.det() == 0:
        raise SingularMatrix("the GL block P is not invertible")
    return CommDesc(
        space,
        h_central,
        p,
        _matq_from_json(obj["h_10"], "h_10", ncols=space.n1),
        _matq_from_json(obj["h_1z"], "h_1z", ncols=space.n1),
        red,
    )


def _desc_to_json(d):
    from .matrices import format_rational
    from .solvable import AffineMap
    red = None
    if isinstance(d.red, AffineMap):
        red = {"r": format_rational(d.red.r), "q": format_rational(d.red.q)}
    return {"h_central": d.h_central.to_strings(), "P": d.p.to_strings(),
            "h_10": d.h_10.to_strings(), "h_1z": d.h_1z.to_strings(), "red": red}


def _descs(args, *keys):
    spec = json_object(_load_json(args.spec), "--spec")
    space = _space_from_json(spec["space"])
    return [_desc_from_json(space, spec[k], f'--spec["{k}"]') for k in keys]


def _desc_mul(args):
    from .solvable import comm_desc_mul
    return _desc_to_json(comm_desc_mul(*_descs(args, "a", "b")))


def _desc_inv(args):
    from .solvable import comm_desc_inv
    return _desc_to_json(comm_desc_inv(*_descs(args, "a")))


def _solve_inner(args):
    from .matrices import MatQ, parse_rational
    from .solvable import solve_inner_derivation
    ts = [_matq_from_json(m, "a --ts matrix") for m in json_list(_load_json(args.ts), "--ts")]
    vs = [MatQ.column([parse_rational(x) for x in v])
          for v in json_matrix(_load_json(args.vs), "--vs")]
    x = solve_inner_derivation(ts, vs)
    return [entry for (entry,) in x.to_strings()]


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


_DEMOS = {
    "torus-example": _demo_torus_example,
    "lamplighter-gl-embed": _demo_lamplighter_gl_embed,
    "bs-bogopolski": _demo_bs_bogopolski,
    "radicability": _demo_radicability,
}


def _demo(args) -> int:
    return 0 if _DEMOS[args.name](args.seed) else 1


# ---------------------------------------------------------------------------
# argument parsing and the one place that prints results


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError on a command line it rejects, where argparse
    prints usage to stderr and exits 2, so that ``run`` prints one JSON
    line; ``add_subparsers`` makes every subcommand parser a _Parser too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


_INT_FLAGS = ("--n", "--m", "--p")


def _leaf(subs, name: str, handler, *flags: str, **kwargs) -> argparse.ArgumentParser:
    """Add subcommand ``name`` run by ``handler``; each flag is a required
    option, an integer for the flags in ``_INT_FLAGS``."""
    p = subs.add_parser(name, **kwargs)
    for flag in flags:
        p.add_argument(flag, type=int if flag in _INT_FLAGS else None, required=True)
    p.set_defaults(handler=handler)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="comm-lab",
        description="exact computations with commensurators of solvable "
        "S-arithmetic groups",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _leaf(subs, "torus-rank", _torus_rank, help="S-arithmetic rank of a quadratic torus")
    p.add_argument("--disc", type=int, help="squarefree discriminant")
    p.add_argument("--kind", choices=["normone", "restscalars", "gm"],
                   default="normone")
    p.add_argument("--matrix", help='2x2 integer matrix "a,b;c,d"')
    p.add_argument("--primes", default="", help="comma-separated primes")

    p = subs.add_parser("lamp", help="lamplighter commensurations")
    lsubs = p.add_subparsers(dest="lamp_cmd", required=True)
    _leaf(lsubs, "mul", lambda a: (_lamp_elem(a.g) * _lamp_elem(a.h)).to_json(),
          "--g", "--h")
    _leaf(lsubs, "apply", _lamp_apply, "--comm", "--elem")
    _leaf(lsubs, "compose", _lamp_compose, "--c1", "--c2")
    _leaf(lsubs, "invert", _lamp_invert, "--comm")
    _leaf(lsubs, "domain", _lamp_domain, "--comm")
    _leaf(lsubs, "from-partial", _lamp_from_partial, "--data")
    _leaf(lsubs, "embed-gl", _lamp_embed_gl,
          "--n").add_argument("--matrix", required=True, help='F2 matrix "1,0;0,1"')
    _leaf(lsubs, "quotient-dim", _lamp_quotient_dim, "--submodule", "--m")

    p = subs.add_parser("unipotent", help="unitriangular groups over Q")
    usubs = p.add_subparsers(dest="uni_cmd", required=True)
    _leaf(usubs, "log", _uni_log, "--matrix")
    _leaf(usubs, "exp", _uni_exp, "--matrix")
    _leaf(usubs, "root", _uni_root, "--p", "--matrix")
    _leaf(usubs, "apply-aut", _uni_apply_aut, "--aut", "--matrix")

    p = subs.add_parser("bs", help="solvable Baumslag-Solitar groups")
    bsubs = p.add_subparsers(dest="bs_cmd", required=True)
    _leaf(bsubs, "mul", _bs_mul, "--g", "--h")
    _leaf(bsubs, "conj", _bs_conj, "--r", "--q", "--elem")
    _leaf(bsubs, "domain", _bs_domain, "--n", "--r", "--q")

    p = subs.add_parser("comm-desc", help="iterated semidirect-product law")
    dsubs = p.add_subparsers(dest="desc_cmd", required=True)
    _leaf(dsubs, "mul", _desc_mul, "--spec")
    _leaf(dsubs, "inv", _desc_inv, "--spec")

    p = _leaf(subs, "solve-inner", _solve_inner, help="inner-derivation linear solver")
    p.add_argument("--ts", required=True, help="JSON list of square matrices")
    p.add_argument("--vs", required=True, help="JSON list of vectors")

    p = _leaf(subs, "demo", _demo, help="reproduce the worked computations")
    p.add_argument("name", choices=sorted(_DEMOS))
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv) -> int:
    """Parse ``argv``, run its handler, print its result or error as one
    JSON line and return the exit code.  ``demo`` prints its own PASS/FAIL
    lines and returns its exit code, an int where others return JSON."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(json.dumps({"error": "ParseError", "detail": str(exc)}))
        return 2
    except SystemExit:  # --help, which printed the help
        return 0
    try:
        result = args.handler(args)
        if isinstance(result, int):
            return result
        try:
            text = json.dumps(result, indent=2 if args.pretty else None, sort_keys=True)
        except ValueError:  # only an int past CPython's string conversion limit
            from .matrices import too_many_digits
            raise too_many_digits(max(map(abs, _ints(result))), "an answer") from None
    except CommLabError as exc:
        print(json.dumps({"error": exc.code, "detail": exc.detail}))
        return 1
    except ZeroDivisionError as exc:
        print(json.dumps({"error": ZeroInput.code, "detail": str(exc)}))
        return 1
    except MemoryError:
        print(json.dumps({"error": ResourceLimit.code, "detail": "out of memory"}))
        return 1
    except KeyError as exc:  # a JSON object without a key that the call reads
        print(json.dumps({"error": "ParseError", "detail": f"missing key {exc}"}))
        return 2
    except (ValueError, TypeError) as exc:
        print(json.dumps({"error": "ParseError", "detail": str(exc)}))
        return 2
    print(text)
    return 0


def _ints(obj) -> list:
    """Every int in a JSON result."""
    if isinstance(obj, (list, tuple, dict)):
        return [i for x in (obj.values() if isinstance(obj, dict) else obj) for i in _ints(x)]
    return [obj] if isinstance(obj, int) else []


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone; point stdout at devnull so that the
        # flush at interpreter exit cannot fail again and print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
