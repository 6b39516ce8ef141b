"""Command-line entry point.

Each leaf subcommand is defined once, in ``_build_parser`` or in its
family's row of ``_FAMILIES``, together with the handler that runs it.
A call builds every top-level command, so the top level's help, choices
and errors never change, but the leaves of the ``lamp``, ``unipotent``,
``bs`` or ``comm-desc`` family only when the call's first token without
a leading dash names that family.  The parser imports no compute layer,
so ``--help`` and argparse's rejections load none; each handler imports
the layer it runs in its own body, and only the ``demo`` leaf imports
``demos``, so a call loads the code of its own family only (a ``lamp``
call never loads ``matrices``, a ``bs`` call never ``f2poly``).
Handlers read JSON (inline or a file path; JSON numbers are read as
decimals, so ``0.1`` is 1/10) and return their result; ``run`` is the
one place that prints a result or an error and picks the exit code: 0 on
success, 1 on domain errors (reported as
``{"error": code, "detail": text}``; running out of memory is the code
``ResourceLimit``), 2 on malformed input, a command line that argparse
rejects included.  ``--pretty`` indents the same JSON.  The ``demo``
subcommand reproduces the worked computations shipped with the package,
prints one PASS/FAIL line per check and returns its own exit code.
"""

from __future__ import annotations

import argparse
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


def _lamp_mul(args):
    return (_lamp_elem(args.g) * _lamp_elem(args.h)).to_json()


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
# demos reproducing the worked computations, in ``demos``; their names here
# are the choices of the ``demo`` leaf

_DEMOS = ("bs-bogopolski", "lamplighter-gl-embed", "radicability", "torus-example")


def _demo(args) -> int:
    from .demos import DEMOS
    return 0 if DEMOS[args.name](args.seed) else 1


# ---------------------------------------------------------------------------
# argument parsing and the one place that prints results


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentError on a command line it rejects, where argparse
    prints usage to stderr and exits 2, so that ``run`` prints one JSON
    line; ``add_subparsers`` makes every subcommand parser a _Parser too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


_INT_FLAGS = ("--n", "--m", "--p")


def _leaf(subs, name: str, handler, *flags, **kwargs) -> argparse.ArgumentParser:
    """Add subcommand ``name`` run by ``handler``; each flag, a name or a
    (name, help) pair, is a required option, an integer for the flags in
    ``_INT_FLAGS``."""
    p = subs.add_parser(name, **kwargs)
    for flag in flags:
        flag, text = (flag, None) if isinstance(flag, str) else flag
        p.add_argument(flag, type=int if flag in _INT_FLAGS else None, required=True, help=text)
    p.set_defaults(handler=handler)
    return p


# the families of leaves: (family, help, dest, leaves), each leaf the
# arguments of _leaf after its subparsers
_FAMILIES = (
    ("lamp", "lamplighter commensurations", "lamp_cmd", (
        ("mul", _lamp_mul, "--g", "--h"),
        ("apply", _lamp_apply, "--comm", "--elem"),
        ("compose", _lamp_compose, "--c1", "--c2"),
        ("invert", _lamp_invert, "--comm"),
        ("domain", _lamp_domain, "--comm"),
        ("from-partial", _lamp_from_partial, "--data"),
        ("embed-gl", _lamp_embed_gl, "--n", ("--matrix", 'F2 matrix "1,0;0,1"')),
        ("quotient-dim", _lamp_quotient_dim, "--submodule", "--m"),
    )),
    ("unipotent", "unitriangular groups over Q", "uni_cmd", (
        ("log", _uni_log, "--matrix"),
        ("exp", _uni_exp, "--matrix"),
        ("root", _uni_root, "--p", "--matrix"),
        ("apply-aut", _uni_apply_aut, "--aut", "--matrix"),
    )),
    ("bs", "solvable Baumslag-Solitar groups", "bs_cmd", (
        ("mul", _bs_mul, "--g", "--h"),
        ("conj", _bs_conj, "--r", "--q", "--elem"),
        ("domain", _bs_domain, "--n", "--r", "--q"),
    )),
    ("comm-desc", "iterated semidirect-product law", "desc_cmd", (
        ("mul", _desc_mul, "--spec"),
        ("inv", _desc_inv, "--spec"),
    )),
)


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every top-level command, with the leaves of the
    family that ``command`` names only, or of every family for None.
    The top level's help, choices and errors are the same either way,
    and a family's leaves parse only the arguments past its name."""
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

    for family, text, dest, leaves in _FAMILIES:
        p = subs.add_parser(family, help=text)
        if command in (None, family):
            fsubs = p.add_subparsers(dest=dest, required=True)
            for leaf in leaves:
                _leaf(fsubs, *leaf)

    p = _leaf(subs, "solve-inner", _solve_inner, help="inner-derivation linear solver")
    p.add_argument("--ts", required=True, help="JSON list of square matrices")
    p.add_argument("--vs", required=True, help="JSON list of vectors")

    p = _leaf(subs, "demo", _demo, help="reproduce the worked computations")
    p.add_argument("name", choices=_DEMOS)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv) -> int:
    """Parse ``argv``, run its handler, print its result or error as one
    JSON line and return the exit code.  ``demo`` prints its own PASS/FAIL
    lines and returns its exit code, an int where others return JSON."""
    # the first token without a leading dash names the command, as the top
    # level's one option, --pretty, takes no value
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
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
