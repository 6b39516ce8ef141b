import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import commlab
from commlab.cli import _DEMOS, _build_parser, run
from commlab.demos import DEMOS


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out.splitlines()[-1])


def test_torus_rank_by_disc(capsys):
    code, out = run_json(capsys, ["torus-rank", "--disc", "5", "--primes", "11"])
    assert code == 0
    assert out["N"] == 2 and out["rank_R"] == 1 and out["rank_Qp"]["11"] == 1


def test_torus_rank_by_matrix(capsys):
    code, out = run_json(
        capsys, ["torus-rank", "--matrix", "2,1;1,1", "--primes", "3,11"]
    )
    assert code == 0
    assert out["N"] == 2
    assert out["torus"] == [{"kind": "NormOne", "d": 5}]


def test_torus_rank_of_gm_needs_no_disc(capsys):
    # Gm has no discriminant: --kind gm answers without --disc, and a --disc
    # given with it is not read
    code, out = run_json(capsys, ["torus-rank", "--kind", "gm", "--primes", "3"])
    assert code == 0
    assert out["N"] == 1 and out["torus"] == [{"kind": "Gm"}]
    code, with_disc = run_json(capsys, ["torus-rank", "--kind", "gm", "--disc", "5", "--primes", "3"])
    assert code == 0 and with_disc == out
    # the quadratic kinds still need one
    code, out = run_json(capsys, ["torus-rank", "--primes", "3"])
    assert code == 2 and out == {"error": "ParseError", "detail": "provide --matrix or --disc"}


def test_lamp_mul_and_apply(capsys):
    code, out = run_json(
        capsys,
        ["lamp", "mul", "--g", '{"k": "1", "n": 1}', "--h", '{"k": "1", "n": 1}'],
    )
    assert code == 0 and out == {"k": "1+t", "n": 2}
    ident = '{"level": 1, "der": "0", "A": [["1"]], "flip": false}'
    code, out = run_json(
        capsys, ["lamp", "apply", "--comm", ident, "--elem", '{"k": "t^2", "n": 0}']
    )
    assert code == 0 and out == {"k": "t^2", "n": 0}


def test_lamp_compose_invert_round_trip(capsys):
    c = '{"level": 1, "der": "1+t", "A": [["(1)/(1+t)"]], "flip": true}'
    code, inv = run_json(capsys, ["lamp", "invert", "--comm", c])
    assert code == 0
    code, prod = run_json(
        capsys, ["lamp", "compose", "--c1", c, "--c2", json.dumps(inv)]
    )
    assert code == 0
    assert prod == {"level": 1, "der": "0", "A": [["1"]], "flip": False}


def test_lamp_embed_and_quotient(capsys):
    code, out = run_json(capsys, ["lamp", "embed-gl", "--n", "2", "--matrix", "0,1;1,0"])
    assert code == 0 and out["level"] == 2 and out["flip"] is False
    code, out = run_json(
        capsys,
        ["lamp", "quotient-dim", "--submodule", '{"level":1,"H":[["1+s"]]}', "--m", "2"],
    )
    assert code == 0 and out["dim"] == 2 and out["index_log2"] == 1


def test_lamp_from_partial(capsys):
    data = {
        "level": 1,
        "H": [["1"]],
        "gen_images": [{"k": "1", "n": 0}],
        "t_image": {"k": "1+t", "n": 1},
    }
    code, out = run_json(capsys, ["lamp", "from-partial", "--data", json.dumps(data)])
    assert code == 0
    assert out == {"level": 1, "der": "1+t", "A": [["1"]], "flip": False}


def test_lamp_domain(capsys):
    from commlab.lamplighter import (CommInftyElt, LampComm, SubmoduleBasis, VDerElt,
                                     comm_compose, comm_domain)
    from samplers import ci_lamp_class

    c = {"level": 2, "der": "t", "A": [["1", "0"], ["0", "(1)/(1+s+s^3)"]], "flip": True}
    code, out = run_json(capsys, ["lamp", "domain", "--comm", json.dumps(c)])
    assert code == 0 and out == {"level": 2, "H": [["1", "0"], ["0", "1+s^2+s^3"]]}
    # the shape that quotient-dim and from-partial read
    basis = SubmoduleBasis.from_json(out)
    assert basis == comm_domain(LampComm.from_json(c))[0] and basis.index_log2 == 3
    # a level-60 class whose domain took over 15 s by an unreduced echelon
    # form; its parse takes about 0.06 s, so the bound is on the domain
    c60 = ci_lamp_class(random.Random(2), 60)
    start = time.perf_counter()
    code, out = run_json(capsys, ["lamp", "domain", "--comm", json.dumps(c60.to_json())])
    assert time.perf_counter() - start < 2  # about 0.1 s
    assert code == 0 and SubmoduleBasis.from_json(out) == comm_domain(c60)[0]
    # its flip conjugate, whose parse took 0.5-0.8 s before the column peel
    flip = LampComm(VDerElt.zero(), CommInftyElt.identity(1), True)
    conj = comm_compose(flip, comm_compose(c60, flip))
    start = time.perf_counter()
    code, out = run_json(capsys, ["lamp", "domain", "--comm", json.dumps(conj.to_json())])
    assert time.perf_counter() - start < 2  # about 0.03 s
    assert code == 0 and SubmoduleBasis.from_json(out) == comm_domain(conj)[0]
    # malformed input
    for comm in ('{"level": 2', '{"level": 1, "der": "t^x", "A": [["1"]], "flip": false}',
                 '{"level": 1, "der": "0", "A": [["1"]], "flip": "no"}'):
        code, out = run_json(capsys, ["lamp", "domain", "--comm", comm])
        assert code == 2 and out["error"] == "ParseError", comm


def test_unipotent_commands(capsys):
    mat = '[["1","0","1"],["0","1","0"],["0","0","1"]]'
    code, out = run_json(capsys, ["unipotent", "root", "--p", "2", "--matrix", mat])
    assert code == 0
    assert out[0][2] == "1/2"
    code, logged = run_json(capsys, ["unipotent", "log", "--matrix", mat])
    assert code == 0
    code, back = run_json(capsys, ["unipotent", "exp", "--matrix", json.dumps(logged)])
    assert code == 0
    assert back == json.loads(mat)
    aut = json.dumps({"n": 3, "L": [["2", "0", "0"], ["0", "4", "0"], ["0", "0", "2"]]})
    code, out = run_json(
        capsys, ["unipotent", "apply-aut", "--aut", aut, "--matrix", mat]
    )
    assert code == 0 and out[0][2] == "4"


def test_bs_commands(capsys):
    code, out = run_json(
        capsys,
        ["bs", "mul", "--g", '{"n":2,"a":1,"b":"0"}', "--h", '{"n":2,"a":0,"b":"1"}'],
    )
    assert code == 0 and out == {"n": 2, "a": 1, "b": "2"}
    code, out = run_json(capsys, ["bs", "domain", "--n", "2", "--r", "1", "--q", "1/3"])
    assert code == 0 and out == {"K": 2, "D": 3}
    code, out = run_json(
        capsys,
        ["bs", "conj", "--r", "1", "--q", "1/3", "--elem", '{"n":2,"a":2,"b":"0"}'],
    )
    assert code == 0 and out == {"n": 2, "a": 2, "b": "-1"}


def test_comm_desc_commands(capsys):
    spec = {
        "space": {"N0": 1, "N1": 1, "dZ": 1, "dZ1": 0, "red": "bs"},
        "a": {
            "h_central": [["2"]],
            "P": [["3"]],
            "h_10": [["1/2"]],
            "h_1z": [],
            "red": {"r": "2", "q": "1"},
        },
        "b": {
            "h_central": [["1"]],
            "P": [["1"]],
            "h_10": [["0"]],
            "h_1z": [],
            "red": {"r": "1", "q": "0"},
        },
    }
    code, out = run_json(capsys, ["comm-desc", "mul", "--spec", json.dumps(spec)])
    assert code == 0
    assert out["P"] == [["3"]]
    assert out["h_central"] == [["7/3"]]  # 2 + 1 * 3^-1
    code, inv = run_json(
        capsys, ["comm-desc", "inv", "--spec", json.dumps({k: spec[k] for k in ("space", "a")})]
    )
    assert code == 0 and inv["P"] == [["1/3"]]


def _desc_spec(p_entry, **extra):
    a = {"h_central": [], "P": [[p_entry]], "h_10": [[]], "h_1z": [], **extra}
    return json.dumps({"space": {"N0": 1, "N1": 0, "dZ": 0, "dZ1": 0}, "a": a})


def test_comm_desc_reads_json_numbers_as_decimals(capsys):
    code, from_number = run_json(capsys, ["comm-desc", "inv", "--spec", _desc_spec(0.1)])
    assert code == 0 and from_number["P"] == [["10"]]
    code, from_string = run_json(capsys, ["comm-desc", "inv", "--spec", _desc_spec("1/10")])
    assert code == 0 and from_string == from_number


def test_comm_desc_rejects_a_reduced_part_the_space_cannot_hold(capsys):
    spec = _desc_spec("2", red={"r": "3", "q": "1"})  # the space's reduced part is trivial
    code, out = run_json(capsys, ["comm-desc", "inv", "--spec", spec])
    assert code == 1 and out["error"] == "DimensionMismatch"


def test_comm_desc_refuses_a_singular_gl_block_in_either_description(capsys):
    identity = {"h_central": [], "P": [["1", "0"], ["0", "1"]], "h_10": [[], []], "h_1z": []}
    singular = {**identity, "P": [["1", "2"], ["1/2", "1"]]}  # det 0
    space = {"N0": 2, "N1": 0, "dZ": 0, "dZ1": 0}
    for a, b in ((identity, singular), (singular, identity)):
        spec = json.dumps({"space": space, "a": a, "b": b})
        code, out = run_json(capsys, ["comm-desc", "mul", "--spec", spec])
        assert code == 1 and out == {"error": "SingularMatrix",
                                     "detail": "the GL block P is not invertible"}
    code, out = run_json(capsys, ["comm-desc", "inv", "--spec",
                                  json.dumps({"space": space, "a": singular})])
    assert code == 1 and out["error"] == "SingularMatrix"
    code, out = run_json(capsys, ["comm-desc", "mul", "--spec",
                                  json.dumps({"space": space, "a": identity, "b": identity})])
    assert code == 0 and out["P"] == identity["P"]


def test_solve_inner_command(capsys):
    code, out = run_json(
        capsys,
        [
            "solve-inner",
            "--ts", '[[["2","0"],["0","3"]],[["3","0"],["0","2"]]]',
            "--vs", '[["1","2"],["2","1"]]',
        ],
    )
    assert code == 0 and out == ["1", "1"]


_AUT = '{"n": @, "L": [["2", "0", "0"], ["0", "4", "0"], ["0", "0", "2"]]}'
_SPACE = {"N0": 1, "N1": 0, "dZ": 0, "dZ1": 0}
# each integer field of JSON input: a command line with @ in its place, and
# a value that the field takes
INTEGER_FIELDS = {
    "LampComm.level": (
        ["lamp", "invert", "--comm", '{"level": @, "der": "0", "A": [["1"]], "flip": false}'], 1),
    "SubmoduleBasis.level": (
        ["lamp", "quotient-dim", "--submodule", '{"level": @, "H": [["1+s"]]}', "--m", "2"], 1),
    "LampElement.n": (["lamp", "mul", "--g", '{"k": "1", "n": @}', "--h", '{"k": "1", "n": 0}'], 1),
    "BSElement.n": (["bs", "mul", "--g", '{"n": @, "a": 1, "b": "0"}', "--h", '{"n": 2, "a": 0, "b": "1"}'], 2),
    "BSElement.a": (["bs", "mul", "--g", '{"n": 2, "a": @, "b": "0"}', "--h", '{"n": 2, "a": 0, "b": "1"}'], 1),
    "from-partial level": (["lamp", "from-partial", "--data", '{"level": @, "H": [["1"]], '
                            '"gen_images": [{"k": "1", "n": 0}], "t_image": {"k": "1+t", "n": 1}}'], 1),
    "apply-aut n": (["unipotent", "apply-aut", "--aut", _AUT, "--matrix",
                     '[["1", "0", "1"], ["0", "1", "0"], ["0", "0", "1"]]'], 3),
    **{f"space {key}": (["comm-desc", "inv", "--spec", json.dumps(
        {"space": {**_SPACE, key: "@"}, "a": {"h_central": [], "P": [["2"]], "h_10": [[]], "h_1z": []}}
    ).replace('"@"', "@")], _SPACE[key]) for key in _SPACE},
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_a_json_boolean_is_no_integer(capsys, field):
    # operator.index reads true and false as 1 and 0
    argv, value = INTEGER_FIELDS[field]
    code, out = run_json(capsys, [arg.replace("@", json.dumps(value)) for arg in argv])
    assert code == 0, out
    for boolean in ("true", "false"):
        code, out = run_json(capsys, [arg.replace("@", boolean) for arg in argv])
        assert code == 2 and out == {
            "error": "ParseError",
            "detail": f"an integer field must be a JSON integer, got {boolean}"}


_BLOCKS = {"h_central": [["0"]], "P": [["1"]], "h_10": [["0"]], "h_1z": [["0"]]}
# each matrix or vector list of JSON input that the rational layer reads: a
# command line with @ in the place of one row, the row, and the name that the
# error gives; a JSON string in that place used to be read as the row of its
# characters
MATRIX_ROWS = {
    "--matrix": (["unipotent", "log", "--matrix", '[@, ["0", "1"]]'], ["1", "0"], "--matrix"),
    "L": (["unipotent", "apply-aut", "--aut", '{"n": 2, "L": [@]}', "--matrix",
           '[["1", "1"], ["0", "1"]]'], ["2"], "L"),
    "--ts": (["solve-inner", "--ts", '[[@, ["0", "2"]]]', "--vs", '[["2", "0"]]'],
             ["2", "0"], "a --ts matrix"),
    "--vs": (["solve-inner", "--ts", '[[["2", "0"], ["0", "2"]]]', "--vs", "[@]"],
             ["1", "2"], "--vs"),
    **{key: (["comm-desc", "inv", "--spec", json.dumps(
        {"space": {"N0": 1, "N1": 1, "dZ": 1, "dZ1": 1}, "a": {**_BLOCKS, key: ["@"]}}
    ).replace('"@"', "@")], _BLOCKS[key][0], key) for key in _BLOCKS},
}


@pytest.mark.parametrize("flag", sorted(MATRIX_ROWS))
def test_a_json_string_is_no_matrix_row(capsys, flag):
    argv, row, name = MATRIX_ROWS[flag]
    code, out = run_json(capsys, [arg.replace("@", json.dumps(row)) for arg in argv])
    assert code == 0, out
    code, out = run_json(capsys, [arg.replace("@", json.dumps("".join(row))) for arg in argv])
    assert code == 2 and out["error"] == "ParseError", out
    assert out["detail"].startswith(f"{name} must be a list of lists, got "), out


@pytest.mark.parametrize("argv, detail", [
    (["lamp", "invert", "--comm", '{"level": 1, "der": "0", "A": ["1"], "flip": false}'],
     "A must be a list of lists, got ['1']"),
    (["lamp", "quotient-dim", "--submodule", '{"level": 1, "H": ["1+s"]}', "--m", "2"],
     "H must be a list of lists, got ['1+s']"),
])
def test_a_lamplighter_matrix_is_a_list_of_lists(capsys, argv, detail):
    code, out = run_json(capsys, argv)
    assert code == 2 and out == {"error": "ParseError", "detail": detail}


@pytest.mark.parametrize("argv, key", [
    (["lamp", "mul", "--g", '{"k": "t", "n": 1}', "--h", '{"k": "t"}'], "'n'"),
    (["lamp", "invert", "--comm", '{"level": 1, "der": "0", "flip": false}'], "'A'"),
])
def test_a_missing_json_key_is_named(capsys, argv, key):
    # str() of a KeyError is the repr of the key alone
    code, out = run_json(capsys, argv)
    assert code == 2 and out == {"error": "ParseError", "detail": f"missing key {key}"}


_DESC = {"h_central": [], "P": [["1"]], "h_10": [[]], "h_1z": []}


@pytest.mark.parametrize("argv, detail", [
    (["lamp", "apply", "--comm", '{"level": 1, "der": "0", "A": [["1"]], "flip": false}',
      "--elem", "[]"],
     "a lamplighter element must be a JSON object, got []"),
    (["lamp", "mul", "--g", '"x"', "--h", '{"k": "1", "n": 0}'],
     "a lamplighter element must be a JSON object, got 'x'"),
    (["lamp", "invert", "--comm", "[]"], "a class must be a JSON object, got []"),
    (["lamp", "quotient-dim", "--submodule", '"H"', "--m", "2"],
     "a submodule basis must be a JSON object, got 'H'"),
    (["lamp", "from-partial", "--data", "[1]"], "--data must be a JSON object, got [1]"),
    (["bs", "mul", "--g", "[]", "--h", '{"n": 2, "a": 0, "b": "1"}'],
     "a BS element must be a JSON object, got []"),
    (["unipotent", "apply-aut", "--aut", "3", "--matrix", '[["1"]]'],
     "--aut must be a JSON object, got 3"),
    (["comm-desc", "mul", "--spec", "[]"], "--spec must be a JSON object, got []"),
    (["comm-desc", "inv", "--spec", json.dumps({"space": [], "a": _DESC})],
     '--spec["space"] must be a JSON object, got []'),
    (["comm-desc", "inv", "--spec", json.dumps({"space": _SPACE, "a": "x"})],
     '--spec["a"] must be a JSON object, got \'x\''),
    (["comm-desc", "inv", "--spec", json.dumps({"space": _SPACE, "a": {**_DESC, "red": [1]}})],
     '--spec["a"]["red"] must be a JSON object, got [1]'),
])
def test_a_json_input_of_the_wrong_shape_is_named(capsys, argv, detail):
    # indexed by position, a list or a string used to fail on its first key
    # with a message that named neither the input nor the shape
    code, out = run_json(capsys, argv)
    assert code == 2 and out == {"error": "ParseError", "detail": detail}


@pytest.mark.parametrize("matrix, lengths", [
    ("1,2;3", "[2, 1]"), ("1,2,3;3,4,5;1,1,1", "[3, 3, 3]"),
])
def test_torus_rank_refuses_a_matrix_that_is_not_2_by_2(capsys, matrix, lengths):
    code, out = run_json(capsys, ["torus-rank", "--matrix", matrix])
    assert code == 1 and out == {"error": "DimensionMismatch", "detail":
                                 f"a torus needs a 2 x 2 matrix, got rows of lengths {lengths}"}


@pytest.mark.parametrize("prime", [318665857834031151167461, 2**89 - 1])
def test_torus_rank_refuses_a_prime_it_cannot_certify(capsys, prime):
    # the first is psi_12, a composite that passes every Miller-Rabin base of is_prime
    code, out = run_json(capsys, ["torus-rank", "--disc", "2", "--primes", f"3,{prime}"])
    assert code == 1 and out["error"] == "ExceedsFactorBound"
    assert out["detail"].endswith("prove primality only below 318665857834031151167461")
    code, out = run_json(capsys, ["torus-rank", "--disc", "2", "--primes", f"3,{2**61 - 1}"])
    assert code == 0 and out["rank_Qp"] == {"3": 0, str(2**61 - 1): 1}


def _least_level_class(level):
    """JSON of the level-`level` class with derivation t^(level - 1) and
    identity linear part; it arises from no lower level."""
    ident = [["1" if i == j else "0" for j in range(level)] for i in range(level)]
    return json.dumps(
        {"level": level, "der": f"t^{level - 1}", "A": ident, "flip": False}
    )


def test_error_exit_codes(capsys, tmp_path):
    bad = '{"level":1,"der":"0","A":[["(1)/(1+s)"]],"flip":false}'
    code = run(["lamp", "apply", "--comm", bad, "--elem", '{"k":"1","n":0}'])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["error"] == "OutOfDomain"
    code = run(["lamp", "mul", "--g", "not json", "--h", "{}"])
    capsys.readouterr()
    assert code == 2
    code = run(["no-such-command"])
    capsys.readouterr()
    assert code == 2
    # a zero denominator is a domain error, not a traceback
    code = run(["bs", "conj", "--r", "1/0", "--q", "1", "--elem", '{"n":2,"a":0,"b":"1"}'])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    assert captured.out.splitlines() == [
        '{"error": "ZeroInput", "detail": "Fraction(1, 0)"}'
    ]
    # well-formed but out-of-range input is a domain error, not a parse error
    submodule = '{"level":1,"H":[["1"]]}'
    for argv, error in [
        (["bs", "mul", "--g", '{"n":2,"a":0,"b":"1/3"}', "--h", '{"n":2,"a":0,"b":"1"}'],
         "OutOfDomain"),
        (["bs", "domain", "--n", "1", "--r", "1", "--q", "1/3"], "DegenerateAction"),
        (["bs", "domain", "--n", "0", "--r", "1", "--q", "1/3"], "DegenerateAction"),
        (["bs", "domain", "--n", "2", "--r", "0", "--q", "1/3"], "ZeroInput"),
        (["lamp", "quotient-dim", "--submodule", submodule, "--m", "0"], "ExponentMismatch"),
        (["lamp", "quotient-dim", "--submodule", '{"level":0,"H":[]}', "--m", "1"],
         "ExponentMismatch"),
        (["lamp", "invert", "--comm", '{"level":0,"der":"0","A":[],"flip":false}'],
         "ExponentMismatch"),
        (["unipotent", "root", "--p", "0", "--matrix", "[[1,1],[0,1]]"], "ExponentMismatch"),
        (["lamp", "embed-gl", "--n", "0", "--matrix", "1"], "DimensionMismatch"),
        (["lamp", "embed-gl", "--n", "2", "--matrix", "1,1;1"], "DimensionMismatch"),
        (["lamp", "embed-gl", "--n", "2", "--matrix", "1,0,1;0,1,0"], "DimensionMismatch"),
        (["unipotent", "apply-aut", "--aut", '{"n":3,"L":[[1,0,0],[0,1,0],[0,0,1]]}',
          "--matrix", "[[1,1],[0,1]]"], "DimensionMismatch"),
        (["solve-inner", "--ts", "[]", "--vs", "[]"], "DimensionMismatch"),
        (["solve-inner", "--ts", '[[["2"]]]', "--vs", '[["1"],["2"]]'], "DimensionMismatch"),
        (["solve-inner", "--ts", '[[["2","0"]]]', "--vs", '[["1"]]'], "DimensionMismatch"),
        (["solve-inner", "--ts", '[[["2"]]]', "--vs", '[["1","2"]]'], "DimensionMismatch"),
        # sizes that disagree in well-formed JSON
        (["lamp", "from-partial", "--data", '{"level":2,"H":[["1","0"],["0","1"]],'
          '"gen_images":[{"k":"1","n":0}],"t_image":{"k":"0","n":2}}'], "DimensionMismatch"),
        (["unipotent", "apply-aut", "--aut", '{"n":3,"L":[["1"]]}',
          "--matrix", "[[1,1,0],[0,1,0],[0,0,1]]"], "DimensionMismatch"),
        (["comm-desc", "inv", "--spec", '{"space":{"N0":0,"N1":0,"dZ":0,"dZ1":0,'
          '"red":"nope"},"a":{"h_central":[],"P":[],"h_10":[],"h_1z":[]}}'],
         "UnknownInstantiation"),
        (["unipotent", "log", "--matrix", "[[1,1]]"], "DimensionMismatch"),
        (["lamp", "invert", "--comm", '{"level":2,"der":"0","A":[["1"]],"flip":false}'],
         "DimensionMismatch"),
        (["lamp", "quotient-dim", "--submodule", '{"level":2,"H":[["1"]]}', "--m", "2"],
         "DimensionMismatch"),
        # a size past the unitriangular cap is a resource limit
        (["unipotent", "log", "--matrix",
          json.dumps([[int(i == j) for j in range(13)] for i in range(13)])], "ResourceLimit"),
        # so is a search whose work would pass a fixed limit
        (["lamp", "compose", "--c1", '{"level":1,"der":"0","A":[["1/(1+s^3+s^20)"]],'
          '"flip":false}', "--c2", '{"level":1,"der":"1","A":[["1"]],"flip":false}'],
         "ResourceLimit"),
        (["bs", "domain", "--n", "2", "--r", "1", "--q", "1/10000000019"], "ResourceLimit"),
        # a composite of coprime levels 31 and 37 would work at level 1147
        (["lamp", "compose", "--c1", _least_level_class(31), "--c2", _least_level_class(37)],
         "ResourceLimit"),
    ]:
        start = time.perf_counter()
        code = run(argv)
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 1 and len(lines) == 1 and "Traceback" not in captured.err, argv
        assert json.loads(lines[0])["error"] == error, argv
        assert time.perf_counter() - start < 10, argv
    # an order search below the limit still answers
    assert run(["bs", "domain", "--n", "2", "--r", "1", "--q", "1/1000003"]) == 0
    assert json.loads(capsys.readouterr().out) == {"D": 1000003, "K": 1000002}
    # a JSON integer field holding a non-integer is malformed, never truncated
    elem = '{"k":"1","n":0}'
    bs_elem = '{"n":2,"a":0,"b":"1"}'
    blocks = '{"h_central":[],"P":[],"h_10":[],"h_1z":[]}'
    for argv in [
        ["lamp", "mul", "--g", '{"k":"1","n":1.5}', "--h", elem],
        ["bs", "mul", "--g", '{"n":2,"a":0.5,"b":"1"}', "--h", bs_elem],
        ["bs", "mul", "--g", '{"n":2.5,"a":0,"b":"1"}', "--h", bs_elem],
        ["unipotent", "apply-aut", "--aut", '{"n":2.7,"L":[["1"]]}', "--matrix", "[[1,1],[0,1]]"],
        ["lamp", "quotient-dim", "--submodule", '{"level":1.5,"H":[["1"]]}', "--m", "1"],
        ["lamp", "invert", "--comm", '{"level":1.5,"der":"0","A":[["1"]],"flip":false}'],
        ["lamp", "from-partial", "--data", '{"level":1.5,"H":[["1"]],'
         '"gen_images":[{"k":"1","n":0}],"t_image":{"k":"0","n":1}}'],
        ["comm-desc", "inv", "--spec",
         '{"space":{"N0":0.5,"N1":0,"dZ":0,"dZ1":0},"a":' + blocks + '}'],
        ["comm-desc", "inv", "--spec",
         '{"space":{"N0":0,"N1":0,"dZ":0,"dZ1":0.5},"a":' + blocks + '}'],
        # so is a flip that is not a JSON boolean
        ["lamp", "invert", "--comm", '{"level":1,"der":"0","A":[["1"]],"flip":"false"}'],
        ["lamp", "invert", "--comm", '{"level":1,"der":"0","A":[["1"]],"flip":1}'],
        # a path that exists but is not a readable file
        ["lamp", "invert", "--comm", str(tmp_path)],
        # an F2 matrix entry other than 0 or 1
        ["lamp", "embed-gl", "--n", "1", "--matrix", "3"],
        ["lamp", "embed-gl", "--n", "1", "--matrix", "-1"],
        # a polynomial field sent as a JSON number
        ["lamp", "invert", "--comm", '{"level":1,"der":5,"A":[["1"]],"flip":false}'],
        ["lamp", "invert", "--comm", '{"level":1,"der":"0","A":[[1]],"flip":false}'],
        ["lamp", "quotient-dim", "--submodule", '{"level":1,"H":[[1]]}', "--m", "1"],
        ["lamp", "apply", "--comm", '{"level":1,"der":"0","A":[["1"]],"flip":false}',
         "--elem", '{"k":5,"n":0}'],
        ["lamp", "from-partial", "--data", '{"level":1,"H":[["1"]],'
         '"gen_images":[{"k":1,"n":0}],"t_image":{"k":"0","n":1}}'],
        # a string, or a list of strings, in place of a matrix
        ["lamp", "invert", "--comm", '{"level":1,"der":"0","A":"1","flip":false}'],
        ["lamp", "invert", "--comm", '{"level":1,"der":"0","A":["1"],"flip":false}'],
        ["lamp", "quotient-dim", "--submodule", '{"level":1,"H":"1"}', "--m", "1"],
        ["lamp", "from-partial", "--data", '{"level":1,"H":"1",'
         '"gen_images":[{"k":"1","n":0}],"t_image":{"k":"0","n":1}}'],
        # an object in place of a list
        ["solve-inner", "--ts", "{}", "--vs", "[]"],
        ["lamp", "from-partial", "--data", '{"level":1,"H":[["1"]],'
         '"gen_images":{},"t_image":{"k":"0","n":1}}'],
    ]:
        code = run(argv)
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 2 and len(lines) == 1 and captured.err == "", argv
        assert json.loads(lines[0])["error"] == "ParseError", argv


def test_linear_part_errors_print_fixed_lines(capsys):
    # byte-identical to the output of the F2(t) matrix route these replaced
    zero_images = {"level": 2, "H": [["1", "0"], ["0", "1"]],
                   "gen_images": [{"k": "0", "n": 0}, {"k": "0", "n": 0}],
                   "t_image": {"k": "0", "n": 2}}
    for argv, want_code, want in [
        (["lamp", "invert", "--comm",
          '{"level":2,"der":"0","A":[["0","0"],["0","0"]],"flip":false}'], 1,
         '{"error": "SingularMatrix", "detail": "commensuration matrix must be invertible"}'),
        (["lamp", "invert", "--comm", '{"level":2,"der":"0","A":[["1","0"],["1"]],"flip":false}'],
         2, '{"error": "ParseError", "detail": "ragged rows"}'),
        # every entry is parsed before the shape is checked
        (["lamp", "invert", "--comm", '{"level":2,"der":"0","A":[["x"],["1","0"]],"flip":false}'],
         2, '{"error": "ParseError", "detail": "bad polynomial term: \'x\'"}'),
        (["lamp", "invert", "--comm", '{"level":2,"der":"0","A":[[1]],"flip":false}'], 2,
         '{"error": "ParseError", "detail": "a rational function must be a string, got 1"}'),
        (["lamp", "invert", "--comm", '{"level":2,"der":"0","A":[["1/0"]],"flip":false}'], 1,
         '{"error": "ZeroInput", "detail": "zero denominator"}'),
        (["lamp", "invert", "--comm", '{"level":1,"der":"0","A":[["0/(1+s)"]],"flip":false}'], 1,
         '{"error": "SingularMatrix", "detail": "commensuration matrix must be invertible"}'),
        (["lamp", "from-partial", "--data", json.dumps(zero_images)], 1,
         '{"error": "NotAHomomorphism", '
         '"detail": "generator images do not span a finite-index submodule"}'),
    ]:
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (want_code, want + "\n", ""), argv


def test_rare_refusals_print_fixed_lines_fast(capsys):
    # a basis with an entry below its diagonal (is_hnf), and a BS order
    # found by a giant step past ORDER_CAP (4000036 modulo 4000037)
    for argv, want_code, want in [
        (["lamp", "quotient-dim", "--submodule", '{"level":2,"H":[["1","0"],["1","1"]]}',
          "--m", "2"], 2,
         '{"error": "ParseError", "detail": "basis is not in Hermite normal form"}'),
        (["bs", "domain", "--n", "2", "--r", "1", "--q", "1/4000037"], 1,
         '{"error": "ResourceLimit", "detail": "work limit: the conjugation domain needs the '
         'order of 2 modulo 4000037, which exceeds 4000000"}'),
    ]:
        start = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - start < 0.5, argv
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (want_code, want + "\n", ""), argv


def test_an_unbalanced_parenthesis_in_an_entry_is_a_parse_error(capsys):
    # each side of an entry loses one enclosing pair only: "(1+s" was read as 1+s
    c2 = '{"level":1,"der":"0","A":[["1"]],"flip":false}'
    code = run(["lamp", "compose", "--c1", '{"level":1,"der":"0","A":[["s/(1+s"]],"flip":false}',
                "--c2", c2])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, '{"error": "ParseError", "detail": "bad polynomial term: \'(1\'"}\n', "")


def test_a_newline_in_a_term_is_a_parse_error(capsys):
    # a term pattern anchored by $ read "1\n" as t: mul printed {"k": "t", "n": 0}
    for argv in [
        ["lamp", "mul", "--g", '{"k":"1\\n","n":0}', "--h", '{"k":"0","n":0}'],
        ["lamp", "invert", "--comm", '{"level":1,"der":"0","A":[["1\\n"]],"flip":false}'],
        ["lamp", "invert", "--comm", '{"level":1,"der":"t^3\\n","A":[["1"]],"flip":false}'],
    ]:
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, ""), argv
        term = "t^3\n" if "t^3" in argv[-1] else "1\n"
        assert captured.out == json.dumps(
            {"error": "ParseError", "detail": f"bad polynomial term: {term!r}"}) + "\n", argv


def test_negative_dimensions_are_named(capsys):
    blocks = {"h_central": [], "P": [], "h_10": [], "h_1z": []}
    spec = {"space": {"N0": 0, "N1": 0, "dZ": -1, "dZ1": 0}, "a": blocks, "b": blocks}
    for argv, detail in [
        (["unipotent", "apply-aut", "--aut", '{"n":-2,"L":[[1,0,0],[0,1,0],[0,0,1]]}',
          "--matrix", "[[1,1],[0,1]]"], "n must be >= 0, got -2"),
        (["comm-desc", "mul", "--spec", json.dumps(spec)], "dZ must be >= 0, got -1"),
    ]:
        code, out = run_json(capsys, argv)
        assert code == 1 and out == {"error": "DimensionMismatch", "detail": detail}, argv


def test_running_out_of_memory_is_a_resource_limit(capsys, monkeypatch):
    # the handler is made to raise: a real allocation of this size may or may
    # not fail fast, depending on the host's overcommit policy
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr("commlab.cli._lamp_elem", exhausted)
    code = run(["lamp", "mul", "--g", '{"k":"t^99999999999","n":0}', "--h", '{"k":"1","n":0}'])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out.splitlines() == [
        '{"error": "ResourceLimit", "detail": "out of memory"}'
    ]


def test_an_exponent_past_the_span_cap_is_a_resource_limit(capsys):
    # parsing 1 + t^(2*10^9) would allocate a 250 MB mask; the span is
    # checked against f2poly.MAX_SPAN before anything is allocated
    start = time.perf_counter()
    code, out = run_json(
        capsys, ["lamp", "mul", "--g", '{"k":"1+t^2000000000","n":0}', "--h", '{"k":"1","n":0}']
    )
    assert code == 1 and out["error"] == "ResourceLimit"
    assert time.perf_counter() - start < 1


def _span_refusal(lo, hi):
    return json.dumps({"error": "ResourceLimit", "detail": (
        f"work limit: a polynomial with exponents {lo} to {hi} spans more than 67108864 bits")})


def test_images_past_the_span_cap_are_a_resource_limit(capsys):
    # each entry parses as one term, but at level 2 the images of this 83-byte
    # class span 4*10^9 + 1 bits in t: f2poly.masks_aligned refuses them before
    # any mask is moved, where moving them took about 1.8 GB
    comm = '{"level":2,"der":"0","A":[["s^1000000000","0"],["0","s^-1000000000"]],"flip":false}'
    for leaf in ("invert", "domain"):
        start = time.perf_counter()
        code = run(["lamp", leaf, "--comm", comm])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, ""), leaf
        assert captured.out == _span_refusal(-2 * 10**9, 2 * 10**9 + 1) + "\n", leaf
        assert time.perf_counter() - start < 0.5, leaf
    # from-partial aligns the generator images, t^(10^9) and t^(-10^9), the same way
    data = {"level": 2, "H": [["1", "0"], ["0", "1"]],
            "gen_images": [{"k": "t^1000000000", "n": 0}, {"k": "t^-1000000000", "n": 0}],
            "t_image": {"k": "0", "n": 2}}
    start = time.perf_counter()
    code = run(["lamp", "from-partial", "--data", json.dumps(data)])
    assert (code, capsys.readouterr().out) == (1, _span_refusal(-10**9, 10**9) + "\n")
    assert time.perf_counter() - start < 0.5
    # a level-1 entry that spans 2^26 bits is inside the cap and answers
    code, out = run_json(
        capsys, ["lamp", "invert", "--comm", '{"level":1,"der":"0","A":[["1+s^67108864"]],"flip":false}'])
    assert (code, out) == (0, {"A": [["(1)/(1+s^67108864)"]], "der": "0", "flip": False, "level": 1})


def test_a_polynomial_past_the_print_limit_is_a_resource_limit(capsys):
    # tau(t^n) of the derivation 1 at level 1 has n terms; printing one
    # costs about 0.6 us and 110 bytes, so f2poly.MAX_PRINT_TERMS stops
    # the print before any string is built
    comm = '{"level":1,"der":"1","A":[["1"]],"flip":false}'
    n = 2**20 + 1
    start = time.perf_counter()
    code, out = run_json(capsys, ["lamp", "apply", "--comm", comm, "--elem", f'{{"k":"0","n":{n}}}'])
    assert code == 1 and out["error"] == "ResourceLimit"
    assert f"printing a polynomial needs {n} terms" in out["detail"]
    assert time.perf_counter() - start < 1
    code, out = run_json(capsys, ["lamp", "apply", "--comm", comm, "--elem", '{"k":"0","n":1000}'])
    assert code == 0 and len(out["k"].split("+")) == 1000


def test_json_numbers_are_read_as_decimals(capsys, tmp_path):
    # each literal reaches parse_rational as written, never through a float
    for argv, answer in [
        (["unipotent", "log", "--matrix", "[[1, 0.30000000000000000001],[0,1]]"],
         [["0", "30000000000000000001/100000000000000000000"], ["0", "0"]]),
        (["unipotent", "log", "--matrix", "[[1, 1e-400],[0,1]]"],
         [["0", "1/1" + "0" * 400], ["0", "0"]]),
        (["unipotent", "log", "--matrix", "[[1, 12345678901234567890.5],[0,1]]"],
         [["0", "24691357802469135781/2"], ["0", "0"]]),
        (["solve-inner", "--ts", "[[[0.10000000000000000001]]]", "--vs", "[[1]]"],
         ["-100000000000000000000/89999999999999999999"]),
        (["unipotent", "log", "--matrix", "[[1, 2.5e-3],[0,1]]"], [["0", "1/400"], ["0", "0"]]),
    ]:
        assert run_json(capsys, argv) == (0, answer), argv
    # from a file too
    path = tmp_path / "m.json"
    path.write_text("[[1, 0.30000000000000000001],[0,1]]")
    code, out = run_json(capsys, ["unipotent", "log", "--matrix", str(path)])
    assert (code, out) == (0, [["0", "30000000000000000001/100000000000000000000"], ["0", "0"]])


def test_a_huge_decimal_exponent_is_a_resource_limit(capsys):
    # Fraction("1e10000000") alone takes seconds; matrices.parse_rational
    # checks the exponent against MAX_DECIMAL_EXPONENT before converting
    for argv in [
        ["bs", "conj", "--r", "1", "--q", "1e10000000", "--elem", '{"n":2,"a":0,"b":"1"}'],
        ["bs", "conj", "--r", "1", "--q", "1", "--elem", '{"n":2,"a":0,"b":"1e10000000"}'],
        ["unipotent", "log", "--matrix", '[["1","1e9999999"],["0","1"]]'],
        # a JSON number, read as the text of its literal
        ["unipotent", "log", "--matrix", '[[1,1e10000000],[0,1]]'],
    ]:
        start = time.perf_counter()
        code, out = run_json(capsys, argv)
        assert code == 1 and out["error"] == "ResourceLimit", argv
        assert time.perf_counter() - start < 1, argv
    # exponents up to the cap are still read
    code, out = run_json(capsys, ["unipotent", "log", "--matrix", '[["1","2.5e-3"],["0","1"]]'])
    assert code == 0 and out == [["0", "1/400"], ["0", "0"]]
    assert run(["bs", "domain", "--n", "2", "--r", "1", "--q", "1e4299"]) == 0
    capsys.readouterr()
    # a literal Fraction rejects is malformed, whatever its exponent
    for q in ["1__0e99999", "1_e99999"]:
        code, out = run_json(capsys, ["bs", "domain", "--n", "2", "--r", "1", "--q", q])
        assert code == 2 and out["error"] == "ParseError", q


def test_an_answer_past_the_digit_limit_is_a_resource_limit(capsys):
    # each answer holds an integer of more than the 4300 digits CPython
    # converts to a string; matrices.format_rational names the digit count
    big = "1e4299"
    desc = {"h_central": [], "P": [], "h_10": [], "h_1z": [], "red": {"r": big, "q": "0"}}
    space = {"N0": 0, "N1": 0, "dZ": 0, "dZ1": 0, "red": "bs"}
    for argv, digits in [
        (["unipotent", "log", "--matrix",
          json.dumps([["1", big, "0"], ["0", "1", big], ["0", "0", "1"]])], 8598),
        (["bs", "mul", "--g", '{"n":10,"a":5,"b":"1"}', "--h", json.dumps({"n": 10, "a": 0, "b": big})],
         4305),
        (["comm-desc", "mul", "--spec", json.dumps({"space": space, "a": desc, "b": desc})], 8599),
        (["solve-inner", "--ts", '[[["1e-4299"]]]', "--vs", json.dumps([[big]])], 8599),
    ]:
        code, out = run_json(capsys, argv)
        assert code == 1 and out["error"] == "ResourceLimit", argv
        assert f"printing a rational needs a {digits}-digit integer" in out["detail"], argv
    # an int answer too: D = 10**4303 (cli._dumps names the digit count)
    start = time.perf_counter()
    code = run(["bs", "domain", "--n", "3", "--r", "0.0001e-4299", "--q", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == "" and len(captured.out.splitlines()) == 1
    out = json.loads(captured.out)
    assert out["error"] == "ResourceLimit"
    assert "printing an answer needs a 4304-digit integer" in out["detail"]
    assert time.perf_counter() - start < 1
    # 10**4299 itself has 4300 digits and prints
    code, out = run_json(capsys, ["unipotent", "log", "--matrix", json.dumps([["1", big], ["0", "1"]])])
    assert code == 0 and out == [["0", str(10**4299)], ["0", "0"]]


def test_a_huge_bs_exponent_is_a_resource_limit(capsys):
    # n**a is formed only where it scales a nonzero translation, and one of
    # more than solvable.MAX_POWER_BITS bits is refused before it is formed
    one = '{"n":2,"a":0,"b":"1"}'
    for argv in [
        ["bs", "mul", "--g", '{"n":2,"a":100000000,"b":"0"}', "--h", one],
        ["bs", "mul", "--g", '{"n":2,"a":1000000000000,"b":"0"}', "--h", one],
        ["bs", "conj", "--r", "1", "--q", "1", "--elem", '{"n":2,"a":-1000000000000,"b":"0"}'],
    ]:
        start = time.perf_counter()
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == "", argv
        assert json.loads(captured.out)["error"] == "ResourceLimit", argv
        assert time.perf_counter() - start < 1, argv
    # with a zero translation no power is formed
    code, out = run_json(capsys, ["bs", "mul", "--g", '{"n":2,"a":1000000000000,"b":"5"}',
                                  "--h", '{"n":2,"a":1,"b":"0"}'])
    assert code == 0 and out == {"n": 2, "a": 1000000000001, "b": "5"}
    code, out = run_json(capsys, ["bs", "conj", "--r", "3", "--q", "0",
                                  "--elem", '{"n":2,"a":1000000000000,"b":"1"}'])
    assert code == 0 and out == {"n": 2, "a": 1000000000000, "b": "3"}
    # a printable answer is below the cap: 10**8000 * 10**-4299 = 10**3701
    code, out = run_json(capsys, ["bs", "mul", "--g", '{"n":10,"a":8000,"b":"0"}',
                                  "--h", '{"n":10,"a":0,"b":"1e-4299"}'])
    assert code == 0 and out == {"n": 10, "a": 8000, "b": str(10**3701)}


def test_unipotent_sizes_are_checked_before_any_work(capsys):
    # a strict matrix past the cap used to run its series before the
    # unitriangular answer was refused (10 s at 120 x 120), and an aut
    # whose size differs from the matrix's its bracket check first (4 s
    # at n = 16, 0.7 s at n = 12)
    strict = json.dumps([[f"{(i + j) % 7 - 3}/{j % 5 + 1}" if j > i else "0" for j in range(120)]
                         for i in range(120)])

    def identity_aut(n):
        dim = n * (n - 1) // 2
        return json.dumps({"n": n, "L": [[int(i == j) for j in range(dim)] for i in range(dim)]})

    g3 = "[[1,1,0],[0,1,0],[0,0,1]]"
    for argv, error, detail in [
        (["unipotent", "exp", "--matrix", strict], "ResourceLimit",
         "dimension capped at 12, got 120 x 120"),
        (["unipotent", "apply-aut", "--aut", identity_aut(16), "--matrix", g3], "ResourceLimit",
         "dimension capped at 12, got 16 x 16"),
        (["unipotent", "apply-aut", "--aut", identity_aut(12), "--matrix", g3],
         "DimensionMismatch", "an automorphism for n = 12 cannot act on a 3x3 matrix"),
        # a map that is no automorphism, on a matrix of the wrong size
        (["unipotent", "apply-aut", "--aut", '{"n":3,"L":[[2,0,0],[0,2,0],[0,0,2]]}',
          "--matrix", "[[1,1],[0,1]]"], "DimensionMismatch",
         "an automorphism for n = 3 cannot act on a 2x2 matrix"),
    ]:
        start = time.perf_counter()
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == "", argv[:2]
        assert json.loads(captured.out) == {"error": error, "detail": detail}, argv[:2]
        assert time.perf_counter() - start < 1, argv[:2]


def test_apply_aut_at_the_size_cap_is_fast(capsys):
    # the bracket check of the n = 12 identity, 2145 brackets, took 0.6 s
    # as dense matrix products; over the nonzero entries of the column
    # images it takes milliseconds
    dim = 12 * 11 // 2
    aut = json.dumps({"n": 12, "L": [[int(i == j) for j in range(dim)] for i in range(dim)]})
    g = [[str(int(j >= i)) for j in range(12)] for i in range(12)]
    start = time.perf_counter()
    code, out = run_json(capsys, ["unipotent", "apply-aut", "--aut", aut, "--matrix", json.dumps(g)])
    elapsed = time.perf_counter() - start
    assert code == 0 and out == g
    assert elapsed < 0.25, elapsed


def test_entries_that_cancel_are_cut_before_the_common_denominator(capsys):
    # each entry is 1; an lcm of the denominators as written would be a
    # dense mask of degree 2*10^6 and the elimination would run on its quotients
    comm = json.dumps({"level": 2, "der": "0", "flip": False, "A": [
        ["(1+s^1000000)/(1+s^1000000)", "0"], ["0", "(1+s^1000001)/(1+s^1000001)"]]})
    start = time.perf_counter()
    code, out = run_json(capsys, ["lamp", "invert", "--comm", comm])
    assert code == 0 and out == {"A": [["1"]], "der": "0", "flip": False, "level": 1}
    assert time.perf_counter() - start < 1


# A entries of at most 12 characters from "01ts^-+/() \n": free text, and
# polynomials or quotients cut to 12 characters, so that well-formed and
# domain-error entries are drawn as often as malformed ones
_POLYS = st.lists(
    st.sampled_from(["0", "1", "t", "s", "t^-1", "s^11", "s^-10", "t^0"]), min_size=1, max_size=3
).map("+".join)
_QUOTIENTS = st.tuples(_POLYS, st.sampled_from(["/", ")/(", " / "]), _POLYS).map(
    lambda parts: "".join(parts)[:12]
)
_ENTRIES = st.one_of(
    _POLYS, _QUOTIENTS, _QUOTIENTS, st.text(alphabet="01ts^-+/() \n", max_size=12)
)


# a class of drawn entries at every lamp leaf that reads one class: invert,
# domain, and compose with itself
_ENTRY_CALLS = st.integers(1, 2).flatmap(lambda n: st.lists(
    st.lists(_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=n)).map(
    lambda rows: json.dumps({"level": len(rows[0]), "der": "0", "A": rows, "flip": False})).map(
    lambda c: [["lamp", "invert", "--comm", c], ["lamp", "domain", "--comm", c],
               ["lamp", "compose", "--c1", c, "--c2", c]])


# BS fields: short ints, ints of up to 15 digits, decimals with large
# exponents and junk; n and a are JSON values (a non-int is malformed), b, r
# and q strings, and --n an int or junk, which argparse rejects
_SHORT_INTS = st.integers(-20, 20)
_LONG_INTS = st.integers(-10**15 + 1, 10**15 - 1)
_DECIMALS = st.tuples(st.sampled_from(["1", "-3", "0.0001", "2.5", "7"]),
                      st.integers(-5000, 5000)).map(lambda p: f"{p[0]}e{p[1]}")
_JUNK = st.text(alphabet="0123456789-+./e_ x", max_size=8)
_RATIONALS = st.one_of(
    _SHORT_INTS.map(str), _LONG_INTS.map(str), _DECIMALS, _JUNK,
    st.tuples(_SHORT_INTS, _LONG_INTS).map(lambda p: f"{p[0]}/{p[1]}"),
)
_BASES = st.one_of(st.integers(2, 12), _SHORT_INTS, _LONG_INTS)
_EXPONENTS = st.one_of(_SHORT_INTS, _LONG_INTS, _DECIMALS, _JUNK)
_BS_ELEMS = st.fixed_dictionaries({
    "n": st.one_of(_BASES, _DECIMALS, _JUNK), "a": _EXPONENTS, "b": _RATIONALS
}).map(json.dumps)
_BS_CALLS = st.one_of(
    st.tuples(_BS_ELEMS, _BS_ELEMS).map(lambda gh: ["bs", "mul", "--g", gh[0], "--h", gh[1]]),
    # the same base for both, so that the product is reached
    st.tuples(_BASES, _EXPONENTS, _RATIONALS, _EXPONENTS, _RATIONALS).map(lambda p: [
        "bs", "mul", "--g", json.dumps({"n": p[0], "a": p[1], "b": p[2]}),
        "--h", json.dumps({"n": p[0], "a": p[3], "b": p[4]})]),
    st.tuples(_RATIONALS, _RATIONALS, _BS_ELEMS).map(
        lambda p: ["bs", "conj", f"--r={p[0]}", f"--q={p[1]}", "--elem", p[2]]),
    st.tuples(st.one_of(_BASES, _JUNK), _RATIONALS, _RATIONALS).map(
        lambda p: ["bs", "domain", f"--n={p[0]}", f"--r={p[1]}", f"--q={p[2]}"]),
)


def _prints_one_json_line(argv):
    """Runs argv in process: one JSON line on stdout, nothing on stderr,
    exit 0, or 1 or 2 with an error object, within 2 s.  A demo that runs
    prints its PASS lines instead, and exits 0."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < 2, argv
    lines = out.getvalue().splitlines()
    assert err.getvalue() == "", argv
    if argv[0] == "demo" and lines[0].startswith("PASS"):
        assert code == 0 and all(line.startswith("PASS  ") for line in lines), argv
        return
    assert len(lines) == 1, argv
    result = json.loads(lines[0])
    assert code in (0, 1, 2), argv
    assert code == 0 or "error" in result, argv


# lamp elements with terms t^+-N and Z-parts n up to 10^25 in size, so that a
# sum, product or geometric series may pass the span cap
_HUGE = st.one_of(st.integers(-30, 30), st.integers(-10**8, 10**8), st.integers(-10**25, 10**25))
_LAMP_TERMS = st.lists(_HUGE.map(lambda e: "1" if e == 0 else f"t^{e}"), min_size=1, max_size=3)
_LAMP_ELEMS = st.fixed_dictionaries({"k": _LAMP_TERMS.map("+".join), "n": _HUGE}).map(json.dumps)
_LAMP_CLASSES = [json.dumps(c) for c in (
    {"level": 1, "der": "1", "A": [["1"]], "flip": False},
    {"level": 1, "der": "1+t", "A": [["(1)/(1+t)"]], "flip": True},
    {"level": 2, "der": "t^-3+1", "A": [["0", "s"], ["1", "1+s"]], "flip": False},
    {"level": 2, "der": "0", "A": [["1", "s^-1"], ["0", "1"]], "flip": True},
)]
_LAMP_CALLS = st.one_of(
    st.tuples(_LAMP_ELEMS, _LAMP_ELEMS).map(
        lambda gh: ["lamp", "mul", "--g", gh[0], "--h", gh[1]]),
    st.tuples(st.sampled_from(_LAMP_CLASSES), _LAMP_ELEMS).map(
        lambda ce: ["lamp", "apply", "--comm", ce[0], "--elem", ce[1]]),
)


# the flags of every leaf of the parser, each with a strategy for its value
# on the command line (None leaves an optional flag out): well-formed values
# most of the time, so the calls reach the computation, and values of the
# wrong shape or type, so they reach every refusal
_JSON_JUNK = st.sampled_from(["[]", "{}", '"x"', "1", "null", "[[]]", "{not json"])
_SMALL_RATIONALS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3", "3", "0.5"])


def _json(values):
    """The JSON text of a drawn value, two times in three, or JSON of some
    other shape."""
    return st.one_of(values.map(json.dumps), values.map(json.dumps), _JSON_JUNK)


def _square(entries, n=None):
    """n x n matrices (n = 1..3 unless given) of the drawn entries."""
    sizes = st.just(n) if n is not None else st.integers(1, 3)
    return sizes.flatmap(lambda k: st.lists(
        st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k))


def _unitriangular(diagonal, sizes=st.integers(1, 4)):
    """Upper triangular n x n matrices (n drawn from sizes) with the given
    diagonal."""
    return sizes.flatmap(lambda n: st.lists(_SMALL_RATIONALS, min_size=n * n, max_size=n * n).map(
        lambda xs: [[diagonal if i == j else xs[n * i + j] if j > i else "0" for j in range(n)]
                    for i in range(n)]))


def _lie_auts(n):
    """{"n": n, "L": L}: L scales E(i, j) by d_i / d_j, an automorphism, or
    is any matrix of its size."""
    dim = n * (n - 1) // 2
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    scaled = st.lists(st.sampled_from([1, 2, 3, -1, 5]), min_size=n, max_size=n).map(lambda d: [
        [str(Fraction(d[i], d[j])) if a == b else "0" for b in range(dim)]
        for a, (i, j) in enumerate(pairs)])
    return st.fixed_dictionaries({"n": st.one_of(st.just(n), _SHORT_INTS),
                                  "L": st.one_of(scaled, _square(_SMALL_RATIONALS, dim))})


@st.composite
def _desc_specs(draw, keys):
    """--spec of comm-desc: a space and, under each key, a description
    with blocks of the shapes the space asks for, now and then not."""
    dims = {"N0": draw(st.integers(0, 2)), "N1": draw(st.integers(0, 1)),
            "dZ": draw(st.integers(0, 1)), "dZ1": draw(st.integers(0, 1))}
    red = draw(st.sampled_from(["trivial", "bs", "x"]))
    shapes = {"h_central": ("dZ", "N0"), "P": ("N0", "N0"), "h_10": ("N0", "N1"),
              "h_1z": ("dZ1", "N1")}
    spec = {"space": {**dims, "red": red}}
    for key in keys:
        off = draw(st.sampled_from([0] * 9 + [1]))  # one column too many
        desc = {name: [[draw(_SMALL_RATIONALS) for _ in range(dims[c] + off)]
                       for _ in range(dims[r])] for name, (r, c) in shapes.items()}
        if red != "trivial":
            desc["red"] = {"r": draw(st.sampled_from(["2", "1/3", "1"])),
                           "q": draw(_SMALL_RATIONALS)}
        spec[key] = desc
    return spec


_LAMP_COMMS = st.one_of(
    st.sampled_from(_LAMP_CLASSES),
    st.integers(1, 2).flatmap(lambda n: st.lists(
        st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)).map(
        lambda rows: json.dumps({"level": len(rows), "der": "0", "A": rows, "flip": False})),
)
_BASES_H = [{"level": 1, "H": [["1"]]}, {"level": 1, "H": [["1+s"]]},
            {"level": 2, "H": [["1", "0"], ["0", "1"]]},
            {"level": 2, "H": [["1+s", "1"], ["0", "1"]]},
            {"level": 2, "H": [["1+s^2", "s"], ["0", "1+s"]]}]
_LAMP_ELEM_OBJECTS = st.fixed_dictionaries({"k": st.sampled_from(["0", "1", "t", "1+t^3", "t^-2"]),
                                            "n": st.integers(-3, 3)})
_F2_TEXT = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=n)).map(
    lambda rows: ";".join(",".join(map(str, row)) for row in rows))
_INT_TEXT = st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3), min_size=1,
                     max_size=3).map(lambda rows: ";".join(",".join(map(str, row)) for row in rows))
LEAF_FLAGS = {
    ("torus-rank",): {
        "--disc": st.one_of(st.none(), st.integers(-50, 50).map(str), _JUNK),
        "--kind": st.one_of(st.none(), st.sampled_from(["normone", "restscalars", "gm", "x"])),
        "--matrix": st.one_of(st.none(), st.sampled_from(["2,1;1,1", "1,1;1,2"]), _INT_TEXT, _JUNK),
        "--primes": st.one_of(st.none(), _JUNK, st.lists(
            st.sampled_from(["2", "3", "5", "11", "4", "0", "-3"]), max_size=3).map(",".join)),
    },
    ("lamp", "mul"): {"--g": _LAMP_ELEMS, "--h": _LAMP_ELEMS},
    ("lamp", "apply"): {"--comm": _LAMP_COMMS, "--elem": _LAMP_ELEMS},
    ("lamp", "compose"): {"--c1": _LAMP_COMMS, "--c2": _LAMP_COMMS},
    ("lamp", "invert"): {"--comm": _LAMP_COMMS},
    ("lamp", "domain"): {"--comm": _LAMP_COMMS},
    ("lamp", "from-partial"): {"--data": _json(st.sampled_from(_BASES_H).flatmap(
        lambda b: st.fixed_dictionaries({
            "level": st.one_of(st.just(b["level"]), st.integers(0, 3)), "H": st.just(b["H"]),
            "gen_images": st.lists(_LAMP_ELEM_OBJECTS, min_size=b["level"], max_size=b["level"]),
            "t_image": _LAMP_ELEM_OBJECTS})))},
    ("lamp", "embed-gl"): {"--n": st.one_of(st.integers(-1, 4).map(str), _JUNK),
                           "--matrix": _F2_TEXT},
    ("lamp", "quotient-dim"): {"--submodule": _json(st.sampled_from(_BASES_H)),
                               "--m": st.one_of(st.integers(-2, 12).map(str), _JUNK)},
    ("unipotent", "log"): {"--matrix": _json(st.one_of(_unitriangular("1"), _square(_RATIONALS)))},
    ("unipotent", "exp"): {"--matrix": _json(st.one_of(_unitriangular("0"), _square(_RATIONALS)))},
    ("unipotent", "root"): {"--p": st.one_of(st.integers(-1, 7).map(str), _JUNK),
                            "--matrix": _json(_unitriangular("1"))},
    # sizes 2 and 3 for both flags, so that half the pairs agree
    ("unipotent", "apply-aut"): {"--aut": _json(st.integers(2, 3).flatmap(_lie_auts)),
                                 "--matrix": _json(_unitriangular("1", st.integers(2, 3)))},
    ("bs", "mul"): {"--g": _BS_ELEMS, "--h": _BS_ELEMS},
    ("bs", "conj"): {"--r": _RATIONALS, "--q": _RATIONALS, "--elem": _BS_ELEMS},
    ("bs", "domain"): {"--n": st.one_of(_BASES.map(str), _JUNK), "--r": _RATIONALS,
                       "--q": _RATIONALS},
    ("comm-desc", "mul"): {"--spec": _json(_desc_specs(("a", "b")))},
    ("comm-desc", "inv"): {"--spec": _json(_desc_specs(("a",)))},
    ("solve-inner",): {
        "--ts": _json(st.integers(1, 2).flatmap(lambda n: st.lists(
            _square(_SMALL_RATIONALS, n), min_size=1, max_size=2))),
        "--vs": _json(st.integers(1, 2).flatmap(lambda n: st.lists(
            st.lists(_SMALL_RATIONALS, min_size=n, max_size=n), min_size=1, max_size=2))),
    },
    ("demo",): {"name": st.one_of(st.sampled_from(sorted(_DEMOS)), _JUNK),
                "--seed": st.one_of(st.none(), _SHORT_INTS.map(str), _LONG_INTS.map(str), _JUNK)},
}


@st.composite
def _leaf_calls(draw):
    path = draw(st.sampled_from(sorted(LEAF_FLAGS)))
    argv = list(path)
    for flag, values in LEAF_FLAGS[path].items():
        value = draw(values)
        if value is not None:
            argv.append(f"{flag}={value}" if flag.startswith("--") else value)
    return argv


def test_every_flag_of_every_leaf_has_a_fuzz_strategy():
    leaves = dict(_leaves(_build_parser()))
    assert sorted(LEAF_FLAGS) == sorted(leaves)
    for path, leaf in leaves.items():
        flags = {a.option_strings[0] if a.option_strings else a.dest
                 for a in leaf._actions if not isinstance(a, argparse._HelpAction)}
        assert sorted(LEAF_FLAGS[path]) == sorted(flags), path


def _fuzz_contract(calls, count, examples=()):
    """The contract fuzz: count draws of lists of calls, and the explicit
    calls, each print one JSON line."""
    @settings(derandomize=True, database=None, deadline=None, max_examples=count)
    @given(calls)
    def check(argvs):
        for argv in argvs:
            _prints_one_json_line(argv)

    for argv in examples:
        check = example([argv])(check)
    check()


def test_fuzzed_calls_of_every_leaf_print_one_json_line():
    _fuzz_contract(_leaf_calls().map(lambda argv: [argv]), 300)


def test_fuzzed_entries_print_one_json_line():
    _fuzz_contract(_ENTRY_CALLS, 300)


def test_fuzzed_bs_calls_print_one_json_line():
    _fuzz_contract(_BS_CALLS.map(lambda argv: [argv]), 300, [
        ["bs", "domain", "--n", "3", "--r", "0.0001e-4299", "--q", "0"],
        ["bs", "mul", "--g", '{"n":2,"a":100000000,"b":"0"}', "--h", '{"n":2,"a":0,"b":"1"}']])


def test_fuzzed_lamp_mul_and_apply_print_one_json_line():
    _fuzz_contract(_LAMP_CALLS.map(lambda argv: [argv]), 150, [
        ["lamp", "mul", "--g", '{"k":"1","n":100000000000000000000}', "--h", '{"k":"t","n":1}'],
        ["lamp", "mul", "--g", '{"k":"t^100000000000000000000","n":0}',
         "--h", '{"k":"t^-100000000000000000000","n":0}'],
        ["lamp", "apply", "--comm", _LAMP_CLASSES[0],
         "--elem", '{"k":"0","n":100000000000000000000}']])


@pytest.mark.parametrize("n", [10**8, -10**8])
def test_a_derivation_value_past_the_span_cap_is_refused_with_its_exponents(capsys, n):
    # tau(t^n) of the derivation 1 at level 1 is the series G(1, |n|), shifted
    # to t^n for n < 0: either way G is refused before it is formed or shifted,
    # with its own exponents 0 to 10^8 - 1
    comm = '{"level":1,"der":"1","A":[["1"]],"flip":false}'
    start = time.perf_counter()
    code = run(["lamp", "apply", "--comm", comm, "--elem", f'{{"k":"0","n":{n}}}'])
    assert code == 1 and capsys.readouterr().out == (
        '{"error": "ResourceLimit", "detail": "work limit: a polynomial with exponents '
        '0 to 99999999 spans more than 67108864 bits"}\n')
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [10**8, 10**20])
def test_a_class_with_derivation_zero_keeps_the_span_of_its_input(capsys, n):
    # tau(t^n) is 0 for the derivation 0, so no series is formed and the
    # span cap, which bounds results, refuses nothing: the image keeps k
    comm = '{"level":1,"der":"0","A":[["1"]],"flip":false}'
    start = time.perf_counter()
    code, out = run_json(capsys, ["lamp", "apply", "--comm", comm, "--elem", f'{{"k":"t","n":{n}}}'])
    assert code == 0 and out == {"k": "t", "n": n}
    comm = '{"level":2,"der":"0","A":[["0","1"],["1","0"]],"flip":true}'
    code, out = run_json(capsys, ["lamp", "apply", "--comm", comm,
                                  "--elem", f'{{"k":"1+t^3","n":{-2 * n}}}'])
    assert code == 0 and out == {"k": "t^-4+t", "n": 2 * n}
    assert time.perf_counter() - start < 1


def test_a_rejected_command_line_prints_one_json_line(capsys):
    # argparse's message, as a ParseError line on stdout, and nothing on stderr
    assert run(["bs", "domain", "--n", "abc", "--r", "1", "--q", "1"]) == 2
    assert capsys.readouterr() == (
        '{"error": "ParseError", "detail": "argument --n: invalid int value: \'abc\'"}\n', "")
    for argv, detail in [
        (["bs", "domain", "--r", "1", "--q", "1"], "the following arguments are required: --n"),
        (["lamp", "nope"], "argument lamp_cmd: invalid choice: "),
        (["torus-rank", "--disc", "5", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ]:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 1, argv
        out = json.loads(captured.out)
        assert out["error"] == "ParseError" and out["detail"].startswith(detail), argv
    # --help still prints the help and exits 0
    assert run(["bs", "domain", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: comm-lab bs domain") and captured.err == ""


# sha256 of the help text at 80 columns, taken before handlers imported their
# own layer: the parser is built the same way, so the text is the same.
# argparse lays help out differently across CPython versions; these are 3.11's
_HELP_SHA256 = {
    (): "073397628794adcba8fa57b74a70d3a73e251e113f44415cc30b0e304527323b",
    ("lamp",): "0937b0d9ec189d9268a9aaff116ef0695641f1ac4fb9417a2fdee950daf8f26c",
    ("unipotent",): "3e8a097171a8d9eae03db27c2f61259c9f11bc93d5cf78387d07fea071b6e26b",
    ("bs",): "c31c78c259a46c4c3abccee6cdb855656c6eb7e1def186d4a0f0a384096cac2f",
    ("comm-desc",): "661a006b2a141dd6d42dedc50300727f716258cc0e12f88ea8ead81b73293429",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help text pinned on CPython 3.11")
def test_help_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for group, digest in _HELP_SHA256.items():
        assert run([*group, "--help"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, group


# run in a fresh interpreter without site hooks, which may import modules of
# their own; prints the exit code and the modules that the call loaded
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json
from commlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""
_LAMP_LAYERS = {f"commlab.{m}" for m in ("lamplighter", "f2poly", "polymat", "hnf", "ratfun")}
_Q_LAYERS = {f"commlab.{m}" for m in ("matrices", "solvable", "storus", "unipotent")}


def test_each_call_imports_only_its_own_layer():
    comm = '{"level":1,"der":"t","A":[["1/(1+s)"]],"flip":false}'
    space = {"N0": 1, "N1": 0, "dZ": 0, "dZ1": 0}
    desc = {"h_central": [], "P": [["2"]], "h_10": [[]], "h_1z": []}
    calls = [
        (["lamp", "compose", "--c1", comm, "--c2", comm],
         _Q_LAYERS | {"commlab.hnf", "fractions", "random"}),
        (["bs", "conj", "--r", "2", "--q", "1/3", "--elem", '{"n":2,"a":2,"b":"3"}'],
         _LAMP_LAYERS | {"random"}),
        (["unipotent", "root", "--p", "3", "--matrix", "[[1,1],[0,1]]"],
         _LAMP_LAYERS | {"commlab.storus", "random"}),
        (["torus-rank", "--matrix", "2,1;1,1", "--primes", "3,11"],
         _LAMP_LAYERS | {"commlab.matrices", "fractions", "random"}),
        (["comm-desc", "inv", "--spec", json.dumps({"space": space, "a": desc})],
         _LAMP_LAYERS | {"random"}),
        (["solve-inner", "--ts", '[[["2"]]]', "--vs", '[["1"]]'], _LAMP_LAYERS | {"random"}),
        (["--help"], _LAMP_LAYERS | _Q_LAYERS | {"commlab.frozen", "fractions", "random"}),
    ]
    src = str(pathlib.Path(commlab.__file__).parents[1])
    for argv, absent in calls:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _IMPORT_PROBE, json.dumps(argv)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["code"] == 0, argv
        assert "commlab.cli" in out["loaded"]
        assert not (absent | {"commlab.demos", "dataclasses"}) & set(out["loaded"]), (
            argv, out["loaded"])
    # the demo leaf's choices are the demos that the demos module runs
    assert sorted(_DEMOS) == sorted(DEMOS)


def test_demo_commands(capsys):
    for name in ("torus-example", "lamplighter-gl-embed", "bs-bogopolski", "radicability"):
        assert run(["demo", name]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out


def test_pretty_prints_the_same_object_indented(capsys):
    for argv in (
        ["torus-rank", "--disc", "5", "--primes", "3,11"],
        ["bs", "domain", "--n", "2", "--r", "1", "--q", "1/3"],
        ["solve-inner", "--ts", '[[["2","0"],["0","3"]]]', "--vs", '[["1","2"]]'],
    ):
        assert run(argv) == 0
        plain = capsys.readouterr().out
        assert run(["--pretty", *argv]) == 0
        pretty = capsys.readouterr().out
        obj = json.loads(plain)
        assert json.loads(pretty) == obj
        assert pretty == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert plain == json.dumps(obj, sort_keys=True) + "\n"


def _leaves(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaves(sub, path + (name,))


def _parsed(parser, argv):
    """The Namespace's fields, or the text of the ArgumentError."""
    try:
        return vars(parser.parse_args(argv))
    except argparse.ArgumentError as exc:
        return str(exc)


def test_the_parser_of_one_family_parses_as_the_full_one():
    # a call builds the leaves of the family its first token without a
    # leading dash names, and no other family's
    assert sorted(dict(_leaves(_build_parser("bs")))) == [
        ("bs", "conj"), ("bs", "domain"), ("bs", "mul"), ("comm-desc",), ("demo",), ("lamp",),
        ("solve-inner",), ("torus-rank",), ("unipotent",)]
    full = _build_parser()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_leaf_calls())
    def check(argv):
        command = next((a for a in argv if not a.startswith("-")), None)
        assert _parsed(_build_parser(command), argv) == _parsed(full, argv), argv

    for argv in ([], ["--pretty"], ["nope"], ["lamp"], ["lamp", "nope"],
                 ["--pretty", "bs", "domain", "--n", "abc", "--r", "1", "--q", "1"]):
        check = example(argv)(check)
    check()


def test_every_leaf_subcommand_has_a_handler():
    leaves = dict(_leaves(_build_parser()))
    assert len(leaves) == 20
    assert ("lamp", "quotient-dim") in leaves and ("demo",) in leaves
    assert ("lamp", "domain") in leaves
    for path, leaf in leaves.items():
        assert callable(leaf.get_default("handler")), path


def test_round_trip_of_emitted_json(capsys):
    c = '{"level": 2, "der": "t", "A": [["0","s"],["1","0"]], "flip": true}'
    code, out = run_json(capsys, ["lamp", "invert", "--comm", c])
    assert code == 0
    code, out2 = run_json(
        capsys, ["lamp", "invert", "--comm", json.dumps(out)]
    )
    assert code == 0
    assert out2 == json.loads(c)


def test_deterministic_output(capsys):
    args = ["demo", "bs-bogopolski", "--seed", "7"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_emitted_json_reparses_equal_fuzz(capsys):
    import random

    from commlab.lamplighter import LampComm
    from samplers import random_comm

    rng = random.Random(70)
    ident = '{"level": 1, "der": "0", "A": [["1"]], "flip": false}'
    for _ in range(25):
        c = random_comm(rng, max_level=4)
        code, emitted = run_json(
            capsys, ["lamp", "compose", "--c1", json.dumps(c.to_json()), "--c2", ident]
        )
        assert code == 0
        assert LampComm.from_json(emitted) == c


def test_file_path_inputs(capsys, tmp_path):
    comm = tmp_path / "identity.json"
    comm.write_text('{"level": 1, "der": "0", "A": [["1"]], "flip": false}')
    code, out = run_json(
        capsys, ["lamp", "apply", "--comm", str(comm), "--elem", '{"k":"t^2","n":0}']
    )
    assert code == 0 and out == {"k": "t^2", "n": 0}


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the reader has gone before the call writes: a short result fails at
    # the final flush, a long one inside print, and demo in its first line
    comm = '{"level":1,"der":"0","A":[["(1+s^300)/(1+s+s^200)"]],"flip":false}'
    long_k = json.dumps({"k": "+".join(f"t^{2 * i}" for i in range(3000)), "n": 0})
    calls = [
        ["lamp", "compose", "--c1", comm, "--c2", comm],
        ["lamp", "mul", "--g", long_k, "--h", '{"k":"t","n":0}'],
        ["demo", "lamplighter-gl-embed"],
    ]
    src = str(pathlib.Path(commlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in calls:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "commlab.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b""), argv


def test_composing_dense_high_degree_classes_is_fast():
    # the products of these numerators are one carry-less product per
    # image, not one coefficient product per pair of nonzero coefficients;
    # the digests are of the output before the product changed
    c = '{"level":1,"der":"0","A":[["(1+s^3000)/(1+s+s^2000)"]],"flip":false}'
    c1 = '{"level":1,"der":"0","A":[["(1+s^30000)/(1+s+s^20000)"]],"flip":false}'
    c2 = '{"level":1,"der":"0","A":[["(1+s^3+s^40000)/(1+s+s^25000)"]],"flip":false}'
    calls = [
        (c, c, "3b6db6c3bd18d75e22d292cf115cbda212d183043094f78de025f86b1d1821e7", 22642),
        (c1, c2, "fdcb764e9fc40341dbe973f43aba26bfa4d7a167860945c7f532b0bc6bb8b934", 366000),
    ]
    src = str(pathlib.Path(commlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for first, second, digest, size in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "commlab.cli", "lamp", "compose", "--c1", first, "--c2", second],
            capture_output=True, env=env, timeout=10,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(proc.stdout) == size
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_inverting_over_a_dense_denominator_is_pinned(capsys):
    # den = lcm(1+s^10000, 1+s^10001) is dense, so den * adj(N) is too: the
    # inverse divides adj(N) by its content before it scales by den; the
    # digest is of the output of the reduction that scaled first
    comm = '{"level":2,"der":"0","A":[["1/(1+s^10000)","0"],["0","1/(1+s^10001)"]],"flip":false}'
    assert run(["lamp", "invert", "--comm", comm]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "d55266ffc90066ea22aba5789099c705d1d98a897a97f28c35a4275c56119686")


def _readme_commands():
    """The lines of README's sh blocks, continuations joined, split as sh
    splits them; comments and blank lines left out."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip() and not line.lstrip().startswith("#"):
                lines.append(shlex.split(line, comments=True))
    return lines


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    # each comm-lab line exits 0 with one JSON line, or a demo's PASS lines;
    # an echo line writes the file that a later line reads, in tmp_path
    monkeypatch.chdir(tmp_path)
    ran = 0
    for argv in _readme_commands():
        if argv[0] == "echo":
            assert argv[2] == ">" and len(argv) == 4, argv
            (tmp_path / argv[3]).write_text(argv[1] + "\n")
        elif argv[0] == "comm-lab":
            assert run(argv[1:]) == 0, argv
            lines = capsys.readouterr().out.splitlines()
            if argv[1] == "demo":
                assert lines and all(x.startswith("PASS") for x in lines), argv
            else:
                assert len(lines) == 1 and json.loads(lines[0]) is not None, argv
            ran += 1
    assert ran >= 13
    code, out = run_json(capsys, ["lamp", "apply", "--comm",
                                  '{"level":2,"der":"1+t","A":[["1","0"],["0","1+s"]],"flip":true}',
                                  "--elem", '{"k":"t^3","n":-6}'])
    assert (code, out) == (0, {"k": "t^-3+t^-1+1+t+t^2+t^3+t^4+t^5", "n": 6})
