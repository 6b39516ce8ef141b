"""``cli_corpus``: one ``comm-lab`` child process per call, one at a time,
over a fixed corpus that covers every subcommand and all four demos.

The corpus shape is fixed; the seed only changes the values inside it.
Each entry names the exit code the CLI contract asks for: 0 success,
1 domain error printed as one JSON line, 2 malformed input.  Three
entries are known gaps in today's CLI (ROADMAP item 5); they stay in the
corpus and count as failures until the CLI meets the contract.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from commlab import cli
from commlab import lamplighter as lamp

import lampgen
import ratgen
from common import Op, f2_invertible, poly_str

CALL_TIMEOUT_S = 120


class Entry(namedtuple("Entry", "label argv expect today")):
    """One corpus call; ``expect`` is the exit code the contract asks for.
    ``today`` holds, for a known contract gap, the exact problem texts it
    gives today (from the child process and from ``cli.run`` in process);
    any other failure of the entry is a new defect."""


class CliResult(namedtuple("CliResult", "code out err")):
    def to_json(self):
        # stderr is left out: a traceback names the checkout's paths
        return {"exit": self.code, "stdout": self.out}


def _j(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def build_corpus(seed: int) -> list:
    rng = random.Random(seed)
    e = []

    def add(label, argv, expect=0, today=()):
        e.append(Entry(label, [str(a) for a in argv], expect, today))

    # torus ranks
    for _ in range(3):
        factors, primes = ratgen.torus_json(rng)
        d = rng.choice([f["d"] for f in factors if "d" in f] or [5])
        kind = rng.choice(("normone", "restscalars", "gm"))
        add("torus-rank disc", ["torus-rank", f"--disc={d}", "--kind", kind,
                                "--primes", ",".join(map(str, primes))])
    add("torus-rank matrix", ["torus-rank", "--matrix", rng.choice(("2,1;1,1", "3,2;1,1", "1,1;1,2")),
                              "--primes", rng.choice(("11", "3,11", "5,19"))])
    add("torus-rank non-prime", ["torus-rank", "--disc", 5, "--primes", rng.choice((4, 9, 15))], 1)
    add("torus-rank no torus", ["torus-rank", "--primes", 3], 2)

    # lamplighter
    comms = [lampgen.comm_json(rng) for _ in range(6)]
    for i in range(3):
        add("lamp compose", ["lamp", "compose", "--c1", _j(comms[2 * i]), "--c2", _j(comms[2 * i + 1])])
    for i in range(2):
        add("lamp invert", ["lamp", "invert", "--comm", _j(comms[i])])
    parsed = [lamp.LampComm.from_json(c) for c in comms]
    for i in range(2):
        basis, level = lamp.comm_domain(parsed[i])
        g = lampgen.domain_element(rng, basis, level, rng.randrange(-3, 4))
        add("lamp apply", ["lamp", "apply", "--comm", _j(comms[i]), "--elem", _j(g.to_json())])
        add("lamp from-partial", ["lamp", "from-partial", "--data", _j(lampgen.partial_data(parsed[i]))])
    add("lamp apply off-domain", ["lamp", "apply", "--comm",
                                  _j({"level": 2, "der": "t", "A": [["1", "0"], ["0", "1+s"]], "flip": False}),
                                  "--elem", _j({"k": "0", "n": 1})], 1)
    for _ in range(2):
        g = {"k": poly_str([x for x in range(-4, 5) if rng.random() < 0.3]), "n": rng.randrange(-3, 4)}
        h = {"k": poly_str([x for x in range(-4, 5) if rng.random() < 0.3]), "n": rng.randrange(-3, 4)}
        add("lamp mul", ["lamp", "mul", "--g", _j(g), "--h", _j(h)])
    for n in (2, 3, 4):
        rows = f2_invertible(rng, n)
        add("lamp embed-gl", ["lamp", "embed-gl", "--n", n,
                              "--matrix", ";".join(",".join(map(str, r)) for r in rows)])
    add("lamp embed-gl singular", ["lamp", "embed-gl", "--n", 2, "--matrix", "1,1;1,1"], 1)
    for _ in range(2):
        level, rows = lampgen.submodule_json(rng)
        basis = lamp.SubmoduleBasis.from_generators(level, lampgen.parse_rows(rows))
        add("lamp quotient-dim", ["lamp", "quotient-dim", "--submodule", _j(basis.to_json()),
                                  "--m", level * rng.randrange(1, 8 // level + 1)])
    add("lamp quotient-dim bad m", ["lamp", "quotient-dim", "--submodule",
                                    _j({"level": 2, "H": [["1", "0"], ["0", "1"]]}), "--m", 3], 1)
    add("lamp compose malformed", ["lamp", "compose", "--c1", "{not json", "--c2", _j(comms[0])], 2)
    add("lamp apply bad term", ["lamp", "apply", "--comm", _j(comms[0]),
                                "--elem", _j({"k": "t^x", "n": 0})], 2)

    # unitriangular groups
    for _ in range(2):
        n = rng.randrange(3, 6)
        add("unipotent log", ["unipotent", "log", "--matrix", _j(ratgen.unitri_rows(rng, n))])
        add("unipotent exp", ["unipotent", "exp", "--matrix", _j(ratgen.unitri_rows(rng, n, strict=True))])
        add("unipotent root", ["unipotent", "root", "--p", rng.choice((2, 3)),
                               "--matrix", _j(ratgen.unitri_rows(rng, n))])
    scales, _ = ratgen.lie_json(rng, 3)
    aut = {"n": 3, "L": [[scales[i] if i == j else "0" for j in range(3)] for i in range(3)]}
    add("unipotent apply-aut", ["unipotent", "apply-aut", "--aut", _j(aut),
                                "--matrix", _j(ratgen.unitri_rows(rng, 3))])
    add("unipotent log not unitriangular", ["unipotent", "log", "--matrix", _j([["2", "0"], ["0", "1"]])], 2)

    # Baumslag-Solitar groups
    base = rng.choice((2, 3))
    g = {"n": base, "a": rng.randrange(-3, 4), "b": str(Fraction(rng.randrange(-8, 9), base ** rng.randrange(0, 3)))}
    h = {"n": base, "a": rng.randrange(-3, 4), "b": str(Fraction(rng.randrange(-8, 9), base))}
    add("bs mul", ["bs", "mul", "--g", _j(g), "--h", _j(h)])
    c = ratgen.affine_json(rng)
    add("bs domain", ["bs", "domain", "--n", 2, f"--r={c['r']}", f"--q={c['q']}"])
    add("bs conj", ["bs", "conj", "--r", "1", "--q", "1/3", "--elem", _j({"n": 2, "a": 2, "b": "3"})])
    add("bs conj off-domain", ["bs", "conj", "--r", "1", "--q", "1/3", "--elem", _j({"n": 2, "a": 1, "b": "1"})], 1)
    # the three contract gaps of ROADMAP item 5
    add("bs conj zero denominator", ["bs", "conj", "--r", "1/0", "--q", "1",
                                     "--elem", _j({"n": 2, "a": 0, "b": "1"})], 1,
        today=("printed a traceback", "raised ZeroDivisionError: Fraction(1, 0)"))
    add("bs mul non-integral translation", ["bs", "mul", "--g", _j({"n": 2, "a": 0, "b": "1/3"}),
                                            "--h", _j(h if base == 2 else {"n": 2, "a": 0, "b": "1"})], 1,
        today=("exit 2, contract asks for 1",))
    add("bs domain base 1", ["bs", "domain", "--n", 1, "--r", "1", "--q", "1/3"], 1,
        today=("exit 0, contract asks for 1",))

    # block descriptions and the inner-derivation solver
    for shape in (ratgen.SPACES[0], ratgen.SPACES[2]):
        n0, n1, dz, dz1, red = shape
        space = {"N0": n0, "N1": n1, "dZ": dz, "dZ1": dz1, "red": red}
        spec = {"space": space, "a": ratgen.desc_json(rng, shape), "b": ratgen.desc_json(rng, shape)}
        add("comm-desc mul", ["comm-desc", "mul", "--spec", _j(spec)])
        add("comm-desc inv", ["comm-desc", "inv", "--spec", _j(spec)])
    for _ in range(2):
        ts, vs, _ = ratgen.inner_system(rng, rng.randrange(1, 7))
        add("solve-inner", ["solve-inner", "--ts", _j(ts), "--vs", _j(vs)])
    ts, vs, _ = ratgen.inner_system(rng, rng.randrange(1, 7))
    vs[0][0] = str(Fraction(vs[0][0]) + Fraction(1, 3))
    add("solve-inner inconsistent", ["solve-inner", "--ts", _j(ts), "--vs", _j(vs)], 1)

    # the four worked demos; radicability, the slowest call, runs twice so
    # that p99 falls inside its cluster rather than on its edge, and on one
    # fixed demo seed, since its cost moves by a third with the demo seed
    for name in ("torus-example", "lamplighter-gl-embed", "bs-bogopolski"):
        add(f"demo {name}", ["demo", name, "--seed", rng.randrange(1000)])
    for _ in range(2):
        add("demo radicability", ["demo", "radicability", "--seed", 1])
    return e


# ---------------------------------------------------------------------------
# running one call


def run_child(argv, env, cwd):
    """One CLI call in its own interpreter; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "commlab.cli", *argv], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
    )
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def run_inproc(argv):
    """The same call through ``cli.run`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def contract_problem(entry, result):
    """None if (code, stdout, stderr) meets the CLI contract, else why not."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    code, out, err = result
    if "Traceback" in err:
        return "printed a traceback"
    if code != entry.expect:
        return f"exit {code}, contract asks for {entry.expect}"
    if entry.argv[0] == "demo":
        lines = out.splitlines()
        return None if lines and all(ln.startswith("PASS") for ln in lines) else "a demo check failed"
    lines = out.splitlines()
    if code == 2 and not lines:
        return None  # usage error reported by argparse on stderr
    if len(lines) != 1:
        return f"printed {len(lines)} lines, contract asks for one JSON line"
    try:
        obj = json.loads(lines[0])
    except json.JSONDecodeError:
        return "stdout is not JSON"
    is_error = isinstance(obj, dict) and "error" in obj
    if (code == 0) == is_error:
        return "error object and exit code disagree"
    if code == 2 and obj["error"] != "ParseError":
        return "malformed input not reported as ParseError"
    return None


def inproc_as_child(entry):
    """What a child process should print for this entry: the in-process
    result, with an escaping exception mapped to exit 1 and no stdout."""
    try:
        code, out, _ = run_inproc(entry.argv)
    except Exception:  # the child would die with a traceback and exit 1
        return 1, ""
    return code, out


def child_check(entry):
    """CLI stdout and exit code must equal the in-process result, and the
    call must meet the contract (the three known gaps do not)."""

    def check(result):
        code, out, _ = result
        if (code, out) != inproc_as_child(entry):
            return "CLI output differs from cli.run in process"
        return contract_problem(entry, result) or True

    return check


def inproc_check(entry):
    return lambda result: contract_problem(entry, result) or True


def child_ops(corpus, env, cwd):
    return [Op(entry.label, run_child, (entry.argv, env, cwd), child_check(entry)) for entry in corpus]


def inproc_ops(corpus):
    return [Op(entry.label, run_inproc, (entry.argv,), inproc_check(entry)) for entry in corpus]
