"""The statements of src/ that one seed-1 pass of each benchmark workload
never executes, grouped by function.

    python .github/bench_reach.py

Each workload's ops come from perfbench's own ``setup`` and run in one
``run_pass``, imported as ``tests/test_bench_digests.py`` imports them;
cli_corpus runs the in-process ``cli.run`` calls of its corpus.  The
imports, the set-up and the passes run under ``sys.settrace``, which
records every line of ``commlab`` that runs; ``verify`` then checks the
outputs, untraced.  A statement is one of ``ast`` that compiles to code,
docstrings left out; it ran if a line of it ran, not counting the
statements nested in it.  Output: the count of statements that never
ran, then for each file each function with one, and the line spans of
those statements.  It reads src/ of this checkout and writes nothing.
"""

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("lamp_mix", "lamp_large", "rational_mix", "cli_corpus")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def record(hits):
    """A global trace function that adds each line run in commlab to
    hits[filename]."""
    def tracer(frame, event, arg):
        if not frame.f_globals.get("__name__", "").startswith("commlab"):
            return None
        lines = hits[frame.f_code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local
    return tracer


def run_workloads(hits) -> None:
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    passes = []
    sys.settrace(record(hits))
    try:
        import run as bench
        for workload in WORKLOADS:
            timed, inproc, _ = bench.setup(workload, 1)
            ops = inproc if workload == "cli_corpus" else timed
            passes.append((workload, ops, bench.run_pass(ops)[1]))
    finally:
        sys.settrace(None)
    for workload, ops, outs in passes:  # checked untraced, so the checks add no lines
        if any(problem is not None for problem in bench.verify(ops, outs)):
            sys.exit(f"{workload}: a check of the pass failed")


def statements(tree):
    """(function, first line, own lines) of each statement, in file order;
    the function is the dotted name of the enclosing defs and classes, and
    the own lines stop where a nested block starts."""
    out = []

    def walk(body, scope):
        for stmt in body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # a docstring
            blocks = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
            blocks += [part.body for field in ("handlers", "cases") for part in getattr(stmt, field, [])]
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            end = min([s.lineno for block in blocks for s in block], default=stmt.end_lineno + 1)
            out.append((".".join(scope) or "<module>", first, range(first, end)))
            inner = scope + [stmt.name] if isinstance(stmt, DEFS) else scope
            for block in blocks:
                walk(block, inner)

    walk(tree.body, [])
    return out


def code_lines(code) -> set:
    """The lines that the bytecode of code and of its nested code maps to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main() -> None:
    hits = defaultdict(set)
    run_workloads(hits)
    ran = defaultdict(set)
    for filename, lines in hits.items():
        ran[os.path.realpath(filename)] |= lines
    total = unrun = 0
    report = []
    for path in sorted((SRC / "commlab").glob("*.py")):
        text = path.read_text()
        executable = code_lines(compile(text, str(path), "exec"))
        done = ran[os.path.realpath(path)]
        spans = defaultdict(list)  # function -> [first, last] line of each run of unrun statements
        previous = None  # the function of the statement before, if it never ran
        for function, first, own in statements(ast.parse(text)):
            if executable.isdisjoint(own):
                continue
            total += 1
            if not done.isdisjoint(own):
                previous = None
                continue
            unrun += 1
            if previous == function:
                spans[function][-1][1] = own[-1]
            else:
                spans[function].append([first, own[-1]])
            previous = function
        if spans:
            report.append(str(path.relative_to(ROOT)))
            for function, runs in spans.items():
                listed = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)
                report.append(f"  {function}: {listed}")
    print(f"{unrun} of {total} statements in src/ never ran in one seed-1 pass of "
          f"{', '.join(WORKLOADS)}")
    print("\n".join(report))


if __name__ == "__main__":
    main()
