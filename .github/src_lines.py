"""Net lines of src/ and of tests/ between two commits, each split into
code, docstring, comment and blank lines.

    python .github/src_lines.py BASE [HEAD]

HEAD defaults to HEAD.  The files are read with ``git show REV:path``.  A
docstring line is one spanned by the docstring of a module, class or
function (``ast``); a comment line holds a comment and nothing else
(``tokenize``); a blank line is empty outside a docstring; every other
line is code.  A deleted comment counts as a comment line, not code.
"""

import ast
import io
import subprocess
import sys
import tokenize
from collections import Counter

KINDS = ("code", "docstring", "comment", "blank")
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def split(text: str) -> Counter:
    """The count of each kind of line in one Python source."""
    lines = text.splitlines()
    kinds = ["blank" if not line.strip() else "code" for line in lines]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        row, col = tok.start
        if tok.type == tokenize.COMMENT and not lines[row - 1][:col].strip():
            kinds[row - 1] = "comment"
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            for row in range(doc.lineno, doc.end_lineno + 1):
                kinds[row - 1] = "docstring"
    return Counter(kinds)


def count(rev: str, top: str) -> Counter:
    """The kinds of line of every Python file under the directory top at rev."""
    total = Counter()
    for path in git("ls-tree", "-r", "--name-only", rev, "--", top).split():
        if path.endswith(".py"):
            total += split(git("show", f"{rev}:{path}"))
    return total


def main(base: str, head: str = "HEAD") -> None:
    for top in ("src", "tests"):
        old, new = count(base, top), count(head, top)
        for kind in KINDS:
            print(f"{top}/ {kind} lines: {old[kind]} -> {new[kind]} ({new[kind] - old[kind]:+d})")
        total_old, total_new = sum(old.values()), sum(new.values())
        print(f"{top}/ lines: {total_old} -> {total_new} ({total_new - total_old:+d})")


if __name__ == "__main__":
    main(*sys.argv[1:])
