"""Rules on the source of src/, read off the syntax tree of each file:
no assert statement, no module-level mutable state, no import from
outside the standard library, and one place that decides how a value
compares, hashes and prints."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

MUTATORS = frozenset({"append", "extend", "insert", "update", "setdefault", "pop", "popitem",
                      "clear", "add", "discard", "remove", "sort", "reverse"})


@pytest.fixture(scope="module")
def trees():
    """(path, syntax tree) of each Python file under src/, parsed once."""
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no Python files under {SRC}"
    return [(path.relative_to(SRC.parent), ast.parse(path.read_text())) for path in paths]


def test_no_assert_statements_in_src(trees):
    # runtime invariants are explicit raises: python -O drops an assert
    hits = [f"{path}:{node.lineno}" for path, tree in trees
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not hits, "assert statements in src/:\n" + "\n".join(hits)


def test_no_module_level_mutable_state_in_src(trees):
    # a function may not store into a module-level name: no subscript or
    # attribute store, no mutating method call and no global statement
    hits = []
    for path, tree in trees:
        module = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                module.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module |= {(a.asname or a.name).split(".")[0] for a in node.names}
            else:
                module |= {n.id for n in ast.walk(node)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            local |= {n.id for n in ast.walk(fn)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            shared = module - local
            for node in ast.walk(fn):
                target = None
                if isinstance(node, ast.Global):
                    hits.append(f"{path}:{node.lineno}: global {', '.join(node.names)}")
                elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
                        node.ctx, (ast.Store, ast.Del)):
                    target = node.value
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in MUTATORS):
                    target = node.func.value
                if isinstance(target, ast.Name) and target.id in shared:
                    hits.append(f"{path}:{node.lineno}: {target.id}")
    assert not hits, "functions in src/ that store into module-level names:\n" + "\n".join(hits)


def test_only_stdlib_imports_in_src(trees):
    # keeps dependencies = [] in pyproject.toml true: src/ imports only the
    # standard library and commlab itself
    allowed = set(sys.stdlib_module_names) | {"commlab"}
    hits = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            hits += [f"{path}:{node.lineno}: {name}" for name in names
                     if name.split(".")[0] not in allowed]
    assert not hits, "third-party imports in src/:\n" + "\n".join(hits)


# the classes that may define each method: frozen.Value for all three, and
# F2LaurentPoly, the atom every lamplighter value prints through, its repr
VALUE_DUNDERS = {
    "__eq__": {"src/commlab/frozen.py:Value"},
    "__hash__": {"src/commlab/frozen.py:Value"},
    "__repr__": {"src/commlab/frozen.py:Value", "src/commlab/f2poly.py:F2LaurentPoly"},
}


def test_only_value_defines_equality_hash_and_repr(trees):
    # a def or an assignment of the name in a class body defines it
    hits = []
    for path, tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                hits += [f"{path}:{node.lineno}: {cls.name}.{name}" for name in names
                         if name in VALUE_DUNDERS
                         and f"{path.as_posix()}:{cls.name}" not in VALUE_DUNDERS[name]]
    assert not hits, "value methods defined outside frozen.Value:\n" + "\n".join(hits)
