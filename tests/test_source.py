"""Properties of the package source itself."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinchar"


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes;
    # every check in the package must raise a typed error instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [(path.name, node.lineno)
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


# names kept with no caller in the package, and why
_UNREFERENCED_ON_PURPOSE = {
    "parse_scalar": "the public reader of the output grammar",
    "mult_collect": "the collection oracle the Cayley tables are tested against",
}


def test_every_definition_is_referenced_in_the_package():
    # a function or class is referenced when its name is read (as a name or
    # an attribute) somewhere in the package outside its own definition;
    # the re-exports of __init__.py do not count, nor do dunder methods,
    # which the interpreter calls
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}

    def reads(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute))
                       and isinstance(n.ctx, ast.Load))

    total = sum((reads(tree) for name, tree in trees.items() if name != "__init__.py"),
                Counter())
    dead = sorted(
        "%s:%s" % (path, node.name)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in _UNREFERENCED_ON_PURPOSE
        and total[node.name] - reads(node)[node.name] <= 0)
    assert dead == []



def test_only_groups_imports_the_numpy_shim():
    # numpy serves only the GSHARP random associativity pass, through
    # Group.table; every other module runs on Python ints
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and any(alias.name == "_np" for alias in node.names))
    assert importers == ["groups.py"]


def test_a_matrix_has_one_form():
    # a CycMatrix is its kernel state, so no module re-encodes a matrix's
    # scalar rows: matrix_state(M.rows) is M.state
    found = sorted(
        "%s:%d" % (path.name, node.lineno) for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] == "matrix_state"
        and any(isinstance(arg, ast.Attribute) and arg.attr == "rows" for arg in node.args))
    assert found == []
