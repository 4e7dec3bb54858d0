"""Properties of the package source itself."""

import ast
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
