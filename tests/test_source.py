"""Rules the package source keeps."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "padicover"


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so invariants raise typed errors
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _float_uses(tree):
    # float literals, the name float, and math.inf / math.nan in any spelling
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif isinstance(node, ast.Attribute) and node.attr in ("inf", "nan"):
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in ("inf", "nan"):
                    yield node.lineno, f"import {alias.name}"


def test_no_float_in_the_package():
    # arithmetic is exact; the valuation of 0 is None, never an infinite float
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{lineno}: {what}"
        for path in sources
        for lineno, what in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_the_float_rule_sees_each_kind_of_use():
    source = "import math\nfrom math import inf\nx = 1.5\ny = float(2)\nz = math.nan\n"
    found = sorted(what for _, what in _float_uses(ast.parse(source)))
    assert found == [".nan", "1.5", "float", "import inf"]
