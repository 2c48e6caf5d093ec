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


def _imported_modules(tree):
    """Last components of the modules a source imports, at any depth:
    ``import a.b``, ``from .b import x`` and ``from . import b`` all give b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rpartition(".")[2]
            else:
                yield from (alias.name for alias in node.names)


def test_the_two_routes_import_nothing_from_each_other():
    # verify checks the classifier against the blow-ups: a shared decision
    # would be checked against itself
    for module, other in (("oracle", "classifier"), ("classifier", "oracle")):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert other not in set(_imported_modules(tree)), f"{module}.py imports {other}"


def test_the_import_rule_sees_each_kind_of_import():
    source = "import a.b\nfrom .c import x\nfrom . import d\ndef f():\n    from .e import y\n"
    assert sorted(_imported_modules(ast.parse(source))) == ["b", "c", "d", "e"]


def _references(module, node):
    """(module, name) pairs a statement of ``module`` names: bare names (taken
    as its own module's), ``mod.name``, ``from mod import name``, and the
    tracer's ("mod", "name.attr") target pairs."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield module, sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            yield sub.value.id, sub.attr
        elif isinstance(sub, ast.ImportFrom) and sub.module:
            for alias in sub.names:
                yield sub.module.rpartition(".")[2], alias.name
        elif isinstance(sub, ast.Tuple) and len(sub.elts) == 2:
            if all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in sub.elts):
                yield sub.elts[0].value, sub.elts[1].value.partition(".")[0]


def _unreferenced(package, others):
    """Top-level functions and classes of ``package`` (module -> source) that
    no statement of ``package`` or ``others`` names outside its own definition."""
    statements = [
        (module, stmt, set(_references(module, stmt)))
        for module, text in {**others, **package}.items()
        for stmt in ast.parse(text).body
    ]
    found = []
    for module, stmt, _ in statements:
        if module in package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            if not any(
                (module, stmt.name) in refs for _, node, refs in statements if node is not stmt
            ):
                found.append(f"{module}.{stmt.name}")
    return sorted(found)


# helpers only the tests call; each is a reference the tests check against
TEST_ONLY = [
    "fppoly.mul",
    "kpoly.derivative",
    "kpoly.from_rationals",
    "newton.root_valuations",
]


def test_every_package_def_has_a_caller_in_the_package_or_the_benchmark():
    package = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    bench = PACKAGE.parents[1] / "perfbench"
    others = {
        f"perfbench.{path.stem}": path.read_text(encoding="utf-8") for path in bench.glob("*.py")
    }
    assert _unreferenced(package, others) == TEST_ONLY


def test_the_caller_rule_flags_an_unused_def():
    package = {
        "m": "def used():\n    return 1\n\ndef unused():\n    return unused()\n\nX = used()\n",
        "n": "from .m import used\n\nclass Kept:\n    pass\n\nclass Dropped:\n    pass\n",
    }
    others = {"tracer": 'TARGETS = (("n", "Kept.method"),)\n'}
    assert _unreferenced(package, others) == ["m.unused", "n.Dropped"]
