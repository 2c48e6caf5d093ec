"""Rules the package source keeps."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from padicover.cover import BranchPoint

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


def test_the_oracle_reads_only_values_and_labels_off_the_branch_points():
    # a fiber profile is the classifier's fact about a branch value; the
    # oracle reads its critical points off the divisor instead
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    assert list(_attribute_uses(tree, "profile")) == []
    assert BranchPoint.__slots__ == ("value", "profile", "label")


def test_the_profile_rule_sees_each_read():
    source = "a = bp.profile\nb = len(branch[0].profile)\nc = profile\nd = bp.label\n"
    assert list(_attribute_uses(ast.parse(source), "profile")) == [1, 2]


def test_the_import_rule_sees_each_kind_of_import():
    source = "import a.b\nfrom .c import x\nfrom . import d\ndef f():\n    from .e import y\n"
    assert sorted(_imported_modules(ast.parse(source))) == ["b", "c", "d", "e"]


def _imports_dataclasses(tree):
    return "dataclasses" in set(_imported_modules(tree))


def test_no_package_module_imports_dataclasses():
    # a dataclass execs its generated methods and reads inspect.signature
    # when its module is imported; records are __slots__ classes instead
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if _imports_dataclasses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_the_dataclasses_rule_sees_each_kind_of_import():
    for source in (
        "import dataclasses\n",
        "from dataclasses import dataclass\n",
        "def f():\n    from dataclasses import field\n",
    ):
        assert _imports_dataclasses(ast.parse(source)), source
    assert not _imports_dataclasses(ast.parse("from .records import dataclass\n"))


def test_a_cold_start_loads_neither_dataclasses_nor_inspect():
    # what one command pays before it reads its input: a fresh interpreter
    # importing the command line
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    probe = "import sys, padicover.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _val_calls(tree):
    """Line numbers of the ``x.val()`` calls in a source."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "val"
        ):
            yield node.lineno


def test_both_routes_read_valuations_as_ints():
    # Element.scaled_val gives n * v as an int; val builds a Fraction per reading
    offenders = [
        f"{module}.py:{lineno}"
        for module in ("classifier", "branchtree", "oracle")
        for lineno in _val_calls(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_the_val_rule_sees_each_call():
    source = "a = x.val()\nb = (x - y).val() > 0\nc = x.scaled_val()\nd = x.val\n"
    assert list(_val_calls(ast.parse(source))) == [1, 2]


def _attribute_uses(tree, attr):
    """Line numbers of the ``x.<attr>`` uses in a source."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == attr:
            yield node.lineno


def test_integrality_is_read_through_the_field():
    # v >= 0 is Element.is_integral; an element's den is the field's own layout
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("field", "kpoly")
        for lineno in _attribute_uses(ast.parse(path.read_text(encoding="utf-8")), "den")
    ]
    assert offenders == []


def test_the_den_rule_sees_each_read():
    source = "a = x.den % p\nb = (x - y).den\nc = q.denominator\nd = den\n"
    assert sorted(_attribute_uses(ast.parse(source), "den")) == [1, 2]


def _products_by_p(tree, module):
    """Per function, qualified as ``module.Class.function``, the products
    ``x * p`` or ``p * x`` with an operand the bare name p; ``x * p**q`` is
    a product by a power and is not counted."""
    found, stack = Counter(), [(tree, module)]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, f"{scope}.{child.name}"))
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult):
                if any(isinstance(s, ast.Name) and s.id == "p" for s in (child.left, child.right)):
                    found[scope] += 1
            stack.append((child, scope))
    return found


def test_the_exponent_fold_is_written_once():
    # the fold p**(k/n) * p**(j/n) = p * p**((k+j-n)/n), k + j >= n, is the
    # product by p in Element.__mul__; the one in inverse inverts a single
    # term, and every other product in the tower goes through __mul__
    found = Counter()
    for module in ("field", "kpoly"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        found += _products_by_p(tree, module)
    assert found == {"field.Element.__mul__": 1, "field.Element.inverse": 1}


def test_the_fold_rule_sees_each_product_by_p():
    source = (
        "def f(c, p):\n    return c * p\n"
        "class C:\n"
        "    def g(self, row, i, p, q):\n        return row[i] * p**q, p * row[i] + 1\n"
        "    def h(self, p, q):\n        return p**q * q, p + q\n"
    )
    assert _products_by_p(ast.parse(source), "m") == {"m.f": 1, "m.C.g": 1}


def _recursive_closures(tree):
    """(line, name) of each function nested in another function that calls
    itself by name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = {
        inner
        for outer in ast.walk(tree)
        if isinstance(outer, functions)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, functions)
    }
    for fn in sorted(nested, key=lambda fn: fn.lineno):
        if any(
            isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == fn.name
            for sub in ast.walk(fn)
        ):
            yield fn.lineno, fn.name


def test_no_closure_calls_itself():
    # a recursive closure holds the cell that holds it: a reference cycle
    # that keeps everything it reaches alive until the cyclic collector runs
    offenders = [
        f"{path.name}:{lineno}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, name in _recursive_closures(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_the_closure_rule_sees_each_recursive_closure():
    source = (
        "def top(n):\n    return n and top(n - 1)\n"
        "def outer():\n"
        "    def walk(k):\n        return k and walk(k - 1)\n"
        "    def flat(k):\n        return top(k)\n"
        "    def deep():\n"
        "        def gen(k):\n            yield from gen(k - 1)\n"
        "        return gen\n"
        "    return walk, flat, deep\n"
        "class C:\n    def method(self):\n        return self.method()\n"
    )
    assert list(_recursive_closures(ast.parse(source))) == [(4, "walk"), (9, "gen")]


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


def _attribute_reads(node):
    """Attribute names a statement reads, ``x.name`` in load context or the
    tracer's ("mod", "Class.name") target pairs, with their counts."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.Tuple) and len(sub.elts) == 2:
            if all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in sub.elts):
                reads[sub.elts[1].value.rpartition(".")[2]] += 1
    return reads


def _unreferenced(package, others):
    """Top-level functions and classes of ``package`` (module -> source) that
    no statement of ``package`` or ``others`` names outside its own definition,
    and the non-dunder methods of its classes whose name no statement reads as
    an attribute outside the method's own body.  Classes with a base from
    outside the package are not scanned for methods: the base may call them."""
    statements = [
        (module, stmt, set(_references(module, stmt)))
        for module, text in {**others, **package}.items()
        for stmt in ast.parse(text).body
    ]
    reads = sum((_attribute_reads(stmt) for _, stmt, _ in statements), Counter())
    classes = {
        stmt.name for m, stmt, _ in statements if m in package and isinstance(stmt, ast.ClassDef)
    }
    found = []
    for module, stmt, _ in statements:
        if module in package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            if not any(
                (module, stmt.name) in refs for _, node, refs in statements if node is not stmt
            ):
                found.append(f"{module}.{stmt.name}")
        # a base class from outside the package may call the methods it declares
        if module in package and isinstance(stmt, ast.ClassDef) and all(
            isinstance(base, ast.Name) and base.id in classes for base in stmt.bases
        ):
            for item in stmt.body:
                if not isinstance(item, ast.FunctionDef) or (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    continue
                if reads[item.name] == _attribute_reads(item)[item.name]:
                    found.append(f"{module}.{stmt.name}.{item.name}")
    return sorted(found)


# package defs that only the tests call: none, as such helpers live in
# tests/reference.py, so the caller rule below has no exceptions
TEST_ONLY = []


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
        "o": (
            "class C:\n"
            "    def __init__(self):\n        self.stored = self.called()\n"
            "    def called(self):\n        return 1\n"
            "    def traced(self):\n        return 2\n"
            "    def stored(self):\n        return 3\n"
            "    def recursive(self):\n        return self.recursive()\n"
            "X = C()\n"
            "class P(argparse.ArgumentParser):\n    def error(self, message):\n        pass\n"
            "class Q(C):\n    def unread(self):\n        pass\n"
            "Y = P(), Q()\n"
        ),
    }
    others = {"tracer": 'TARGETS = (("n", "Kept.method"), ("o", "C.traced"))\n'}
    assert _unreferenced(package, others) == [
        "m.unused",
        "n.Dropped",
        "o.C.recursive",
        "o.C.stored",
        "o.Q.unread",
    ]
