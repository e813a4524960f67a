"""Every imported name and every private definition is used: ast scans standing in for a linter.

An import at module level must be used somewhere in the module; an import
inside a function must be used inside that function.  The package's
``__init__.py`` is skipped, since its imports are the public re-exports.
A ``_``-prefixed module-level function or class in the package, or a
``_``-prefixed method of such a class, must be read somewhere in the package
outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "heightzeta").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _own_imports(scope):
    """Import statements of one scope, not those of the functions nested in it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for every imported name that its scope never reads."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, *_FUNCTIONS)):
            continue
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in _own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append((node.lineno, name))
    return sorted(found)


def test_scan_flags_unused_names_per_scope():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from math import gcd, lcm\n"
        "def f():\n"
        "    import json\n"
        "    return gcd(1, 2)\n"
        "def g():\n"
        "    return json\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "lcm"), (5, "json")]


def _names_read(node) -> Counter:
    """Names, attribute names and from-imported names under node, with multiplicity."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def unreferenced_private_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for every private function, class or method read only inside itself.

    Functions and classes at module level and methods of those classes count.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((_names_read(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        methods = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in tree.body + methods:
            if not isinstance(node, _DEFINITIONS):
                continue
            name = node.name
            if name.startswith("_") and not name.startswith("__"):
                if total[name] == _names_read(node)[name]:
                    found.append((module, name))
    return sorted(found)


def test_scan_flags_unreferenced_private_definitions():
    sources = {
        "a": (
            "def _used():\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Orphan:\n    pass\n"
            "class Public:\n"
            "    def _called(self):\n        return self._read\n"
            "    def _read(self):\n        pass\n"
            "    def _uncalled(self):\n        return self._called()\n"
        ),
        "b": "from a import _used\ndef public():\n    return _used()\n",
    }
    assert unreferenced_private_definitions(sources) == [
        ("a", "_Orphan"), ("a", "_recursive"), ("a", "_uncalled"),
    ]


def test_no_unreferenced_private_definitions():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unreferenced_private_definitions(sources) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
