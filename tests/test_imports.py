"""Every imported name is used: an ast scan standing in for a linter.

An import at module level must be used somewhere in the module; an import
inside a function must be used inside that function.  The package's
``__init__.py`` is skipped, since its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for p in (ROOT / "src" / "heightzeta").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
