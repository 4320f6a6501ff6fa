"""Every name that a library module imports is used in that module.

No linter is a test dependency, so this walks each module's syntax tree: a
name bound by an import must be read somewhere as a name, or as the base of
an attribute.  `__init__.py` is left out, as its imports are its exports.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proxigraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that source imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a; `from m import x as y` binds y
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_walk_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport json, os.path\n"
              "from math import inf as INF, pi\nprint(os.sep, pi)\n")
    assert unused_imports(source) == ["json", "INF"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
