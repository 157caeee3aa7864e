"""Every imported name is read: a walk over the syntax tree of each module in
src/vasslab, tests and scripts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/vasslab", "tests", "scripts") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list:
    """The names the module imports and never reads; names listed in
    `__all__` and `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    read, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read | exported)


def test_checker_finds_an_unused_import():
    src = "from os import path, sep\nimport json\n__all__ = ['sep']\nprint(json)\n"
    assert unused_imports(src) == [(1, "path")]


def test_no_unused_imports():
    assert len(MODULES) > 30
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {k: v for k, v in found.items() if v} == {}
