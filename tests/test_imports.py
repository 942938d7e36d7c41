"""Every name a library module imports is used there (or exported)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tracklasso"


def unused_imports(source: str):
    """Names bound by import statements that the module never reads.

    A name listed in a literal ``__all__`` counts as used, and
    ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom typing import List as L, Optional\n"
              "__all__ = ['Optional']\nprint(sys.argv)\n")
    assert unused_imports(source) == ["L (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
