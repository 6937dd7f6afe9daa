"""Every name a `memsrs` module imports is used in that module, and every
name the package exports exists."""

import ast
from pathlib import Path

import pytest

import memsrs

SRC = Path(__file__).resolve().parent.parent / "src" / "memsrs"


def unused_imports(source: str):
    """Names bound by the source's imports that no expression reads and
    `__all__` does not list; `__future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import List, Optional as Opt\n"
              "from .x import shown\n"
              "__all__ = ['shown']\n"
              "def f(a: List[int]):\n"
              "    return a\n")
    assert unused_imports(source) == [(2, "os"), (3, "Opt")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_exported_name_exists():
    # a stale `__all__` entry breaks only `from memsrs import *`
    assert [name for name in memsrs.__all__ if not hasattr(memsrs, name)] == []
