"""Every name a `memsrs` module imports is used in that module, every
top-level function, class and constant is named somewhere outside its
own definition, and every name the package exports exists."""

import ast
import functools
import re
from pathlib import Path

import pytest

import memsrs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "memsrs"
# where a definition may be named: the code, its tests, the benchmark
# harness, the experiment scripts and the packaging metadata
SEARCHED = ("src", "tests", "perfbench", "scripts")
# a string naming code: "compile_nsm", "RelLayoutRP.compile", "memsrs.cli:main"
_CODE_PATH = re.compile(r"[A-Za-z_][\w.:]*")


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


def names(node: ast.AST) -> set:
    """Identifiers the node names: names, attributes, imported names and
    the parts of strings that are code paths."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and _CODE_PATH.fullmatch(sub.value)):
            out.update(re.split(r"[.:]", sub.value))
    return out


def _unnamed(source: str, elsewhere: set, defined):
    """(line, name) of each name that `defined` finds a top-level
    statement of the source binding, and that neither `elsewhere` nor the
    source's other statements name."""
    tree = ast.parse(source)
    named = [names(node) for node in tree.body]
    return [(node.lineno, name) for i, node in enumerate(tree.body)
            for name in defined(node)
            if name not in elsewhere.union(*named[:i], *named[i + 1:])]


def unnamed_definitions(source: str, elsewhere: set):
    """(line, name) of each top-level function or class of the source
    that neither `elsewhere` nor the source's other statements name."""
    return _unnamed(source, elsewhere, lambda node: [node.name] if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else [])


def _assigned(node: ast.AST) -> list:
    """The names a module-level assignment binds, dunders (`__all__`) aside."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and not sub.id.startswith("__")]


def unnamed_constants(source: str, elsewhere: set):
    """(line, name) of each top-level constant (a module-level assignment)
    of the source that neither `elsewhere` nor the source's other
    statements name."""
    return _unnamed(source, elsewhere, _assigned)


@functools.lru_cache(maxsize=None)
def _names_by_file() -> dict:
    found = {path: names(ast.parse(path.read_text(encoding="utf-8")))
             for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}
    pyproject = ROOT / "pyproject.toml"
    found[pyproject] = set(re.findall(r"\w+", pyproject.read_text(encoding="utf-8")))
    return found


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import List, Optional as Opt\n"
              "from .x import shown\n"
              "__all__ = ['shown']\n"
              "def f(a: List[int]):\n"
              "    return a\n")
    assert unused_imports(source) == [(2, "os"), (3, "Opt")]


def test_checker_finds_an_unnamed_definition():
    source = ("def used():\n"
              "    return 1\n"
              "def recursive(n):\n"
              "    return recursive(n - 1)\n"
              "class Elsewhere:\n"
              "    pass\n"
              "def traced():\n"
              "    'A docstring does not name unnamed().'\n"
              "def unnamed():\n"
              "    pass\n"
              "VALUE = used()\n"
              "TARGETS = ('module.traced', 'unnamed')\n")
    # 'unnamed' is a code path too; without that string it is found
    assert unnamed_definitions(source, {"Elsewhere"}) == [(3, "recursive")]
    source = source.replace(", 'unnamed')", ")")
    assert unnamed_definitions(source, {"Elsewhere"}) == [(3, "recursive"),
                                                          (9, "unnamed")]


def test_checker_finds_an_unnamed_constant():
    source = ("__all__ = ['f']\n"
              "_BLOCK = 2**12\n"
              "_BLOCK_IDS = tuple(range(1, _BLOCK + 1))\n"
              "_LEFT, RIGHT = 1, 2\n"
              "LIMIT: int = 3\n"
              "SHOWN = 4\n"
              "def f():\n"
              "    return _LEFT\n")
    assert unnamed_constants(source, {"SHOWN"}) == [(3, "_BLOCK_IDS"),
                                                    (4, "RIGHT"), (5, "LIMIT")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_named(path):
    elsewhere = set().union(*(found for other, found in _names_by_file().items()
                              if other != path))
    assert unnamed_definitions(path.read_text(encoding="utf-8"), elsewhere) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_constant_is_named(path):
    elsewhere = set().union(*(found for other, found in _names_by_file().items()
                              if other != path))
    assert unnamed_constants(path.read_text(encoding="utf-8"), elsewhere) == []


def test_every_exported_name_exists():
    # a stale `__all__` entry breaks only `from memsrs import *`
    assert [name for name in memsrs.__all__ if not hasattr(memsrs, name)] == []


def test_only_rs_cuts_activation_layers():
    # every placement walks its layers through `rs.layer_cuts`, so no
    # other module names the one cut of a tip set
    cutting = [path.name for path in sorted(SRC.glob("*.py"))
               if "layer_tips" in names(ast.parse(path.read_text(encoding="utf-8")))]
    assert cutting == ["rs.py"]


def test_only_rs_builds_region_sector_scans():
    # the placements over the Region-Sector view take their scans from
    # `rs` (`rs_scan`, `layer_scans`, `shift_scans`), so neither names the
    # emulator's `Scan`
    building = [name for name in ("relational.py", "spatial.py")
                if "Scan" in names(ast.parse((SRC / name).read_text(encoding="utf-8")))]
    assert building == []
