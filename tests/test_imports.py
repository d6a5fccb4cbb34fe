import ast
from pathlib import Path

import pytest

import loramix

# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in Path(loramix.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_scan_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os, json as j\n"
              "from dataclasses import dataclass, field\n"
              "def f() -> None:\n"
              "    from . import seeding\n"
              "    return j.dumps(dataclass)\n")
    assert unused_imports(source) == ["field", "os", "seeding"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_exports_resolve_and_are_listed_once():
    assert len(loramix.__all__) == len(set(loramix.__all__))
    missing = [name for name in loramix.__all__ if not hasattr(loramix, name)]
    assert missing == []
