import ast
import importlib.util
from pathlib import Path

import pytest

import loramix
from loramix import training

PACKAGE = Path(loramix.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Where a package name may have its callers: the package itself, the
# experiment scripts and the benchmark. Tests do not count.
CALLERS = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
           *(ROOT / "perfbench").glob("*.py")]


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


def uncalled_names(defining: list[str], using: list[str]) -> list[str]:
    """Functions, methods and classes the `defining` sources define whose
    name no `using` source reads as a name, an attribute, an import or a
    string; dunder names are exempt."""
    defined = set()
    for source in defining:
        defined |= {node.name for node in ast.walk(ast.parse(source))
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                         ast.AsyncFunctionDef))}
    used = set()
    for source in using:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used |= {*node.name.split("."), node.asname}
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                used.add(node.value)
    return sorted(name for name in defined - used
                  if not (name.startswith("__") and name.endswith("__")))


def test_caller_scan_sees_each_kind_of_use():
    defining = ("class Used:\n"
                "    def method(self): ...\n"
                "    def __len__(self): ...\n"
                "def imported(): ...\n"
                "def named_in_string(): ...\n"
                "def orphan(): ...\n"
                "class Orphan: ...\n")
    using = ("from .mod import imported as alias\n"
             "Used().method()\n"
             "getattr(alias, 'named_in_string')\n")
    assert uncalled_names([defining], [using]) == ["Orphan", "orphan"]


def test_every_package_name_has_a_caller():
    read = [p.read_text(encoding="utf-8") for p in CALLERS]
    defining = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    assert uncalled_names(defining, read) == []


def test_benchmark_trace_hooks_resolve():
    """Every method and function the benchmark's tracer wraps exists, so a
    rename in the package cannot slip past until a traced run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original_train = training.train
    tracer = tracing.Tracer()
    try:
        tracing.install_program_spans(tracer)
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert vars(owner)[attr] is not original, attr
    finally:
        tracer.uninstall()
    assert training.train is original_train
