"""Rules on the library source, read from its syntax trees: no check rests
on ``assert``, which ``python -O`` strips, and derived data is cached on the
table by ``core.derived``, so the functools caches appear only on the two
process-level values that are not per table, and no object fills a slot of
its own on first use.  No closure rebinds a name of its enclosing function
with ``nonlocal``: state that steps share lives on an object, as the search
state does on ``search.SearchState``.  An ``IsoMap`` is its forward map, with
no trust flag that a reader could believe in place of checking the map.
Every command starts a fresh interpreter, so the library imports nothing it
does not use: no ``dataclasses``, whose import pulls in ``inspect`` and
``ast``, and no ``typing``."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from crglobal.search import IsoMap

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "crglobal").glob("*.py"))
CACHES = {"cached_property", "lru_cache", "cache"}
# (module, function) pairs allowed a functools cache
PROCESS_CACHES = {("families", "corpus"), ("cli", "build_parser")}


def cache_uses(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(innermost enclosing function or class, line) of each reference to a
    functools cache outside the import statements; a decorator belongs to
    the function it decorates."""
    modules, names = {"functools"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in CACHES}
    uses = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id in names:
                uses.append((owner, child.lineno))
            elif (
                isinstance(child, ast.Attribute)
                and child.attr in CACHES
                and isinstance(child.value, ast.Name)
                and child.value.id in modules
            ):
                uses.append((owner, child.lineno))
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if scope else owner)

    visit(tree, None)
    return uses


def lazy_slots(tree: ast.Module) -> list[int]:
    """Lines that test ``self.<name> is None``: the check-then-fill memo of
    a slot computed on first use."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Attribute)
        and isinstance(node.left.value, ast.Name)
        and node.left.value.id == "self"
        and len(node.ops) == 1
        and isinstance(node.ops[0], ast.Is)
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    ]


def nonlocal_uses(tree: ast.Module) -> list[int]:
    """Lines of the ``nonlocal`` statements."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Nonlocal)]


def dataclass_imports(tree: ast.Module) -> list[int]:
    """Lines that import the ``dataclasses`` module or a name from it."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]


# modules whose import costs a cold start milliseconds and that the library does not use
UNUSED_MODULES = ("dataclasses", "inspect", "ast", "typing")


def modules_loaded_by_cli(src: Path) -> list[str]:
    """The ``UNUSED_MODULES`` that ``import crglobal.cli`` leaves in
    ``sys.modules`` of a fresh ``python -S`` interpreter importing from ``src``."""
    code = f"import sys, crglobal.cli; print(*[m for m in {UNUSED_MODULES!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_sources_are_found():
    assert {p.stem for p in SOURCES} >= {"core", "globaldet", "families", "cli"}


def test_no_check_rests_on_assert():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_functools_caches_only_on_process_level_values():
    found = [
        f"{path.name}:{line} in {owner}"
        for path in SOURCES
        for owner, line in cache_uses(ast.parse(path.read_text(encoding="utf-8")))
        if (path.stem, owner) not in PROCESS_CACHES
    ]
    assert found == []


def test_cache_uses_sees_each_spelling():
    # the rule's own control: every way of naming a cache is reported
    tree = ast.parse(
        "import functools as ft\n"
        "from functools import cache, cached_property as cp\n"
        "class A:\n"
        "    @cp\n"
        "    def x(self): ...\n"
        "@ft.lru_cache(maxsize=None)\n"
        "def f(): ...\n"
        "g = cache(len)\n"
    )
    assert cache_uses(tree) == [("x", 4), ("f", 6), (None, 8)]


def test_no_lazy_slots_beside_derived():
    found = [
        f"{path.name}:{line}" for path in SOURCES for line in lazy_slots(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_lazy_slots_sees_each_spelling():
    # the rule's own control: the memo test is reported, other None tests are not
    tree = ast.parse(
        "class A:\n"
        "    def f(self, x):\n"
        "        if self._a is None:\n"
        "            self._a = 1\n"
        "        if self.labels is not None:\n"
        "            return x is None\n"
    )
    assert lazy_slots(tree) == [3]


def test_no_nonlocal_in_the_library():
    found = [
        f"{path.name}:{line}" for path in SOURCES for line in nonlocal_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_nonlocal_uses_sees_each_spelling():
    # the rule's own control: every nonlocal statement is reported, at any
    # depth, and a global statement or a mutation through a name is not
    tree = ast.parse(
        "def f():\n"
        "    a = b = 0\n"
        "    seen = []\n"
        "    def g():\n"
        "        nonlocal a, b\n"
        "        def h():\n"
        "            nonlocal a\n"
        "        seen.append(a)\n"
        "    def k():\n"
        "        global c\n"
    )
    assert nonlocal_uses(tree) == [5, 7]


def test_an_isomap_is_its_forward_map():
    assert list(vars(IsoMap("subsets", (0,)))) == ["kind", "forward"]
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "verified"
    ]
    assert found == []



# ``import crglobal.<m>`` would run the package's __init__ first and import
# every module in its order; registering the package without running it
# makes <m> the first module imported, so an import cycle that only some
# orders show fails here
IMPORT_ALONE = """
import sys, types
package = types.ModuleType("crglobal")
package.__path__ = [sys.argv[1]]
sys.modules["crglobal"] = package
__import__("crglobal." + sys.argv[2])
"""


@pytest.mark.parametrize("module", [p.stem for p in SOURCES if p.stem != "__init__"])
def test_each_module_imports_alone(module):
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_ALONE, str(SOURCES[0].parent), module], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def test_no_dataclasses_in_the_library():
    found = [
        f"{path.name}:{line}" for path in SOURCES for line in dataclass_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_dataclass_imports_sees_each_spelling():
    # the rule's own control: each way of importing the module is reported, a
    # name that only contains it is not
    tree = ast.parse(
        "import dataclasses\n"
        "import os, dataclasses as dc\n"
        "from dataclasses import dataclass\n"
        "from .dataclasses_like import x\n"
    )
    assert dataclass_imports(tree) == [1, 2, 3]


def test_the_cli_imports_no_unused_module():
    assert modules_loaded_by_cli(SOURCES[0].parent.parent) == []


def test_modules_loaded_by_cli_sees_a_planted_import(tmp_path):
    # the check's own control: one import planted in a copy of the library is reported
    shutil.copytree(SOURCES[0].parent, tmp_path / "crglobal", ignore=shutil.ignore_patterns("__pycache__"))
    core = tmp_path / "crglobal" / "core.py"
    core.write_text(core.read_text(encoding="utf-8") + "import dataclasses\n", encoding="utf-8")
    assert {"dataclasses", "inspect", "ast"} <= set(modules_loaded_by_cli(tmp_path))
