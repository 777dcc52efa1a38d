"""Every module of the package uses each name it imports and binds each
name it exports, and some module of the package reads each private name
bound at the top level of a module, so no helper outlives its callers.

A name counts as used when the module reads it (including inside a quoted
annotation) or lists it in ``__all__``, so a stale ``__all__`` entry would
pass the first check; the second imports each module and looks the entries up.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfrac"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; __future__ imports excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations such as "count_terms | None".
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported_names(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_detects_an_unused_import():
    source = "import itertools\nimport math\nfrom .core import _accumulate\nmath.pi\n"
    assert unused_imports(source) == ["line 1: itertools", "line 3: _accumulate"]


def test_counts_all_and_quoted_annotations_as_use():
    source = (
        "from .core import QParams, count_terms\n"
        "__all__ = ['QParams']\n"
        "x: 'count_terms | None' = None\n"
    )
    assert unused_imports(source) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def unbound_exports(module: types.ModuleType) -> list[str]:
    """Names in module.__all__ that the module does not bind."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_detects_a_stale_export():
    module = types.ModuleType("stale")
    module.__all__ = ["kept", "deleted"]
    module.kept = 1
    assert unbound_exports(module) == ["deleted"]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_all_exports_bound(module):
    name = "qfrac" if module == "__init__" else f"qfrac.{module}"
    assert unbound_exports(importlib.import_module(name)) == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private top-level name a module binds (def, class or assignment) -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [target.id for target in bound if isinstance(target, ast.Name)]
        else:
            continue
        names.update((name, node.lineno) for name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names and attributes the module loads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_privates(sources: dict[str, str]) -> list[str]:
    """Private top-level names that no module of sources reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = set().union(*map(read_names, trees.values()))
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in reads
    ]


def test_detects_an_unread_private_name():
    sources = {
        "a.py": "def _kept(): pass\ndef _left_behind(): pass\n_LIMIT: int = 3\n",
        "b.py": "from .a import _kept\n_kept()\n",
    }
    assert unread_privates(sources) == ["a.py line 2: _left_behind", "a.py line 3: _LIMIT"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_privates(sources) == []
