"""Every module of the package uses each name it imports and binds each
name it exports, and some module of the package reads each private name
bound at the top level of a module, so no helper outlives its callers.  Each
default of a private helper is passed by one call and left to by another, so
no default stands for a constant or is never read.  Each `module.name` that
the README gives for a module of the package is bound there, so the README
names no deleted code.  No module of the package or of the tests defines a
top-level function or class twice, nor a class a method twice, so no
definition is shadowed unseen.  No module of the package but core reads
math.fsum, so every sum of known length is core._accumulate's.  special
reads no rel_tol, so its products and e_q stay exact to rounding whatever
the stopping rule's tolerance.  No class of the package is a record with no
behaviour: each one is decorated, has a base class or a method other than
__init__.  Each callable of qfrac.__all__ that takes a numeric parameter has
its row in the input contract, core._DOMAINS, naming those parameters in
order, and each row names such a callable, so no entry point goes unchecked.

A name counts as used when the module reads it (including inside a quoted
annotation) or lists it in ``__all__``, so a stale ``__all__`` entry would
pass the first check; the second imports each module and looks the entries up.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfrac"
TESTS = Path(__file__).resolve().parent


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


def unbound_code_names(text: str, modules: dict[str, types.ModuleType]) -> list[str]:
    """The `module.name` spans of text, for a module of modules, that the
    module does not bind; a file name such as `checks.py` is not one."""
    spans = re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`", text)
    return [f"{module}.{name}" for module, name in dict.fromkeys(spans)
            if module in modules and name != "py" and not hasattr(modules[module], name)]


def test_detects_a_stale_code_name():
    module = types.ModuleType("core")
    module._KEPT = 1
    text = "`core._KEPT`, `core._GONE`, `core.py`, `math.inf` and `other._X`"
    assert unbound_code_names(text, {"core": module}) == ["core._GONE"]


def test_readme_code_names_exist():
    modules = {p.stem: importlib.import_module(f"qfrac.{p.stem}")
               for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__")}
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    assert unbound_code_names(readme, modules) == []


def private_callables(tree: ast.Module):
    """(shown name, the name calls use, def, whether it takes self) for each
    top-level private function and each method of a private class (__init__
    is called by the class name; other dunder methods by no name)."""
    private = lambda name: name.startswith("_") and not name.startswith("__")
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and private(node.name):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef) and private(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not item.name.startswith("__")
                ):
                    called = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", called, item, True


def called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def default_misuses(sources: dict[str, str]) -> list[str]:
    """Defaults of private helpers that no call passes (the parameter is a
    constant) or that every call overrides (the default is dead).  A helper
    also used as a value (passed to memo, partial, map; an annotation is not
    a use) is skipped, as is a call with *args or **kwargs."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    calls = {}
    for node in nodes:
        if isinstance(node, ast.Call):
            calls.setdefault(called_name(node), []).append(node)
    # Names that are called or that annotate are not values.
    skipped = {id(call.func) for found in calls.values() for call in found}
    skipped |= {id(sub) for node in nodes
                for part in (getattr(node, "annotation", None), getattr(node, "returns", None))
                if part is not None for sub in ast.walk(part)}
    values = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in nodes
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        and id(node) not in skipped
    }
    found = []
    for module, tree in trees.items():
        for shown, called, node, method in private_callables(tree):
            if called in values:
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][1 if method else 0:]
            defaults = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaults += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            known = [c for c in calls.get(called, ())
                     if not any(isinstance(a, ast.Starred) for a in c.args)
                     and all(k.arg is not None for k in c.keywords)]
            for name in defaults:
                index = positional.index(name) if name in positional else None
                passed = [(index is not None and len(c.args) > index)
                          or any(k.arg == name for k in c.keywords) for c in known]
                if not any(passed):
                    found.append(f"{module} line {node.lineno}: {shown}({name}=) is never passed")
                elif all(passed):
                    found.append(f"{module} line {node.lineno}: {shown}({name}=) is always passed")
    return found


def test_detects_a_default_with_one_use_pattern():
    sources = {
        "a.py": (
            "def _sum(terms, *, finite=False, where=('series',), scale=1.0):\n"
            "    return terms\n"
            "def _mapped(x, y=1):\n"
            "    return x\n"
            "class _Memo(dict):\n"
            "    def __init__(self, fill, end=None):\n"
            "        self.fill = fill\n"
            "    def __missing__(self, key, spare=0):\n"
            "        return key\n"
            "    def cells(self, e, step=1) -> _Memo:\n"
            "        return e\n"
        ),
        "b.py": (
            "from .a import _sum, _mapped, _Memo\n"
            "_sum([1], where=('a',))\n"
            "_sum([2], finite=True, where=('b',))\n"
            "list(map(_mapped, [1]))\n"
            "_Memo(len).cells(0)\n"
            "_Memo(len, 3).cells(0, 2)\n"
            "_Memo(len).cells(1)\n"
            "m: _Memo = _Memo(len, 2)\n"
        ),
    }
    assert default_misuses(sources) == [
        "a.py line 1: _sum(where=) is always passed",
        "a.py line 1: _sum(scale=) is never passed",
    ]
    # With the call that passes end gone, end is never passed.
    sources["b.py"] = sources["b.py"].replace("_Memo(len, 3)", "_Memo(len)")
    sources["b.py"] = sources["b.py"].replace("_Memo(len, 2)", "_Memo(len)")
    assert default_misuses(sources)[2:] == ["a.py line 6: _Memo.__init__(end=) is never passed"]


def test_every_default_has_two_use_patterns():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert default_misuses(sources) == []


def repeated_definitions(source: str) -> list[str]:
    """Top-level functions and classes, and methods of each class, defined
    again in the same body: the later one shadows the earlier, whose code
    then runs nowhere (a test class's tests are collected once)."""
    found = []

    def scan(body: list, prefix: str) -> None:
        first = {}
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in first:
                    found.append(f"line {node.lineno}: {prefix}{node.name} "
                                 f"(first at line {first[node.name]})")
                first.setdefault(node.name, node.lineno)
                if isinstance(node, ast.ClassDef):
                    scan(node.body, f"{prefix}{node.name}.")

    scan(ast.parse(source).body, "")
    return found


def test_detects_a_repeated_definition():
    source = (
        "def helper(): pass\n"
        "class TestPlan:\n"
        "    def test_a(self): pass\n"
        "    def test_a(self): pass\n"
        "def helper(): pass\n"
        "class TestPlan:\n"
        "    def test_b(self): pass\n"
        "def test_a(): pass\n"
    )
    assert repeated_definitions(source) == [
        "line 4: TestPlan.test_a (first at line 3)",
        "line 5: helper (first at line 1)",
        "line 6: TestPlan (first at line 2)",
    ]


def test_no_definition_is_repeated():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [f"{path.name} {found}" for path in paths
            for found in repeated_definitions(path.read_text(encoding="utf-8"))] == []


def fsum_uses(source: str) -> list[int]:
    """The lines of source that read math.fsum, as an attribute or by a name
    imported from math."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "math"
             for alias in node.names if alias.name == "fsum"}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "fsum"
                   or isinstance(node, ast.Name) and node.id in names})


def test_detects_an_fsum_outside_core():
    source = (
        "import math\n"
        "from math import fsum as add\n"
        "total = math.fsum([1.0, 2.0])\n"
        "total += add([3.0])\n"
        "sums = list(map(math.fsum, [[1.0]]))\n"
        "size = math.fabs(total)\n"
    )
    assert fsum_uses(source) == [3, 4, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "core.py"))
def test_only_core_reads_fsum(module):
    assert fsum_uses((SRC / module).read_text(encoding="utf-8")) == []


def rel_tol_reads(source: str) -> list[int]:
    """The lines of source that read rel_tol, as an attribute (p.trunc.rel_tol)
    or a name; the word in a docstring or comment is no read."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr == "rel_tol"
                   and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Name) and node.id == "rel_tol"
                   and isinstance(node.ctx, ast.Load)})


def test_detects_a_rel_tol_read():
    source = (
        '"""Stops whatever rel_tol."""\n'
        "tol = p.trunc.rel_tol\n"
        "rel_tol = 1e-12  # bound, not read\n"
        "count = math.log(rel_tol)\n"
        "getattr(trunc, 'rel_tol')\n"
    )
    assert rel_tol_reads(source) == [2, 4]


def test_special_reads_no_rel_tol():
    # Products and e_q stop where their rest is provably below rounding, so
    # no function of special depends on the stopping rule's tolerance.
    assert rel_tol_reads((SRC / "special.py").read_text(encoding="utf-8")) == []


def behaviourless_classes(source: str) -> list[str]:
    """The classes of source, at any depth, that have no decorator, no base
    class and no method but __init__: state passed around with no behaviour
    of its own."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    return [f"line {node.lineno}: {node.name}"
            for node in sorted(classes, key=lambda node: node.lineno)
            if not node.decorator_list and not node.bases and not node.keywords
            and {item.name for item in node.body
                 if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))} <= {"__init__"}]


def test_detects_a_class_with_no_behaviour():
    source = (
        "class _Record:\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n"
        "        self.a = a\n"
        "class _Empty:\n"
        "    pass\n"
        "class _Counter:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def bump(self):\n"
        "        self.n += 1\n"
        "class Failure(Exception):\n"
        "    pass\n"
        "@dataclass\n"
        "class Params:\n"
        "    q: float\n"
        "def make():\n"
        "    class _Local:\n"
        "        def __init__(self):\n"
        "            pass\n"
        "    return _Local\n"
    )
    assert behaviourless_classes(source) == ["line 1: _Record", "line 5: _Empty",
                                             "line 18: _Local"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_class_without_behaviour(module):
    assert behaviourless_classes((SRC / module).read_text(encoding="utf-8")) == []


def numeric_parameters(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Top-level function or class -> the parameters annotated float or int
    that it takes, in order: a function's, or a class's fields and then those
    of its __init__ and __call__ (the calls of a built instance)."""
    numeric = lambda node: isinstance(node, ast.Name) and node.id in ("float", "int")
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = tuple(a.arg for a in node.args.args if numeric(a.annotation))
        elif isinstance(node, ast.ClassDef):
            names = [item.target.id for item in node.body
                     if isinstance(item, ast.AnnAssign) and numeric(item.annotation)]
            names += [a.arg for item in node.body if isinstance(item, ast.FunctionDef)
                      and item.name in ("__init__", "__call__")
                      for a in item.args.args if numeric(a.annotation)]
            found[node.name] = tuple(names)
    return found


def contract_gaps(sources: dict[str, str], exported: list[str],
                  rows: dict[str, tuple]) -> list[str]:
    """The exported names that take a numeric parameter and have no row of
    rows (name -> (parameter names, kinds...)) naming those parameters in
    order, and the rows that name no such callable."""
    taken = {}
    for source in sources.values():
        taken.update(numeric_parameters(ast.parse(source)))
    wanted = {name: taken[name] for name in exported if taken.get(name)}
    found = [f"{name}{params}: no row" if name not in rows
             else f"{name}{params}: its row names {rows[name][0]}"
             for name, params in wanted.items() if rows.get(name, ((),))[0] != params]
    return found + [f"{name}: a row of no entry point" for name in rows if name not in wanted]


def test_detects_an_entry_point_outside_the_contract():
    sources = {
        "a.py": (
            "def checked(f, t: float, n: int, p): pass\n"
            "def unchecked(x: float): pass\n"
            "def reordered(a: float, t: float): pass\n"
            "def plain(f, p): pass\n"
            "def _private(x: float): pass\n"
        ),
        "b.py": (
            "@dataclass\n"
            "class Params:\n"
            "    q: float\n"
            "    trunc: Truncation = None\n"
            "class Solution:\n"
            "    def __init__(self, rule, method: str): pass\n"
            "    def __call__(self, t: float): pass\n"
        ),
    }
    exported = ["checked", "unchecked", "reordered", "plain", "Params", "Solution"]
    rows = {"checked": (("t", "n"), None, None), "reordered": (("t", "a"), None),
            "Params": (("q",), None), "gone": (("x",), None)}
    assert contract_gaps(sources, exported, rows) == [
        "unchecked('x',): no row",
        "reordered('a', 't'): its row names ('t', 'a')",
        "Solution('t',): no row",
        "gone: a row of no entry point",
    ]


def test_every_numeric_entry_point_has_a_contract_row():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    qfrac = importlib.import_module("qfrac")
    rows = importlib.import_module("qfrac.core")._DOMAINS
    assert contract_gaps(sources, qfrac.__all__, rows) == []
