"""Every name a module of src/pasan imports is used in that module;
every function, class and constant it defines at module level is named
somewhere in src/, tests/ or perfbench/ outside its own definition; and
every attribute its classes store on self is read somewhere there; and
every local a function of it assigns is read in that function; and
every `__slots__` entry of its classes is assigned on self there.  No
test module imports another: code they share lives in tests/helpers.py.

A name counts as used where code reads it or imports it, where the
package's `__init__.py` lists it in `__all__`, and where it appears in a
string constant that is not a docstring: the op templates in interp
reach their globals through source they generate, and tests and the
tracer patch attributes by name.  Comments and docstrings name nothing,
and neither does the `__all__` of another src/pasan module, so that it
cannot hide a dead name.  An attribute counts as read where code loads
it, or where a string constant other than a docstring or a `__slots__`
entry spells it whole.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pasan"


def _parse(path: Path) -> ast.Module:
    """path's tree, less the `__all__` of a src/pasan module other than
    `__init__.py`."""
    tree = ast.parse(path.read_text())
    if path.parent == SRC and path.name != "__init__.py":
        tree.body = [stmt for stmt in tree.body if not (isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets))]
    return tree


def _tree() -> tuple[dict[str, ast.Module], set[str]]:
    """Every module of src/, tests/ and perfbench/, parsed, by its path
    from the repository root; and the paths of the src/pasan ones."""
    paths = [path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")]
    sources = {str(path.relative_to(ROOT)): _parse(path) for path in paths}
    return sources, {str(path.relative_to(ROOT)) for path in SRC.glob("*.py")}


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of tree's docstring constants."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}


def _string_words(node, docstrings: set[int]) -> set[str]:
    return {word for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and id(sub) not in docstrings for word in re.findall(r"\w+", sub.value)}


def unused_imports(tree: ast.Module) -> list[str]:
    """The names tree's imports bind and nothing in it uses, sorted."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used - _string_words(tree, _docstrings(tree)))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(func):
    """func's nodes, less those of the functions nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(tree: ast.Module) -> list[str]:
    """Each name a function of tree assigns and never reads, `_` and the
    names it declares global or nonlocal aside, as "function.name",
    sorted.  A function's reads include those of the functions nested in
    it, which may read its locals as closures."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS[:2]):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        stored, shared = set(), {"_"}
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        found.update(f"{func.name}.{name}" for name in stored - read - shared)
    return sorted(found)


def _defines(stmt) -> list[str]:
    """The module-level names a top-level statement defines, dunders aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and not node.id.startswith("__")]


def _names(stmt, docstrings: set[int]) -> set[str]:
    """The names a statement reads, imports or spells in a string."""
    names = _string_words(stmt, docstrings)
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def unused_definitions(sources: dict[str, ast.Module], checked: set[str]) -> list[str]:
    """Each module-level function, class and constant of a module in
    checked that no top-level statement of any source names, bar its own
    definition, as "module.name", sorted."""
    defined, named = [], []
    for module, tree in sources.items():
        docstrings = _docstrings(tree)
        for stmt in tree.body:
            named.append((stmt, _names(stmt, docstrings)))
            if module in checked:
                defined += [(module, name, stmt) for name in _defines(stmt)]
    return sorted(f"{module}.{name}" for module, name, stmt in defined
                  if not any(name in names for other, names in named if other is not stmt))


def _is_property(func) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" or
               isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
               for d in func.decorator_list)


def unused_methods(sources: dict[str, ast.Module], checked: set[str]) -> list[str]:
    """Each method of a module-level class of a module in checked,
    dunders and properties aside, that no statement of any source names
    bar its own definition, as "module.Class.method", sorted.  A class
    body counts as its statements, so a method another method of its
    class calls is named."""
    units, methods = [], []
    for module, tree in sources.items():
        docstrings = _docstrings(tree)
        for stmt in tree.body:
            if not isinstance(stmt, ast.ClassDef):
                units.append((stmt, _names(stmt, docstrings)))
                continue
            header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
            units.append((stmt, set().union(*(_names(node, docstrings) for node in header))))
            for item in stmt.body:
                units.append((item, _names(item, docstrings)))
                if module in checked and isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("__") and not _is_property(item):
                    methods.append((f"{module}.{stmt.name}.{item.name}", item))
    return sorted(name for name, func in methods
                  if not any(func.name in names for unit, names in units if unit is not func))


def _slots(tree: ast.AST) -> set[int]:
    """The ids of the constants in tree's `__slots__` assignments."""
    return {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
            for node in ast.walk(stmt.value)}


def _stored_on_self(cls: ast.ClassDef) -> set[str]:
    """The attributes cls's code assigns on self."""
    return {node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def stale_slots(tree: ast.Module) -> list[str]:
    """Each `__slots__` entry of a module-level class of tree that the
    class never assigns on self, as "Class.slot", sorted."""
    found = []
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            slots, stored = _slots(cls), _stored_on_self(cls)
            found += [f"{cls.name}.{node.value}" for node in ast.walk(cls)
                      if id(node) in slots and isinstance(node, ast.Constant)
                      and node.value not in stored]
    return sorted(found)


def unused_attributes(sources: dict[str, ast.Module], checked: set[str]) -> list[str]:
    """Each attribute a module-level class of a module in checked stores
    on self that no source reads, as "module.Class.attribute", sorted."""
    read, stored = set(), {}
    for module, tree in sources.items():
        skip = _docstrings(tree) | _slots(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in skip:
                read.add(node.value)
        if module not in checked:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for attr in _stored_on_self(cls):
                stored[f"{module}.{cls.name}.{attr}"] = attr
    return sorted(name for name, attr in stored.items() if attr not in read)


def imported_test_modules(tree: ast.Module) -> list[str]:
    """The test_* modules tree imports, sorted."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
    return sorted(name for name in found if name.partition(".")[0].startswith("test_"))


def test_imported_test_modules_finds_only_test_modules():
    tree = ast.parse('''\
import test_cli, pytest
from test_miniir import looping_cfgs
from helpers import test_like_name
from . import test_relative
def helper():
    import test_runtime.sub
''')
    assert imported_test_modules(tree) == ["test_cli", "test_miniir", "test_runtime.sub"]


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("test_*.py")), ids=lambda p: p.stem)
def test_module_imports_no_test_module(path):
    assert imported_test_modules(ast.parse(path.read_text())) == []


def test_unused_imports_finds_only_unused_names():
    tree = ast.parse('''\
"""Docstring naming dead."""
from __future__ import annotations
import os.path
import json as dead
from re import compile, dead2
from typing import Listed
from string import Template
__all__ = ["Listed"]
TEMPLATE = "compile({0})"
os.path.join(Template)
''')
    assert unused_imports(tree) == ["dead", "dead2"]


def test_unused_locals_finds_only_unread_ones():
    tree = ast.parse('''\
COUNT = 0
def scan(items):
    """Names dead."""
    global COUNT
    seen, dead = set(), 0
    total = 0
    for _, item in items:
        seen.add(item)
        total += item
        COUNT = len(seen)
    def nested():
        inner = 1
        return seen
    return nested
''')
    assert unused_locals(tree) == ["nested.inner", "scan.dead", "scan.total"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_reads_every_local(path):
    assert unused_locals(_parse(path)) == []


def test_unused_definitions_finds_only_unnamed_ones():
    lib = ast.parse('''\
"""Docstring naming DEAD and Dead."""
import os
__all__ = ["exported"]
CONST = 1
DEAD, PAIR = 2, 3
TEMPLATE = "templated({0})"
def used(): return CONST + PAIR
def exported(): pass
def templated(): pass
def recursive(): return recursive()
class Dead:
    """Names Dead."""
class Patched: pass
os.path.join(TEMPLATE)
''')
    user = ast.parse('''\
from lib import used
import lib
used()  # Dead
lib.Patched = setattr(lib, "exported", None)
''')
    assert unused_definitions({"lib": lib, "user": user}, {"lib"}) == \
        ["lib.DEAD", "lib.Dead", "lib.Patched", "lib.recursive"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_no_unused_name(path):
    assert unused_imports(_parse(path)) == []


def test_every_module_level_definition_is_named():
    sources, checked = _tree()
    assert unused_definitions(sources, checked) == []


def test_unused_methods_finds_only_unnamed_ones():
    lib = ast.parse('''\
"""Docstring naming dead."""
class Runtime:
    """Names dead and helper."""
    def __init__(self): self.used()
    def used(self): return self.helper()  # dead
    def helper(self): pass
    def dead(self): pass
    def recursive(self): return self.recursive()
    def patched(self): pass
    def templated(self): pass
    @property
    def prop(self): return 1
    @prop.setter
    def prop(self, value): pass
    @staticmethod
    def static(): pass
TEMPLATE = "rt.templated()"
''')
    user = ast.parse('''\
from lib import Runtime
setattr(Runtime, "patched", Runtime.static)
''')
    assert unused_methods({"lib": lib, "user": user}, {"lib"}) == \
        ["lib.Runtime.dead", "lib.Runtime.recursive"]


def test_every_method_is_named():
    sources, checked = _tree()
    assert unused_methods(sources, checked) == []


def test_unused_attributes_finds_only_unread_ones():
    lib = ast.parse('''\
"""Docstring naming dead."""
class Frame:
    """Names dead and counted."""
    __slots__ = ("slotted", "loaded")
    def __init__(self):
        self.loaded, self.slotted = 1, 2
        self.dead = {}  # dead
        self.counted = 0
        self.bound = self.spelled = None
    def step(self):
        self.counted += 1
        return self.loaded
TEMPLATE = "interp.spelled.get({0})"
NAMES = ("bound",)
''')
    user = ast.parse('''\
from lib import Frame
Frame().step()
''')
    assert unused_attributes({"lib": lib, "user": user}, {"lib"}) == \
        ["lib.Frame.counted", "lib.Frame.dead", "lib.Frame.slotted", "lib.Frame.spelled"]


def test_every_stored_attribute_is_read():
    sources, checked = _tree()
    assert unused_attributes(sources, checked) == []


def test_stale_slots_finds_only_unassigned_ones():
    tree = ast.parse('''\
class Frame:
    __slots__ = ("label", "rest", "regs", "counted", "idx", "gone")
    def __init__(self, label, rest):
        self.label, self.rest = label, rest
        self.regs = regs = {}
        other.idx = 0
    def step(self):
        self.counted += 1
        return self.gone
class Plain:
    __slots__ = "only"
''')
    assert stale_slots(tree) == ["Frame.gone", "Frame.idx", "Plain.only"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_assigns_every_slot(path):
    assert stale_slots(_parse(path)) == []
