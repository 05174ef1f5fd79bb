"""Each function's three facts, its Dominance (`dom`), the registers it
defines (`names`) and its register types (`types`), have one producer:
`validate` sets them, and every later stage hands them on.  Pinned over
every shipped program and generated shapes, and by lints over
src/pasan."""
import ast
import random
from pathlib import Path

from helpers import (defined_names, fields, function_types, loop_nest,
                     random_instrumented_program, straight_line_program)
from pasan.instrument import instrument
from pasan.miniir import Dominance, format_program, parse, validate
from pasan.optpasses import PASS_SETS, run_passes

SRC = Path(__file__).resolve().parent.parent / "src" / "pasan"
FACTS = ("Dominance", "function_types")
STORED = ("dom", "types")  # the facts a stage hands on as they are


def programs(corpus_dir, data_dir):
    """(name, text) of every shipped program, then of generated shapes:
    seeded random instrumented programs, a 100-block straight line and
    a nest of loops whose phis are typed only through one another."""
    for path in [*sorted(corpus_dir.glob("*.ir")), *sorted(data_dir.glob("*.ir"))]:
        yield path.name, path.read_text()
    for seed in range(20):
        yield f"random{seed}", format_program(random_instrumented_program(random.Random(seed)))
    yield "straight_line", straight_line_program(100)[0]
    yield "loop_nest", loop_nest(50)


def test_validate_sets_the_facts_and_each_stage_hands_them_on(corpus_dir, data_dir):
    for name, text in programs(corpus_dir, data_dir):
        prog = parse(text)
        validate(prog)
        for func in prog.functions.values():
            where = (name, func.name)
            assert func.names == defined_names(func), where
            assert func.types == function_types(prog, func), where
            assert type(func.dom) is Dominance, where
            assert fields(func.dom) == fields(Dominance(func)), where
        built = prog if prog.instrumented else instrument(prog)
        for opts, src, out in [("instrument", prog, built),
                               *((opts, built, run_passes(built, opts)) for opts in PASS_SETS)]:
            for fname, func in out.functions.items():
                where = (name, opts, fname)
                assert func.dom is src.functions[fname].dom, where
                assert func.types is src.functions[fname].types, where
                assert func.names == defined_names(func), where


def nodes_in(tree: ast.Module):
    """Each node of tree, in source order, with the qualified name of the
    class or function it is in ("<module>" outside any)."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            yield where, child
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name if where == "<module>" else
                                 f"{where}.{child.name}")
            else:
                yield from visit(child, where)
    return visit(tree, "<module>")


def fact_producers(tree: ast.Module) -> list[str]:
    """Each call in tree of Dominance or function_types, by name or as an
    attribute, each import of either under another name and each
    definition of a function so named, as "where: name", in source
    order."""
    found = []
    for where, node in nodes_in(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in FACTS:
                found.append(f"{where}: {name}")
        elif isinstance(node, ast.alias) and node.name in FACTS and node.asname:
            found.append(f"{where}: {node.name} as {node.asname}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in FACTS:
            found.append(f"{where}: def {node.name}")
    return found


def fact_writers(tree: ast.Module) -> list[str]:
    """Each store in tree to a `dom` or `types` attribute, as an
    assignment target (in a tuple too), an augmented or annotated one or
    by setattr with the name written out, as "where: attribute", in
    source order."""
    found = []
    for where, node in nodes_in(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            attr = node.attr
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr" \
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            attr = node.args[1].value
        else:
            continue
        if attr in STORED:
            found.append(f"{where}: {attr}")
    return found


def test_fact_producers_finds_every_call_and_alias():
    tree = ast.parse('''\
from .miniir import Dominance, function_types as infer
DOM = Dominance(None)
class Stage:
    def run(self, func):
        def nested():
            return miniir.function_types(None, func)
        return nested, self.dominance(func), infer
def _validate_function(prog, func):
    func.dom = Dominance(func)
def function_types(prog, func):
    return {}
''')
    assert fact_producers(tree) == [
        "<module>: function_types as infer", "<module>: Dominance",
        "Stage.run.nested: function_types", "_validate_function: Dominance",
        "<module>: def function_types"]


def test_fact_writers_finds_every_store():
    tree = ast.parse('''\
class Function:
    def __init__(self, dom, names, types):
        self.dom, self.names, self.types = dom, names, types
def stage(func, other):
    func.types |= {}
    other.dom: object = None
    setattr(func, "types", None)
    (func.names, [func.dom]) = (set(), [None])
    return func.types, func.dom.pre, getattr(func, "dom")
''')
    assert fact_writers(tree) == [
        "Function.__init__: dom", "Function.__init__: types", "stage: types", "stage: dom",
        "stage: types", "stage: dom"]


def test_validate_is_the_one_producer_of_the_facts():
    found = {path.name: fact_producers(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {
        "miniir.py": ["_validate_function: Dominance"]}


def test_validate_is_the_one_writer_of_dom_and_types():
    found = {path.name: fact_writers(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: stores for name, stores in found.items() if stores} == {
        "miniir.py": ["Function.__init__: dom", "Function.__init__: types",
                      "_validate_function: dom", "_validate_function: types"]}
