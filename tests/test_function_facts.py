"""Each function's three facts, its Dominance (`dom`), the registers it
defines (`names`) and its register types (`types`), have one producer:
`validate` sets them, and every later stage hands them on.  Pinned over
every shipped program, and by a lint over src/pasan."""
import ast
from pathlib import Path

from helpers import defined_names, fields
from pasan.instrument import instrument
from pasan.miniir import Dominance, function_types, parse, validate
from pasan.optpasses import PASS_SETS, run_passes

SRC = Path(__file__).resolve().parent.parent / "src" / "pasan"
FACTS = ("Dominance", "function_types")


def test_validate_sets_the_facts_and_each_stage_hands_them_on(corpus_dir, data_dir):
    for path in [*sorted(corpus_dir.glob("*.ir")), *sorted(data_dir.glob("*.ir"))]:
        prog = parse(path.read_text())
        validate(prog)
        for func in prog.functions.values():
            where = (path.name, func.name)
            assert func.names == defined_names(func), where
            assert func.types == function_types(prog, func), where
            assert type(func.dom) is Dominance, where
            assert fields(func.dom) == fields(Dominance(func)), where
        built = prog if prog.instrumented else instrument(prog)
        for opts, src, out in [("instrument", prog, built),
                               *((opts, built, run_passes(built, opts)) for opts in PASS_SETS)]:
            for name, func in out.functions.items():
                where = (path.name, opts, name)
                assert func.dom is src.functions[name].dom, where
                assert func.types is src.functions[name].types, where
                assert func.names == defined_names(func), where


def fact_producers(tree: ast.Module) -> list[str]:
    """Each call in tree of Dominance or function_types, by name or as an
    attribute, and each import of either under another name, as
    "function: name" ("<module>" outside any function), in source order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in FACTS:
                    found.append(f"{where}: {name}")
            elif isinstance(child, ast.alias) and child.name in FACTS and child.asname:
                found.append(f"{where}: {child.name} as {child.asname}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else where)

    visit(tree, "<module>")
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
''')
    assert fact_producers(tree) == ["<module>: function_types as infer", "<module>: Dominance",
                                    "nested: function_types", "_validate_function: Dominance"]


def test_validate_is_the_one_producer_of_the_facts():
    found = {path.name: fact_producers(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {
        "miniir.py": ["_validate_function: Dominance", "_validate_function: function_types"]}
