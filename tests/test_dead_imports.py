"""Every name a module of src/pasan imports is used in that module.

A name counts as used where the module's code reads it, where `__all__`
lists it, and where it appears in a string constant that is not a
docstring: the op templates in interp reach their globals through
source they generate.
"""
import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pasan"


def unused_imports(tree: ast.Module) -> list[str]:
    """The names tree's imports bind and nothing in it uses, sorted."""
    imported, used, docstrings = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.add(id(node.body[0].value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            used.update(re.findall(r"\w+", node.value))
    return sorted(imported - used)


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_no_unused_name(path):
    assert unused_imports(ast.parse(path.read_text())) == []
