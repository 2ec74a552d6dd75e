"""Every name a library module imports is used in that module.

The package ``__init__`` is left out: its imports are the public API.
Annotations count as uses, string annotations included.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "bibounds"
MODULES = sorted(p.name for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
    return names


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations(tree)
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SOURCE / module).read_text(), filename=module)
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from x import a, b\nimport c.d\n"
                     "def f(v: 'a') -> None:\n    return v\n")
    assert imported_names(tree) - used_names(tree) == {"b", "c"}
