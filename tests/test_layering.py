"""The modules built on the hash layer use only its public names."""

import ast
from pathlib import Path

import pytest

import racekde

SRC = Path(racekde.__file__).parent


def private_lsh_names(tree: ast.AST):
    """Underscore names a module imports from racekde.lsh, or reads off a
    module bound to the name ``lsh``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("lsh", "racekde.lsh"):
            yield from (a.name for a in node.names if a.name.startswith("_"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "lsh"
            and node.attr.startswith("_")
        ):
            yield node.attr


@pytest.mark.parametrize("module", ["sketch.py", "cli.py", "composite.py", "kernels.py"])
def test_no_private_lsh_names(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert list(private_lsh_names(tree)) == []


def test_guard_sees_private_imports():
    tree = ast.parse("from .lsh import _blocks, hash_all\nfrom . import lsh\nlsh._CACHE\n")
    assert list(private_lsh_names(tree)) == ["_blocks", "_CACHE"]
