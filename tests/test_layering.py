"""No racekde module imports or reads an underscore name of a sibling
module, none but io opens a file, none but counters counts keys, and the
counter stores raise no OverflowError, so every rule stays behind the
module that owns it."""

import ast
from pathlib import Path

import pytest

import racekde

SRC = Path(racekde.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))
SIBLINGS = {name[: -len(".py")] for name in MODULES}


def private_sibling_names(tree: ast.AST):
    """Underscore names a module imports from a sibling racekde module, or
    reads off a name bound to a sibling module (``lsh._CACHE``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("racekde.")
            if module in SIBLINGS and (node.level or node.module.startswith("racekde.")):
                yield from (a.name for a in node.names if a.name.startswith("_"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in SIBLINGS
            and node.attr.startswith("_")
        ):
            yield node.attr


# The test keeps the name it had when it guarded the lsh module alone.
@pytest.mark.parametrize("module", MODULES)
def test_no_private_lsh_names(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert list(private_sibling_names(tree)) == []


def test_guard_sees_private_imports():
    tree = ast.parse(
        "from .lsh import _blocks, hash_all\nfrom . import lsh\nlsh._CACHE\n"
        "from racekde.counters import _top, tally\nfrom .sketch import RaceSketch\n"
        "vectors._helper\nfrom numpy import _private\n"
    )
    assert sorted(private_sibling_names(tree)) == ["_CACHE", "_blocks", "_helper", "_top"]


def overflow_raises(tree: ast.AST):
    """Line numbers of the ``raise OverflowError`` statements of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "OverflowError":
                yield node.lineno


# RaceSketch's item count bounds every counter, so no store checks one.
def test_counter_stores_raise_no_overflow():
    tree = ast.parse((SRC / "counters.py").read_text(), filename="counters.py")
    assert list(overflow_raises(tree)) == []


def test_overflow_guard_sees_raises():
    tree = ast.parse(
        "raise OverflowError('counter')\nraise ValueError('x')\nraise OverflowError\n"
        "try:\n    pass\nexcept OverflowError:\n    raise\n"
        "if x:\n    raise OverflowError('x') from None\n"
    )
    assert list(overflow_raises(tree)) == [1, 3, 9]


def builtin_open_calls(tree: ast.AST):
    """Line numbers of the calls of the builtin ``open`` in a module."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
        ):
            yield node.lineno


# io owns opening files; every other module takes its files through io.opened.
@pytest.mark.parametrize("module", [m for m in MODULES if m != "io.py"])
def test_only_io_opens_files(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert list(builtin_open_calls(tree)) == []


def test_open_guard_sees_builtin_calls():
    tree = ast.parse(
        "with open(path, 'rb') as f:\n    pass\nopened(path)\nf.open()\n"
        "x = [open(p) for p in paths]\n"
    )
    assert list(builtin_open_calls(tree)) == [1, 5]


def counting_calls(tree: ast.AST):
    """Line numbers of the calls that count keys in a module: np.bincount,
    np.unique and a ufunc's ``.at``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            numpy_call = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
            if func.attr == "at" or (numpy_call and func.attr in ("bincount", "unique")):
                yield node.lineno


# counters owns counting flat keys; every other module hands it the keys.
@pytest.mark.parametrize("module", [m for m in MODULES if m != "counters.py"])
def test_only_counters_counts_keys(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert list(counting_calls(tree)) == []


def test_count_guard_sees_counting_calls():
    tree = ast.parse(
        "np.add.at(a, i, 1)\nnp.bincount(k)\nx.unique()\nnumpy.unique(k)\n"
        "np.add(a, b)\nnp.subtract.at(a, i, c)\nnp.intersect1d(a, b)\n"
    )
    assert list(counting_calls(tree)) == [1, 2, 4, 6]
