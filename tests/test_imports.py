"""Every name a ``dpalg`` module imports is used in its code or in one of its
docstring examples.  ``__init__`` is exempt: its imports are re-exports."""

import ast
import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpalg

SOURCES = sorted(p for p in Path(dpalg.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names bound by the module's import statements."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def loaded_names(tree):
    """The names read anywhere in ``tree``, attribute chains by their root."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def docstring_example_names(tree):
    """The names read by the examples of every docstring in the module."""
    parser = doctest.DocTestParser()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for example in parser.get_examples(ast.get_docstring(node) or ""):
                names |= loaded_names(ast.parse(example.source))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = imported_names(tree) - loaded_names(tree) - docstring_example_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def test_an_unused_import_is_caught():
    tree = ast.parse('"""\n>>> print(ZZ)\n"""\nfrom math import gcd, comb\nfrom .coeff import ZZ\ncomb(3, 1)\n')
    assert imported_names(tree) - loaded_names(tree) - docstring_example_names(tree) == {"gcd"}


# Stdlib modules that cost start-up time every ``dpalg`` command would pay:
# ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
# ``random`` is needed only by the randomized checkers, which import it, and
# ``json`` only by ``--json`` output, which imports it.
SLOW_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize", "random", "json")


def test_cli_import_loads_no_slow_stdlib_module():
    """``-S`` skips the site hooks, which may preload or hide modules."""
    src = str(Path(dpalg.__file__).parents[1])
    code = f"import sys, dpalg.cli; print(sorted(set(sys.modules) & {set(SLOW_STDLIB)!r}))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
