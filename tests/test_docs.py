"""Every docstring example in the package runs and prints what it shows."""

import doctest
import importlib
import pkgutil

import pytest

import dpalg

MODULES = ["dpalg"] + [f"dpalg.{info.name}" for info in pkgutil.iter_modules(dpalg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
