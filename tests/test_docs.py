"""Every docstring example in the package runs and prints what it shows, and
so do the README examples that state their output."""

import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import dpalg
from dpalg.cli import run

MODULES = ["dpalg"] + [f"dpalg.{info.name}" for info in pkgutil.iter_modules(dpalg.__path__)]
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def _first_block(section, lang):
    """The first fenced ``lang`` block after the README heading ``section``."""
    text = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def test_readme_library_tour(capsys):
    # Each `print(...)  # expected` line of the tour prints `expected`.
    code = _first_block("Library tour", "python")
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    exec(code, {})
    out = capsys.readouterr().out.splitlines()
    assert expected and out == expected


def _cli_examples():
    """(argv, expected) for each `dpalg ...` line followed by a `# expected` line."""
    lines = _first_block("CLI", "sh").splitlines()
    return [
        (shlex.split(line)[1:], following[2:])
        for line, following in zip(lines, lines[1:])
        if line.startswith("dpalg ") and following.startswith("# ")
    ]


CLI_EXAMPLES = _cli_examples()


def test_readme_cli_examples_are_found():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == ["normalize", "gamma", "diff"]


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES, ids=[argv[0] for argv, _ in CLI_EXAMPLES])
def test_readme_cli_example(capsys, argv, expected):
    assert run(argv) == 0
    assert capsys.readouterr().out.rstrip("\n") == expected
