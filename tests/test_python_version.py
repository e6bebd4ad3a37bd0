"""Every module of the package and of ``scripts`` parses as Python 3.10, the
oldest version that ``pyproject.toml`` allows, whichever Python runs the suite."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/dffr/*.py"), *ROOT.glob("scripts/*.py")])


def test_both_trees_have_modules():
    assert {path.parent.name for path in MODULES} == {"dffr", "scripts"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
