"""Source hygiene of the package: the standard library is its only
dependency, and no float enters its exact arithmetic."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "isotypic").glob("*.py"))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "isotypic" if node.level else node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_isotypic(path):
    tree = ast.parse(path.read_text(), str(path))
    foreign = [name for name in _imported_modules(tree)
               if name.split(".")[0] not in sys.stdlib_module_names | {"isotypic"}]
    assert foreign == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    tree = ast.parse(path.read_text(), str(path))
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
             or (isinstance(node, ast.Name) and node.id == "float")]
    assert found == []


def test_the_scan_sees_the_package():
    assert len(SOURCES) > 10
    assert any(p.name == "numberfield.py" for p in SOURCES)
