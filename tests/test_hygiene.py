"""Source hygiene of the package: the standard library is its only
dependency, no float enters its exact arithmetic, and importing it loads
few modules."""

import ast
import subprocess
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


# what ``import isotypic`` may load besides its own modules
IMPORT_PATH_MODULES = {"__future__", "_decimal", "decimal", "fractions", "numbers"}


def test_import_loads_few_modules():
    """A stray import of a heavy module (dataclasses, inspect) on the import
    path would add its load time to every command."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import isotypic; print(*sorted(set(sys.modules) - before))")
    loaded = subprocess.run([sys.executable, "-I", "-B", "-c", code, src],
                            capture_output=True, text=True, check=True).stdout.split()
    assert "isotypic.groups" in loaded
    assert {m for m in loaded if m.split(".")[0] != "isotypic"} <= IMPORT_PATH_MODULES
