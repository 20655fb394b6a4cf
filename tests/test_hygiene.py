"""Source hygiene of the package: the standard library is its only
dependency, no float enters its exact arithmetic, importing it loads few
modules, and no import, private helper or public function is left without a
user."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "isotypic").glob("*.py"))
# the code that may call the package: the package itself, the scripts, the
# demos and the benchmark, but not the tests
CALLERS = [path for top in ("src", "scripts", "demos", "perfbench")
           for path in sorted((ROOT / top).rglob("*.py"))]


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


def _bound_names(node):
    """The names an import statement binds, but ``from __future__``'s."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _references(tree, bare=True):
    """Every name the module reads as an attribute or by import, and, when
    bare, as a bare name too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if bare:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    """A name a module imports is read in it: the package's ``__init__``
    re-exports, but no other module imports a name for another to use."""
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    assert [name for name in imported if name not in used] == []


def test_every_private_function_is_called():
    """Each private module-level function is referenced somewhere in the
    package, so a helper that nothing calls is deleted with its last caller."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
              and node.name not in referenced]
    assert unused == []


def _public_functions(tree):
    """(name, referenced name, is a method) of each public module-level
    function and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name, True) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_every_public_function_is_called():
    """Each public function and method of the package is referenced from the
    package, the scripts, the demos or the benchmark: by attribute, import or
    string constant, as the benchmark wraps methods by name, and a function
    also by bare name.  A bare name never counts for a method: a local
    variable ``matrix`` does not call ``MatrixRep.matrix``.  The re-exports
    of the package's ``__init__`` are not references."""
    named, bare = set(), set()
    for path in CALLERS:
        tree = ast.parse(path.read_text(), str(path))
        if path != ROOT / "src" / "isotypic" / "__init__.py":
            named.update(_references(tree, bare=False))
            bare.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        named.update(node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    unused = [f"{path.name}:{name}" for path in SOURCES
              for name, ref, method in _public_functions(ast.parse(path.read_text(), str(path)))
              if ref not in named and (method or ref not in bare)]
    assert unused == []


def test_the_scan_sees_the_package():
    assert len(SOURCES) > 10
    assert any(p.name == "numberfield.py" for p in SOURCES)
    assert {p.parent.name for p in CALLERS} >= {"isotypic", "scripts", "demos", "perfbench"}


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
