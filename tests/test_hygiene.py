"""Source hygiene: no module of the package imports a name it never uses,
or another module's private (underscore-prefixed) name."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fkpi_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "evolution.py", "grid.py",
                                         "norms.py", "probes.py", "symbols.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source):
    """Single-underscore names a module imports from a sibling module."""
    tree = ast.parse(source)
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level > 0
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text()) == []


def oracle_imports(source):
    """Lines of a module that import the test oracles, under any name."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("oracles" in name.split(".") for name in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_never_imports_the_test_oracles(path):
    assert oracle_imports(path.read_text()) == []


def test_detector_flags_oracle_imports():
    source = ("import oracles\nimport numpy as np\n"
              "from tests import oracles as o\nfrom oracles import picard_iterate\n"
              "def f():\n    import tests.oracles\n"
              "from .symbols import omega_arrays\n")
    assert oracle_imports(source) == [1, 3, 4, 6]


def test_detector_flags_private_names():
    source = ("from __future__ import annotations\n"
              "from . import __version__\n"
              "from .grid import _reflect, to_physical\n"
              "from numpy import _core\n")
    assert private_imports(source) == [(3, "_reflect")]


def test_detector_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom . import grid as _grid\n"
              "from .grid import a, b\n\nx = np.zeros(a)\n")
    assert unused_imports(source) == [(2, "os"), (4, "_grid"), (5, "b")]


# Public names that no package code calls, each kept for a stated reason.
UNCALLED_PUBLIC = {
    "parse_config": "library entry point: parses a JSON config without the CLI",
    "load_field": "the reader half of the FKPI1 file format that save_field writes",
}


def unreferenced_public(sources):
    """Public top-level defs and classes that no other top-level statement of
    the given sources reads; an import alone, such as an export, is no use."""
    statements = [node for source in sources for node in ast.parse(source).body]
    public = {node.name: node for node in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    named = set()
    for node in statements:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if public.get(name) is not node:
                named.add(name)
    return sorted(set(public) - named)


def test_no_dead_public_code():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_public(sources) == sorted(UNCALLED_PUBLIC)


def test_all_exports_resolve():
    import fkpi_lab

    assert [n for n in fkpi_lab.__all__ if not hasattr(fkpi_lab, n)] == []


def test_all_matches_imports():
    import fkpi_lab

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {n for n in imported if not n.startswith("_")}
    exported = [n for n in fkpi_lab.__all__ if n != "__version__"]
    assert len(exported) == len(set(exported))
    assert set(exported) == public


def test_detector_flags_dead_public_names():
    module = ("def used(): return helper()\n"
              "def helper(): return 1\n"
              "def dead(): return dead()\n"
              "def _private(): pass\n"
              "class Exported: pass\n"
              "class Orphan: pass\n")
    caller = "from .module import Exported, used\nvalue = used()\n"
    assert unreferenced_public([module, caller]) == ["Exported", "Orphan", "dead"]
