"""Every name a module of the package or a test file imports is used in
that file, and only ``workers.py`` imports the process modules.

``__init__.py`` is left out: its imports are the public re-exports.
``from __future__ import annotations`` binds nothing and is skipped.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "vanishdamp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_the_check_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Dict, List\n"
        "from .errors import DomainError\n"
        "x: List[int] = np.zeros(3)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Dict"), (5, "DomainError")]


def test_the_package_modules_are_found():
    assert {"acceptance.py", "cli.py", "integrate.py"} <= {p.name for p in MODULES}
    assert {"conftest.py", "test_imports.py"} <= {p.name for p in TEST_FILES}


def imported_modules(source: str) -> set:
    """The top-level package of every module the source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_only_workers_starts_processes():
    # one module decides whether to start worker processes (README,
    # "Worker processes"); every other module goes through it
    owners = [p.name for p in sorted(PACKAGE.glob("*.py"))
              if {"multiprocessing", "concurrent"} & imported_modules(p.read_text())]
    assert owners == ["workers.py"]
    assert imported_modules("import concurrent.futures\nfrom multiprocessing import Pool\n") \
        == {"concurrent", "multiprocessing"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_test_file_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
