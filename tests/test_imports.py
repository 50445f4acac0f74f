"""Every name a module of the package or a test file imports is used in
that file.

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_test_file_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
