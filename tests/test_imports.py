"""Every name a module of the package or a test file imports is used in
that file, only ``workers.py`` imports the process modules, and every
exported function, and every public method and property of an exported
class, has a reader in the package.

``__init__.py`` is left out: its imports are the public re-exports.
``from __future__ import annotations`` binds nothing and is skipped.
"""

import ast
import inspect
from pathlib import Path

import pytest

import vanishdamp

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


# exported functions, and public methods and properties of exported
# classes, that no module reads yet, each with the ROADMAP item that will
# read it; an entry goes once its reader lands
PLANNED = {
    "energy_gap_series": "item 12",
    "check_base_inequality": "item 10",
    "check_strong_convexity_window": "item 7",
    "plateau_interval": "items 9 and 16",
    "classify": "item 12",
    "has_summable_power": "item 8",
    "holds": "item 10",
}


def _reads(node: ast.AST, inside: frozenset = frozenset()) -> set:
    """Names read as ``ast.Name`` or ``ast.Attribute`` anywhere under the
    node, a function's reads of its own name left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside | {node.name}
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, inside)
    return found - inside


def unread(functions, sources) -> list:
    """The functions that none of the sources reads."""
    read = set().union(*(_reads(ast.parse(source)) for source in sources))
    return sorted(name for name in functions if name not in read)


def test_the_reader_check_sees_reads_outside_the_definition():
    source = (
        "from .m import imported\n"
        "def called(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "def nested():\n"
        "    def inner(): return nested\n"
        "def attribute(): pass\n"
        "x = called() + m.attribute()\n"
    )
    names = ["imported", "called", "recursive", "nested", "attribute", "absent"]
    assert unread(names, [source]) == ["absent", "imported", "nested", "recursive"]
    assert unread(names, [source, "y = recursive(3)\n"]) == ["absent", "imported", "nested"]


def public_members(cls) -> set:
    """The public methods and properties of a class: its own, and those it
    inherits from a class of the package."""
    return {
        name
        for klass in cls.__mro__ if klass.__module__.startswith(vanishdamp.__name__)
        for name, value in vars(klass).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))
    }


def test_the_member_check_sees_methods_and_properties():
    class Outside:
        def foreign(self): pass

    class Base(Outside):
        __module__ = vanishdamp.__name__

        def inherited(self): pass

    class Example(Base):
        __module__ = vanishdamp.__name__
        field: int = 0

        def method(self): pass

        def _private(self): pass

        @property
        def prop(self): return 1

        @classmethod
        def build(cls): return cls()

    assert public_members(Example) == {"inherited", "method", "prop", "build"}


def _exported(test) -> set:
    return {name for name in vanishdamp.__all__ if test(getattr(vanishdamp, name))}


def test_every_exported_function_has_a_reader():
    functions = _exported(inspect.isfunction)
    assert unread(functions, [p.read_text() for p in MODULES]) == sorted(set(PLANNED) & functions)


def test_every_public_method_of_an_exported_class_has_a_reader():
    classes = _exported(inspect.isclass)
    members = set().union(*(public_members(getattr(vanishdamp, name)) for name in classes))
    assert set(PLANNED) <= members | _exported(inspect.isfunction)
    assert unread(members, [p.read_text() for p in MODULES]) == sorted(set(PLANNED) & members)
