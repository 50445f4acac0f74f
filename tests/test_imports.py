"""Every name a module of the package or a test file imports is used in
that file, only ``workers.py`` imports the process modules, a module
imports no private name of another, nor reads a private attribute of
another's objects, beyond a stated few, and every exported function,
and every public method and property of an exported class, has a reader
in the package; exported means named in the ``__all__`` of the package
or of any of its modules.

``__init__.py`` is left out of the first check: its imports are the public
re-exports.
``from __future__ import annotations`` binds nothing and is skipped.
"""

import ast
import importlib
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


def private_imports(source: str) -> set:
    """(module, name) of every underscore name the source imports from
    another module of the package."""
    return {
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names if alias.name.startswith("_")
    }


def test_the_private_import_check_sees_relative_imports_only():
    source = (
        "from . import acceptance\n"
        "from .integrate import Record, _start_point as start\n"
        "from .schedule import _each\n"
        "from numpy import _core\n"
    )
    assert private_imports(source) == {("integrate", "_start_point"), ("schedule", "_each")}


# the only private names a module of the package imports from another:
# the record layout, the interpolant and the other internals of a module
# stay inside it
PRIVATE_IMPORTS = {
    ("config.py", "integrate", "_normalize_spec"),
    ("sgd.py", "integrate", "_start_point"),
    ("sgd.py", "schedule", "_each"),
}


def test_private_imports_between_modules_are_the_allowed_ones():
    found = {
        (path.name, *name)
        for path in sorted(PACKAGE.glob("*.py")) for name in private_imports(path.read_text())
    }
    assert found == PRIVATE_IMPORTS


def private_attributes(source: str) -> set:
    """Every underscore attribute, dunders aside, that the source reads and
    does not define: no function, class, bound name or assigned attribute
    of its own has the name, so it belongs to another module's object."""
    tree = ast.parse(source)
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
    } - own


def test_the_private_attribute_check_sees_names_defined_elsewhere():
    source = (
        "class Column:\n"
        "    def _own(self): return self._field\n"
        "    def run(self, t):\n"
        "        self._field = 1\n"
        "        return t._dense(0) + self._own() + t.__len__() + _helper(t._pieces)\n"
        "def _helper(x): return x._helper\n"
        "_LIMIT = np._core\n"
    )
    assert private_attributes(source) == {"_dense", "_pieces", "_core"}


# the only private attributes a module of the package reads on another
# module's objects, each with the class that defines it: analyze reads
# the interpolant on known pieces and its hulls through the trajectory
PRIVATE_ATTRIBUTES = {
    ("analyze.py", "Trajectory", "_dense"),
    ("analyze.py", "Trajectory", "_hull"),
    ("analyze.py", "Trajectory", "_pieces"),
}


def test_private_attributes_read_across_modules_are_the_allowed_ones():
    found = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py")) for name in private_attributes(path.read_text())
    }
    assert found == {(module, name) for module, _, name in PRIVATE_ATTRIBUTES}
    for _, owner, name in PRIVATE_ATTRIBUTES:
        assert name in vars(getattr(vanishdamp, owner)), (owner, name)


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
    "velocities_at": "item 24",
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


# the package and each of its modules, with what each exports in __all__
EXPORTERS = [vanishdamp] + [importlib.import_module(f"vanishdamp.{p.stem}") for p in MODULES]


def _exported(test) -> set:
    """The exported names, of the package or of any module, that ``test`` admits."""
    return {
        name
        for module in EXPORTERS
        for name in getattr(module, "__all__", ())
        if test(getattr(module, name))
    }


def test_exports_are_gathered_from_every_module():
    assert {"main", "run_criteria", "critical_points"} <= _exported(inspect.isfunction)
    assert {"ParsedConfig", "CriterionResult"} <= _exported(inspect.isclass)


def test_every_exported_function_has_a_reader():
    functions = _exported(inspect.isfunction)
    assert unread(functions, [p.read_text() for p in MODULES]) == sorted(set(PLANNED) & functions)


def test_every_public_method_of_an_exported_class_has_a_reader():
    classes = _exported(inspect.isclass)
    members = set().union(*(
        public_members(getattr(module, name))
        for module in EXPORTERS for name in getattr(module, "__all__", ()) if name in classes
    ))
    assert set(PLANNED) <= members | _exported(inspect.isfunction)
    assert unread(members, [p.read_text() for p in MODULES]) == sorted(set(PLANNED) & members)
