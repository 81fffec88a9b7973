"""Every exported name resolves: each name in an envdet submodule's
``__all__`` (a stale entry breaks ``from envdet.<module> import *``) and
each name the package ``__init__`` imports.  And every name a submodule
imports is used there (the package ``__init__`` only re-exports), and only
``specfun`` checks whole numbers itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import envdet

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(envdet.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"envdet.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from envdet.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_imports_resolve():
    tree = ast.parse(Path(envdet.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"envdet.{module_name}")
        assert getattr(envdet, name) is getattr(module, name)


def _unused_imports(source: str) -> list:
    """The names ``source`` imports, ``from __future__`` aside, that it never
    reads: a stale import."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


MODULE_FILES = sorted(
    path.name for path in Path(envdet.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("filename", MODULE_FILES)
def test_every_import_is_used(filename):
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    assert _unused_imports(source) == []


def test_a_stale_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\n"
        "from .specfun import _BLOCK_POINTS, _real\n"
        "x = np.asarray(_real(os.path.sep, 'x'))\n"
    )
    assert _unused_imports(source) == ["_BLOCK_POINTS"]


def _integer_checks(source: str) -> list:
    """The lines where ``source`` calls ``.is_integer()`` or names
    ``numbers.Integral``: a whole-number check of its own."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
            node.attr == "is_integer"
            or node.attr == "Integral" and ast.unparse(node.value) == "numbers"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            lines.extend(node.lineno for a in node.names if a.name == "Integral")
    return sorted(lines)


@pytest.mark.parametrize("filename", [name for name in MODULE_FILES if name != "specfun.py"])
def test_only_specfun_checks_whole_numbers(filename):
    # every other module takes its whole numbers through specfun._whole
    source = Path(envdet.__file__).with_name(filename).read_text(encoding="utf-8")
    assert _integer_checks(source) == []


def test_a_hand_written_integer_check_is_found():
    source = (
        "import numbers\nfrom numbers import Integral, Real\n"
        "ok = isinstance(n, numbers.Integral) or float(n).is_integer()\n"
        "real = isinstance(n, numbers.Real)\n"
    )
    assert _integer_checks(source) == [2, 3, 3]
