"""Every exported name resolves: each name in an envdet submodule's
``__all__`` (a stale entry breaks ``from envdet.<module> import *``) and
each name the package ``__init__`` imports."""

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
