"""Every exported name resolves: each name in a ``flowdistill`` module's
``__all__``, and each name that the package ``__init__`` imports. A name
deleted from a module must leave its exports with it."""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import flowdistill

MODULES = sorted(m.name for m in pkgutil.iter_modules(flowdistill.__path__))


def _package_imports():
    """(module, name, bound name) for each ``from .module import name`` in
    the package ``__init__``."""
    tree = ast.parse(pathlib.Path(flowdistill.__file__).read_text())
    return [(node.module, alias.name, alias.asname or alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    module = importlib.import_module(f"flowdistill.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "repeated __all__ entry"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"flowdistill.{name}.__all__ names {missing}"


@pytest.mark.parametrize("module, name, bound",
                         _package_imports(), ids=lambda v: str(v))
def test_every_name_the_package_imports_resolves(module, name, bound):
    assert hasattr(importlib.import_module(f"flowdistill.{module}"), name)
    assert hasattr(flowdistill, bound)
