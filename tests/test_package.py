import ast
import importlib
import inspect

import tnforms


def _package_imports():
    """(module, name) for every name ``tnforms/__init__.py`` imports from one of its modules."""
    tree = ast.parse(inspect.getsource(tnforms))
    return [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_package_names_are_their_modules_objects():
    imported = _package_imports()
    assert len(imported) > 20
    for module, name in imported:
        assert getattr(tnforms, name) is getattr(importlib.import_module(f"tnforms.{module}"), name), (module, name)


def test_submodule_names_stay_modules():
    # a package-level import of a function named like a submodule would be rebound by the submodule
    for module in {module for module, _ in _package_imports()}:
        assert getattr(tnforms, module) is importlib.import_module(f"tnforms.{module}")
