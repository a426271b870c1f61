import importlib
import pkgutil

import pytest

import chronident

MODULES = [f"chronident.{info.name}" for info in pkgutil.iter_modules(chronident.__path__)]


def test_modules_declare_exports():
    declared = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
    assert len(declared) >= 6


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names undefined: {missing}"
