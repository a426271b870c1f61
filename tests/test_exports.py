import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_runtime_imports_are_numpy_and_stdlib():
    # numpy is the only declared runtime dependency (pyproject.toml)
    allowed = {"numpy", "chronident"} | set(sys.stdlib_module_names)
    foreign = set()
    for path in sorted(Path(chronident.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign |= {
                f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed
            }
    assert not foreign, sorted(foreign)
