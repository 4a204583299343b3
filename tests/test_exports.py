import importlib
import pkgutil

import pytest

import symmrel

MODULES = ["symmrel"] + [f"symmrel.{info.name}" for info in pkgutil.iter_modules(symmrel.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"
