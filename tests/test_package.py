import importlib
import pkgutil

import pytest

import flnnsc

MODULES = [flnnsc] + [
    importlib.import_module(f"flnnsc.{info.name}") for info in pkgutil.iter_modules(flnnsc.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_star_import():
    namespace = {}
    exec("from flnnsc import *", namespace)
    assert set(flnnsc.__all__) <= set(namespace)
