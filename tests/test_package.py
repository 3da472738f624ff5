import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported by the first assignment-based metric, not
    # by importing the package or its CLI
    code = "import sys, flnnsc, flnnsc.cli; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(flnnsc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
