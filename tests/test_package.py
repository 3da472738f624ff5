import ast
import glob
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


def test_run_single_loads_no_scipy():
    # The package's one runtime dependency is numpy: importing it and its
    # CLI, and a full labelled run with every metric, must load no scipy.
    # A serial run needs no process pool either, so no multiprocessing.
    code = """
import sys, flnnsc, flnnsc.cli
from flnnsc.cli import RunConfig, run_single
from flnnsc.data import SyntheticSpec
spec = SyntheticSpec(clusters=3, points_per_cluster=10, ambient_dim=6, subspace_dim=2)
report = run_single(RunConfig(synthetic=spec, n_clusters=3, max_iters=3))
print(sorted(report.metrics))
print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
print([m for m in sys.modules if m.partition(".")[0] == "multiprocessing"
       or m == "concurrent.futures.process"])
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(flnnsc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    metrics, scipy_modules, pool_modules = out.stdout.strip().splitlines()
    assert metrics == "['ari', 'ca', 'f1', 'nmi']"
    assert scipy_modules == "[]"
    assert pool_modules == "[]"


def _imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_only_stdlib_and_numpy_imports():
    # Static, so it also covers the code paths a run does not reach
    # (affinity export, bench, sweep workers), and imports inside functions.
    allowed = set(sys.stdlib_module_names) | {"numpy", "flnnsc"}
    package_dir = os.path.dirname(os.path.abspath(flnnsc.__file__))
    paths = sorted(glob.glob(os.path.join(package_dir, "**", "*.py"), recursive=True))
    assert paths
    outside = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        outside += [f"{os.path.relpath(path, package_dir)}:{line}: {root}"
                    for line, root in _imported_roots(tree) if root not in allowed]
    assert outside == []


MOVED_TO_ORACLES = ("solve_sylvester", "expand", "forward", "grad_w", "zstep_objective",
                    "_check_sample", "_partial_objective")


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_reference_implementations_live_in_the_tests(module):
    # the pipeline never calls them: they are the oracles in tests/oracles.py
    assert [name for name in MOVED_TO_ORACLES
            if hasattr(module, name) or name in module.__all__] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_graph_or_eigensystem_wrapper(module):
    # stages pass plain arrays: a graph is its similarity matrix, an
    # eigensystem the (values, vectors) pair of np.linalg.eigh
    assert [name for name in ("SimilarityGraph", "SymEigen")
            if hasattr(module, name) or name in module.__all__] == []


def test_oracles_import_no_private_package_name():
    # an oracle that shared a private helper with the code it checks would
    # not be an independent check of it
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    private = [f"{node.lineno}: {node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.partition(".")[0] == "flnnsc"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
