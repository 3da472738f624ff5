import importlib.util
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_epoch_times_an_epoch():
    # the harness calls the private models._epoch: a change of its signature
    # must fail here, not only when the harness is next run
    row = _load("bench_epoch").time_epoch(50, 30, 2, 1)
    assert (row["p"], row["n"], row["k"], row["repeats"]) == (50, 30, 2, 1)
    assert np.isfinite(row["median"]) and row["q1"] == row["median"] == row["q3"] > 0


def test_bench_epoch_times_a_zstep():
    # the harness calls the private models._zstep, on a tall and a wide h
    bench = _load("bench_epoch")
    for p, n in ((50, 30), (30, 50)):
        row = bench.time_zstep(p, n, 1)
        assert (row["p"], row["n"], row["repeats"]) == (p, n, 1)
        assert np.isfinite(row["median"]) and row["q1"] == row["median"] == row["q3"] > 0
