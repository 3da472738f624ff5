"""Per-layer timing of the SGD epoch and the Z-step, with the whole runs
they sit in.

    python tools/bench_epoch.py --label change
    python tools/bench_epoch.py --label parent --src ../parent/src

Times ``flnnsc.models._epoch`` on random data at the (p, n, K) shapes of
``EPOCHS`` (p = 5d network outputs, n samples, K lockstep members),
``flnnsc.models._zstep`` on a network output at the (p, n) shapes of
``ZSTEPS``, and ``flnnsc.cli.run_single`` on two workloads of
``perfbench/workloads.py``: ``wide_pca`` (its first run seed) and
``large_n`` resized to n = 1200 and 20 outer iterations. BLAS runs on
one thread (set before numpy loads). Each invocation appends one run to
the list stored under ``--label`` in ``--out`` (default
``BENCH_epoch.json`` at the repository root) and keeps the other labels,
so runs of two checkouts, alternated, land side by side: on a shared
host the speed of one process drifts by up to 2x within minutes, so
compare runs made in alternation, never one run per side. Uses only the
standard library, numpy and the benchmark's workload definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

# (p, n, K): a sweep row at the acceptance size, flnnsc at n = 450 and
# 2400 (several blocks of p samples), and the 300 x 300 weights of PCA-60
# data at one block and at four
EPOCHS = ((50, 150, 5), (50, 450, 1), (50, 2400, 1), (300, 150, 1), (300, 600, 1))
# the betas of the acceptance grid, one per member of a row; at mu = 0.01
# beta = 100 decays the weights to 0 at every step
ROW_BETAS = (0.01, 0.1, 1.0, 10.0, 100.0)
# (p, n) of the Z-step: wide outputs of d = 10 data at the acceptance size
# and at n = 450 and 2400; tall ones of PCA-45 and PCA-60 data at n = 150
# (225 x 150 sits on the 2p >= 3n rule that picks the side of h factored);
# and PCA-60 data at n = 600, wide
ZSTEPS = ((50, 150), (50, 450), (50, 2400), (225, 150), (300, 150), (300, 600))
EPOCH_REPEATS, ZSTEP_REPEATS, RUN_REPEATS = 15, 15, 3


def _quartiles(values: list) -> dict:
    # before Python 3.13, quantiles needs two values; one is its own quartiles
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 3
    return {"median": median, "q1": q1, "q3": q3, "repeats": len(values)}


def time_epoch(p: int, n: int, k: int, repeats: int) -> dict:
    """Milliseconds of one ``_epoch`` call (the first call is not kept)."""
    import numpy as np
    from flnnsc import models
    from flnnsc.flnn import expand_batch, init_network

    rng = np.random.default_rng(p * n + k)
    phi_rows = np.ascontiguousarray(expand_batch(rng.uniform(-1.0, 1.0, (p // 5, n))).T)
    w0 = np.stack([init_network(p // 5, rng)] * k)
    targets = rng.uniform(-0.5, 0.5, (k, p, n))
    beta = list(ROW_BETAS[:k]) if k > 1 else [0.1]
    times = []
    for _ in range(repeats + 1):
        w, order = w0.copy(), rng.permutation(n)
        tic = time.perf_counter()
        models._epoch(w, phi_rows, targets, order, 0.01, beta, [1.0] * k)
        times.append(1e3 * (time.perf_counter() - tic))
    return {"p": p, "n": n, "k": k, "unit": "ms", **_quartiles(times[1:])}


def time_zstep(p: int, n: int, repeats: int) -> dict:
    """Milliseconds of one ``_zstep`` call on ``h = tanh(W Phi)`` of the
    seeded initial network and a 4-nn graph of the same uniform data (the
    first call is not kept)."""
    import numpy as np
    from flnnsc import models
    from flnnsc.flnn import expand_batch, init_network
    from flnnsc.graph import knn_similarity, laplacian
    from flnnsc.linalg import sym_eigen

    rng = np.random.default_rng(p * n)
    x = rng.uniform(-1.0, 1.0, (p // 5, n))
    h = np.tanh(init_network(p // 5, rng) @ expand_batch(x))
    lap_eig = sym_eigen(laplacian(knn_similarity(x, 4, "binary")))
    times = []
    for _ in range(repeats + 1):
        tic = time.perf_counter()
        models._zstep(h, lap_eig, 1.0)
        times.append(1e3 * (time.perf_counter() - tic))
    return {"p": p, "n": n, "unit": "ms", **_quartiles(times[1:])}


def time_runs(repeats: int, workdir: str) -> list:
    """Seconds of ``run_single`` on each workload's first call (no run is
    dropped: nothing is cached between runs but the imports, made
    beforehand)."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    n1200 = dataclasses.replace(workloads.SIZES["large_n"][False], per_cluster=400, max_iters=20)
    with mock.patch.dict(workloads.SIZES, large_n={False: n1200}):
        runs = {"wide_pca": workloads.prepare("wide_pca", 0, workdir),
                "flnnsc_n1200": workloads.prepare("large_n", 0, workdir)}
    rows = []
    for name, workload in runs.items():
        _, call = workload.rounds[0][0]
        times = []
        for _ in range(repeats):
            tic = time.perf_counter()
            report = call()
            times.append(time.perf_counter() - tic)
        rows.append({"name": name, "unit": "s", "n": report.n_samples,
                     "iterations": len(report.trace["z_delta"]), "runs": times,
                     **_quartiles(times)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key the results are stored under")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the flnnsc package to measure")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_epoch.json"))
    args = parser.parse_args(argv)
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the BLAS thread count was set")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.abspath(args.src))

    import numpy as np

    result = {
        "blas_threads": BLAS_THREADS,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "epoch_ms": [time_epoch(p, n, k, EPOCH_REPEATS) for p, n, k in EPOCHS],
        "zstep_ms": [time_zstep(p, n, ZSTEP_REPEATS) for p, n in ZSTEPS],
    }
    with tempfile.TemporaryDirectory() as workdir:
        result["run_single_s"] = time_runs(RUN_REPEATS, workdir)

    bench = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            bench = json.load(fh)
    bench.setdefault(args.label, []).append(result)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    for row in result["epoch_ms"]:
        print(f"{args.label} epoch p={row['p']} n={row['n']} K={row['k']}: "
              f"{row['median']:.2f} ms [{row['q1']:.2f}, {row['q3']:.2f}]")
    for row in result["zstep_ms"]:
        print(f"{args.label} zstep p={row['p']} n={row['n']}: "
              f"{row['median']:.2f} ms [{row['q1']:.2f}, {row['q3']:.2f}]")
    for row in result["run_single_s"]:
        print(f"{args.label} run_single {row['name']}: {row['median']:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
