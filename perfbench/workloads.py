"""The benchmark's workloads, and the checks applied to every pipeline run.

A workload prepares its inputs once (untimed, and repeated in fresh
interpreters to measure ``setup_s``), then runs passes: one pass is one
execution of the workload through the package's public functions.

Each workload runs on one fixed dataset, the one its acceptance criterion
uses, and the workload seed sets ``RunConfig.seed`` (network initialisation,
sample order, k-means starts; ``run_repeated`` uses seed + i). The data seed
is not varied: in the sweep at n = 150, data seeds 1-6 gave 6 to 10 failing
grid points and a mean grid CA from 0.47 to 0.81, a seed-to-seed spread
that would hide any change a later commit makes. With the data fixed, run
seeds 1-6 gave 6 failing points (run seed 7 gives 8) and a mean grid CA
within 0.71-0.75.

Why each workload exists:

- ``large_n``: one flnnsc run at the largest n. The dense n x n
  representation update (two n x n eigendecompositions per outer
  iteration plus its verification products) is the largest share of the
  fit, so a cheaper Z-step shows here.
- ``wide_pca``: one ccsc run per pass on a CSV file reduced by PCA to 60
  dimensions, with reports written; passes cycle through three run seeds.
  W is 300 x 300, so the per-sample network loop dominates and the Z-step
  is small: the mirror of ``large_n``, and the only workload that reads a
  CSV, runs PCA, the ccsc linear part and the report writer.
- ``sweep_small``: the acceptance sweep shape at n = 150 (flnnsc over a
  5 x 5 alpha/beta grid plus the ridge baseline). Many small fits, so
  per-call overhead and per-run rebuilding of data, graph and Laplacian
  dominate. Some grid points raise ``NumericalError`` at the seed commit;
  they are kept and counted, not avoided.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from flnnsc import cli
from flnnsc.data import SyntheticSpec, generate_synthetic, save_csv
from flnnsc.linalg import NumericalError

from spans import patched

Z_RESIDUAL_MAX = 1e-8
BLEND_ATOL = 1e-12
GRID = (1e-2, 1e-1, 1.0, 1e1, 1e2)


def labels_digest(labels) -> str:
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()[:16]


def check_report(report) -> list[str]:
    """Output checks for one completed run; returns the failures found."""
    errors = []
    n = report.n_samples
    k = report.config["n_clusters"]
    labels = np.asarray(report.labels_pred)
    if labels.shape != (n,):
        errors.append(f"{len(labels)} labels for {n} samples")
    elif labels.size and (labels.min() < 0 or labels.max() >= k):
        errors.append(f"labels outside [0, {k})")
    m = report.metrics or {}
    ranges = {"ca": (0.0, 1.0), "nmi": (0.0, 1.0), "ari": (-1.0, 1.0), "f1": (0.0, 1.0)}
    for key, (lo, hi) in ranges.items():
        v = m.get(key)
        if v is None or not np.isfinite(v) or not lo - 1e-12 <= v <= hi + 1e-12:
            errors.append(f"metric {key}={v} outside [{lo}, {hi}]")
    worst = max(report.trace["z_residual"], default=0.0)
    if not worst <= Z_RESIDUAL_MAX:
        errors.append(f"z_residual {worst:.3e} > {Z_RESIDUAL_MAX:g}")
    return errors


def check_blend(rep, lam: float) -> list[str]:
    gap = float(np.max(np.abs(rep.z - (lam * rep.z1 + (1.0 - lam) * rep.z2))))
    return [] if gap <= BLEND_ATOL else [f"ccsc z differs from its blend by {gap:.3e}"]


@dataclass
class Recorder:
    """Observes every ``run_single`` call made through ``flnnsc.cli`` (direct,
    or from ``run_repeated``/``grid_sweep``): counts attempts, records the
    failing stage and exception class, and keeps each report (and each ccsc
    representation) until :meth:`drain` checks them after the pass."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)  # (stage, exception class) -> runs
    reports: list = field(default_factory=list)
    blends: list = field(default_factory=list)

    def installed(self):
        return patched(
            [
                ("flnnsc.cli", "run_single", self._wrap_run),
                ("flnnsc.models", "fit_ccsc", self._wrap_ccsc),
            ]
        )

    def _wrap_run(self, fn):
        def recorded(*args, **kwargs):
            self.attempted += 1
            try:
                report = fn(*args, **kwargs)
            except Exception as exc:
                cause = getattr(exc, "cause", exc)
                key = (getattr(exc, "stage", "-"), type(cause).__name__)
                self.failures[key] = self.failures.get(key, 0) + 1
                raise
            self.reports.append(report)
            return report

        return recorded

    def _wrap_ccsc(self, fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            self.blends.append((result[0], cfg.lam))
            return result

        return recorded

    def drain(self) -> dict:
        """Check and forget what was recorded since the last drain: one
        summary per completed run (``ok`` is false when a check failed), the
        check failures, attempts and failures by stage and class."""
        runs, errors = [], []
        for r in self.reports:
            found = check_report(r)
            errors += found
            runs.append(
                {
                    "method": r.method,
                    "alpha": r.config["alpha"],
                    "beta": r.config["beta"],
                    "seed": r.config["seed"],
                    "ok": not found,
                    "labels": labels_digest(r.labels_pred),
                    "ca": r.metrics["ca"],
                    "nmi": r.metrics["nmi"],
                }
            )
        blend_errors = [e for rep, lam in self.blends for e in check_blend(rep, lam)]
        drained = {
            "attempted": self.attempted,
            "failures": {f"{stage}/{cls}": n for (stage, cls), n in self.failures.items()},
            "numerical_errors": sum(
                n for (_, cls), n in self.failures.items() if cls == NumericalError.__name__
            ),
            "runs": runs,
            "check_errors": errors + blend_errors,
        }
        self.attempted, self.failures, self.reports, self.blends = 0, {}, [], []
        return drained


@dataclass
class Workload:
    """Prepared inputs of one workload and the public calls of its passes.

    Pass ``i`` runs ``rounds[i % len(rounds)]``, a list of ``(label,
    zero-argument callable)``; every round plans the same number of
    ``run_single`` calls."""

    name: str
    planned_runs: int  # run_single calls one pass makes when nothing fails
    rounds: list
    best_of: str | None = None  # label of the call whose rows name a best point

    def run_pass(self, index: int, recorder: Recorder) -> tuple[dict, list[str], list[int]]:
        """Execute the calls of pass ``index``. A call that raises a pipeline
        error is a failed operation; anything else propagates. Returns results
        by label, the failed calls, and for each call the index of its first
        report in ``recorder.reports``."""
        results, failed, first_report = {}, [], []
        for label, call in self.rounds[index % len(self.rounds)]:
            first_report.append(len(recorder.reports))
            try:
                results[label] = call()
            except (cli.StageError, NumericalError) as exc:
                failed.append(f"{label}: {type(exc).__name__}: {exc}")
        return results, failed, first_report


@dataclass(frozen=True)
class Sizes:
    per_cluster: int
    max_iters: int
    repeats: int = 1  # sweep: run_repeated times; wide_pca: run seeds cycled


# Full sizes keep one pass at most about 10 s so a 35 s run holds several
# passes; quick sizes only exercise every code path.
SIZES = {
    "large_n": {False: Sizes(per_cluster=150, max_iters=100), True: Sizes(per_cluster=8, max_iters=5)},
    "wide_pca": {
        False: Sizes(per_cluster=15, max_iters=100, repeats=3),
        True: Sizes(per_cluster=7, max_iters=3, repeats=2),
    },
    "sweep_small": {False: Sizes(per_cluster=50, max_iters=50), True: Sizes(per_cluster=6, max_iters=3)},
}


def prepare(name: str, seed: int, workdir: str, quick: bool = False) -> Workload:
    """Build a workload's inputs: the untimed preparation."""
    size = SIZES[name][quick]
    if name == "large_n":
        # The default synthetic spec (data seed 0) at a larger n.
        cfg = cli.RunConfig(
            method="flnnsc",
            synthetic=SyntheticSpec(points_per_cluster=size.per_cluster),
            alpha=1.0,
            beta=0.1,
            tol=1e-6,
            max_iters=size.max_iters,
            seed=seed,
        )
        return Workload(name, 1, [[("run_single", lambda: cli.run_single(cfg))]])

    if name == "wide_pca":
        # Criterion-13 dataset: 10 clusters in 64 ambient dimensions, data
        # seed 5, written to CSV and reduced by PCA to 60 dimensions.
        spec = SyntheticSpec(
            clusters=10, points_per_cluster=size.per_cluster, ambient_dim=64, subspace_dim=2, seed=5
        )
        path = os.path.join(workdir, "wide_pca.csv")
        save_csv(generate_synthetic(spec), path)
        # Its accuracy is near chance and moves with the run seed, so
        # successive passes cycle through several run seeds (disjoint between
        # workload seeds); ``ca`` averages one full cycle.
        rounds = []
        for run_seed in range(seed * size.repeats, (seed + 1) * size.repeats):
            cfg = cli.RunConfig(
                method="ccsc",
                lam=0.5,
                data_path=path,
                n_clusters=10,
                pca_dim=60,
                tol=1e-6,
                max_iters=size.max_iters,
                seed=run_seed,
                out_dir=os.path.join(workdir, f"out_seed{run_seed}"),
            )
            rounds.append([(f"run_single seed={run_seed}", lambda cfg=cfg: cli.run_single(cfg))])
        return Workload(name, 1, rounds)

    if name == "sweep_small":
        # Criterion-6 protocol: default synthetic spec, 5 x 5 grid, ridge
        # baseline over the same values.
        cfg = cli.RunConfig(
            method="flnnsc",
            synthetic=SyntheticSpec(points_per_cluster=size.per_cluster),
            tol=1e-6,
            max_iters=size.max_iters,
            seed=seed,
        )
        times = size.repeats
        calls = [("grid_sweep", lambda: cli.grid_sweep(cfg, GRID, GRID, times=times, jobs=1))]
        for a in GRID:
            lsr = replace(cfg, method="lsr", alpha=a)
            calls.append((f"lsr alpha={a:g}", lambda lsr=lsr: cli.run_repeated(lsr, times)))
        planned = (len(GRID) ** 2 + len(GRID)) * times
        return Workload(name, planned, [calls], best_of="grid_sweep")

    raise ValueError(f"unknown workload {name!r}")

