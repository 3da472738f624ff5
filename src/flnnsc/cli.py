"""Batch experiment runner: single runs, repeats, grid sweeps, affinity
export, and fit-time benchmarks.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 IO failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    CsvFormatError,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    pca_reduce,
    scale_to_unit,
)
from .graph import WEIGHT_KINDS, knn_similarity
from .linalg import NumericalError
from .metrics import ari, clustering_accuracy, nmi, pairwise_f1
from .models import (
    CcscConfig,
    FlnnscConfig,
    SolveTrace,
    _FitData,
    _fit_lockstep,
    fit_ccsc,
    fit_flnnsc,
    fit_linear_smr,
    fit_lsr,
)
from .spectral import AFFINITY_KINDS, affinity_from_z, spectral_cluster

__all__ = [
    "RunConfig",
    "RunReport",
    "StageError",
    "run_single",
    "run_repeated",
    "grid_sweep",
    "export_affinity",
    "bench_time",
    "write_pgm",
    "read_pgm",
    "load_report",
    "load_table",
    "main",
    "entry_point",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

METHODS = ("flnnsc", "ccsc", "lsr", "smr_linear")


class StageError(RuntimeError):
    """Wraps a pipeline failure with the name of the stage that raised."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline execution needs."""

    method: str = "flnnsc"
    data_path: str | None = None
    synthetic: SyntheticSpec | None = None
    has_labels: bool = True
    header: bool = False
    alpha: float = 1.0
    beta: float = 0.1
    lam: float | None = None
    mu: float = 1e-2
    mu_decay: float = 0.85
    inner_epochs: int = 1
    knn: int = 4
    weights: str = "binary"
    sigma: float | None = None
    affinity: str = "grouping"
    gamma: float = 2.0
    n_clusters: int = 3
    pca_dim: int | None = None
    seed: int = 0
    tol: float = 1e-6
    max_iters: int = 100
    out_dir: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.lam is not None and self.method != "ccsc":
            raise ValueError("lambda is only accepted for method 'ccsc'")
        if self.n_clusters < 2:
            raise ValueError(f"n_clusters must be >= 2, got {self.n_clusters}")
        if (self.data_path is None) == (self.synthetic is None):
            raise ValueError("exactly one of a dataset path or a synthetic spec is required")
        if self.weights not in WEIGHT_KINDS:
            raise ValueError(f"unknown weights {self.weights!r}")
        if self.affinity not in AFFINITY_KINDS:
            raise ValueError(f"unknown affinity {self.affinity!r}")
        # Checked here as well as where they are used, so a bad value
        # fails before the fit instead of after it.
        if not 0.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.sigma is not None and not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        # named with their flags here: the fit's own checks name only its fields
        if self.max_iters < 1:
            raise ValueError(f"max_iters (--max-iters) must be >= 1, got {self.max_iters}")
        if self.inner_epochs < 1:
            raise ValueError(f"inner_epochs (--epochs) must be >= 1, got {self.inner_epochs}")
        _model_config(self)  # every value the fit rejects fails here, before any data
        if self.method == "lsr" and self.alpha == 0.0:  # the only alpha left that lsr rejects
            raise ValueError(
                f"alpha (--alpha) is the ridge weight of method 'lsr' and must be positive, "
                f"got {self.alpha}"
            )


@dataclass
class RunReport:
    """Metrics, convergence trace, and echo of one pipeline run."""

    method: str
    config: dict
    metrics: dict | None
    trace: dict
    labels_pred: list
    labels_true: list | None
    n_samples: int
    n_features_raw: int
    n_features_used: int
    pca_variance: float | None
    fit_seconds: float
    total_seconds: float
    stop_reason: str | None = None
    timing_note: str = "fit_seconds covers the representation fit only (no IO, graph, or metrics)"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@contextlib.contextmanager
def _stage(name):
    # Exception only: an interrupt must stop a sweep, not become its next row.
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def _prepare(cfg: RunConfig):
    """Load, scale (and reduce), and build the graph; returns
    ``(dataset, x, pca_variance, s)``, ``s`` the k-nn similarity matrix."""
    with _stage("load"):
        if cfg.data_path is not None:
            dataset = load_csv(cfg.data_path, has_labels=cfg.has_labels, skip_header=cfg.header)
        else:
            dataset = generate_synthetic(cfg.synthetic)
    with _stage("preprocess"):
        x = scale_to_unit(dataset.x)
        pca_variance = None
        if cfg.pca_dim is not None:
            x, pca_variance = pca_reduce(x, cfg.pca_dim)
            # PCA output is unbounded; the expansion needs [-1, 1] again.
            x = scale_to_unit(x)
    with _stage("graph"):
        if cfg.n_clusters > x.shape[1]:  # else the clustering rejects it, after the fit
            raise ValueError(f"n_clusters (--clusters) must not exceed the {x.shape[1]} "
                             f"samples, got {cfg.n_clusters}")
        s = knn_similarity(x, cfg.knn, cfg.weights, cfg.sigma)
    return dataset, x, pca_variance, s


def _ccsc_lam(cfg: RunConfig) -> float:
    """``--lambda`` if given, else :class:`CcscConfig`'s default."""
    return CcscConfig.lam if cfg.lam is None else cfg.lam


def _model_config(cfg: RunConfig):
    """The fit's hyperparameters, copied by name: a :class:`CcscConfig` for
    ccsc, else a :class:`FlnnscConfig` (the linear baselines read its
    ``alpha``). Raises ``ValueError``, without data, for any value those
    configs reject."""
    settings = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(FlnnscConfig)}
    if cfg.method == "ccsc":
        return CcscConfig(**settings, lam=_ccsc_lam(cfg))
    return FlnnscConfig(**settings)


def _fit_stage(cfg: RunConfig, x, s, fitted=None):
    """``(rep, trace, seconds)``: ``seconds`` is the wall time of the fit
    run here, or for a row's outcome ``fitted`` its trace's total."""
    tic = time.perf_counter()
    model = _model_config(cfg)
    if cfg.method == "flnnsc":
        rep, _, trace = fit_flnnsc(x, s, model, _fitted=fitted)
    elif cfg.method == "ccsc":
        rep, _, trace = fit_ccsc(x, s, model, _fitted=fitted)
    elif cfg.method == "lsr":
        rep, trace = fit_lsr(x, cfg.alpha), None
    else:
        rep, trace = fit_linear_smr(x, s, cfg.alpha), None
    return rep, trace, time.perf_counter() - tic if fitted is None else sum(trace.seconds)


# the columns of trace.csv: the per-iteration (list) fields of SolveTrace, in order
_TRACE_KEYS = tuple(f.name for f in dataclasses.fields(SolveTrace) if f.default_factory is list)


def _trace_dict(trace) -> dict:
    return {key: [] if trace is None else list(getattr(trace, key)) for key in _TRACE_KEYS}


def compute_metrics(truth, pred) -> dict:
    return {
        "ca": clustering_accuracy(truth, pred),
        "nmi": nmi(truth, pred),
        "ari": ari(truth, pred),
        "f1": pairwise_f1(truth, pred),
    }


def run_single(cfg: RunConfig, _prepared=None, _fitted=None) -> RunReport:
    """One run's report (:func:`_run`): load -> scale -> (pca) -> graph ->
    fit -> affinity -> spectral clustering -> metrics, then report.json
    and trace.csv written when an output directory is configured."""
    return _run(cfg, _prepared, _fitted)[0]


def _run(cfg: RunConfig, prepared, fitted):
    """The pipeline of every run; returns ``(report, affinity)``.
    ``prepared`` is ``_prepare(cfg)``'s result when the caller holds it
    (repeats and sweeps prepare once; ``total_seconds`` then leaves it
    out). ``fitted`` is the network fit ``(rep, w, trace)``, or the error
    it raised, of a run fitted in a row (:func:`_repeat_points`), taken
    through ``fit_flnnsc``/``fit_ccsc``; ``total_seconds`` counts it."""
    t_start = time.perf_counter()
    dataset, x, pca_variance, s = prepared or _prepare(cfg)
    with _stage("fit"):
        rep, trace, fit_seconds = _fit_stage(cfg, x, s, fitted)
    if fitted is not None:  # the row fit ran before this run's clock started
        t_start -= fit_seconds
    # the report needs neither: free them before the clustering's eigh
    del s
    with _stage("affinity"):
        affinity = affinity_from_z(rep.z, cfg.affinity, cfg.gamma)
    del rep
    with _stage("cluster"):
        pred = spectral_cluster(affinity, cfg.n_clusters, cfg.seed)
    with _stage("metrics"):
        metrics = None
        if dataset.labels is not None:
            metrics = compute_metrics(dataset.labels, pred)

    report = RunReport(
        method=cfg.method,
        config=dataclasses.asdict(cfg),
        metrics=metrics,
        trace=_trace_dict(trace),
        labels_pred=[int(v) for v in pred],
        labels_true=None if dataset.labels is None else [int(v) for v in dataset.labels],
        n_samples=dataset.n_samples,
        n_features_raw=dataset.n_features,
        n_features_used=x.shape[0],
        pca_variance=pca_variance,
        fit_seconds=fit_seconds,
        total_seconds=time.perf_counter() - t_start,
        stop_reason=None if trace is None else trace.stop_reason,
    )
    if cfg.out_dir is not None:
        with _stage("write"):
            _write_report(cfg.out_dir, report)
    return report, affinity


def _atomic_write(path: str, payload: str | bytes) -> None:
    """Write ``path`` whole or not at all, creating its directory."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(payload.encode("utf-8") if isinstance(payload, str) else payload)
    os.replace(tmp, path)


def _write_csv(path: str, rows, header=None) -> None:
    """CSV through ``csv.writer``: floats as ``%.17g`` (exact round trip),
    ``None`` as an empty cell, text quoted as needed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    for row in rows:
        writer.writerow(
            "" if v is None else f"{v:.17g}" if isinstance(v, float) else v for v in row
        )
    _atomic_write(path, buf.getvalue())


def _write_report(out_dir: str, report: RunReport) -> None:
    _atomic_write(os.path.join(out_dir, "report.json"), json.dumps(report.to_dict(), indent=2))
    tr = report.trace
    _write_csv(
        os.path.join(out_dir, "trace.csv"),
        ([i + 1, *row] for i, row in enumerate(zip(*(tr[k] for k in _TRACE_KEYS)))),
        header=("iteration", *_TRACE_KEYS),
    )


def _repeat(cfg: RunConfig, i: int) -> RunConfig:
    """Repeat ``i`` of ``cfg``: seed ``cfg.seed + i``, its own run directory."""
    out_dir = None if cfg.out_dir is None else os.path.join(cfg.out_dir, f"run_{i:03d}")
    return replace(cfg, seed=cfg.seed + i, out_dir=out_dir)


def run_repeated(cfg: RunConfig, times: int) -> dict:
    """Run the pipeline ``times`` times with seeds ``cfg.seed + i`` on data
    prepared once, and aggregate mean/std per metric. Raises the first
    failing run's error."""
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times}")
    prepared = _prepare(cfg)
    (outcome,) = _repeat_points(([cfg], times, prepared, _fit_data(cfg, prepared)))
    if isinstance(outcome, Exception):
        raise outcome
    return _aggregate(cfg, outcome)


def _summary(reports: list[RunReport]) -> dict:
    """The repeats' mean fit time, how many stopped ``collapsed``, and metric
    mean/std (None when a run has no metrics)."""
    summary = {"mean_fit_seconds": float(np.mean([r.fit_seconds for r in reports])),
               "collapsed": sum(r.stop_reason == "collapsed" for r in reports), "metrics": None}
    if all(r.metrics is not None for r in reports):
        summary["metrics"] = {}
        for key in ("ca", "nmi", "ari", "f1"):
            vals = np.array([r.metrics[key] for r in reports])
            summary["metrics"][key] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return summary


def _aggregate(cfg: RunConfig, reports: list[RunReport]) -> dict:
    """The repeats' reports and :func:`_summary`; written to
    ``aggregate.json`` when an output directory is configured."""
    aggregate = {
        "method": cfg.method,
        "times": len(reports),
        "base_seed": cfg.seed,
        "runs": [r.to_dict() for r in reports],
        **_summary(reports),
    }
    if cfg.out_dir is not None:
        _atomic_write(os.path.join(cfg.out_dir, "aggregate.json"), json.dumps(aggregate, indent=2))
    return aggregate


def _fit_data(cfg: RunConfig, prepared):
    """The data every network fit of a sweep or repeat set shares, built
    once; None for the linear methods. A failure is the fit stage's."""
    if cfg.method in ("lsr", "smr_linear"):
        return None
    with _stage("fit"):
        return _FitData(prepared[1], prepared[3])


def _repeat_points(task) -> list:
    """Every repeat of points that share alpha and the prepared data
    (``task`` is ``(points, times, prepared, data)``, ``data`` from
    :func:`_fit_data`). For each seed the points' network fits run as one
    lockstep row, and each point then finishes through its own
    ``run_single``, handed its fit; the linear methods fit in their own
    run. Returns, per point, its reports or the error that stopped it; a
    point that fails runs no further repeats."""
    points, times, prepared, data = task
    reports = [[] for _ in points]
    errors: list = [None] * len(points)
    for i in range(times):
        runs = {j: _repeat(point, i) for j, point in enumerate(points) if errors[j] is None}
        fitted = {}
        if data is not None and runs:  # every point may have failed an earlier repeat
            fitted = dict(zip(runs, _fit_lockstep(data, [_model_config(r) for r in runs.values()])))
        for j, run in runs.items():
            try:
                reports[j].append(run_single(run, _prepared=prepared, _fitted=fitted.pop(j, None)))
            except Exception as exc:  # failures become rows, the sweep continues
                errors[j] = exc
    return [e if e is not None else r for r, e in zip(reports, errors)]


def _sweep_row(point: RunConfig, outcome) -> dict:
    row = {"alpha": point.alpha, "beta": point.beta, "lambda": point.lam, "error": ""}
    if not isinstance(outcome, Exception):
        # only a point that writes aggregate.json needs its runs as dicts
        outcome = _aggregate(point, outcome) if point.out_dir is not None else _summary(outcome)
    if isinstance(outcome, Exception):
        row.update(ca=None, nmi=None, ari=None, f1=None, seconds=None, collapsed=None)
        row["error"] = f"{type(outcome).__name__}: {outcome}"
    else:
        for key in ("ca", "nmi", "ari", "f1"):
            row[key] = outcome["metrics"][key]["mean"]
        row["seconds"] = outcome["mean_fit_seconds"]
        row["collapsed"] = outcome["collapsed"]
    return row


def _sweep_points(cfg: RunConfig, alpha_grid, beta_grid, lambda_grid=None) -> list[RunConfig]:
    """The run configuration of every grid point, in row order; each point
    with an output directory writes into its own subdirectory. Raises
    ``ValueError`` when two points share a directory name (a repeated grid
    value, or values equal to ``%g``'s six significant digits)."""
    alpha_grid = list(alpha_grid)
    beta_grid = list(beta_grid)
    if not alpha_grid or not beta_grid:
        raise ValueError("grids must be non-empty")
    lambdas = list(lambda_grid) if lambda_grid else [_ccsc_lam(cfg) if cfg.method == "ccsc" else None]

    points = {}
    for a in alpha_grid:
        for b in beta_grid:
            for lam in lambdas:
                tag = f"a{a:g}_b{b:g}" + ("" if lam is None else f"_l{lam:g}")
                point = replace(cfg, alpha=a, beta=b, lam=lam)
                if tag in points:
                    raise ValueError(
                        f"grid points {_grid_values(points[tag])} and {_grid_values(point)} "
                        f"share the name point_{tag}: grid values must differ in their "
                        "first six significant digits"
                    )
                if cfg.out_dir is not None:
                    point = replace(point, out_dir=os.path.join(cfg.out_dir, f"point_{tag}"))
                points[tag] = point
    return list(points.values())


def _grid_values(point: RunConfig) -> str:
    lam = "" if point.lam is None else f", lambda={point.lam!r}"
    return f"(alpha={point.alpha!r}, beta={point.beta!r}{lam})"


def grid_sweep(
    cfg: RunConfig,
    alpha_grid,
    beta_grid,
    lambda_grid=None,
    times: int = 20,
    jobs: int = 1,
) -> list[dict]:
    """Run every grid point ``times`` times (seeds ``cfg.seed + i``, as
    :func:`run_repeated`) on data prepared once; returns rows and writes
    ``sweep.csv`` (column ``best`` marks the highest mean accuracy, and
    ``collapsed`` counts a point's repeats that stopped ``collapsed``). A
    point that fails when run becomes a row with its error, and when no
    point finished, the first point's error is raised once ``sweep.csv``
    is written, as :func:`run_single` raises it. A grid value the fit
    rejects raises ``ValueError`` when its point's config is built,
    before any data is prepared, and data without labels raises it
    before any fit.

    The points that share alpha form a block, and a block's fits of one
    seed run in lockstep (see :func:`_repeat_points`); ``jobs > 1`` runs
    the blocks in that many processes."""
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    points = _sweep_points(cfg, alpha_grid, beta_grid, lambda_grid)
    blocks: dict = {}
    for point in points:
        blocks.setdefault(point.alpha, []).append(point)

    try:
        prepared = _prepare(cfg)
        data = _fit_data(cfg, prepared)
    except StageError as exc:
        outcomes = [exc] * len(points)
    else:
        if prepared[0].labels is None:
            raise ValueError("dataset has no ground-truth labels; sweep needs metrics")
        tasks = [(block, times, prepared, data) for block in blocks.values()]
        jobs = min(jobs, len(tasks))
        if jobs > 1:
            # imported here: it loads multiprocessing, which a serial run never needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = [o for block in pool.map(_repeat_points, tasks) for o in block]
        else:
            outcomes = [o for task in tasks for o in _repeat_points(task)]
    rows = [_sweep_row(point, outcome) for point, outcome in zip(points, outcomes)]

    scored = [r for r in rows if r["ca"] is not None]
    best_idx = rows.index(max(scored, key=lambda r: r["ca"])) if scored else -1
    for i, row in enumerate(rows):
        row["best"] = 1 if i == best_idx else 0

    if cfg.out_dir is not None:
        header = ("alpha", "beta", "lambda", "ca", "nmi", "ari", "f1", "seconds", "collapsed",
                  "best", "error")
        _write_csv(
            os.path.join(cfg.out_dir, "sweep.csv"),
            ([r[k] for k in header] for r in rows),
            header=header,
        )
    if not scored:
        raise outcomes[0]
    return rows


def write_pgm(path: str, image: np.ndarray) -> None:
    """8-bit binary PGM; the file's directory is created if missing."""
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    _atomic_write(path, header + img.tobytes())


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise ValueError(f"{path}: not a binary 8-bit PGM")
    width, height = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError(f"{path}: unsupported max value {maxval}")
    data = np.frombuffer(parts[3][: width * height], dtype=np.uint8)
    return data.reshape((height, width))


def export_affinity(cfg: RunConfig) -> dict:
    """Run the pipeline and export the affinity matrix as CSV plus a
    min-max normalized PGM heat map.

    When ground-truth labels exist, samples are reordered by label so
    block structure is visible, and the off-block mass fraction is
    reported.
    """
    if cfg.out_dir is None:
        raise ValueError("export_affinity needs an output directory")
    report, affinity = _run(replace(cfg, out_dir=None), None, None)
    truth = report.labels_true

    order = np.arange(affinity.shape[0])
    if truth is not None:
        order = np.argsort(truth, kind="stable")
    ordered = affinity[np.ix_(order, order)]

    csv_path = os.path.join(cfg.out_dir, "affinity.csv")
    _write_csv(csv_path, ordered)

    peak = ordered.max()
    if peak <= 0:
        warnings.warn("affinity matrix is identically zero; PGM will be uniform")
        image = np.zeros_like(ordered, dtype=np.uint8)
    else:
        lo = ordered.min()
        image = np.round(255.0 * (ordered - lo) / (peak - lo)).astype(np.uint8)
    pgm_path = os.path.join(cfg.out_dir, "affinity.pgm")
    write_pgm(pgm_path, image)

    off_block = None
    if truth is not None and ordered.sum() > 0:
        sorted_truth = np.asarray(truth)[order]
        same = sorted_truth[:, None] == sorted_truth[None, :]
        off_block = float(ordered[~same].sum() / ordered.sum())

    meta = {
        "report": report.to_dict(),
        "ordered_by_labels": truth is not None,
        "off_block_mass": off_block,
        "csv": csv_path,
        "pgm": pgm_path,
    }
    _atomic_write(os.path.join(cfg.out_dir, "affinity.json"), json.dumps(meta, indent=2))
    return meta


def bench_time(cfgs: list[RunConfig], runs: int = 3) -> list[dict]:
    """Median-of-``runs`` wall-clock of the representation fit alone, by
    the clock of a run's ``fit_seconds`` (:func:`_fit_stage`)."""
    if not cfgs:
        raise ValueError("bench_time needs at least one config")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    rows = []
    for cfg in cfgs:
        dataset, x, _, s = _prepare(cfg)
        times = []
        for _ in range(runs):
            with _stage("fit"):
                times.append(_fit_stage(cfg, x, s)[2])
        rows.append(
            {
                "method": cfg.method,
                "n_samples": dataset.n_samples,
                "n_clusters": cfg.n_clusters,
                "seconds_median": float(np.median(times)),
                "seconds_runs": times,
                "timed_region": "fit only",
            }
        )
    out_dir = next((c.out_dir for c in cfgs if c.out_dir), None)
    if out_dir is not None:
        keys = ("method", "n_samples", "n_clusters", "seconds_median")
        _write_csv(
            os.path.join(out_dir, "bench.csv"),
            ([*(r[k] for k in keys), *r["seconds_runs"]] for r in rows),
            header=(*keys, *(f"seconds_run{i + 1}" for i in range(runs))),
        )
    return rows


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_table(path: str) -> list[dict]:
    """Parse a header CSV written by this module back into dict rows."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise ValueError(message)


def _parse_grid(text: str) -> list[float]:
    if text.startswith("logspace:"):
        try:
            _, lo, hi, steps = text.split(":")
            return [float(v) for v in np.logspace(float(lo), float(hi), int(steps))]
        except ValueError:
            raise ValueError(f"bad logspace grid {text!r}, expected logspace:lo:hi:steps") from None
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ValueError(f"bad grid {text!r}, expected a comma list or logspace:lo:hi:steps") from None


_SYNTH_KEYS = {
    "clusters": ("clusters", int),
    "per": ("points_per_cluster", int),
    "dim": ("ambient_dim", int),
    "sub": ("subspace_dim", int),
    "warp": ("warp_strength", float),
    "noise": ("noise_sigma", float),
    "seed": ("seed", int),
}


def _parse_synthetic(text: str) -> SyntheticSpec:
    kwargs = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad synthetic field {item!r}, expected key=value")
        key, value = item.split("=", 1)
        if key not in _SYNTH_KEYS:
            raise ValueError(
                f"unknown synthetic key {key!r}, expected one of {sorted(_SYNTH_KEYS)}"
            )
        name, cast = _SYNTH_KEYS[key]
        try:
            kwargs[name] = cast(value)
        except ValueError:
            raise ValueError(f"bad value for synthetic key {key!r}: {value!r}") from None
    return SyntheticSpec(**kwargs)


def _add_common(p: argparse.ArgumentParser) -> None:
    """Flags named by their ``RunConfig`` field; one left out is not set
    (the subparsers suppress defaults), so ``RunConfig`` supplies it."""
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--data", dest="data_path", metavar="DATA", help="CSV file, one sample per row")
    p.add_argument("--synthetic", help="key=value list, e.g. clusters=3,per=50,dim=10,sub=2,warp=0.5,noise=0.01,seed=0")
    p.add_argument("--no-labels", dest="has_labels", action="store_false", help="CSV has no trailing label column")
    p.add_argument("--header", action="store_true", help="skip one CSV header line")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--mu-decay", type=float)
    p.add_argument("--epochs", dest="inner_epochs", metavar="EPOCHS", type=int, help="weight-update passes per outer iteration")
    p.add_argument("--knn", type=int)
    p.add_argument("--weights", choices=WEIGHT_KINDS)
    p.add_argument("--sigma", type=float, help="heat-kernel bandwidth")
    p.add_argument("--affinity", choices=AFFINITY_KINDS)
    p.add_argument("--gamma", type=float)
    p.add_argument("--clusters", dest="n_clusters", metavar="CLUSTERS", type=int)
    p.add_argument("--pca-dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--out", dest="out_dir", metavar="OUT", default="runs", help="output directory")


_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _config_from_args(args) -> RunConfig:
    kwargs = {k: v for k, v in vars(args).items() if k in _FIELDS}
    text = kwargs.get("synthetic")
    kwargs["synthetic"] = _parse_synthetic(text) if text else None
    return RunConfig(**kwargs)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flnnsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        _add_common(p)
        return p

    run = command("run", "single run or seeded repeats")
    run.add_argument("--repeats", type=int, default=1)

    sweep = command("sweep", "grid sweep over alpha/beta (and lambda for ccsc)")
    sweep.add_argument("--alpha-grid", required=True, help="comma list or logspace:lo:hi:steps")
    sweep.add_argument("--beta-grid", required=True)
    sweep.add_argument("--lambda-grid", default=None)
    sweep.add_argument("--repeats", type=int, default=20)
    sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep blocks, at most one per alpha value")

    command("affinity", "export the affinity matrix as CSV + PGM")

    bench = command("bench", "fit-time benchmark over synthetic sizes")
    bench.add_argument("--sizes", default="150,300,600", help="total sample counts, each a multiple of --clusters")
    bench.add_argument("--methods", default="flnnsc,lsr", help="comma list of methods to time")
    bench.add_argument("--bench-runs", type=int, default=3)

    return parser


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, (OSError, CsvFormatError)):
        return EXIT_IO
    if isinstance(exc, ValueError):
        return EXIT_CONFIG
    return EXIT_NUMERIC


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            cfg = _config_from_args(args)
            if args.repeats == 1:
                report = run_single(cfg)
                if report.metrics:
                    line = " ".join(f"{k}={v:.4f}" for k, v in report.metrics.items())
                else:
                    line = "no ground-truth labels; metrics skipped"
                print(f"{cfg.method}: {line} ({report.fit_seconds:.3f}s fit)")
            else:
                agg = run_repeated(cfg, args.repeats)
                if agg["metrics"]:
                    line = " ".join(
                        f"{k}={v['mean']:.4f}+-{v['std']:.4f}" for k, v in agg["metrics"].items()
                    )
                else:
                    line = "no ground-truth labels; metrics skipped"
                print(f"{cfg.method} x{args.repeats}: {line}")
        elif args.command == "sweep":
            cfg = _config_from_args(args)
            grids = (
                _parse_grid(args.alpha_grid),
                _parse_grid(args.beta_grid),
                _parse_grid(args.lambda_grid) if args.lambda_grid else None,
            )
            rows = grid_sweep(cfg, *grids, times=args.repeats, jobs=args.jobs)
            best = next(r for r in rows if r["best"])
            done = sum(1 for r in rows if not r["error"])
            collapsed = sum(r["collapsed"] or 0 for r in rows)
            print(f"sweep: {done}/{len(rows)} points finished, {collapsed} runs collapsed")
            print(
                f"best ca={best['ca']:.4f} at alpha={best['alpha']:g} "
                f"beta={best['beta']:g}"
                + ("" if best["lambda"] is None else f" lambda={best['lambda']:g}")
            )
        elif args.command == "affinity":
            cfg = _config_from_args(args)
            meta = export_affinity(cfg)
            mass = meta["off_block_mass"]
            print(
                f"affinity written to {meta['pgm']}"
                + ("" if mass is None else f" (off-block mass {mass:.4f})")
            )
        elif args.command == "bench":
            if "data_path" in args:
                raise ValueError("bench times synthetic data only: drop --data and use --synthetic")
            if "synthetic" not in args:
                args.synthetic = "clusters=3"  # sizes fill in the rest
            base = _config_from_args(args)
            k = base.n_clusters
            sizes = _parse_grid(args.sizes)
            if any(n < k or n % k for n in sizes):
                raise ValueError(f"--sizes {args.sizes}: each size must be a positive multiple of --clusters {k}")
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            cfgs = []
            for m in methods:
                for n in sizes:
                    spec = dataclasses.replace(base.synthetic, clusters=k, points_per_cluster=int(n) // k)
                    cfgs.append(replace(base, method=m, lam=base.lam if m == "ccsc" else None, synthetic=spec))
            rows = bench_time(cfgs, runs=args.bench_runs)
            for r in rows:
                print(
                    f"{r['method']} n={r['n_samples']} k={r['n_clusters']}: "
                    f"median {r['seconds_median']:.4f}s"
                )
        return EXIT_OK
    except (StageError, OSError, ValueError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc.cause if isinstance(exc, StageError) else exc)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
