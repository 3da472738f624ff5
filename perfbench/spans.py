"""In-memory span tracer that observes flnnsc from outside the package.

Each traced function is replaced, for the duration of a ``with`` block, at
every flnnsc module attribute that holds it, because a caller resolves the
name in its own module's globals (``update_z`` is looked up in
``flnnsc.models``, ``sym_eigen`` in both ``flnnsc.linalg`` and
``flnnsc.spectral``). Nothing under ``src/`` changes. A traced name that
the package no longer defines is skipped and reports 0 calls.

A span is (name, start, end, parent span, run id); the run id is the index
of the enclosing ``cli.run_single`` span, or -1 outside any run. Spans are
kept in flat arrays and written out only when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

RUN_SPAN = "cli.run_single"


def _fit_counts(counters, args, result):
    trace = result[2] if isinstance(result, tuple) and len(result) == 3 else None
    if trace is None:
        return
    counters["models.outer_iters"] += len(trace.z_delta)
    residuals = list(trace.z_residual)
    if trace.z2_residual is not None:
        residuals.append(trace.z2_residual)
    if residuals:
        counters["models.z_residual_max"] = max(counters["models.z_residual_max"], max(residuals))


def _eigen_work(counters, args, result):
    counters["linalg.sym_eigen.work_n3"] += float(np.shape(args[0])[0]) ** 3


def _matrix_bytes(counters, args, result):
    counters["linalg.as_matrix.calls"] += 1
    counters["linalg.as_matrix.bytes"] += result.nbytes


# (span name, module that defines the function, attribute, counter hook)
SPANS = [
    (RUN_SPAN, "flnnsc.cli", "run_single", None),
    ("cli.run_repeated", "flnnsc.cli", "run_repeated", None),
    ("data.generate_synthetic", "flnnsc.data", "generate_synthetic", None),
    ("data.load_csv", "flnnsc.data", "load_csv", None),
    ("data.scale_to_unit", "flnnsc.data", "scale_to_unit", None),
    ("data.pca_reduce", "flnnsc.data", "pca_reduce", None),
    ("graph.knn_similarity", "flnnsc.graph", "knn_similarity", None),
    ("graph.laplacian", "flnnsc.graph", "laplacian", None),
    ("models.fit", "flnnsc.models", "fit_flnnsc", _fit_counts),
    ("models.fit", "flnnsc.models", "fit_ccsc", _fit_counts),
    ("models.fit", "flnnsc.models", "fit_lsr", None),
    ("models.fit", "flnnsc.models", "fit_linear_smr", None),
    ("models.update_z", "flnnsc.models", "update_z", None),
    ("models.zstep_objective", "flnnsc.models", "zstep_objective", None),
    ("flnn.forward", "flnnsc.flnn", "forward", None),
    ("flnn.grad_w", "flnnsc.flnn", "grad_w", None),
    ("flnn.sgd_step", "flnnsc.flnn", "sgd_step", None),
    ("flnn.forward_batch", "flnnsc.flnn", "forward_batch", None),
    ("linalg.solve_sylvester", "flnnsc.linalg", "solve_sylvester", None),
    ("linalg.sym_eigen", "flnnsc.linalg", "sym_eigen", _eigen_work),
    ("spectral.affinity_from_z", "flnnsc.spectral", "affinity_from_z", None),
    ("spectral.spectral_cluster", "flnnsc.spectral", "spectral_cluster", None),
    ("metrics", "flnnsc.metrics", "clustering_accuracy", None),
    ("metrics", "flnnsc.metrics", "nmi", None),
    ("metrics", "flnnsc.metrics", "ari", None),
    ("metrics", "flnnsc.metrics", "pairwise_f1", None),
]

# Called per sample several times over; counted without a span so the
# tracer does not dominate the loop it measures.
COUNTED = [("flnnsc.linalg", "as_matrix", _matrix_bytes)]


def _package_modules():
    import flnnsc

    mods = [flnnsc]
    for info in pkgutil.iter_modules(flnnsc.__path__):
        mods.append(importlib.import_module(f"flnnsc.{info.name}"))
    return mods


@contextlib.contextmanager
def patched(replacements):
    """Replace ``fn`` by ``make(fn)`` at every flnnsc module attribute that
    holds it, restoring the originals on exit. ``replacements`` is a list of
    ``(defining module, attribute, make)``."""
    mods = _package_modules()
    saved = []
    try:
        for owner, attr, make in replacements:
            try:
                original = getattr(importlib.import_module(owner), attr, None)
            except ImportError:
                original = None
            if original is None:
                continue
            wrapper = make(original)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


class Tracer:
    """Collects spans and counters while installed with :meth:`installed`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.counters = defaultdict(float)
        self._stack: list[int] = []

    def _span(self, name, hook):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        opens_run = name == RUN_SPAN

        def make(fn):
            def traced(*args, **kwargs):
                stack = self._stack
                idx = len(self.start)
                parent = stack[-1] if stack else -1
                self.name_id.append(nid)
                self.parent.append(parent)
                self.run.append(idx if opens_run else (self.run[parent] if parent >= 0 else -1))
                self.start.append(0.0)
                self.end.append(0.0)
                stack.append(idx)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    self.start[idx] = t0
                    self.end[idx] = t1
                if hook is not None:
                    hook(self.counters, args, result)
                return result

            traced.__wrapped__ = fn
            return traced

        return make

    def _counted(self, hook):
        def make(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(self.counters, args, result)
                return result

            counted.__wrapped__ = fn
            return counted

        return make

    def installed(self):
        """Context manager that wraps every target in :data:`SPANS` and
        :data:`COUNTED`."""
        replacements = [(owner, attr, self._span(name, hook)) for name, owner, attr, hook in SPANS]
        replacements += [(owner, attr, self._counted(hook)) for owner, attr, hook in COUNTED]
        return patched(replacements)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds ``s``, ``self_s`` (``s`` minus
        the time its direct child spans cover) and ``calls``."""
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        names = np.array(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_dur = dur - child
        totals = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name, *_ in SPANS}
        for nid, name in enumerate(self.names):
            mask = names == nid
            totals[name] = {
                "s": float(dur[mask].sum()),
                "self_s": float(self_dur[mask].sum()),
                "calls": int(mask.sum()),
            }
        return totals

    def save(self, path: str) -> None:
        """Write the spans as arrays (``names`` indexes ``name_id``)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            run=np.array(self.run, dtype=np.int64),
        )
