"""Repository benchmark for flnnsc.

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 35 --trace 0

Runs one workload (see ``workloads.py`` for what each one is and why) in
this process, with BLAS threads pinned to the CPUs this process may use. The
seed makes the inputs. Passes repeat until ``--seconds`` is used up, every
completed pipeline run is checked after its pass, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the public calls the passes made (``run_single``, or
``grid_sweep`` plus one ``run_repeated`` per baseline setting) and
``failed`` those that raised a pipeline error or whose runs failed a check.
Run-level accounting (``run_single`` calls planned, attempted, failed by
stage and exception class, never attempted) is in the detail lines and in
``done_frac``.

``--trace 0`` measures untraced passes and reports the end-to-end metrics:

- ``run_s``: pass wall time / completed runs in the pass, median over passes;
- ``setup_s``: median over fresh interpreters of the time to import flnnsc
  and prepare the workload's inputs;
- ``done_frac``: completed runs that pass every check / runs a pass plans
  (1 - ``done_frac`` is the failure share, counting runs never attempted);
- ``ca``: mean clustering accuracy over completed runs;
- ``best_ca``: mean CA at the best configuration (the best grid point of
  the sweep; the only configuration elsewhere);
- ``peak_rss_mb``: peak resident memory of this process.

The mean NMI is printed but not reported as a metric: on ``wide_pca`` it
sits near chance and moves by a third between run seeds.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``spans.py``); ``work_n3`` and
``bytes`` are computed from operand shapes, not measured.
``trace.overhead_frac`` is the traced over untraced pass time, minus one.

Details (environment, pass times, per-run label digests, failures, every
span total) go to ``perfbench/results/``. ``--quick`` uses tiny inputs to
test the benchmark itself.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOADS = ("large_n", "wide_pca", "sweep_small")

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("done_frac", "ratio"),
    ("ca", "ratio"),
    ("best_ca", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Span names whose inclusive seconds are reported as ``<name>.s``.
TIMED = (
    "linalg.sym_eigen",
    "linalg.solve_sylvester",
    "models.update_z",
    "models.zstep_objective",
    "flnn.forward",
    "flnn.grad_w",
    "flnn.sgd_step",
    "flnn.forward_batch",
    "models.fit",
    "graph.knn_similarity",
    "graph.laplacian",
    "spectral.affinity_from_z",
    "spectral.spectral_cluster",
    "metrics",
    "cli.run_single",
)
CALLED = (
    "linalg.sym_eigen",
    "linalg.solve_sylvester",
    "models.update_z",
    "graph.knn_similarity",
    "graph.laplacian",
    "cli.run_single",
    "cli.run_repeated",
)
COUNTERS = (
    ("linalg.sym_eigen.work_n3", "n3"),
    ("linalg.as_matrix.calls", "count"),
    ("linalg.as_matrix.bytes", "bytes"),
    ("models.outer_iters", "count"),
    ("models.z_residual_max", "ratio"),
)
# Counts that must repeat exactly between traced passes with one seed.
REPEATING_COUNTS = (
    "models.outer_iters",
    "linalg.sym_eigen.work_n3",
    "flnn.sample_step.calls",
    "graph.laplacian.calls",
)
# Stage totals over the data functions run_single calls, so every workload
# reports them (per-function seconds are in the detail file).
DATA_STAGES = {
    "data.load": ("data.generate_synthetic", "data.load_csv"),
    "data.preprocess": ("data.scale_to_unit", "data.pca_reduce"),
}
PER_LAYER = (
    tuple((f"{name}.s", "s") for name in TIMED)
    + tuple((f"{name}.s", "s") for name in DATA_STAGES)
    + (("models.fit.self_s", "s"), ("cli.run_single.self_s", "s"))
    + tuple((f"{name}.calls", "count") for name in CALLED)
    + (("flnn.sample_step.calls", "count"),)
    + COUNTERS
    + (("models.numerical_errors", "count"), ("trace.overhead_frac", "ratio"))
)


def pin_blas_threads() -> int:
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def import_package():
    """Import flnnsc from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "flnnsc", "__init__.py")):
        raise SystemExit(f"error: flnnsc sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import flnnsc

    if not os.path.abspath(flnnsc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported flnnsc from {flnnsc.__file__}, not {SRC}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def setup_times(args) -> list[float]:
    """Import-and-prepare time of ``SETUP_REPEATS`` fresh interpreters."""
    repeats = 1 if args.quick else SETUP_REPEATS
    times = []
    for i in range(repeats):
        workdir = os.path.join(HERE, ".work", f"setup-{os.getpid()}-{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", workdir]
        if args.quick:
            cmd.append("--quick")
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def setup_only(args) -> None:
    t0 = time.perf_counter()
    import_package()
    import workloads

    os.makedirs(args.setup_only, exist_ok=True)
    workloads.prepare(args.workload, args.seed, args.setup_only, args.quick)
    print(repr(time.perf_counter() - t0))


def one_pass(wl, index, recorder, tracer, spans_path):
    """Run pass ``index``, then check it; with a tracer, trace it."""
    if tracer is not None:
        tracer.reset()
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        results, failed_calls, first_report = wl.run_pass(index, recorder)
        seconds = time.perf_counter() - t0
    info = recorder.drain()
    runs = info["runs"]
    bounds = first_report + [len(runs)]
    info.update(
        round=index % len(wl.rounds),
        traced=tracer is not None,
        seconds=seconds,
        calls=len(first_report),
        # A call fails when it raised or when a run it made failed a check.
        failed_calls=len(failed_calls) + sum(
            not all(r["ok"] for r in runs[a:b]) for a, b in zip(bounds, bounds[1:])
        ),
        failed_call_errors=failed_calls,
        planned=wl.planned_runs,
        completed=len(runs),
        passed_checks=sum(r["ok"] for r in runs),
    )
    if wl.best_of in results:
        rows = results[wl.best_of]
        best = [r for r in rows if r["best"]]
        info["best_ca"] = best[0]["ca"] if best else None
        info["failing_points"] = [
            {"alpha": r["alpha"], "beta": r["beta"], "error": r["error"]} for r in rows if r["error"]
        ]
        info["lsr_best_ca"] = max(
            (agg["metrics"]["ca"]["mean"] for label, agg in results.items() if label.startswith("lsr")),
            default=None,
        )
    if tracer is not None:
        info["layers"] = tracer.layer_totals()
        info["counters"] = dict(tracer.counters)
        if spans_path is not None:
            tracer.save(spans_path)
    return info


def layer_metrics(p: dict) -> dict[str, float]:
    layers, counters = p["layers"], p["counters"]
    values = {}
    for name in TIMED:
        values[f"{name}.s"] = layers[name]["s"]
    for stage, parts in DATA_STAGES.items():
        values[f"{stage}.s"] = sum(layers[part]["s"] for part in parts)
    values["models.fit.self_s"] = layers["models.fit"]["self_s"]
    values["cli.run_single.self_s"] = layers["cli.run_single"]["self_s"]
    for name in CALLED:
        values[f"{name}.calls"] = layers[name]["calls"]
    values["flnn.sample_step.calls"] = layers["flnn.sgd_step"]["calls"]
    for name, _ in COUNTERS:
        values[name] = counters.get(name, 0.0)
    values["models.numerical_errors"] = p["numerical_errors"]
    return values


def summarize(args, passes, setup) -> tuple[dict, list[str]]:
    """Result object and human-readable detail lines."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    errors = [e for p in passes for e in p["check_errors"]]
    if any(p["completed"] == 0 for p in passes):
        errors.append("a pass completed no run")
    per_run = [p["seconds"] / p["completed"] for p in plain if p["completed"]]
    run_s = statistics.median(per_run) if per_run else float("nan")
    units = dict(END_TO_END + PER_LAYER)

    first = passes[0]
    lines = [
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced passes",
        "pass seconds: " + ", ".join(f"{p['seconds']:.3f}{'*' if p['traced'] else ''}" for p in passes),
        f"run_s: median of {len(per_run)} passes, {run_s:.4f} s per completed run",
        f"runs per pass: planned {first['planned']}, attempted {first['attempted']}, completed "
        f"{first['completed']}, passed checks {first['passed_checks']}, never attempted "
        f"{first['planned'] - first['attempted']}; fail_frac (failed / attempted) "
        f"{(first['attempted'] - first['passed_checks']) / max(first['attempted'], 1):.4f}",
    ]
    lines += [f"  failed runs at {key}: {n}" for key, n in first["failures"].items()]
    lines += [
        f"  failing grid point alpha={p['alpha']:g} beta={p['beta']:g}: {p['error']}"
        for p in first.get("failing_points", [])
    ]
    digests = {}
    for p in passes:
        digests.setdefault(p["round"], []).append([r["labels"] for r in p["runs"]])
    same = all(d == ds[0] for ds in digests.values() for d in ds)
    lines.append(f"labels identical across passes of the same run seeds: {same}")

    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
        values["trace.overhead_frac"] = (
            statistics.median(p["seconds"] for p in traced)
            / statistics.median(p["seconds"] for p in plain)
            - 1.0
        )
        counts = [[v[k] for k in REPEATING_COUNTS] for v in per_pass]
        lines.append(f"counts identical across traced passes: {all(c == counts[0] for c in counts)}")
        fit = values["models.fit.s"]
        loop = values["flnn.forward.s"] + values["flnn.grad_w.s"] + values["flnn.sgd_step.s"]
        lines.append(
            f"share of models.fit.s: update_z {values['models.update_z.s'] / fit:.3f}, "
            f"per-sample flnn {loop / fit:.3f}, forward_batch {values['flnn.forward_batch.s'] / fit:.3f}"
        )
        metrics = {name: values[name] for name, _ in PER_LAYER}
    else:
        # Quality over one pass of each round (repeats give the same labels).
        cycle = list({p["round"]: p for p in reversed(plain)}.values())
        runs = [r for p in cycle for r in p["runs"]]
        best = [p["best_ca"] for p in cycle if p.get("best_ca") is not None]
        ca = statistics.fmean(r["ca"] for r in runs)
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "done_frac": sum(p["passed_checks"] for p in plain) / sum(p["planned"] for p in plain),
            "ca": ca,
            "best_ca": statistics.fmean(best) if best else ca,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines.append(f"nmi (mean over completed runs): {statistics.fmean(r['nmi'] for r in runs):.4f}")
        lines.append("setup seconds: " + ", ".join(f"{t:.3f}" for t in setup))
        if first.get("lsr_best_ca") is not None:
            lines.append(f"best grid ca {metrics['best_ca']:.4f} vs ridge baseline best {first['lsr_best_ca']:.4f}")

    result = {
        "correct": not errors,
        "attempted": sum(p["calls"] for p in passes),
        "failed": sum(p["failed_calls"] for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    lines += [f"check failed: {e}" for e in errors[:20]]
    return result, lines


def run_benchmark(args, workdir: str, threads: int) -> tuple[dict, list[str], dict]:
    import spans
    import workloads

    setup = [] if args.trace else setup_times(args)
    wl = workloads.prepare(args.workload, args.seed, workdir, args.quick)
    recorder = workloads.Recorder()
    tracer = spans.Tracer() if args.trace else None
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.npz")
    # Untraced runs cover every round at least once; traced runs alternate
    # untraced and traced passes of the first round.
    min_passes = 2 if args.trace else len(wl.rounds)
    passes = []
    with recorder.installed():
        t_begin = time.perf_counter()
        while True:
            use_tracer = tracer if args.trace and len(passes) % 2 == 1 else None
            first_traced = use_tracer is not None and not any(p["traced"] for p in passes)
            index = 0 if args.trace else len(passes)
            passes.append(one_pass(wl, index, recorder, use_tracer, spans_path if first_traced else None))
            enough = len(passes) >= min_passes
            typical = statistics.median(p["seconds"] for p in passes)
            if enough and time.perf_counter() - t_begin + typical > args.seconds:
                break
    result, lines = summarize(args, passes, setup)
    detail = {"environment": environment(args.seed, threads), "setup_seconds": setup,
              "passes": passes, "result": result}
    return result, lines, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, to test the benchmark")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    if args.setup_only:
        setup_only(args)
        return 0
    import_package()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result, lines, detail = run_benchmark(args, workdir, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    env = detail["environment"]
    lines.append("environment: " + json.dumps(env))
    lines.append(f"details: {os.path.relpath(detail_path, ROOT)}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
