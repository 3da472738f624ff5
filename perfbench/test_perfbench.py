"""Tests of the benchmark itself, on tiny inputs (``--quick``)."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import run

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def test_declared_metrics_match_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_mode_emits_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload, tmp_path):
    wl = workloads.prepare(workload, 4, str(tmp_path), quick=True)
    recorder = workloads.Recorder()
    tracer = spans.Tracer()
    counts = []
    with recorder.installed():
        for _ in range(2):
            values = run.layer_metrics(run.one_pass(wl, 0, recorder, tracer, None))
            counts.append([values[k] for k in run.REPEATING_COUNTS])
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0])


def test_checks_reject_bad_outputs(tmp_path):
    wl = workloads.prepare("wide_pca", 4, str(tmp_path), quick=True)
    recorder = workloads.Recorder()
    with recorder.installed():
        wl.run_pass(0, recorder)
    report = recorder.reports[0]
    rep, lam = recorder.blends[0]
    assert workloads.check_report(report) == []
    assert workloads.check_blend(rep, lam) == []

    k = report.config["n_clusters"]
    assert workloads.check_report(dataclasses.replace(report, labels_pred=report.labels_pred[1:]))
    assert workloads.check_report(dataclasses.replace(report, labels_pred=[k] * report.n_samples))
    assert workloads.check_report(dataclasses.replace(report, metrics={**report.metrics, "nmi": 1.5}))
    bad_trace = {**report.trace, "z_residual": [1e-6]}
    assert workloads.check_report(dataclasses.replace(report, trace=bad_trace))
    assert workloads.check_blend(dataclasses.replace(rep, z=rep.z + 1e-9), lam)
