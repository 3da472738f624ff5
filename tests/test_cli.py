import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import flnnsc.cli as cli_mod
import flnnsc.models as models_mod
from flnnsc.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    RunReport,
    bench_time,
    compute_metrics,
    export_affinity,
    grid_sweep,
    load_report,
    load_table,
    main,
    read_pgm,
    run_repeated,
    run_single,
    write_pgm,
)
from flnnsc.data import SyntheticSpec, load_csv
from flnnsc.linalg import NumericalError
from flnnsc.models import SolveTrace
from flnnsc.spectral import affinity_from_z

WARPED = SyntheticSpec(points_per_cluster=25, seed=0)
LINEAR = SyntheticSpec(warp_strength=0.0, noise_sigma=0.0, seed=1)

FAST = dict(max_iters=15, tol=1e-6)


def cfg_for(method, out_dir, spec=WARPED, **kw):
    merged = {**FAST, **kw}
    return RunConfig(method=method, synthetic=spec, out_dir=str(out_dir), **merged)


class TestRunSingle:
    def test_lsr_on_linear_data(self, tmp_path):
        report = run_single(cfg_for("lsr", tmp_path, spec=LINEAR, alpha=1.0))
        assert report.metrics["ca"] >= 0.95

    def test_infinite_tol_single_iteration(self, tmp_path):
        report = run_single(cfg_for("flnnsc", tmp_path, tol=np.inf))
        assert len(report.trace["z_delta"]) == 1
        assert report.metrics is not None
        data = load_report(tmp_path / "report.json")
        assert data["method"] == "flnnsc"
        assert data["stop_reason"] == "tol"
        assert set(data["metrics"]) == {"ca", "nmi", "ari", "f1"}

    def test_ccsc_lambda_one_matches_flnnsc(self, tmp_path):
        rep_fl = run_single(cfg_for("flnnsc", tmp_path / "a", seed=5))
        rep_cc = run_single(cfg_for("ccsc", tmp_path / "b", lam=1.0, seed=5))
        assert rep_cc.metrics == rep_fl.metrics
        assert rep_cc.labels_pred == rep_fl.labels_pred

    def test_report_metrics_recomputable(self, tmp_path):
        report = run_single(cfg_for("smr_linear", tmp_path, alpha=1.0))
        again = compute_metrics(report.labels_true, report.labels_pred)
        assert again == report.metrics

    def test_trace_csv_reparses(self, tmp_path):
        run_single(cfg_for("flnnsc", tmp_path))
        rows = load_table(tmp_path / "trace.csv")
        assert len(rows) >= 1
        assert float(rows[0]["z_residual"]) <= 1e-8

    def test_trace_csv_matches_report(self, tmp_path):
        report = run_single(cfg_for("ccsc", tmp_path, lam=0.5))
        rows = load_table(tmp_path / "trace.csv")
        assert len(rows) == len(report.trace["z_delta"])
        for key, values in report.trace.items():
            assert [float(r[key]) for r in rows] == values
        assert [int(r["iteration"]) for r in rows] == list(range(1, len(rows) + 1))

    def test_trace_columns_are_the_solve_trace_lists(self, tmp_path):
        # every per-iteration (list) field of SolveTrace is a column, in order
        lists = [f.name for f in dataclasses.fields(SolveTrace)
                 if isinstance(getattr(SolveTrace(), f.name), list)]
        report = run_single(cfg_for("flnnsc", tmp_path, max_iters=2))
        with open(tmp_path / "trace.csv") as fh:
            assert fh.readline().rstrip("\n").split(",") == ["iteration", *lists]
        assert list(report.trace) == lists

    def test_metric_ranges(self, tmp_path):
        report = run_single(cfg_for("flnnsc", tmp_path))
        m = report.metrics
        assert 0.0 <= m["ca"] <= 1.0
        assert 0.0 <= m["nmi"] <= 1.0
        assert -1.0 <= m["ari"] <= 1.0
        assert 0.0 <= m["f1"] <= 1.0

    def test_working_set_at_most_eight_n_by_n(self):
        # numpy reports its array allocations to tracemalloc (LAPACK's
        # workspace is not seen); one run at n=300 may hold at most eight
        # n x n float64 arrays at once. A small run first takes the
        # process's one-off allocations out of the measurement.
        run_single(RunConfig(synthetic=SyntheticSpec(points_per_cluster=4), max_iters=2))
        n = 300
        cfg = RunConfig(synthetic=SyntheticSpec(points_per_cluster=n // 3), max_iters=5)
        tracemalloc.start()
        try:
            run_single(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n * 8, f"traced peak {peak / (n * n * 8):.2f} n x n arrays"


class TestRunRepeated:
    def test_single_repeat_equals_run(self, tmp_path):
        agg = run_repeated(cfg_for("lsr", tmp_path, spec=LINEAR), times=1)
        single = agg["runs"][0]
        assert agg["metrics"]["ca"]["mean"] == single["metrics"]["ca"]
        assert agg["metrics"]["ca"]["std"] == 0.0

    def test_aggregate_matches_per_run_files(self, tmp_path):
        agg = run_repeated(cfg_for("flnnsc", tmp_path), times=3)
        cas = []
        for i in range(3):
            data = load_report(tmp_path / f"run_{i:03d}" / "report.json")
            cas.append(data["metrics"]["ca"])
        assert np.isclose(agg["metrics"]["ca"]["mean"], np.mean(cas), atol=1e-15)
        assert np.isclose(agg["metrics"]["ca"]["std"], np.std(cas), atol=1e-15)

    def test_seeds_derived(self, tmp_path):
        agg = run_repeated(cfg_for("flnnsc", tmp_path, seed=7), times=2)
        seeds = [r["config"]["seed"] for r in agg["runs"]]
        assert seeds == [7, 8]


class TestGridSweep:
    def test_single_point_matches_repeated(self, tmp_path):
        cfg = cfg_for("lsr", tmp_path / "sweep", spec=LINEAR)
        rows = grid_sweep(cfg, [1.0], [0.1], times=2)
        assert len(rows) == 1
        agg = run_repeated(cfg_for("lsr", tmp_path / "ref", spec=LINEAR), times=2)
        assert np.isclose(rows[0]["ca"], agg["metrics"]["ca"]["mean"], atol=1e-15)

    def test_three_by_three(self, tmp_path):
        cfg = cfg_for("flnnsc", tmp_path, max_iters=5)
        rows = grid_sweep(cfg, [0.1, 1.0, 10.0], [0.01, 0.1, 1.0], times=1)
        assert len(rows) == 9
        assert sum(r["best"] for r in rows) == 1
        best = next(r for r in rows if r["best"])
        assert best["ca"] == max(r["ca"] for r in rows if r["ca"] is not None)
        table = load_table(tmp_path / "sweep.csv")
        assert len(table) == 9

    def test_collapsed_repeats_are_counted(self, tmp_path, capsys):
        # mu beta = 1 at beta = 100: each repeat's fit on n = 150 collapses
        # (no singular value of its output kept), while beta = 0.1 stays live
        assert main(["sweep", "--synthetic", "per=50", "--alpha-grid", "1", "--beta-grid", "0.1,100",
                     "--repeats", "2", "--max-iters", "3", "--out", str(tmp_path)]) == 0
        assert "sweep: 2/2 points finished, 2 runs collapsed" in capsys.readouterr().out
        assert [r["collapsed"] for r in load_table(tmp_path / "sweep.csv")] == ["0", "2"]

    def test_invalid_grid_value_raises_before_prepare(self, tmp_path, monkeypatch):
        # a value the fit rejects is a usage error, not a row of the sweep
        monkeypatch.setattr(cli_mod, "_prepare", _no_prepare)
        cfg = cfg_for("lsr", tmp_path, spec=LINEAR)
        with pytest.raises(ValueError, match="alpha must be finite and non-negative, got -1.0"):
            grid_sweep(cfg, [-1.0, 1.0], [0.1], times=1)
        assert not (tmp_path / "sweep.csv").exists()

    def test_error_text_round_trips(self, tmp_path):
        # the missing path contains a quote, so the error text quotes it with '"'
        # (the only point failed, so the sweep raises its error once the table is written)
        cfg = RunConfig(method="lsr", data_path=str(tmp_path / "it's.csv"), out_dir=str(tmp_path))
        with pytest.raises(cli_mod.StageError) as raised:
            grid_sweep(cfg, [1.0], [0.1], times=1)
        table = load_table(tmp_path / "sweep.csv")
        assert '"' in table[0]["error"]
        assert table[0]["error"] == f"StageError: {raised.value}"
        assert table[0]["ca"] == "" and table[0]["collapsed"] == ""

    def test_lambda_grid_only_for_ccsc(self, tmp_path):
        cfg = cfg_for("flnnsc", tmp_path)
        with pytest.raises(ValueError, match="ccsc"):
            grid_sweep(cfg, [1.0], [1.0], [0.5], times=1)

    def test_ccsc_lambda_grid(self, tmp_path):
        cfg = cfg_for("ccsc", tmp_path, max_iters=5)
        rows = grid_sweep(cfg, [1.0], [0.1], [0.0, 0.5, 1.0], times=1)
        assert [r["lambda"] for r in rows] == [0.0, 0.5, 1.0]
        table = load_table(tmp_path / "sweep.csv")
        assert [float(r["lambda"]) for r in table] == [0.0, 0.5, 1.0]


def _no_prepare(cfg):
    raise AssertionError("data was prepared")


# (base settings, the setting the fit rejects, its message)
_REJECTED = {
    "alpha-negative": ({}, {"alpha": -1.0}, "alpha must be finite and non-negative, got -1.0"),
    "alpha-nan": ({}, {"alpha": float("nan")}, "alpha must be finite and non-negative, got nan"),
    "beta-inf": ({}, {"beta": float("inf")}, "beta must be finite and non-negative, got inf"),
    "mu-zero": ({}, {"mu": 0.0}, "mu must be finite and positive, got 0.0"),
    "tol-zero": ({}, {"tol": 0.0}, "tol must be positive, got 0.0"),
    "max-iters-zero": ({}, {"max_iters": 0}, r"max_iters \(--max-iters\) must be >= 1, got 0"),
    "epochs-zero": ({}, {"inner_epochs": 0}, r"inner_epochs \(--epochs\) must be >= 1, got 0"),
    "mu-decay-zero": ({}, {"mu_decay": 0.0}, r"mu_decay must lie in \(0, 1\], got 0.0"),
    "ccsc-lambda-2": ({"method": "ccsc"}, {"lam": 2.0}, r"lam must lie in \[0, 1\], got 2.0"),
    "lsr-alpha-0": ({"method": "lsr"}, {"alpha": 0.0},
                    r"alpha \(--alpha\) is the ridge weight of method 'lsr' and must be positive, got 0.0"),
    "lsr-lambda": ({"method": "lsr"}, {"lam": 0.5}, "lambda is only accepted for method 'ccsc'"),
    "method-unknown": ({}, {"method": "bogus"}, "unknown method 'bogus'"),
}


@pytest.mark.parametrize("base, bad, message", list(_REJECTED.values()), ids=list(_REJECTED))
def test_rejected_setting_fails_before_any_data(base, bad, message, tmp_path, monkeypatch):
    # every entry point raises it when the config is built, so no data is loaded
    monkeypatch.setattr(cli_mod, "_prepare", _no_prepare)
    good = RunConfig(synthetic=WARPED, out_dir=str(tmp_path / "out"), **base)
    calls = [
        lambda: RunConfig(synthetic=WARPED, **base, **bad),
        lambda: grid_sweep(dataclasses.replace(good, **bad), [1.0], [0.1], times=1),
        lambda: run_repeated(dataclasses.replace(good, **bad), 2),
        lambda: bench_time([good, dataclasses.replace(good, **bad)]),
    ]
    if set(bad) <= {"alpha", "beta", "lam"}:  # also as a grid value of a valid config
        grids = ([bad.get("alpha", 1.0)], [bad.get("beta", 0.1)], [bad["lam"]] if "lam" in bad else None)
        calls.append(lambda: grid_sweep(good, *grids, times=1))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert not (tmp_path / "out").exists()


class TestLockstepSweep:
    def test_rows_equal_per_point_runs(self, tmp_path):
        # each point, repeat by repeat, reports what its own run_single reports
        for cfg, grids in (
            (cfg_for("flnnsc", tmp_path / "fl", max_iters=8), ([0.1, 1.0], [0.0, 0.1, 100.0], None)),
            (cfg_for("ccsc", tmp_path / "cc", max_iters=8), ([1.0], [0.0, 0.1], [0.0, 0.5, 1.0])),
        ):
            rows = grid_sweep(cfg, *grids, times=2)
            points = cli_mod._sweep_points(cfg, *grids)
            assert len(rows) == len(points)
            for row, point in zip(rows, points):
                alone = [run_single(dataclasses.replace(point, seed=point.seed + i, out_dir=None))
                         for i in range(2)]
                assert row["error"] == ""
                assert row["ca"] == float(np.mean([r.metrics["ca"] for r in alone]))
                for i, ref in enumerate(alone):
                    got = load_report(os.path.join(point.out_dir, f"run_{i:03d}", "report.json"))
                    assert got["labels_pred"] == ref.labels_pred
                    assert got["metrics"] == ref.metrics
                    assert got["stop_reason"] == ref.stop_reason
                    for key, values in ref.trace.items():
                        if key != "seconds":
                            assert got["trace"][key] == values, key

    def test_diverging_point_keeps_its_own_error(self, tmp_path):
        cfg = cfg_for("flnnsc", tmp_path / "sweep", max_iters=5)
        with np.errstate(all="ignore"):
            rows = grid_sweep(cfg, [1.0], [0.1, 1e7], times=1)
            with pytest.raises(cli_mod.StageError) as alone:
                run_single(dataclasses.replace(cfg, beta=1e7, out_dir=None))
        assert rows[0]["error"] == "" and rows[0]["ca"] is not None
        assert rows[1]["error"] == f"StageError: {alone.value}"
        assert "weight update diverged" in rows[1]["error"]

    def test_block_failed_in_a_repeat_fits_no_empty_row(self, tmp_path, monkeypatch):
        # both points diverge at repeat 0, so repeat 1 has nothing left to fit
        rows_fitted = []
        fit_lockstep = cli_mod._fit_lockstep

        def observed(data, cfgs):
            rows_fitted.append(len(cfgs))
            return fit_lockstep(data, cfgs)

        monkeypatch.setattr(cli_mod, "_fit_lockstep", observed)
        cfg = cfg_for("flnnsc", tmp_path, max_iters=5)
        with np.errstate(all="ignore"), pytest.raises(cli_mod.StageError, match="diverged"):
            grid_sweep(cfg, [1.0], [1e7, 1e8], times=2)
        assert rows_fitted == [2]
        table = load_table(tmp_path / "sweep.csv")
        assert all("weight update diverged" in r["error"] for r in table)

    def test_data_prepared_once(self, tmp_path, monkeypatch):
        calls = []
        prepare = cli_mod._prepare

        def counted(cfg):
            calls.append(cfg)
            return prepare(cfg)

        monkeypatch.setattr(cli_mod, "_prepare", counted)
        run_repeated(cfg_for("flnnsc", tmp_path / "run", max_iters=3), times=3)
        assert len(calls) == 1
        grid_sweep(cfg_for("flnnsc", tmp_path / "sweep", max_iters=3), [0.1, 1.0], [0.1, 1.0], times=2)
        assert len(calls) == 2

    def test_row_member_fit_seconds_are_its_trace(self, tmp_path):
        # every point's fit time is its own share of the row's fit, not the
        # whole row for the first point and ~0 for the others
        cfg = cfg_for("flnnsc", tmp_path, max_iters=5)
        grid_sweep(cfg, [0.1, 1.0], [0.01, 0.1, 1.0], times=2)
        for point in cli_mod._sweep_points(cfg, [0.1, 1.0], [0.01, 0.1, 1.0]):
            for i in range(2):
                got = load_report(os.path.join(point.out_dir, f"run_{i:03d}", "report.json"))
                assert got["fit_seconds"] == sum(got["trace"]["seconds"]) > 0
                assert got["total_seconds"] > got["fit_seconds"]

    def test_every_row_member_is_one_fit_call(self, tmp_path, monkeypatch):
        # a point handed its row fit still takes it from fit_ccsc, once, so
        # what observes fits there sees every point's trace and blend
        calls = {}
        fit = cli_mod.fit_ccsc

        def observed(*args, **kwargs):
            result = fit(*args, **kwargs)
            cfg = args[2]
            calls.setdefault((cfg.alpha, cfg.beta, cfg.seed), []).append(result)
            return result

        monkeypatch.setattr(cli_mod, "fit_ccsc", observed)
        cfg = cfg_for("ccsc", tmp_path, max_iters=3)
        grid_sweep(cfg, [0.1, 1.0], [0.0, 0.1], [0.5], times=2)
        assert len(calls) == 8
        for point in cli_mod._sweep_points(cfg, [0.1, 1.0], [0.0, 0.1], [0.5]):
            for i in range(2):
                (result,) = calls[(point.alpha, point.beta, point.seed + i)]
                rep, _, trace = result
                assert np.array_equal(rep.z, 0.5 * rep.z1 + 0.5 * rep.z2)
                got = load_report(os.path.join(point.out_dir, f"run_{i:03d}", "report.json"))
                assert got["trace"]["z_delta"] == trace.z_delta

    def test_repeats_factor_the_laplacian_once(self, tmp_path, monkeypatch):
        calls = []
        laplacian = models_mod.laplacian

        def counted(s):
            calls.append(s)
            return laplacian(s)

        monkeypatch.setattr(models_mod, "laplacian", counted)
        run_repeated(cfg_for("flnnsc", tmp_path, max_iters=3), times=3)
        assert len(calls) == 1

    def test_fit_data_failure_is_every_network_points_row(self, tmp_path, monkeypatch):
        built = []

        def broken(x, s):
            built.append(x)
            raise NumericalError("no factors")

        monkeypatch.setattr(cli_mod, "_FitData", broken)
        with pytest.raises(cli_mod.StageError, match="no factors"):
            grid_sweep(cfg_for("flnnsc", tmp_path, max_iters=3), [0.1, 1.0], [0.1, 1.0], times=2)
        assert len(built) == 1
        table = load_table(tmp_path / "sweep.csv")
        assert [r["error"] for r in table] == ["StageError: stage 'fit' failed: no factors"] * 4
        with pytest.raises(cli_mod.StageError, match="no factors"):
            run_repeated(cfg_for("ccsc", tmp_path / "cc", max_iters=3), times=2)
        assert len(built) == 2
        # the linear methods fit no network and never build it
        grid_sweep(cfg_for("lsr", tmp_path / "lsr", spec=LINEAR), [0.1, 1.0], [0.1], times=2)
        run_repeated(cfg_for("smr_linear", tmp_path / "smr", spec=LINEAR), times=2)
        assert len(built) == 2

    def test_sweep_without_output_converts_no_report(self, tmp_path, monkeypatch):
        # the rows need only the means; the per-run dicts are for aggregate.json
        calls = []
        to_dict = RunReport.to_dict

        def counted(report):
            calls.append(report)
            return to_dict(report)

        monkeypatch.setattr(RunReport, "to_dict", counted)
        cfg = dataclasses.replace(cfg_for("flnnsc", tmp_path, max_iters=3), out_dir=None)
        rows = grid_sweep(cfg, [0.1, 1.0], [0.1], times=2)
        assert all(r["ca"] is not None for r in rows)
        assert calls == []

    @pytest.mark.parametrize("grids", [
        ["--alpha-grid", "0.1,0.1000001", "--beta-grid", "0.1"],
        ["--alpha-grid", "1,1", "--beta-grid", "0.1"],
        ["--alpha-grid", "1", "--beta-grid", "0.5,0.1,0.5"],
        ["--method", "ccsc", "--alpha-grid", "1", "--beta-grid", "0.1", "--lambda-grid", "0.3,0.30000001"],
    ], ids=["alpha-tag", "alpha-repeated", "beta-repeated", "lambda-tag"])
    def test_points_sharing_a_directory_are_rejected(self, grids, tmp_path, capsys):
        # both points used to write into one point_* directory, the second
        # overwriting the first's reports
        rc = main(["sweep", "--synthetic", "clusters=2,per=10,dim=4,sub=2", "--repeats", "1",
                   "--out", str(tmp_path / "out")] + grids)
        assert rc == EXIT_CONFIG
        assert "share the name point_" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExportAffinity:
    def test_block_structure_and_roundtrip(self, tmp_path):
        cfg = cfg_for("flnnsc", tmp_path, spec=SyntheticSpec(points_per_cluster=50, seed=0), alpha=1.0, beta=0.1, max_iters=40)
        meta = export_affinity(cfg)
        assert meta["ordered_by_labels"]
        assert meta["off_block_mass"] is not None and meta["off_block_mass"] < 0.2

        csv_matrix = load_csv(tmp_path / "affinity.csv").x.T  # rows on disk
        image = read_pgm(str(tmp_path / "affinity.pgm"))
        assert image.shape == csv_matrix.shape
        lo, hi = csv_matrix.min(), csv_matrix.max()
        normalized = (csv_matrix - lo) / (hi - lo)
        assert np.max(np.abs(normalized - image / 255.0)) <= 1.0 / 255.0 + 1e-12

    def test_csv_is_the_runs_affinity(self, tmp_path, monkeypatch):
        # the exported matrix is the one the run clustered, from its own fit
        fits = []
        fit_stage = cli_mod._fit_stage

        def recorded(*args):
            fits.append(fit_stage(*args))
            return fits[-1]

        monkeypatch.setattr(cli_mod, "_fit_stage", recorded)
        cfg = cfg_for("flnnsc", tmp_path, spec=SyntheticSpec(points_per_cluster=20, seed=0),
                      max_iters=5)
        meta = export_affinity(cfg)
        assert len(fits) == 1
        order = np.argsort(meta["report"]["labels_true"], kind="stable")
        expected = affinity_from_z(fits[0][0].z, cfg.affinity, cfg.gamma)[np.ix_(order, order)]
        on_disk = np.loadtxt(tmp_path / "affinity.csv", delimiter=",", ndmin=2)
        assert np.array_equal(on_disk, expected)  # %.17g round-trips every double

    def test_zero_affinity_warns(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli_mod, "affinity_from_z", lambda z, kind, gamma: np.zeros_like(z)
        )
        cfg = RunConfig(
            method="lsr",
            synthetic=SyntheticSpec(
                clusters=2, points_per_cluster=3, ambient_dim=5, subspace_dim=2,
                warp_strength=0.0, noise_sigma=0.0,
            ),
            alpha=1.0,
            n_clusters=2,
            out_dir=str(tmp_path),
        )
        with pytest.warns(UserWarning, match="zero"):
            export_affinity(cfg)
        image = read_pgm(str(tmp_path / "affinity.pgm"))
        assert np.all(image == 0)


class TestBench:
    def test_rows_and_csv(self, tmp_path):
        cfgs = [
            cfg_for("lsr", tmp_path, spec=SyntheticSpec(points_per_cluster=p, seed=0))
            for p in (10, 20)
        ]
        rows = bench_time(cfgs, runs=3)
        assert [r["n_samples"] for r in rows] == [30, 60]
        for r in rows:
            assert r["seconds_median"] == sorted(r["seconds_runs"])[1]
        table = load_table(tmp_path / "bench.csv")
        assert table[0]["method"] == "lsr"
        assert int(table[0]["n_clusters"]) == 3
        for r, row in zip(rows, table):
            assert float(row["seconds_median"]) == r["seconds_median"]
            assert [float(row[f"seconds_run{i + 1}"]) for i in range(3)] == r["seconds_runs"]

    def test_repeat_same_config_same_order_of_magnitude(self, tmp_path):
        cfg = cfg_for("flnnsc", tmp_path, max_iters=3, tol=1e-30)
        # untimed warm-up: a process's first second of work runs up to ~20x slower
        bench_time([cfg], runs=3)
        rows = bench_time([cfg, cfg], runs=3)
        a, b = rows[0]["seconds_median"], rows[1]["seconds_median"]
        assert max(a, b) / min(a, b) < 10.0

    def test_seconds_come_from_the_fit_stage(self, tmp_path, monkeypatch):
        # one fit clock: the benchmark and a run's fit_seconds both read it
        fit_stage = cli_mod._fit_stage
        monkeypatch.setattr(cli_mod, "_fit_stage", lambda *args: (*fit_stage(*args)[:2], 0.25))
        cfg = cfg_for("lsr", tmp_path, spec=LINEAR, alpha=1.0)
        rows = bench_time([cfg], runs=3)
        assert rows[0]["seconds_runs"] == [0.25] * 3
        assert run_single(cfg).fit_seconds == 0.25

    def test_lambda_reaches_the_ccsc_entries(self, tmp_path, monkeypatch):
        # --lambda sets the ccsc entries; the lsr entry takes none
        fit_stage, seen = cli_mod._fit_stage, []

        def spy(cfg, *args):
            seen.append((cfg.method, cfg.lam))
            return fit_stage(cfg, *args)

        monkeypatch.setattr(cli_mod, "_fit_stage", spy)
        rc = main(["bench", "--method", "ccsc", "--lambda", "0.3", "--methods", "ccsc,lsr",
                   "--sizes", "30", "--bench-runs", "1", "--max-iters", "3",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert seen == [("ccsc", 0.3), ("lsr", None)]
        assert len(load_table(tmp_path / "bench.csv")) == 2

    def test_lsr_and_flnnsc_both_complete(self, tmp_path):
        spec = SyntheticSpec(points_per_cluster=40, seed=0)
        cfgs = [cfg_for(m, tmp_path, spec=spec, max_iters=3, tol=1e-30) for m in ("lsr", "flnnsc")]
        rows = bench_time(cfgs, runs=1)
        assert all(r["seconds_median"] > 0 for r in rows)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (7, 5), dtype=np.uint8)
        path = str(tmp_path / "x.pgm")
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_creates_its_directory(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "x.pgm")
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        assert read_pgm(path).shape == (2, 3)


class TestMainExitCodes:
    def test_ok(self, tmp_path):
        rc = main(
            [
                "run", "--method", "lsr",
                "--synthetic", "clusters=3,per=10,dim=6,sub=2,warp=0,noise=0",
                "--alpha", "1.0", "--out", str(tmp_path),
            ]
        )
        assert rc == EXIT_OK

    def test_config_error(self):
        assert main(["run", "--method", "bogus"]) == EXIT_CONFIG
        assert main(["run"]) == EXIT_CONFIG  # neither data nor synthetic
        assert main(["sweep", "--alpha-grid", "zzz", "--beta-grid", "1",
                     "--synthetic", "clusters=2,per=5,dim=4,sub=2"]) == EXIT_CONFIG

    def test_io_error(self, tmp_path):
        rc = main(["run", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
        assert rc == EXIT_IO

    def test_malformed_csv_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        rc = main(["run", "--data", str(bad), "--no-labels", "--out", str(tmp_path)])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("flags", [
        ["--alpha", "nan"],
        ["--beta", "nan"],
        ["--beta", "inf"],
        ["--mu", "inf"],
        ["--method", "lsr", "--alpha", "inf"],
        ["--method", "smr_linear", "--alpha", "inf"],
    ], ids=lambda flags: "_".join(f.lstrip("-") for f in flags))
    def test_non_finite_hyperparameter_is_config_error(self, flags, tmp_path, capsys):
        rc = main(["run", "--synthetic", "clusters=2,per=5,dim=4,sub=2", "--out", str(tmp_path)] + flags)
        assert rc == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flags, culprit", [
        (["--gamma"], "gamma"),
        (["--weights", "heat", "--sigma"], "sigma"),
    ], ids=["gamma", "sigma"])
    def test_bad_gamma_or_sigma_fails_before_fit(self, flags, culprit, value, tmp_path, capsys,
                                                 monkeypatch):
        def no_fit(*args):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli_mod, "_fit_stage", no_fit)
        rc = main(["run", "--synthetic", "clusters=3,per=10", "--out", str(tmp_path)]
                  + flags + [value])
        assert rc == EXIT_CONFIG
        assert f"{culprit} must be finite and positive, got {float(value)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, culprit", [
        ("sweep", ["--repeats", "0"], "times"),
        ("sweep", ["--jobs", "0"], "jobs"),
        ("bench", ["--bench-runs", "0"], "runs"),
    ], ids=["repeats", "jobs", "bench-runs"])
    def test_zero_count_is_config_error(self, command, flags, culprit, tmp_path, capsys):
        # rejected before any fit runs or any file is written
        if command == "sweep":
            args = ["sweep", "--alpha-grid", "1", "--beta-grid", "1",
                    "--synthetic", "clusters=2,per=5,dim=4,sub=2"]
        else:
            args = ["bench", "--sizes", "6", "--methods", "lsr", "--clusters", "2"]
        rc = main(args + flags + ["--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert f"{culprit} must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, culprit", [
        (["--alpha-grid=-1", "--beta-grid", "0.1"], "alpha must be finite and non-negative, got -1.0"),
        (["--alpha-grid", "nan", "--beta-grid", "0.1"], "alpha must be finite and non-negative, got nan"),
        (["--alpha-grid", "1", "--beta-grid", "inf"], "beta must be finite and non-negative, got inf"),
        (["--method", "ccsc", "--alpha-grid", "1", "--beta-grid", "0.1", "--lambda-grid", "2"],
         "lam must lie in [0, 1], got 2.0"),
        (["--method", "lsr", "--alpha-grid", "0,1", "--beta-grid", "0.1"],
         "alpha (--alpha) is the ridge weight of method 'lsr' and must be positive, got 0.0"),
    ], ids=["alpha-negative", "alpha-nan", "beta-inf", "lambda-2", "lsr-alpha-0"])
    def test_invalid_sweep_point_is_config_error(self, flags, culprit, tmp_path, capsys,
                                                 monkeypatch):
        # every point is checked before the first fit; no sweep.csv is written
        def no_fit(*args):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli_mod, "_fit_stage", no_fit)
        rc = main(["sweep", "--synthetic", "clusters=2,per=5,dim=4,sub=2", "--repeats", "1",
                   "--out", str(tmp_path / "out")] + flags)
        assert rc == EXIT_CONFIG
        assert culprit in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "affinity", "sweep"])
    def test_more_clusters_than_samples_fails_before_any_fit(self, command, tmp_path, capsys,
                                                             monkeypatch):
        # n is known once the data are loaded: the graph stage checks it, so
        # no fit runs; a sweep's rows all carry the error, and it exits as run
        def no_fit(*args):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli_mod, "_fit_stage", no_fit)
        monkeypatch.setattr(cli_mod, "_fit_lockstep", no_fit)
        args = [command, "--synthetic", "clusters=2,per=5,dim=4,sub=2", "--clusters", "11",
                "--out", str(tmp_path)]
        if command == "sweep":
            args += ["--repeats", "1", "--alpha-grid", "0.1,1", "--beta-grid", "0.1,1"]
        rc = main(args)
        message = "stage 'graph' failed: n_clusters (--clusters) must not exceed the 10 samples, got 11"
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        if command == "sweep":
            table = load_table(tmp_path / "sweep.csv")
            assert len(table) == 4
            assert all(row["error"] == f"StageError: {message}" for row in table)

    def test_numerical_failure_stays_a_sweep_row(self, tmp_path, monkeypatch):
        def diverged(data, cfgs):  # every member of the row fit fails
            return [NumericalError("diverged") for _ in cfgs]

        monkeypatch.setattr(cli_mod, "_fit_lockstep", diverged)
        rc = main(["sweep", "--synthetic", "clusters=2,per=5,dim=4,sub=2", "--repeats", "1",
                   "--alpha-grid", "0.1,1", "--beta-grid", "0.1", "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC  # no point finished
        table = load_table(tmp_path / "sweep.csv")
        assert len(table) == 2
        assert all(row["error"].endswith("failed: diverged") for row in table)

    @pytest.mark.parametrize("flags, betas, code", [
        (["--clusters", "11"], "0.1,1", EXIT_CONFIG),  # more clusters than samples
        ([], "1e11,1e12", EXIT_NUMERIC),  # every point diverges
        ([], "0.1,1e11", EXIT_OK),  # one point finishes
    ], ids=["config", "numeric", "one-finished"])
    def test_sweep_exits_as_run_when_no_point_finished(self, flags, betas, code, tmp_path,
                                                       capsys):
        common = ["--synthetic", "clusters=2,per=5,dim=4,sub=2", "--max-iters", "3"] + flags
        with np.errstate(all="ignore"):
            rc = main(["sweep", "--repeats", "1", "--alpha-grid", "0.1,1", "--beta-grid", betas,
                       "--out", str(tmp_path / "sweep")] + common)
            sweep_err = capsys.readouterr().err
            first = main(["run", "--alpha", "0.1", "--beta", betas.split(",")[0],
                          "--out", str(tmp_path / "run")] + common)
        assert rc == code
        if code != EXIT_OK:
            assert first == code
            assert sweep_err == capsys.readouterr().err  # the first point's error
        assert len(load_table(tmp_path / "sweep" / "sweep.csv")) == 4

    def test_sweep_of_unlabelled_data_is_config_error(self, tmp_path, capsys, monkeypatch):
        # a sweep ranks points by accuracy: without labels no fit runs
        def no_fit(*args):
            raise AssertionError("the fit ran")

        data = tmp_path / "x.csv"
        data.write_text("\n".join(",".join(str(v) for v in row)
                                   for row in np.random.default_rng(0).uniform(-1, 1, (10, 4))))
        monkeypatch.setattr(cli_mod, "_fit_lockstep", no_fit)
        rc = main(["sweep", "--data", str(data), "--no-labels", "--clusters", "2", "--repeats", "1",
                   "--alpha-grid", "0.1", "--beta-grid", "0.1", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "no ground-truth labels" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_lambda_for_non_ccsc(self, tmp_path):
        rc = main(
            [
                "run", "--method", "lsr", "--lambda", "0.3",
                "--synthetic", "clusters=2,per=5,dim=4,sub=2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == EXIT_CONFIG

    def test_pipeline_on_labeled_csv_with_pca(self, tmp_path):
        # end-to-end harness over a CSV converted dataset with PCA
        from flnnsc.data import Dataset, save_csv
        from flnnsc.data import generate_synthetic

        ds = generate_synthetic(
            SyntheticSpec(clusters=4, points_per_cluster=12, ambient_dim=20, subspace_dim=2, seed=3)
        )
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        rc = main(
            [
                "run", "--method", "flnnsc", "--data", str(path),
                "--clusters", "4", "--pca-dim", "12", "--max-iters", "10",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert rc == EXIT_OK
        report = load_report(tmp_path / "run" / "report.json")
        assert report["n_features_used"] == 12
        assert report["pca_variance"] is not None
        assert set(report["metrics"]) == {"ca", "nmi", "ari", "f1"}

    def test_bench_command(self, tmp_path):
        rc = main(
            [
                "bench", "--sizes", "30,60", "--methods", "lsr",
                "--max-iters", "3", "--out", str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("sizes", ["100", "150,301", "0", "2", "150.5"])
    def test_bench_sizes_must_fill_every_cluster(self, sizes, tmp_path, capsys):
        # 100 samples over 3 clusters used to time n=99 without a word
        rc = main(["bench", "--sizes", sizes, "--methods", "lsr", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "multiple of --clusters 3" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    def test_bench_sizes_follow_clusters(self, tmp_path):
        rc = main(["bench", "--sizes", "20,40", "--clusters", "4", "--methods", "lsr",
                   "--bench-runs", "1", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        table = load_table(tmp_path / "bench.csv")
        assert [(int(r["n_samples"]), int(r["n_clusters"])) for r in table] == [(20, 4), (40, 4)]

    def test_saturated_growth_is_numeric(self, tmp_path, capsys):
        # mu * beta = 2.125 at iteration 2: z froze under a saturated tanh
        # while |W|_F still grows, so a stop at tol would report a meaningless result
        rc = main(["run", "--synthetic", "per=10", "--beta", "250", "--max-iters", "5",
                   "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "weight update diverged at iteration 2: |W|_F = " in err
        assert "1 - mu*lam*beta = -1.125" in err

    @pytest.mark.parametrize("method, mu", [("flnnsc", "1e8"), ("flnnsc", "1e150"), ("ccsc", "1e8")])
    def test_diverging_learning_rate_is_numeric(self, method, mu, tmp_path, capsys):
        # a gradient step that overflows is a numerical failure, not a bad setting
        with np.errstate(all="ignore"):
            rc = main(["run", "--method", method, "--synthetic", "seed=0", "--mu", mu,
                       "--max-iters", "3", "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert "weight update diverged" in capsys.readouterr().err

    def test_bench_rejects_data(self, tmp_path, capsys):
        rc = main(
            [
                "bench", "--data", str(tmp_path / "missing.csv"), "--sizes", "30",
                "--methods", "lsr", "--out", str(tmp_path),
            ]
        )
        assert rc == EXIT_CONFIG
        assert "--synthetic" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()


class TestInterrupt:
    """Ctrl-C stops the pipeline instead of becoming a failed stage."""

    @pytest.fixture
    def fit_calls(self, monkeypatch):
        calls = []

        def interrupted(*args):
            calls.append(args)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "_fit_stage", interrupted)
        return calls

    def test_run_single_reraises(self, tmp_path, fit_calls):
        with pytest.raises(KeyboardInterrupt):
            run_single(cfg_for("lsr", tmp_path, spec=LINEAR))
        assert len(fit_calls) == 1

    def test_grid_sweep_stops(self, tmp_path, fit_calls):
        with pytest.raises(KeyboardInterrupt):
            grid_sweep(cfg_for("lsr", tmp_path, spec=LINEAR), [0.1, 1.0, 10.0], [0.1], times=1)
        assert len(fit_calls) == 1


class TestSweepJobs:
    def test_pool_rows_match_serial(self, tmp_path):
        cfg = cfg_for("flnnsc", tmp_path, max_iters=3)
        serial = grid_sweep(cfg, [0.1, 1.0], [0.1], times=1, jobs=1)
        pooled = grid_sweep(cfg, [0.1, 1.0], [0.1], times=1, jobs=2)
        for rows in (serial, pooled):
            for r in rows:
                del r["seconds"]
        assert pooled == serial

    def test_jobs_capped_at_grid_points(self, tmp_path, monkeypatch):
        # a fake pool: a real one with max_workers=64 would start 64 processes
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # the sweep imports the pool only when it runs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        rows = grid_sweep(cfg_for("lsr", tmp_path, spec=LINEAR), [0.1, 1.0], [0.1], times=1, jobs=64)
        assert requested == [2]
        assert len(rows) == 2


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
# the flags each command needs besides the common ones
_COMMAND_ARGS = {
    "run": [],
    "sweep": ["--alpha-grid", "1", "--beta-grid", "1"],
    "affinity": [],
    "bench": [],
}


class TestFlagMapping:
    @pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
    def test_every_common_flag(self, command):
        argv = [
            command, *_COMMAND_ARGS[command],
            "--method", "ccsc", "--data", "d.csv", "--no-labels", "--header",
            "--alpha", "2", "--beta", "0.3", "--lambda", "0.4", "--mu", "0.05",
            "--mu-decay", "0.9", "--epochs", "3", "--knn", "6", "--weights", "heat",
            "--sigma", "0.7", "--affinity", "symabs", "--gamma", "3", "--clusters", "4",
            "--pca-dim", "5", "--seed", "9", "--tol", "1e-4", "--max-iters", "7",
            "--out", "somewhere",
        ]
        cfg = cli_mod._config_from_args(cli_mod._build_parser().parse_args(argv))
        assert cfg == RunConfig(
            method="ccsc", data_path="d.csv", has_labels=False, header=True,
            alpha=2.0, beta=0.3, lam=0.4, mu=0.05, mu_decay=0.9, inner_epochs=3,
            knn=6, weights="heat", sigma=0.7, affinity="symabs", gamma=3.0,
            n_clusters=4, pca_dim=5, seed=9, tol=1e-4, max_iters=7, out_dir="somewhere",
        )
        # every field except the synthetic spec moved off its default
        changed = {k for k, v in _DEFAULTS.items() if getattr(cfg, k) != v}
        assert changed == set(_DEFAULTS) - {"synthetic"}

    @pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
    def test_no_flags_gives_defaults(self, command):
        argv = [command, *_COMMAND_ARGS[command], "--synthetic", "clusters=2,per=7"]
        cfg = cli_mod._config_from_args(cli_mod._build_parser().parse_args(argv))
        spec = SyntheticSpec(clusters=2, points_per_cluster=7)
        assert cfg == RunConfig(synthetic=spec, out_dir="runs")


class TestModelConfig:
    # one non-default value per fit setting, each unlike both defaults
    VALUES = dict(alpha=2.5, beta=0.3, mu=0.02, max_iters=7, inner_epochs=3, tol=1e-5, seed=5,
                  mu_decay=0.9)

    def test_every_fit_setting_is_a_run_field_of_the_same_name(self):
        fit_fields = {f.name: f.type for f in dataclasses.fields(models_mod.FlnnscConfig)}
        run_fields = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        assert set(fit_fields) == set(self.VALUES)
        assert all(run_fields.get(name) == kind for name, kind in fit_fields.items())

    @pytest.mark.parametrize("method, lam", [("flnnsc", 1.0), ("ccsc", 0.3)])
    def test_carries_each_setting(self, method, lam):
        defaults = (RunConfig(synthetic=WARPED), models_mod.FlnnscConfig())
        assert all(getattr(d, k) != v for d in defaults for k, v in self.VALUES.items())
        cfg = RunConfig(method=method, synthetic=WARPED, lam=None if method == "flnnsc" else lam,
                        **self.VALUES)
        model = cli_mod._model_config(cfg)
        assert type(model) is (models_mod.CcscConfig if method == "ccsc" else models_mod.FlnnscConfig)
        assert {k: getattr(model, k) for k in self.VALUES} == self.VALUES
        assert model.lam == lam


def test_python_m_runs_main():
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "flnnsc.cli", "run", "--method", "bogus"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.strip().splitlines()[-1].startswith("error: argument --method: invalid choice: 'bogus'")
