"""Acceptance suite: one test per release criterion. Each records a
PASS/FAIL line; conftest prints them in the terminal summary."""

import itertools
import time
from dataclasses import asdict

import numpy as np
import pytest

import flnnsc as F
from flnnsc.cli import RunConfig, bench_time, compute_metrics, grid_sweep, main, load_report
from flnnsc.flnn import init_network
from flnnsc.graph import knn_similarity, laplacian
from flnnsc.linalg import sym_eigen
from flnnsc.metrics import contingency_table, hungarian
from flnnsc import models
from flnnsc.models import CcscConfig, FlnnscConfig, fit_ccsc, fit_flnnsc, fit_linear_smr, fit_lsr
from flnnsc.spectral import affinity_from_z, spectral_cluster
from oracles import expand, forward, grad_w, solve_sylvester, zstep_objective

GRID = [1e-2, 1e-1, 1.0, 10.0, 100.0]


REPORT_LINES = []


def _report(cid, ok, text):
    REPORT_LINES.append(f"ACCEPTANCE {cid:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {cid}: {text}"


@pytest.fixture(scope="module")
def bench_dataset():
    """The nonlinear-advantage dataset: defaults of the synthetic spec."""
    ds = F.generate_synthetic(F.SyntheticSpec())
    x = F.scale_to_unit(ds.x)
    graph = knn_similarity(x, 4, "binary")
    return ds, x, graph


@pytest.fixture(scope="module")
def sweep_results(bench_dataset):
    """Criterion-6 protocol, shared with criteria 7 and 8: the 5x5 grid
    sweep of the nonlinear model (20 seeded repeats per point) plus the
    ridge-grid linear baseline."""
    t0 = time.perf_counter()
    cfg = RunConfig(
        method="flnnsc",
        synthetic=F.SyntheticSpec(),
        out_dir=None,
        max_iters=50,
        tol=1e-6,
    )
    rows = grid_sweep(cfg, GRID, GRID, times=20, jobs=1)
    best = max((r for r in rows if r["ca"] is not None), key=lambda r: r["ca"])

    lsr_best = -1.0
    for reg in GRID:
        lsr_cfg = RunConfig(
            method="lsr", synthetic=F.SyntheticSpec(), alpha=reg, out_dir=None
        )
        from flnnsc.cli import run_repeated

        agg = run_repeated(lsr_cfg, times=20)
        lsr_best = max(lsr_best, agg["metrics"]["ca"]["mean"])
    return {
        "rows": rows,
        "best": best,
        "lsr_best": lsr_best,
        "seconds": time.perf_counter() - t0,
    }


def test_criterion_01_sylvester_correctness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 51))
        m = rng.standard_normal((n, n))
        a = m @ m.T + 0.1 * np.eye(n)  # SPD left operand
        adj = (rng.uniform(size=(n, n)) < 0.3).astype(float)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 0.0)
        lap = np.diag(adj.sum(axis=1)) - adj
        alpha = 10.0 ** rng.uniform(-2, 2)
        b = alpha * lap
        c = a if trial % 2 == 0 else rng.standard_normal((n, n))
        z = solve_sylvester(a, b, c)
        resid = np.linalg.norm(a @ z + z @ b - c) / max(1.0, np.linalg.norm(c))
        worst = max(worst, resid)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-8 and elapsed < 10.0,
        f"200 Sylvester solves: worst relative residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_fidelity():
    rng = np.random.default_rng(1002)
    d, n = 2, 5
    eps = 1e-6
    worst = 0.0
    for _ in range(50):
        beta = float(rng.uniform(0.0, 1.0))  # drawn before w
        w = init_network(d, rng=rng)
        x_i = rng.uniform(-1, 1, d)
        h = rng.standard_normal((5 * d, n))
        z_i = rng.standard_normal(n)
        h_i = forward(w, x_i)
        analytic = grad_w(w, x_i, h_i, h, z_i, beta)

        phi = expand(x_i)
        hz = h @ z_i

        def objective(v):
            out = np.tanh(v @ phi)
            return 0.5 * np.sum((out - hz) ** 2) + 0.5 * beta * np.sum(v**2)

        fd = np.zeros_like(w)
        for r in range(10):
            for c in range(10):
                wp = w.copy()
                wp[r, c] += eps
                wm = w.copy()
                wm[r, c] -= eps
                fd[r, c] = (objective(wp) - objective(wm)) / (2 * eps)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    _report(2, worst <= 1e-5, f"gradient vs central differences: worst relative error {worst:.2e}")


def test_criterion_03_remark1_reduction(bench_dataset):
    ds, x, graph = bench_dataset
    base = FlnnscConfig(alpha=1.0, beta=0.1, max_iters=30, tol=1e-6, seed=7)
    rep_nl, _, _ = fit_flnnsc(x, graph, base)
    rep_cc, _, _ = fit_ccsc(x, graph, CcscConfig(**asdict(base), lam=1.0))
    max_diff = float(np.max(np.abs(rep_cc.z - rep_nl.z)))
    labels_nl = spectral_cluster(affinity_from_z(rep_nl.z, "grouping", 2.0), 3, seed=7)
    labels_cc = spectral_cluster(affinity_from_z(rep_cc.z, "grouping", 2.0), 3, seed=7)
    same = bool(np.array_equal(labels_nl, labels_cc))
    _report(
        3,
        max_diff <= 1e-12 and same,
        f"combination at lam=1 vs nonlinear fit: max |dZ| = {max_diff:.2e}, labels identical = {same}",
    )


def test_criterion_04_endpoint_linearity(bench_dataset):
    ds, x, graph = bench_dataset
    cfg = CcscConfig(alpha=1.0, beta=0.1, max_iters=30, tol=1e-6, seed=11, lam=0.0)
    rep_cc, w, _ = fit_ccsc(x, graph, cfg)
    rep_lin = fit_linear_smr(x, graph, 1.0)
    max_diff = float(np.max(np.abs(rep_cc.z - rep_lin.z)))
    w0 = init_network(x.shape[0], rng=np.random.default_rng(11))
    frozen = bool(np.array_equal(w, w0))
    _report(
        4,
        max_diff <= 1e-10 and frozen,
        f"combination at lam=0 vs linear solve: max |dZ| = {max_diff:.2e}, weights frozen = {frozen}",
    )


def test_criterion_05_exact_z_step(bench_dataset):
    ds, x, graph = bench_dataset
    lap = laplacian(graph)
    ok = True
    details = []
    for seed, alpha, beta, lam in [
        (0, 1.0, 0.1, None),
        (1, 10.0, 0.01, None),
        (2, 1.0, 0.1, 0.5),
    ]:
        base = FlnnscConfig(alpha=alpha, beta=beta, max_iters=15, tol=1e-12, seed=seed)
        if lam is None:
            _, _, trace = fit_flnnsc(x, graph, base)
        else:
            _, _, trace = fit_ccsc(x, graph, CcscConfig(**asdict(base), lam=lam))
        worst_resid = max(trace.z_residual)
        worst_rise = max(
            after - before - 1e-9 * max(1.0, abs(before))
            for before, after in zip(trace.zstep_obj_before, trace.zstep_obj_after)
        )
        ok &= worst_resid <= 1e-8 and worst_rise <= 0
        details.append(f"resid {worst_resid:.1e}")
        if lam is not None:
            ok &= trace.z2_residual <= 1e-8
            ok &= trace.z2_obj_after <= trace.z2_obj_before + 1e-9 * max(1.0, abs(trace.z2_obj_before))
    # the update is also a certified minimizer against perturbations
    rng = np.random.default_rng(1005)
    h = np.tanh(init_network(x.shape[0], rng=rng) @ F.expand_batch(x))
    z_star = models._zstep(h, sym_eigen(lap), 1.0)[0]
    base_obj = zstep_objective(h, z_star, lap, 1.0)
    for _ in range(5):
        trial = z_star + 0.01 * rng.standard_normal(z_star.shape)
        ok &= zstep_objective(h, trial, lap, 1.0) >= base_obj - 1e-9 * max(1.0, abs(base_obj))
    _report(5, ok, f"representation updates exact: {', '.join(details)}")


def test_criterion_06_nonlinear_advantage(sweep_results):
    best = sweep_results["best"]
    lsr_best = sweep_results["lsr_best"]
    elapsed = sweep_results["seconds"]
    # reported, not gated: the runs whose last update kept no singular value of H
    collapsed = sum(r["collapsed"] or 0 for r in sweep_results["rows"])
    ok = best["ca"] >= 0.90 and best["ca"] >= lsr_best + 0.05 and elapsed < 600.0
    _report(
        6,
        ok,
        f"nonlinear fit best mean CA {best['ca']:.3f} (alpha={best['alpha']:g}, "
        f"beta={best['beta']:g}) vs ridge baseline {lsr_best:.3f}, sweep {elapsed:.0f}s, "
        f"{collapsed} runs collapsed",
    )


def test_criterion_07_convergence(bench_dataset, sweep_results):
    ds, x, graph = bench_dataset
    best = sweep_results["best"]
    converged = 0
    for seed in range(20):
        cfg = FlnnscConfig(
            alpha=best["alpha"], beta=best["beta"], max_iters=50, tol=1e-6, seed=seed
        )
        _, _, trace = fit_flnnsc(x, graph, cfg)
        if trace.iterations <= 50 and trace.z_delta[-1] <= 1e-6:
            converged += 1
    _report(7, converged >= 18, f"representation change fell below 1e-6 in {converged}/20 runs")


def test_criterion_08_lambda_sensitivity(bench_dataset, sweep_results):
    ds, x, graph = bench_dataset
    best = sweep_results["best"]
    means = {}
    for lam in [round(0.1 * i, 1) for i in range(11)]:
        cas = []
        for seed in range(5):
            cfg = CcscConfig(
                alpha=best["alpha"], beta=best["beta"], max_iters=50, tol=1e-6, seed=seed, lam=lam
            )
            rep, _, _ = fit_ccsc(x, graph, cfg)
            labels = spectral_cluster(affinity_from_z(rep.z, "grouping", 2.0), 3, seed=seed)
            cas.append(F.clustering_accuracy(ds.labels, labels))
        means[lam] = float(np.mean(cas))
    ok = means[1.0] > means[0.0]
    _report(
        8,
        ok,
        f"lambda sweep: mean CA {means[0.0]:.3f} at lam=0 vs {means[1.0]:.3f} at lam=1",
    )


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(1009)

    def brute_ca(truth, pred):
        counts = contingency_table(truth, pred)
        side = max(counts.shape)
        padded = np.zeros((side, side), dtype=np.int64)
        padded[: counts.shape[0], : counts.shape[1]] = counts
        return max(
            sum(padded[i, p[i]] for i in range(side))
            for p in itertools.permutations(range(side))
        ) / len(truth)

    def pair_stats(truth, pred):
        tp = fp = fn = tn = 0
        n = len(truth)
        for i in range(n):
            for j in range(i + 1, n):
                st, sp = truth[i] == truth[j], pred[i] == pred[j]
                tp += st and sp
                fp += (not st) and sp
                fn += st and (not sp)
                tn += (not st) and (not sp)
        return tp, fp, fn, tn

    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        truth = rng.integers(0, 4, n)
        pred = rng.integers(0, 4, n)
        tp, fp, fn, tn = pair_stats(truth, pred)
        total = tp + fp + fn + tn

        ok &= F.clustering_accuracy(truth, pred) == brute_ca(truth, pred)

        sum_t, sum_p = tp + fn, tp + fp
        if total:
            expected = sum_t * sum_p / total
            denom = 0.5 * (sum_t + sum_p) - expected
            ari_ref = 1.0 if denom == 0.0 else (tp - expected) / denom
        else:
            ari_ref = 1.0
        ok &= abs(F.ari(truth, pred) - ari_ref) <= 1e-12

        if sum_t == 0 and sum_p == 0:
            f1_ref = 1.0
        else:
            p = tp / sum_p if sum_p else 0.0
            r = tp / sum_t if sum_t else 0.0
            f1_ref = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        ok &= abs(F.pairwise_f1(truth, pred) - f1_ref) <= 1e-12

        counts = contingency_table(truth, pred).astype(float)
        a, b = counts.sum(1), counts.sum(0)
        ent = lambda w: -sum(v / n * np.log(v / n) for v in w if v > 0)
        ht, hp = ent(a), ent(b)
        if ht == 0.0 and hp == 0.0:
            nmi_ref = 1.0
        elif ht == 0.0 or hp == 0.0:
            nmi_ref = 0.0
        else:
            mi = sum(
                counts[i, j] / n * np.log(n * counts[i, j] / (a[i] * b[j]))
                for i in range(counts.shape[0])
                for j in range(counts.shape[1])
                if counts[i, j] > 0
            )
            nmi_ref = mi / np.sqrt(ht * hp)
        ok &= abs(F.nmi(truth, pred) - min(max(nmi_ref, 0.0), 1.0)) <= 1e-12

    # Hungarian vs permutation brute force, sizes <= 7
    perms_cache = {}
    for _ in range(500):
        size = int(rng.integers(2, 8))
        cost = rng.uniform(0, 1, (size, size))
        assign = hungarian(cost)
        got = cost[np.arange(size), assign].sum()
        if size not in perms_cache:
            perms_cache[size] = np.array(list(itertools.permutations(range(size))))
        perms = perms_cache[size]
        best = (cost[np.arange(size)[None, :], perms].sum(axis=1)).min()
        ok &= abs(got - best) <= 1e-12
    _report(9, ok, "metrics and assignment match brute-force oracles")


def test_criterion_10_graph_properties():
    rng = np.random.default_rng(1010)
    ok = True
    for trial in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(6, 30))
        x = rng.standard_normal((d, n))
        k = int(rng.integers(1, min(6, n)))
        kind = "binary" if trial % 2 == 0 else "heat"
        s = knn_similarity(x, k, kind)
        lap = laplacian(s)
        norm = np.linalg.norm(lap)
        ok &= bool(np.array_equal(lap, lap.T))
        values, _ = sym_eigen(lap)
        ok &= values[0] >= -1e-10 * norm
        ok &= np.all(np.abs(lap.sum(axis=1)) <= 1e-10 * max(1.0, norm))
        ok &= np.linalg.norm(lap @ np.ones(n)) <= 1e-10 * max(1.0, norm)
        v = rng.standard_normal(n)
        direct = float(v @ lap @ v)
        pairwise = 0.5 * float(np.sum(s * (v[:, None] - v[None, :]) ** 2))
        ok &= abs(direct - pairwise) <= 1e-9 * max(1.0, abs(pairwise))
    _report(10, ok, "Laplacian symmetry, PSD, row sums, and quadratic identity on 100 graphs")


def test_criterion_11_spectral_sanity():
    g = np.zeros((40, 40))
    g[:25, :25] = 0.8
    g[25:, 25:] = 0.6
    np.fill_diagonal(g, 0.0)
    truth = np.repeat([0, 1], [25, 15])
    ok = True
    for seed in range(20):
        labels = spectral_cluster(g, 2, seed=seed)
        ok &= F.clustering_accuracy(truth, labels) == 1.0
    _report(11, ok, "disconnected blocks recovered exactly for 20 seeds")


def test_criterion_12_timing_scaling():
    cfgs = [
        RunConfig(
            method="flnnsc",
            synthetic=F.SyntheticSpec(points_per_cluster=n // 3, seed=0),
            max_iters=5,
            tol=1e-30,
            out_dir=None,
        )
        for n in (100, 200, 400)
    ]
    rows = bench_time(cfgs, runs=3)
    medians = [r["seconds_median"] for r in rows]
    ok = medians[0] <= medians[1] <= medians[2]
    _report(
        12,
        ok,
        "fit time medians over n=100,200,400: " + ", ".join(f"{m:.3f}s" for m in medians),
    )


def test_criterion_13_paper_scale_harness(tmp_path):
    # CSV-converted dataset in the image-benchmark shape: 10 clusters,
    # 64 raw features, PCA to 6 * nCluster = 60 dimensions.
    ds = F.generate_synthetic(
        F.SyntheticSpec(
            clusters=10, points_per_cluster=15, ambient_dim=64, subspace_dim=2, seed=5
        )
    )
    path = tmp_path / "digits_like.csv"
    F.save_csv(ds, path)
    out = tmp_path / "run"
    rc = main(
        [
            "run",
            "--method", "flnnsc",
            "--data", str(path),
            "--clusters", "10",
            "--pca-dim", "60",
            "--max-iters", "10",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    report = load_report(out / "report.json") if rc == 0 else {}
    has_metrics = rc == 0 and set(report.get("metrics") or {}) == {"ca", "nmi", "ari", "f1"}
    _report(
        13,
        has_metrics,
        "end-to-end run on a CSV dataset with PCA to 60 dims reports all four metrics"
        + (f" (ca={report['metrics']['ca']:.3f})" if has_metrics else ""),
    )
