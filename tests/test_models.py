import tracemalloc
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flnnsc import flnn, models
from flnnsc.data import SyntheticSpec, generate_synthetic, scale_to_unit
from flnnsc.flnn import expand_batch, init_network, sgd_step
from flnnsc.graph import knn_similarity, laplacian
from flnnsc.linalg import NumericalError, sym_eigen
from flnnsc.models import (
    CcscConfig,
    FlnnscConfig,
    fit_ccsc,
    fit_flnnsc,
    fit_linear_smr,
    fit_lsr,
    update_z,
)
from oracles import forward, grad_w, solve_sylvester, zstep_objective


def small_problem(seed=0, n=20, d=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (d, n))
    graph = knn_similarity(x, 4, "binary")
    return x, graph, laplacian(graph)


def disconnected_laplacian(rng, n, parts=3):
    """Laplacian of a random graph with ``parts`` connected components."""
    adj = np.zeros((n, n))
    for block in np.array_split(np.arange(n), parts):
        sub = (rng.uniform(size=(block.size, block.size)) < 0.4).astype(float)
        sub = np.triu(sub, 1)
        sub[np.arange(block.size - 1), np.arange(1, block.size)] = 1.0  # a path
        adj[np.ix_(block, block)] = sub + sub.T
    return np.diag(adj.sum(axis=1)) - adj


def rank_deficient(rng, p, n, rank):
    return rng.uniform(-1, 1, (p, rank)) @ rng.uniform(-1, 1, (rank, n)) / rank


# (p, n, rank) of rank-deficient network outputs: 5d = 15 feature rows with
# n below and above it, then taller h; each h with 2p >= 3n (the first too)
# is factored through the R of its QR
RANK_DEFICIENT = [
    pytest.param(15, 10, 6, id="10-6"),
    pytest.param(15, 40, 9, id="40-9"),
    pytest.param(30, 10, 3, id="30x10-3"),
    pytest.param(300, 150, 40, id="300x150-40"),
    pytest.param(300, 150, 149, id="300x150-149"),
]


def warped_dataset():
    ds = generate_synthetic(SyntheticSpec())
    x = scale_to_unit(ds.x)
    graph = knn_similarity(x, 4, "binary")
    return x, graph, ds.labels


def assert_rounding_equal(recorded, oracle):
    assert abs(recorded - oracle) <= 1e-12 * max(1.0, abs(oracle)), (recorded, oracle)


class TestUpdateZ:
    def test_alpha_zero_nonsingular(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((8, 5))  # tall: gram nonsingular
        z = update_z(h, np.zeros((5, 5)), 0.0)
        assert np.allclose(z, np.eye(5), atol=1e-8)

    def test_single_sample(self):
        h = np.array([[2.0], [1.0]])
        z = update_z(h, np.zeros((1, 1)), 1.0)
        assert np.allclose(z, [[1.0]], atol=1e-10)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (2, 15))
        lap = laplacian(knn_similarity(x, 3, "binary"))
        h = np.tanh(init_network(2, rng=rng) @ expand_batch(x))
        z = update_z(h, lap, 1.0)
        gram = h.T @ h
        resid = np.linalg.norm(gram @ z + z @ lap - gram)
        assert resid <= 1e-8 * np.linalg.norm(gram)

    def test_exact_minimizer_of_partial_objective(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (3, 12))
        lap = laplacian(knn_similarity(x, 3, "binary"))
        h = np.tanh(init_network(3, rng=rng) @ expand_batch(x))
        z_star = update_z(h, lap, 0.5)
        base = zstep_objective(h, z_star, lap, 0.5)
        for _ in range(10):
            other = z_star + 0.01 * rng.standard_normal(z_star.shape)
            assert zstep_objective(h, other, lap, 0.5) >= base - 1e-9 * max(1, abs(base))

    @pytest.mark.parametrize("shift", [0.5, 1e-9])
    def test_indefinite_laplacian_raises(self, shift):
        # the kernel clamps negative eigenvalues at 0: given -0.5 I it would
        # return the alpha = 0 solution, whose residual against -0.5 I is
        # 6e-2 of |h^T h|; a relative shift of 1e-9 is past rounding too
        h = np.random.default_rng(0).standard_normal((8, 6))
        lap = np.zeros((6, 6)) if shift == 0.5 else laplacian(small_problem(n=6)[1])
        lap = lap - shift * max(1.0, np.max(np.linalg.eigvalsh(lap))) * np.eye(6)
        with pytest.raises(ValueError, match="^laplacian is not positive semidefinite"):
            update_z(h, lap, 1.0)

    def test_rounding_negative_graph_laplacian_passes(self):
        # eigh gives this graph Laplacian's zero eigenvalue as -6e-15
        x = np.random.default_rng(9).uniform(-1, 1, (3, 30))
        lap = laplacian(knn_similarity(x, 4, "binary"))
        assert sym_eigen(lap)[0][0] < 0.0
        h = np.tanh(init_network(3, rng=np.random.default_rng(1)) @ expand_batch(x))
        z = update_z(h, lap, 1.0)
        gram = h.T @ h
        assert np.linalg.norm(gram @ z + z @ lap - gram) <= 1e-8 * np.linalg.norm(gram)


    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3])
    def test_scale_invariance(self, scale):
        # (s h, s^2 alpha) is the same equation multiplied through by s^2
        rng = np.random.default_rng(18)
        x = rng.uniform(-1, 1, (2, 25))
        lap = laplacian(knn_similarity(x, 3, "binary"))
        h = np.tanh(init_network(2, rng=rng) @ expand_batch(x))
        z = update_z(h, lap, 0.5)
        z_scaled = update_z(scale * h, lap, scale**2 * 0.5)
        assert np.max(np.abs(z_scaled - z)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(8, 40),
        parts=st.integers(2, 4),
        alpha=st.floats(1e-2, 1e2),
        seed=st.integers(0, 2**32 - 1),
    )
    # n = 15 makes h square and can make it ill-conditioned. The first two
    # broke a fixed 1e-10 bound (cond(h) 7.6e3 and 5.7e4, errors 1.1e-10
    # and 2.0e-9), the third a cond(h)^2 eps one (cond 1.3e3, error 5.5e-10)
    @example(n=15, parts=2, alpha=3.0, seed=1249)
    @example(n=15, parts=2, alpha=1.0, seed=1783)
    @example(n=15, parts=3, alpha=73.48759862288027, seed=2919)
    def test_sample_permutation_equivariance(self, n, parts, alpha, seed):
        # relabelling the samples relabels the rows and columns of z, to the
        # rounding of a solve built on the gram matrix, n cond(h)^2 eps
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((15, n))
        lap = disconnected_laplacian(rng, n, parts)
        p = rng.permutation(n)
        z = update_z(h, lap, alpha)
        z_perm = update_z(h[:, p], lap[np.ix_(p, p)], alpha)
        bound = max(1e-10, n * np.linalg.cond(h) ** 2 * np.finfo(np.float64).eps)
        assert np.max(np.abs(z_perm - z[np.ix_(p, p)])) <= bound * np.max(np.abs(z))

    def test_zero_h_gives_zero(self):
        lap = disconnected_laplacian(np.random.default_rng(19), 6, parts=2)
        assert np.array_equal(update_z(np.zeros((4, 6)), lap, 1.0), np.zeros((6, 6)))

    @pytest.mark.parametrize("p, n, rank", RANK_DEFICIENT)
    @pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
    def test_sylvester_oracle_rank_deficient(self, p, n, rank, alpha):
        # a graph of three components, so zero Laplacian eigenvalues meet
        # zero singular values
        rng = np.random.default_rng(20 + n)
        h = rank_deficient(rng, p, n, rank)
        lap = disconnected_laplacian(rng, n)
        gram = h.T @ h
        oracle = solve_sylvester(gram, alpha * lap, gram)
        assert np.max(np.abs(update_z(h, lap, alpha) - oracle)) <= 1e-9
        # the relative cutoff keeps exactly the nonzero singular values, at
        # any scale of h
        lap_eig = sym_eigen(lap)
        for scale in (1e-6, 1.0, 1e6):
            assert models._zstep(scale * h, lap_eig, alpha)[4] == rank

    @pytest.mark.parametrize("p, n", [(15, 10), (14, 10), (30, 10), (50, 150),
                                      (225, 150), (224, 150), (300, 150)])
    def test_svd_of_the_short_side(self, p, n, monkeypatch):
        # the SVD sees the n x n R of h = QR when 2p >= 3n, else h^T (n x p):
        # never h itself, so no p x n left factor is formed
        operands, svd = [], np.linalg.svd

        def recorded_svd(a, *args, **kwargs):
            operands.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(models.np.linalg, "svd", recorded_svd)
        rng = np.random.default_rng(p + n)
        update_z(rng.standard_normal((p, n)), disconnected_laplacian(rng, n), 1.0)
        assert operands == [(n, n) if 2 * p >= 3 * n else (n, p)]

    @pytest.mark.parametrize("per_cluster", [50, 150])
    def test_sylvester_oracle_network_features(self, per_cluster):
        # n = 150 and 450 samples of the default synthetic set, h from the
        # seeded initial network: the inputs of a first representation update
        ds = generate_synthetic(SyntheticSpec(points_per_cluster=per_cluster))
        x = scale_to_unit(ds.x)
        lap = laplacian(knn_similarity(x, 4, "binary"))
        h = np.tanh(init_network(x.shape[0], rng=np.random.default_rng(0)) @ expand_batch(x))
        gram = h.T @ h
        for alpha in (0.01, 1.0, 100.0):
            z = update_z(h, lap, alpha)
            resid = np.linalg.norm(gram @ z + alpha * (z @ lap) - gram)
            assert resid <= 1e-12 * np.linalg.norm(gram)
            oracle = solve_sylvester(gram, alpha * lap, gram)
            assert np.max(np.abs(z - oracle)) <= 1e-9


class TestFitFlnnsc:
    def test_infinite_tol_one_iteration(self):
        x, graph, _ = small_problem()
        cfg = FlnnscConfig(alpha=1.0, beta=0.1, tol=np.inf, max_iters=50)
        _, _, trace = fit_flnnsc(x, graph, cfg)
        assert trace.iterations == 1
        assert len(trace.objective) == len(trace.z_delta) == len(trace.seconds) == 1

    def test_degenerate_config_z_identity(self):
        # alpha = 0 and an effectively frozen network: Z solves gram Z = gram.
        rng = np.random.default_rng(6)
        d, n = 4, 10  # expanded dim 20 >= n keeps the gram nonsingular
        x = rng.uniform(-1, 1, (d, n))
        graph = knn_similarity(x, 3, "binary")
        cfg = FlnnscConfig(alpha=0.0, beta=0.0, mu=1e-300, tol=np.inf, max_iters=1, seed=0)
        rep, w, _ = fit_flnnsc(x, graph, cfg)
        assert np.allclose(rep.z, np.eye(n), atol=1e-6)
        # mu ~ 0 leaves the weights at their seeded initialization
        assert np.array_equal(w, init_network(d, rng=np.random.default_rng(0)))

    def test_objective_trace_finite_and_consistent(self):
        x, graph, lap = small_problem(seed=7)
        cfg = FlnnscConfig(alpha=0.5, beta=0.05, max_iters=8, tol=1e-12)
        _, _, trace = fit_flnnsc(x, graph, cfg)
        assert all(np.isfinite(v) for v in trace.objective)
        assert trace.iterations <= 8
        # recorded partial objective never increases across a z update
        for before, after in zip(trace.zstep_obj_before, trace.zstep_obj_after):
            assert after <= before + 1e-9 * max(1.0, abs(before))
        assert all(r <= 1e-8 for r in trace.z_residual)

    def test_last_objective_is_the_full_objective(self):
        # 0.5 |H - HZ|^2 + (alpha/2) tr(Z L Z^T) + (beta/2) |W|^2, summed
        # naively, with H = tanh(W phi) from the weights the fit returns
        x, graph, lap = small_problem(seed=9)
        alpha, beta = 0.7, 0.05
        rep, w, trace = fit_flnnsc(x, graph, FlnnscConfig(alpha=alpha, beta=beta, max_iters=6))
        h, z = np.tanh(w @ expand_batch(x)), rep.z
        naive = (0.5 * np.sum((h - h @ z) ** 2) + 0.5 * alpha * np.trace(z @ lap @ z.T)
                 + 0.5 * beta * np.sum(w**2))
        assert_rounding_equal(trace.objective[-1], naive)

    @pytest.mark.parametrize("lam", [None, 0.3])
    def test_recorded_objectives_match_zstep_objective(self, lam):
        # the fit takes tr(z1 L z1^T) from its solve's factors and carries it
        # to the next check; every recorded value must match the public,
        # dense function to rounding level (the two differ by ~1e-15 here)
        x, graph, lap = small_problem(seed=8)
        alpha = 0.7
        phi = expand_batch(x)
        z1_prev = np.zeros((x.shape[1], x.shape[1]))
        for iters in (1, 2, 3):
            base = FlnnscConfig(alpha=alpha, beta=0.1, max_iters=iters, tol=1e-300)
            if lam is None:
                rep, w, trace = fit_flnnsc(x, graph, base)
                z1 = rep.z
            else:
                rep, w, trace = fit_ccsc(x, graph, CcscConfig(**asdict(base), lam=lam))
                z1 = rep.z1
            assert trace.iterations == iters
            h = np.tanh(w @ phi)
            assert_rounding_equal(trace.zstep_obj_before[-1], zstep_objective(h, z1_prev, lap, alpha))
            assert_rounding_equal(trace.zstep_obj_after[-1], zstep_objective(h, z1, lap, alpha))
            z1_prev = z1
        if lam is not None:
            assert_rounding_equal(trace.z2_obj_before, zstep_objective(x, np.zeros_like(z1), lap, alpha))
            assert_rounding_equal(trace.z2_obj_after, zstep_objective(x, rep.z2, lap, alpha))

    def test_converges_on_warped_synthetic(self):
        x, graph, _ = warped_dataset()
        cfg = FlnnscConfig(alpha=1.0, beta=0.1, tol=1e-6, max_iters=50, seed=0)
        _, _, trace = fit_flnnsc(x, graph, cfg)
        assert trace.z_delta[-1] <= 1e-6
        assert trace.iterations <= 50

    def test_strong_decay_small_alpha_completes(self):
        # beta = 10 shrinks h towards zero; the update must still be exact
        x, graph, _ = warped_dataset()
        cfg = FlnnscConfig(alpha=0.01, beta=10.0, seed=1, max_iters=1)
        _, _, trace = fit_flnnsc(x, graph, cfg)
        assert trace.iterations == 1
        assert trace.z_residual[0] <= 1e-8

    def test_rejects_unscaled_data(self):
        x, graph, _ = small_problem()
        with pytest.raises(ValueError, match="scaled"):
            fit_flnnsc(3.0 * x, graph, FlnnscConfig())

    def test_deterministic_per_seed(self):
        x, graph, _ = small_problem(seed=8)
        cfg = FlnnscConfig(alpha=1.0, beta=0.1, max_iters=3, tol=1e-12, seed=11)
        rep1, _, _ = fit_flnnsc(x, graph, cfg)
        rep2, _, _ = fit_flnnsc(x, graph, cfg)
        assert np.array_equal(rep1.z, rep2.z)


    @settings(max_examples=15, deadline=None)
    @given(
        d=st.integers(1, 4),
        data=st.data(),
        alpha=st.floats(1e-2, 1e2),
        beta=st.floats(0.0, 1.0),
        lam=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fewer_samples_than_features(self, d, data, alpha, beta, lam, seed):
        # n < 5d: h has more rows than columns, so h^T h can be full rank
        # or not; both fits complete and every update stays exact
        n = data.draw(st.integers(2, 5 * d - 1))
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, (d, n))
        graph = knn_similarity(x, min(3, n - 1), "binary")
        base = FlnnscConfig(alpha=alpha, beta=beta, max_iters=3, tol=1e-300,
                            seed=seed)
        for rep, _, trace in (
            fit_flnnsc(x, graph, base),
            fit_ccsc(x, graph, CcscConfig(**asdict(base), lam=lam)),
        ):
            assert rep.z.shape == (n, n) and np.all(np.isfinite(rep.z))
            assert max(trace.z_residual) <= 1e-8
            assert trace.z2_residual is None or trace.z2_residual <= 1e-8


class TestFitCcsc:
    def test_lambda_one_reduces_to_flnnsc(self):
        x, graph, _ = small_problem(seed=9)
        base = FlnnscConfig(alpha=0.8, beta=0.05, max_iters=5, tol=1e-10, seed=3)
        rep_nl, w_nl, trace_nl = fit_flnnsc(x, graph, base)
        rep_cc, w_cc, trace_cc = fit_ccsc(x, graph, CcscConfig(**asdict(base), lam=1.0))
        # lam = 1 scales nothing: the same steps, bit for bit
        assert np.array_equal(w_cc, w_nl) and np.array_equal(rep_cc.z, rep_nl.z)
        assert trace_cc.iterations == trace_nl.iterations

    def test_lambda_zero_is_linear_solve(self):
        x, graph, _ = small_problem(seed=10)
        cfg = CcscConfig(alpha=0.5, beta=0.1, max_iters=10, tol=1e-10, seed=4, lam=0.0)
        rep, w, trace = fit_ccsc(x, graph, cfg)
        linear = fit_linear_smr(x, graph, 0.5)
        assert np.max(np.abs(rep.z - linear.z)) <= 1e-10
        # the gradient step is scaled by lambda = 0, so the weights stay put
        assert np.array_equal(w, init_network(x.shape[0], rng=np.random.default_rng(4)))
        assert trace.iterations == 2  # combined z freezes after the first pass

    def test_midpoint_recombination(self):
        x, graph, _ = small_problem(seed=11)
        cfg = CcscConfig(alpha=1.0, beta=0.1, max_iters=4, tol=1e-12, seed=5, lam=0.5)
        rep, _, _ = fit_ccsc(x, graph, cfg)
        assert rep.z1 is not None and rep.z2 is not None
        assert np.array_equal(rep.z, 0.5 * rep.z1 + 0.5 * rep.z2)

    def test_stores_exact_combination(self):
        x, graph, _ = small_problem(seed=12)
        lam = 0.3
        cfg = CcscConfig(alpha=0.3, beta=0.2, max_iters=3, tol=1e-12, seed=6, lam=lam)
        rep, _, _ = fit_ccsc(x, graph, cfg)
        assert np.array_equal(rep.z, lam * rep.z1 + (1 - lam) * rep.z2)

    def test_lambda_validation(self):
        with pytest.raises(ValueError, match="lam"):
            CcscConfig(lam=1.5)


def _reference_epoch(x):
    """The fit's epoch spelled out member by member with the validated
    single-sample API and the functional step ``w - mu * g``, a new array
    per sample; the results are written back into the fit's weights. The
    target of sample ``i`` reaches ``grad_w`` as ``h = targets[k, :, i]``
    (one column) times ``z_i = [1]``."""
    one = np.ones(1)

    def epoch(w, phi_rows, targets, order, mu, beta, lam):
        for k in range(len(w)):
            ref = w[k].copy()
            for i in order:
                t = forward(ref, x[:, i])
                g = lam[k] * grad_w(ref, x[:, i], t, targets[k, :, i, None], one, beta[k])
                ref = ref - mu * g
            w[k] = ref

    return epoch


def _longdouble_epoch(w, phi_rows, targets, order, mu, beta, lam):
    """The epoch's per-sample steps ``W <- c W - mu lam ((t - target)
    (1 - t^2)) phi^T``, ``t = tanh(W phi)``, member by member in
    ``np.longdouble``; the results are rounded into the fit's weights. The
    coefficients ``mu lam`` and ``c = 1 - mu lam beta`` are the float64
    values the fit computes: at mu = 0.01, beta = 100 that ``c`` is 0,
    while the exact product of the two doubles leaves ``c = -2e-18``."""
    ld = np.longdouble
    for k in range(len(w)):
        ref = w[k].astype(ld)
        step = mu * lam[k]
        c, step = ld(1.0 - step * beta[k]), ld(step)
        for i in order:
            phi = phi_rows[i].astype(ld)
            t = np.tanh(ref @ phi)
            ref = c * ref - step * np.outer((t - targets[k, :, i]) * (1 - t * t), phi)
        w[k] = ref


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), np.finfo(float).tiny)


class TestEpoch:
    @pytest.mark.parametrize("lam", [None, 0.0, 0.3])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 100.0], ids=lambda b: f"tanh-{b}")  # the network is tanh
    def test_matches_reference_loop(self, beta, lam, monkeypatch):
        # the epoch and the grad_w loop round differently; every epoch of
        # either must land within 1e-13 of the same steps taken in long
        # double from the same start, and so must the fitted Z. mu * beta = 1
        # at beta = 100, so flnnsc's decay factor is exactly 0 at every
        # step and the network can shrink ~10x per step; there grad_w's
        # W - mu (g + beta W) leaves a rounding residue of order eps |W| on
        # a far smaller result, and that loop reads up to 2.3e-12, so it is
        # held to 1e-11. d = 60 gives the 300 x 300 weights of the PCA-60
        # experiments
        for d in (3, 60):
            x, graph, _ = small_problem(seed=13, n=20, d=d)
            base = FlnnscConfig(alpha=0.5, beta=beta, mu=0.01, max_iters=3, tol=1e-300,
                                seed=7)
            fits, errors = {}, {}
            for name, epoch in (("epoch", models._epoch), ("grad_w", _reference_epoch(x)),
                                ("longdouble", _longdouble_epoch)):
                errors[name] = []

                def checked(w, phi_rows, targets, order, mu, beta, lam, epoch=epoch,
                            errors=errors[name]):
                    w_ld = w.copy()
                    _longdouble_epoch(w_ld, phi_rows, targets, order, mu, beta, lam)
                    epoch(w, phi_rows, targets, order, mu, beta, lam)
                    errors.append(_rel(w, w_ld))

                with monkeypatch.context() as patch:
                    patch.setattr(models, "_epoch", epoch if name == "longdouble" else checked)
                    if lam is None:
                        fits[name] = fit_flnnsc(x, graph, base)
                    else:
                        fits[name] = fit_ccsc(x, graph, CcscConfig(**asdict(base), lam=lam))
            rep_ld, _, trace_ld = fits.pop("longdouble")
            collapsing = beta == 100.0 and lam is None
            for name, (rep, w, trace) in fits.items():
                assert trace.iterations == trace_ld.iterations == len(errors[name]), name
                tol = 1e-11 if collapsing and name == "grad_w" else 1e-13
                assert max(errors[name]) <= tol, (name, errors[name])
                assert _rel(rep.z, rep_ld.z) <= 1e-13, name
            if lam == 0.0:  # the weights never move
                assert np.array_equal(fits["epoch"][1], init_network(d, rng=np.random.default_rng(7)))

    @pytest.mark.parametrize("lam", [None, 0.3])
    def test_one_step_per_sample(self, lam, monkeypatch):
        # the benchmark counts samples by calls to flnn.sgd_step, which
        # flnn.sgd_block looks up in its module's globals
        x, graph, _ = small_problem(seed=14, n=24)
        base = FlnnscConfig(beta=0.1, max_iters=3, inner_epochs=2, tol=1e-300)
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            sgd_step(*args)

        monkeypatch.setattr(flnn, "sgd_step", counted)
        if lam is None:
            _, _, trace = fit_flnnsc(x, graph, base)
        else:
            _, _, trace = fit_ccsc(x, graph, CcscConfig(**asdict(base), lam=lam))
        assert trace.iterations == 3
        assert len(calls) == 24 * 2 * 3

    def test_zero_decay_inside_blocks(self):
        # n > p, so each epoch runs several blocks of p samples (15, 15, 10);
        # mu * beta = 1 at beta = 100, so those members' decay factor is 0
        # at every step, inside every block, beside members that keep most of
        # their weights
        x, graph, _ = small_problem(seed=16, n=40)
        phi_rows = models._FitData(x, graph).phi_rows
        rng = np.random.default_rng(2)
        w0 = init_network(3, rng)
        beta, lam = [0.1, 100.0, 0.1, 100.0], [1.0] * 4
        w = np.stack([w0] * 4)
        want = w.copy()
        for _ in range(2):
            targets = np.ascontiguousarray(rng.uniform(-0.5, 0.5, (40, 4, 15)).transpose(1, 2, 0))
            order = rng.permutation(40)
            _longdouble_epoch(want, phi_rows, targets, order, 0.01, beta, lam)
            alone = [w[k:k + 1].copy() for k in range(4)]
            models._epoch(w, phi_rows, targets.copy(), order, 0.01, beta, lam)
            for k in range(4):
                models._epoch(alone[k], phi_rows, targets[k:k + 1].copy(), order, 0.01,
                              beta[k:k + 1], lam[k:k + 1])
                assert np.array_equal(w[k], alone[k][0])
                assert _rel(w[k], want[k]) <= 1e-13, k

    def test_diverged_member_fails_in_its_step(self):
        # the epoch checks nothing: a member whose weights are not finite
        # steps on in the stack without touching the others, and fails when
        # its own update starts
        x, graph, _ = small_problem(seed=15, n=20)
        data = models._FitData(x, graph)
        rng = np.random.default_rng(0)
        w0 = init_network(3, rng)
        w = np.stack([w0, w0])
        w[1, 0, 0] = np.nan
        targets = np.ascontiguousarray(rng.uniform(-0.1, 0.1, (20, 2, 15)).transpose(1, 2, 0))
        order = rng.permutation(20)
        alone = w0[None].copy()
        models._epoch(alone, data.phi_rows, targets[:1].copy(), order, 0.01, [0.1], [1.0])
        with np.errstate(invalid="ignore"):
            models._epoch(w, data.phi_rows, targets, order, 0.01, [0.1, 0.1], [1.0, 1.0])
        assert np.array_equal(w[0], alone[0])
        assert not np.isfinite(w[1]).all()
        member = models._Member(1, FlnnscConfig(beta=0.1), np.zeros((20, 20)), (None,) * 4)
        with pytest.raises(NumericalError, match=r"^weight update diverged at iteration 1: "
                                                 r"\|W\|_F is no longer finite; .* = 0\.999$"):
            member.step(w[1], targets[1], data, 1, 0.01)
        assert member.trace.iterations == 0


_TRACE_FIELDS = ("objective", "z_delta", "z_residual", "zstep_obj_before", "zstep_obj_after",
                 "z2_residual", "z2_obj_before", "z2_obj_after", "stop_reason")


def _fit_alone(x, graph, cfg):
    try:
        return fit_ccsc(x, graph, cfg) if isinstance(cfg, CcscConfig) else fit_flnnsc(x, graph, cfg)
    except NumericalError as exc:
        return exc


def _fit_row(x, graph, cfgs):
    return models._fit_lockstep(models._FitData(x, graph), cfgs)


def assert_same_fit(got, want):
    """Bitwise: weights, every representation part, every trace field but
    the timings; or the same error text."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    (rep, w, trace), (rep_ref, w_ref, trace_ref) = got, want
    assert np.array_equal(w, w_ref)
    for part in ("z", "z1", "z2"):
        a, b = getattr(rep, part), getattr(rep_ref, part)
        assert (a is None and b is None) or np.array_equal(a, b)
    for name in _TRACE_FIELDS:
        assert getattr(trace, name) == getattr(trace_ref, name), name
    assert len(trace.seconds) == trace.iterations


class TestLockstep:
    def test_flnnsc_row_equals_single_fits(self):
        x, graph, _ = warped_dataset()
        cfgs = [FlnnscConfig(alpha=1.0, beta=b, max_iters=40, seed=2)
                for b in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)]
        for got, cfg in zip(_fit_row(x, graph, cfgs), cfgs):
            assert_same_fit(got, _fit_alone(x, graph, cfg))

    def test_members_keep_their_own_beta_and_stopping_rule(self):
        x, graph, _ = small_problem(seed=20, n=30)
        cfgs = [FlnnscConfig(alpha=1.0, beta=b, tol=tol, max_iters=m, seed=4)
                for b, tol, m in ((0.1, 1e-6, 40), (1.0, 1e-3, 3), (0.01, 1e-300, 6))]
        got = _fit_row(x, graph, cfgs)
        assert [fit[2].iterations for fit in got] != [got[0][2].iterations] * 3
        for fit, cfg in zip(got, cfgs):
            assert_same_fit(fit, _fit_alone(x, graph, cfg))

    def test_ccsc_lambda_grid_row_equals_single_fits(self, monkeypatch):
        x, graph, _ = warped_dataset()
        cfgs = [CcscConfig(alpha=1.0, beta=b, max_iters=25, seed=3, lam=lam)
                for b in (0.1, 1.0) for lam in (0.0, 0.3, 1.0)]
        calls, linear_part = [], models._linear_part

        def counted(*args):
            calls.append(args)
            return linear_part(*args)

        monkeypatch.setattr(models, "_linear_part", counted)
        got = _fit_row(x, graph, cfgs)
        # the linear part depends only on alpha: one solve serves the row
        assert len(calls) == 1
        assert all(fit[0].z2 is got[0][0].z2 for fit in got)
        for fit, cfg in zip(got, cfgs):
            assert_same_fit(fit, _fit_alone(x, graph, cfg))

    @pytest.mark.parametrize("beta, epochs", [
        pytest.param(1000.0, 1, id="1000.0"),
        pytest.param(1e5, 1, id="100000.0"),
        pytest.param(1e5, 3, id="100000.0-epochs3"),
    ])
    def test_one_member_diverges(self, beta, epochs):
        # beta = 1000 overflows |W|_F at iteration 2, before any entry of W;
        # 1e5 overflows the entries inside the first epoch, and with three
        # epochs the diverged member steps on beside the healthy one
        x, graph, _ = warped_dataset()
        cfgs = [FlnnscConfig(alpha=1.0, beta=b, mu=0.01, max_iters=10, inner_epochs=epochs,
                             seed=1)
                for b in (0.1, beta)]
        with np.errstate(all="ignore"):
            healthy, failed = _fit_row(x, graph, cfgs)
            alone = [_fit_alone(x, graph, cfg) for cfg in cfgs]
        assert isinstance(failed, NumericalError)
        assert_same_fit(failed, alone[1])
        assert_same_fit(healthy, alone[0])

    def test_epoch_divergence_message_names_the_culprit(self):
        # mu * lam * beta > 2: every step multiplies W by a factor beyond -1;
        # the message names the iteration whose epochs overflowed |W|_F and
        # that iteration's factor (mu = 0.01 * 0.85 at iteration 2). At beta
        # = 1000 the norm overflows before any entry of W does
        x, graph, _ = warped_dataset()
        for beta, it, factors in ((1e5, 1, ("-999", "-499")), (1000.0, 2, ("-7.5", "-3.25"))):
            base = FlnnscConfig(beta=beta, mu=0.01, max_iters=3)
            for fit, cfg, factor in ((fit_flnnsc, base, factors[0]),
                                     (fit_ccsc, CcscConfig(**asdict(base), lam=0.5), factors[1])):
                with np.errstate(all="ignore"), pytest.raises(
                        NumericalError, match=rf"^weight update diverged at iteration {it}: "
                                              rf"\|W\|_F is no longer finite; .* 1 - mu\*lam\*beta "
                                              rf"= {factor}, .*geometrically$"):
                    fit(x, graph, cfg)

    @pytest.mark.parametrize("fit, cfg", [
        (fit_flnnsc, FlnnscConfig(beta=250.0)),
        (fit_ccsc, CcscConfig(beta=250.0, lam=1.0)),
    ], ids=["flnnsc", "ccsc"])
    def test_saturated_growth_fails_when_the_fit_stops(self, fit, cfg):
        # mu * lam * beta = 2.125 > 2 at iteration 2: |W|_F grows ~10x per
        # iteration but stays finite, and the saturated tanh freezes z, so
        # the fit would stop at tol with weights that still grow
        x, graph, _ = small_problem(seed=0)
        with pytest.raises(NumericalError, match=r"^weight update diverged at iteration 2: "
                                                 r"\|W\|_F = [0-9.]+e\+04; .* = -1\.125, "
                                                 r".*geometrically$"):
            fit(x, graph, cfg)

    def test_growth_that_ends_before_the_stop_is_no_divergence(self):
        # mu * beta = 2.5 at first, but mu decays below 2 / beta at iteration
        # 3, and the weights shrink again long before the fit stops
        x, graph, _ = small_problem(seed=1)
        _, _, trace = fit_flnnsc(x, graph, FlnnscConfig(beta=250.0))
        assert max(trace.w_norm) > 1e4 and trace.w_norm[-1] < 1e-30
        assert trace.stop_reason == "tol"

    def test_members_must_share_the_schedule(self):
        x, graph, _ = small_problem()
        for cfgs in ([FlnnscConfig(seed=0), FlnnscConfig(seed=1)],
                     [CcscConfig(alpha=a) for a in (0.1, 1.0)]):
            with pytest.raises(ValueError, match="share seed, mu, mu_decay, inner_epochs, alpha$"):
                _fit_row(x, graph, cfgs)

    def test_failed_linear_part_fails_the_row(self, monkeypatch):
        # a ccsc row solves its linear part once, before the network exists;
        # when that raises, the one error is every member's result
        x, graph, _ = small_problem()
        calls, error = [], NumericalError("linear part failed")

        def failing(*args):
            calls.append(args)
            raise error

        def no_network(*args):
            raise AssertionError("init_network called")

        monkeypatch.setattr(models, "_linear_part", failing)
        monkeypatch.setattr(models, "init_network", no_network)
        cfgs = [CcscConfig(beta=b, lam=lam) for b in (0.1, 1.0) for lam in (0.0, 0.5)]
        got = _fit_row(x, graph, cfgs)
        assert len(calls) == 1 and len(got) == len(cfgs)
        assert all(fit is error for fit in got)

    @pytest.mark.parametrize("lam", [None, 0.3])
    def test_targets_are_the_last_update_products(self, lam, monkeypatch):
        # zero before the first epoch; after that each member's targets are
        # the h @ z1 its last representation update formed, one product, which
        # rounds within 1e-15 of the per-sample products h @ z1[:, i]
        x, graph, _ = warped_dataset()
        n, iters = x.shape[1], 4
        cfgs = [FlnnscConfig(alpha=1.0, beta=b, max_iters=iters, tol=1e-300, seed=8)
                for b in (0.1, 1.0)]
        if lam is not None:
            cfgs = [CcscConfig(**asdict(cfg), lam=lam) for cfg in cfgs]
        epochs, updates = [], []
        epoch, zstep = models._epoch, models._zstep

        def recorded_epoch(w, phi_rows, targets, *args):
            epochs.append(targets.copy())
            return epoch(w, phi_rows, targets, *args)

        def recorded_zstep(h, *args):
            out = zstep(h, *args)
            if h.shape[0] != x.shape[0]:  # not ccsc's linear part (h = x)
                updates.append((h, out[0], out[5]))
            return out

        monkeypatch.setattr(models, "_epoch", recorded_epoch)
        monkeypatch.setattr(models, "_zstep", recorded_zstep)
        assert all(isinstance(fit, tuple) for fit in _fit_row(x, graph, cfgs))
        assert len(epochs) == iters and len(updates) == iters * len(cfgs)
        assert epochs[0].shape == (len(cfgs), 5 * x.shape[0], n) and not epochs[0].any()
        for it in range(1, iters):
            for k in range(len(cfgs)):
                h, z1, hz = updates[(it - 1) * len(cfgs) + k]
                assert np.array_equal(hz, h @ z1)
                assert np.array_equal(epochs[it][k], hz)
                per_sample = np.stack([h @ z1[:, i] for i in range(n)], axis=1)
                assert _rel(epochs[it][k], per_sample) <= 1e-15

    def test_row_working_set(self):
        # one row of K = 5 at n = 150 may hold K + 7 n x n float64 arrays at
        # once, its K results included, besides the K network outputs
        # (p x n each) its members carry from one iteration to the next;
        # the dataset is built first, outside the measurement
        x, graph, _ = warped_dataset()
        cfgs = [FlnnscConfig(alpha=1.0, beta=b, max_iters=5) for b in (0.01, 0.1, 1.0, 10.0, 100.0)]
        _fit_row(*small_problem(n=12)[:2], cfgs)
        n, k, p = x.shape[1], len(cfgs), 5 * x.shape[0]
        tracemalloc.start()
        try:
            fits = _fit_row(x, graph, cfgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fits) == k
        budget = ((k + 7) * n * n + k * p * n) * 8
        assert peak <= budget, f"traced peak {peak / (n * n * 8):.2f} n x n arrays"


class TestWeightNorm:
    def test_last_is_the_norm_of_the_returned_weights(self):
        x, graph, _ = small_problem(seed=3)
        for fit, cfg in ((fit_flnnsc, FlnnscConfig(beta=0.1, max_iters=5)),
                         (fit_ccsc, CcscConfig(beta=0.1, max_iters=5, lam=0.5))):
            _, w, trace = fit(x, graph, cfg)
            assert len(trace.w_norm) == trace.iterations
            assert trace.w_norm[-1] == np.linalg.norm(w)

    def test_decays_on_the_default_data(self):
        x, graph, _ = warped_dataset()
        _, _, trace = fit_flnnsc(x, graph, FlnnscConfig(alpha=0.01, beta=1.0))
        assert trace.w_norm[-1] < trace.w_norm[0]


class TestStopReason:
    def test_collapsed_network(self):
        # mu * beta = 1: the decay wipes the weights to ~1e-230, so no
        # singular value of h survives and z = 0
        x, graph, _ = warped_dataset()
        rep, w, trace = fit_flnnsc(x, graph, FlnnscConfig(alpha=1.0, beta=100.0, mu=0.01))
        assert trace.stop_reason == "collapsed"
        assert not rep.z.any()
        assert len(trace.rank) == len(trace.s_ratio) == trace.iterations
        assert trace.rank[-1] == 0 and trace.s_ratio[-1] == 0.0

    def test_tol_and_max_iters(self):
        x, graph, _ = small_problem(seed=22)
        _, _, trace = fit_flnnsc(x, graph, FlnnscConfig(beta=0.1, tol=np.inf))
        assert trace.stop_reason == "tol"
        _, _, trace = fit_flnnsc(x, graph, FlnnscConfig(beta=0.1, tol=1e-300, max_iters=3))
        assert trace.stop_reason == "max_iters"


class TestLsr:
    def test_identity_data(self):
        rep = fit_lsr(np.eye(4), 1.0)
        assert np.allclose(rep.z, 0.5 * np.eye(4), atol=1e-10)

    def test_large_regularization_shrinks(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (3, 8))
        rep = fit_lsr(x, 1e8)
        assert np.linalg.norm(rep.z) <= 1e-6 * 8

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(14)
        # n > d, and n < d with rank 3
        for x in (rng.uniform(-1, 1, (4, 10)), rank_deficient(rng, 15, 10, 3)):
            for lam in (0.01, 0.7, 100.0):
                rep = fit_lsr(x, lam)
                gram = x.T @ x
                resid = np.linalg.norm((gram + lam * np.eye(10)) @ rep.z - gram)
                assert resid <= 1e-8 * np.linalg.norm(gram)
                oracle = np.linalg.solve(gram + lam * np.eye(10), gram)
                assert np.max(np.abs(rep.z - oracle)) <= 1e-9

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="lambda_reg"):
            fit_lsr(np.eye(3), 0.0)

    def test_rejects_infinite_lambda(self):
        with pytest.raises(ValueError, match="lambda_reg must be finite"):
            fit_lsr(np.eye(3), np.inf)

    def test_no_eigendecomposition_of_the_identity(self, monkeypatch):
        # eig(I) is known, so the fit takes no sym_eigen and gives update_z's bits
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, (5, 45))
        refs = {lam: update_z(x, np.eye(45), lam) for lam in (0.01, 1.0, 100.0)}

        def no_eigen(a):
            raise AssertionError("sym_eigen called")

        monkeypatch.setattr(models, "sym_eigen", no_eigen)
        for lam, ref in refs.items():
            z = fit_lsr(x, lam).z
            assert z.tobytes() == ref.tobytes()


class TestLinearSmr:
    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, (8, 6))  # tall: gram nonsingular
        graph = knn_similarity(x, 2, "binary")
        rep = fit_linear_smr(x, graph, 0.0)
        assert np.allclose(rep.z, np.eye(6), atol=1e-8)

    def test_matches_ccsc_lambda_zero(self):
        x, graph, _ = small_problem(seed=16)
        rep_smr = fit_linear_smr(x, graph, 0.9)
        cfg = CcscConfig(alpha=0.9, beta=0.1, max_iters=5, seed=0, lam=0.0)
        rep_cc, _, _ = fit_ccsc(x, graph, cfg)
        assert np.array_equal(rep_smr.z, rep_cc.z2)

    def test_residual_oracle(self):
        x, graph, lap = small_problem(seed=17)
        rep = fit_linear_smr(x, graph, 2.0)
        gram = x.T @ x
        resid = np.linalg.norm(gram @ rep.z + 2.0 * (rep.z @ lap) - gram)
        assert resid <= 1e-8 * np.linalg.norm(gram)


@pytest.mark.parametrize("fit", ["flnnsc", "smr_linear"])
@pytest.mark.parametrize("defect, message", [
    ("negative", "similarity matrix has negative entries"),
    ("asymmetric", "similarity matrix is not symmetric within tolerance"),
])
def test_fits_reject_a_broken_similarity_matrix(fit, defect, message):
    x, s, _ = small_problem(n=8)
    if defect == "negative":
        s[0, 1] = s[1, 0] = -5.0
    else:
        s[0, 1] += 1.0
    with pytest.raises(ValueError, match=f"^{message}$"):
        if fit == "flnnsc":
            fit_flnnsc(x, s, FlnnscConfig(max_iters=2))
        else:
            fit_linear_smr(x, s, 1.0)


class TestConfigValidation:
    def test_flnnsc_is_the_combination_at_lambda_one(self):
        assert FlnnscConfig().lam == 1.0
        with pytest.raises(TypeError):
            FlnnscConfig(lam=0.5)

    def test_ccsc_config_is_flnnsc_config_plus_lambda(self):
        names = [f.name for f in fields(FlnnscConfig)]
        assert [f.name for f in fields(CcscConfig)] == names + ["lam"]
        assert CcscConfig().lam == 0.5
        with pytest.raises(ValueError, match="max_iters"):  # the parent's checks run
            CcscConfig(max_iters=0)

    def test_tol_positive(self):
        with pytest.raises(ValueError, match="tol"):
            FlnnscConfig(tol=0.0)

    def test_max_iters(self):
        with pytest.raises(ValueError, match="max_iters"):
            FlnnscConfig(max_iters=0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "mu"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hyperparameter(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FlnnscConfig(**{field: value})

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_update_z_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and non-negative"):
            update_z(np.eye(3), np.zeros((3, 3)), alpha)

    def test_decay_range(self):
        with pytest.raises(ValueError, match="mu_decay"):
            FlnnscConfig(mu_decay=0.0)
