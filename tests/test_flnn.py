import numpy as np
import pytest

from flnnsc.flnn import (
    expand,
    expand_batch,
    forward,
    grad_w,
    init_network,
    sgd_block_end,
    sgd_block_start,
    sgd_step,
)


class TestExpand:
    def test_scalar_zero(self):
        assert np.allclose(expand(np.array([0.0])), [0.0, 0.0, 1.0, 0.0, 1.0])

    def test_scalar_half(self):
        out = expand(np.array([0.5]))
        assert np.allclose(out, [0.5, 1.0, 0.0, 0.0, -1.0], atol=1e-15)

    def test_matches_pointwise_formula(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, 3)
        out = expand(x)
        for i, v in enumerate(x):
            expected = [v, np.sin(np.pi * v), np.cos(np.pi * v), np.sin(2 * np.pi * v), np.cos(2 * np.pi * v)]
            got = [out[i], out[3 + i], out[6 + i], out[9 + i], out[12 + i]]
            assert np.allclose(got, expected, atol=1e-15)

    def test_batch_matches_columns(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.0, 1.0, (4, 6))
        batch = expand_batch(x)
        for j in range(6):
            assert np.array_equal(batch[:, j], expand(x[:, j]))

    def test_lipschitz_bound(self):
        # |phi(x) - phi(y)| <= (1 + 2 pi) sqrt(5) |x - y| on [-1, 1]^d
        rng = np.random.default_rng(2)
        bound = (1.0 + 2.0 * np.pi) * np.sqrt(5.0)
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, 5)
            y = rng.uniform(-1.0, 1.0, 5)
            lhs = np.linalg.norm(expand(x) - expand(y))
            assert lhs <= bound * np.linalg.norm(x - y) + 1e-12


class TestWeights:
    def test_init_shape_and_scale(self):
        w = init_network(4, rng=0)
        assert w.shape == (20, 20)
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(20))

    def test_init_deterministic(self):
        assert np.array_equal(init_network(3, rng=7), init_network(3, rng=7))

    def test_rejects_rectangular_w(self):
        w = np.ones((10, 8))
        with pytest.raises(ValueError, match="square"):
            forward(w, np.zeros(2))
        with pytest.raises(ValueError, match="square"):
            grad_w(w, np.zeros(2), np.zeros(10), np.zeros((10, 3)), np.zeros(3), 0.0)

    def test_rejects_non_finite_w(self):
        w = np.zeros((10, 10))
        w[2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward(w, np.zeros(2))

    def test_rejects_negative_beta(self):
        w = init_network(2, rng=0)
        with pytest.raises(ValueError, match="beta"):
            grad_w(w, np.zeros(2), np.zeros(10), np.zeros((10, 3)), np.zeros(3), -0.1)


class TestForward:
    def test_zero_weights_tanh(self):
        assert np.array_equal(forward(np.zeros((10, 10)), np.array([0.3, -0.5])), np.zeros(10))

    def test_matches_composition(self):
        rng = np.random.default_rng(4)
        w = init_network(3, rng=rng)
        x = rng.uniform(-1, 1, 3)
        expected = np.tanh(w @ expand(x))
        assert np.allclose(forward(w, x), expected, atol=1e-14)

    def test_dimension_mismatch(self):
        w = init_network(3, rng=0)
        with pytest.raises(ValueError, match="dimension"):
            forward(w, np.zeros(4))


def _fit_decay_objective(w, phi, hz_col, beta):
    h_i = np.tanh(w @ phi)
    return 0.5 * np.sum((h_i - hz_col) ** 2) + 0.5 * beta * np.sum(w**2)


class TestGradW:
    def test_zero_residual_zero_beta(self):
        rng = np.random.default_rng(7)
        w = init_network(2, rng=rng)
        x_i = rng.uniform(-1, 1, 2)
        h_i = forward(w, x_i)
        n = 4
        h = np.zeros((10, n))
        h[:, 0] = h_i
        z_i = np.zeros(n)
        z_i[0] = 1.0  # h @ z_i == h_i, so the residual vanishes
        assert np.allclose(grad_w(w, x_i, h_i, h, z_i, 0.0), np.zeros((10, 10)), atol=1e-15)

    def test_decay_only(self):
        rng = np.random.default_rng(8)
        w = init_network(2, rng=rng)
        x_i = rng.uniform(-1, 1, 2)
        h_i = forward(w, x_i)
        h = np.tile(h_i[:, None], (1, 3))
        z_i = np.array([1.0, 0.0, 0.0])
        assert np.allclose(grad_w(w, x_i, h_i, h, z_i, 1.0), w, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        d, n = 2, 4
        beta = 0.3
        w = init_network(d, rng=rng)
        x_i = rng.uniform(-1, 1, d)
        h = rng.standard_normal((5 * d, n))  # held fixed
        z_i = rng.standard_normal(n)
        h_i = forward(w, x_i)
        analytic = grad_w(w, x_i, h_i, h, z_i, beta)

        phi = expand(x_i)
        hz = h @ z_i
        eps = 1e-6
        fd = np.zeros_like(w)
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                wp = w.copy()
                wp[r, c] += eps
                wm = w.copy()
                wm[r, c] -= eps
                fd[r, c] = (
                    _fit_decay_objective(wp, phi, hz, beta)
                    - _fit_decay_objective(wm, phi, hz, beta)
                ) / (2 * eps)
        assert np.linalg.norm(analytic - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)

    def test_dimension_checks(self):
        w = init_network(2, rng=0)
        with pytest.raises(ValueError):
            grad_w(w, np.zeros(2), np.zeros(9), np.zeros((10, 3)), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            grad_w(w, np.zeros(2), np.zeros(10), np.zeros((10, 3)), np.zeros(4), 0.0)


def _block(k, d, b, seed):
    """A (k, 5d, 5d) stack of networks and a block of ``b`` samples, shaped
    as the fit passes them: the block's expansions (b, 5d), its (b, k, 5d)
    targets and per-member scales and rates (k, 1)."""
    rng = np.random.default_rng(seed)
    v = np.stack([init_network(d, rng) for _ in range(k)])
    phi = np.ascontiguousarray(expand_batch(rng.uniform(-1.0, 1.0, (d, b))).T)
    target = rng.uniform(-0.5, 0.5, (b, k, 5 * d))
    scale = rng.uniform(0.5, 2.0, (k, 1))
    rate = rng.uniform(0.01, 0.1, (k, 1))
    return v, phi, target, scale, rate


def _steps(v, phi, target, scale, rate, steps, fold=None):
    """Steps ``0 .. steps-1`` of one block; returns ``(p, d, gram)``."""
    p, d, gram = sgd_block_start(v, phi)
    for j in range(steps):
        sgd_step(v, p, d, gram, j, scale, rate, target[j], (fold or {}).get(j, ()))
    return p, d, gram


def _matrix(v, d, phi, j):
    """The matrices the stack stands for after steps ``0 .. j-1`` of a block."""
    m = v.copy()
    sgd_block_end(m, d[:, :j], phi[:j])
    return m


def _coefficient(m, phi_j, scale, rate, target):
    """A step's rank-1 coefficient from the matrices ``m``, written out."""
    t = np.tanh(scale * (m @ phi_j))
    return rate * ((t - target) * (1.0 - t**2))


class TestSgdStep:
    def test_zero_gradient(self):
        # targets equal to the outputs: nothing to step, in the whole block
        v, phi, _, scale, rate = _block(2, 2, 4, seed=1)
        v0 = v.copy()
        target = np.tanh(scale[:, None] * sgd_block_start(v, phi)[0]).transpose(1, 0, 2)
        _, d, _ = _steps(v, phi, target, scale, rate, 4)
        assert not d.any()
        sgd_block_end(v, d, phi)
        assert np.array_equal(v, v0)

    def test_full_decay_step(self):
        # mu lam beta = 1: the fold by 0 leaves only the step's own rank-1 term
        v, phi, target, scale, rate = _block(2, 2, 4, seed=2)
        plain = _steps(v.copy(), phi, target, scale, rate, 3)[1]
        p, d, _ = _steps(v, phi, target, scale, rate, 3, fold={2: [(1, 0.0)]})
        assert not v[1].any() and not d[1, :2].any() and not p[1, 3:].any()
        assert np.array_equal(d[1, 2], plain[1, 2])
        assert np.array_equal(_matrix(v, d, phi, 3)[1], -np.outer(d[1, 2], phi[2]))

    def test_fold(self):
        # the fold scales a member's matrix after its outputs are formed and
        # before its rank-1 term is kept: its v, its earlier terms and its
        # later products; the other members are untouched
        v, phi, target, scale, rate = _block(2, 2, 4, seed=3)
        folded = v.copy()
        p, d, _ = _steps(folded, phi, target, scale, rate, 3, fold={2: [(1, 1e-120)]})
        p0, d0, _ = _steps(v.copy(), phi, target, scale, rate, 3)
        assert np.array_equal(folded[0], v[0])
        assert np.array_equal(d[0, :3], d0[0, :3]) and np.array_equal(p[0], p0[0])
        assert np.array_equal(folded[1], 1e-120 * v[1])
        assert np.array_equal(d[1, :2], 1e-120 * d0[1, :2])
        assert np.array_equal(d[1, 2], d0[1, 2])
        assert np.array_equal(p[1, :3], p0[1, :3])
        assert np.array_equal(p[1, 3:], 1e-120 * p0[1, 3:])

    def test_arithmetic(self):
        # step j keeps row j of d and writes nothing else; its outputs are
        # those of the matrices the earlier steps of the block left
        v, phi, target, scale, rate = _block(2, 2, 4, seed=4)
        v0 = v.copy()
        p, d, gram = _steps(v, phi, target, scale, rate, 2)
        p1, d1 = p.copy(), d.copy()
        assert sgd_step(v, p, d, gram, 2, scale, rate, target[2]) is None
        assert np.array_equal(v, v0) and np.array_equal(p, p1)
        assert np.array_equal(d[:, :2], d1[:, :2]) and not d[:, 3:].any()
        t = np.tanh(scale * (p[:, 2] - np.matmul(gram[2, :2], d[:, :2])))
        assert np.array_equal(d[:, 2], (t - target[2]) * (1.0 - t * t) * rate)
        want = _coefficient(_matrix(v, d, phi, 2), phi[2], scale, rate, target[2])
        assert np.linalg.norm(d[:, 2] - want) <= 1e-14 * np.linalg.norm(want)

    def test_is_the_gradient_step(self):
        # with s = c * scale and rate = mu lam / s, s v after the block is
        # the steps of grad_w's gradient, W <- W - mu lam g, up to rounding
        mu, lam, beta, b = 0.05, 0.3, 2.0, 5
        v, phi, target, scale, _ = _block(1, 3, b, seed=0)
        x = np.random.default_rng(0).uniform(-1.0, 1.0, (3, b))
        phi = np.ascontiguousarray(expand_batch(x).T)
        c = 1.0 - mu * lam * beta
        w = scale[0, 0] * v[0]
        p, d, gram = sgd_block_start(v, phi)
        for j in range(b):
            s = c ** (j + 1) * scale
            sgd_step(v, p, d, gram, j, s / c, mu * lam / s, target[j])
            g = grad_w(w, x[:, j], forward(w, x[:, j]), target[j, 0][:, None], np.ones(1), beta)
            w = w - mu * lam * g
        sgd_block_end(v, d, phi)
        assert np.linalg.norm(s[0, 0] * v[0] - w) <= 1e-14 * np.linalg.norm(w)

    def test_shape_check(self):
        # a mismatched operand raises before v, p or d is written
        v, phi, target, scale, rate = _block(2, 2, 4, seed=5)
        p, d, gram = _steps(v, phi, target, scale, rate, 1)
        state = v.copy(), p.copy(), d.copy()
        with pytest.raises(ValueError):
            sgd_step(v, p, d, gram, 1, scale, rate, target[1][:, :3])
        with pytest.raises(ValueError):
            sgd_step(v, p, np.zeros((2, 4, 9)), gram, 1, scale, rate, target[1])
        for got, want in zip((v, p, d), state):
            assert np.array_equal(got, want)

    def test_members_are_independent(self):
        # every member's steps are its steps alone, bit for bit, even beside
        # a member whose matrix is not finite and one that folds
        v, phi, target, scale, rate = _block(3, 2, 4, seed=6)
        v[1, 2, 3] = np.nan
        fold = {1: [(2, 0.5)], 2: [(0, 1e-3), (2, 0.0)]}
        stacked = v.copy()
        got = _steps(stacked, phi, target, scale, rate, 4, fold)
        for k in range(3):
            alone = v[k:k + 1].copy()
            mine = {j: [(0, f) for m, f in pairs if m == k] for j, pairs in fold.items()}
            want = _steps(alone, phi, target[:, k:k + 1], scale[k:k + 1], rate[k:k + 1], 4, mine)
            assert np.array_equal(stacked[k], alone[0], equal_nan=True)
            for a, b in zip(got[:2], want[:2]):
                assert np.array_equal(a[k], b[0], equal_nan=True)

    @pytest.mark.parametrize("case", ["nan-grad", "inf-grad", "overflowing-step", "overflowing-w"])
    def test_diverged_step(self, case):
        # a step that leaves the stack non-finite leaves the matrix so for
        # good, whatever finite steps and blocks follow: why the fit checks
        # a member once per epoch
        v, phi, target, scale, rate = _block(1, 2, 4, seed=7)
        bad_target, bad_rate = target.copy(), rate
        if case == "nan-grad":
            bad_target[0, 0, 1] = np.nan
        elif case == "inf-grad":
            bad_target[0, 0, 1] = np.inf
        elif case == "overflowing-step":  # finite operands, a rank-1 term past the float range
            bad_target[0, 0, 1], bad_rate = -1e10, np.full((1, 1), 1e300)
        else:  # the matrix has already overflowed
            v[0, 4, 1] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            p, d, gram = sgd_block_start(v, phi)
            sgd_step(v, p, d, gram, 0, scale, bad_rate, bad_target[0])
            assert not (np.isfinite(v).all() and np.isfinite(d).all())
            for j in range(1, 4):
                sgd_step(v, p, d, gram, j, scale, rate, target[j])
            sgd_block_end(v, d, phi)
            for _ in range(20):
                sgd_block_end(v, _steps(v, phi, target, scale, rate, 4)[1], phi)
        assert not np.isfinite(v).all()
