import numpy as np
import pytest

from flnnsc.flnn import (
    expand,
    expand_batch,
    forward,
    grad_w,
    init_network,
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


def _stack(k, d, seed):
    """A (k, 5d, 5d) stack of networks, a sample and its expansion, its
    (k, 5d) targets and per-member scales and rates, shaped as the fit
    passes them."""
    rng = np.random.default_rng(seed)
    v = np.stack([init_network(d, rng) for _ in range(k)])
    x = rng.uniform(-1.0, 1.0, d)
    target = rng.uniform(-0.5, 0.5, (k, 5 * d))
    scale = rng.uniform(0.5, 2.0, (k, 1))
    rate = rng.uniform(0.01, 0.1, (k, 1))
    return v, x, expand(x), target, scale, rate


def _rank_one(v, scale, rate, phi, target):
    """The rank-1 term a step subtracts, written out."""
    t = np.tanh(scale * (v @ phi))
    return np.einsum("ki,j->kij", (t - target) * (1.0 - t**2) * rate, phi)


class TestSgdStep:
    def test_zero_gradient(self):
        # targets equal to the outputs: nothing to step
        v, _, phi, _, scale, rate = _stack(2, 2, seed=1)
        v0 = v.copy()
        target = np.tanh(scale * (v @ phi))
        sgd_step(v, scale, rate, phi, target, np.empty_like(v))
        assert np.array_equal(v, v0)

    def test_full_decay_step(self):
        # mu lam beta = 1: the fold by 0 leaves only the rank-1 term
        v, _, phi, target, scale, rate = _stack(2, 2, seed=2)
        v0 = v.copy()
        sgd_step(v, scale, rate, phi, target, np.empty_like(v), [(1, 0.0)])
        assert np.array_equal(v[1], -_rank_one(v0, scale, rate, phi, target)[1])

    def test_fold(self):
        # the fold scales a member's matrix after its outputs are formed
        # and before the rank-1 update; the other members are untouched
        v, _, phi, target, scale, rate = _stack(2, 2, seed=3)
        folded, plain = v.copy(), v.copy()
        sgd_step(folded, scale, rate, phi, target, np.empty_like(v), [(1, 1e-120)])
        sgd_step(plain, scale, rate, phi, target, np.empty_like(v))
        assert np.array_equal(folded[0], plain[0])
        assert np.array_equal(folded[1], 1e-120 * v[1] - _rank_one(v, scale, rate, phi, target)[1])

    def test_arithmetic(self):
        v, _, phi, target, scale, rate = _stack(2, 2, seed=4)
        v0 = v.copy()
        assert sgd_step(v, scale, rate, phi, target, np.empty_like(v)) is None
        assert np.array_equal(v, v0 - _rank_one(v0, scale, rate, phi, target))

    def test_is_the_gradient_step(self):
        # with s = c * scale and rate = mu lam / s, s v after the step is the
        # step of grad_w's gradient, W - mu lam g, up to rounding
        mu, lam, beta = 0.05, 0.3, 2.0
        v, x, phi, target, scale, _ = _stack(1, 3, seed=0)
        c = 1.0 - mu * lam * beta
        s = c * scale[0, 0]
        w = scale[0, 0] * v[0]
        g = grad_w(w, x, forward(w, x), target[0][:, None], np.ones(1), beta)
        sgd_step(v, scale, np.full((1, 1), mu * lam / s), phi, target, np.empty_like(v))
        want = w - mu * lam * g
        assert np.linalg.norm(s * v[0] - want) <= 1e-14 * np.linalg.norm(want)

    def test_shape_check(self):
        # a mismatched operand raises before v is written
        v, _, phi, target, scale, rate = _stack(2, 2, seed=5)
        v0 = v.copy()
        with pytest.raises(ValueError):
            sgd_step(v, scale, rate, phi, target[:, :3], np.empty_like(v))
        with pytest.raises(ValueError):
            sgd_step(v, scale, rate, phi, target, np.empty((2, 10, 9)))
        assert np.array_equal(v, v0)

    def test_members_are_independent(self):
        # every member's step is its step alone, bit for bit, even beside a
        # member whose matrix is not finite
        v, _, phi, target, scale, rate = _stack(3, 2, seed=6)
        v[1, 2, 3] = np.nan
        stacked = v.copy()
        sgd_step(stacked, scale, rate, phi, target, np.empty_like(v))
        for k in range(3):
            alone = v[k:k + 1].copy()
            sgd_step(alone, scale[k:k + 1], rate[k:k + 1], phi, target[k:k + 1],
                     np.empty_like(alone))
            assert np.array_equal(stacked[k], alone[0], equal_nan=True)

    @pytest.mark.parametrize("case", ["nan-grad", "inf-grad", "overflowing-step", "overflowing-w"])
    def test_diverged_step(self, case):
        # a step that leaves v non-finite leaves it so for good, whatever
        # finite steps follow: why the fit checks a member once per epoch
        v, _, phi, target, scale, rate = _stack(1, 2, seed=7)
        bad_target, bad_rate = target.copy(), rate
        if case == "nan-grad":
            bad_target[0, 1] = np.nan
        elif case == "inf-grad":
            bad_target[0, 1] = np.inf
        elif case == "overflowing-step":  # finite operands, a rank-1 term past the float range
            bad_target[0, 1], bad_rate = -1e10, np.full((1, 1), 1e300)
        else:  # the matrix has already overflowed
            v[0, 4, 1] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            sgd_step(v, scale, bad_rate, phi, bad_target, np.empty_like(v))
            assert not np.isfinite(v).all()
            for _ in range(20):
                sgd_step(v, scale, rate, phi, target, np.empty_like(v))
        assert not np.isfinite(v).all()
