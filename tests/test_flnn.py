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
from flnnsc.linalg import NumericalError


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


class TestSgdStep:
    def test_zero_gradient(self):
        w0 = init_network(2, rng=1)
        w = w0.copy()
        sgd_step(w, np.zeros((10, 10)), 0.05)
        assert np.array_equal(w, w0)

    def test_full_decay_step(self):
        w = np.eye(10) * 0.5
        # gradient = beta * W (beta = 1) with zero residual; one unit step zeroes W
        sgd_step(w, w.copy(), 1.0)
        assert np.array_equal(w, np.zeros((10, 10)))

    def test_arithmetic(self):
        rng = np.random.default_rng(10)
        w0 = init_network(2, rng=rng)
        g0 = rng.standard_normal((10, 10))
        w, g = w0.copy(), g0.copy()
        assert sgd_step(w, g, 0.05) is None
        assert np.array_equal(w, w0 - 0.05 * g0)  # the functional step, bit for bit
        assert np.array_equal(g, 0.05 * g0)  # the buffer holds the scaled step

    def test_shape_check(self):
        w0 = init_network(2, rng=0)
        w = w0.copy()
        with pytest.raises(ValueError, match="shape"):
            sgd_step(w, np.zeros((3, 3)), 0.05)
        assert np.array_equal(w, w0)

    @pytest.mark.parametrize("bad, mu, culprit", [
        (np.nan, 0.05, "the step"),
        (np.inf, 0.05, "the step"),
        (1e300, 1e10, "the step"),  # finite gradient, overflowing step
        (-1.5e308, 1.0, "the stepped w"),  # finite step, overflowing difference
    ], ids=["nan-grad", "inf-grad", "overflowing-step", "overflowing-w"])
    def test_diverged_step(self, bad, mu, culprit):
        w = np.full((10, 10), 1e308)
        g = np.zeros((10, 10))
        g[3, 4] = bad
        with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match=f"^weight update diverged: {culprit} "
        ):
            sgd_step(w, g, mu)
