import numpy as np
import pytest

from flnnsc.flnn import (
    expand_batch,
    init_network,
    sgd_block,
    sgd_step,
)
from oracles import expand, forward, grad_w


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


def _stack(k, d, n, seed):
    """A (k, 5d, 5d) stack of networks and ``n`` samples, shaped as the fit
    passes them to :func:`sgd_block`: the inputs (d, n), their expansions
    (n, 5d) and (k, 5d, n) targets."""
    rng = np.random.default_rng(seed)
    w = np.stack([init_network(d, rng) for _ in range(k)])
    x = rng.uniform(-1.0, 1.0, (d, n))
    target = np.ascontiguousarray(rng.uniform(-0.5, 0.5, (n, k, 5 * d)).transpose(1, 2, 0))
    return w, x, np.ascontiguousarray(expand_batch(x).T), target


def _decay(c, b):
    """The (K, b + 1) powers :func:`sgd_block` takes for decay factors ``c``."""
    return np.asarray(c, dtype=float)[:, None] ** np.arange(b + 1)


def _blocks(w, phi, target, c, rate, b):
    """Blocks of ``b`` samples, in order, over all rows of ``phi``."""
    powers, order = _decay(c, b), np.arange(len(phi))
    for start in range(0, len(phi), b):
        sgd_block(w, phi, target, order[start:start + b], powers, rate)


def _step_operands(k, b, p, seed):
    """Rows ``d`` and coefficients ``a`` with a unit diagonal (C order, as
    :func:`sgd_block` forms them), random elsewhere."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.1, 0.1, (k, b, b))
    a[:, range(b), range(b)] = 1.0
    return rng.uniform(-1.0, 1.0, (k, b, p)), a


# mu lam = 0.01 and the decay factor c = 1 - mu lam beta of each beta:
# mu beta = 1 (c = 0), c = 0.5, beta = 0 (c = 1) and a growing |c| > 1
_RATE, _BETAS = 0.01, {0.0: 100.0, 0.5: 50.0, 1.0: 0.0, -1.5: 250.0}


class TestSgdStep:
    def test_zero_gradient(self):
        # targets equal to the outputs, no decay: nothing to step
        w, _, phi, _ = _stack(2, 2, 4, seed=1)
        w0 = w.copy()
        target = np.tanh(np.matmul(phi, w.transpose(0, 2, 1))).transpose(0, 2, 1)
        sgd_block(w, phi, target, np.arange(4), _decay([1.0, 1.0], 4), np.full((2, 1), _RATE))
        assert np.array_equal(w, w0)

    def test_full_decay_step(self):
        # mu lam beta = 1: a block leaves only its last step's rank-1 term
        # (its rows are multiples of the last expansion), whatever came before
        w, _, phi, target = _stack(2, 2, 4, seed=2)
        w[1, 0, 0] = 1e300  # not a trace of it survives
        sgd_block(w, phi, target, np.arange(4), _decay([0.5, 0.0], 4), np.full((2, 1), _RATE))
        last = phi[-1] / np.linalg.norm(phi[-1])
        for k, rank1 in ((0, False), (1, True)):
            rest = w[k] - np.outer(w[k] @ last, last)
            assert (np.linalg.norm(rest) <= 1e-15 * np.linalg.norm(w[k])) == rank1

    def test_arithmetic(self):
        # step j overwrites row j of d, the block's product for j, and
        # writes nothing else: its outputs are that product plus the
        # earlier rows' terms, row j of a (unit diagonal) times d[:j + 1]
        d, a = _step_operands(2, 4, 10, seed=4)
        target = np.random.default_rng(4).uniform(-0.5, 0.5, (2, 10))
        state = d.copy(), a.copy()
        assert sgd_step(d, a, 2, target) is None
        assert np.array_equal(a, state[1])
        assert np.array_equal(np.delete(d, 2, axis=1), np.delete(state[0], 2, axis=1))
        t = np.tanh(np.matmul(a[:, 2, None, :3], state[0][:, :3])[:, 0])
        assert np.array_equal(d[:, 2], (t - target) * (1.0 - t * t))
        for k in range(2):
            want = np.tanh(state[0][k, 2] + a[k, 2, :2] @ state[0][k, :2])
            assert np.linalg.norm(t[k] - want) <= 1e-15 * np.linalg.norm(want)

    def test_is_the_gradient_step(self):
        # blocks of sgd_step calls take grad_w's steps, W <- W - mu lam g with
        # the decay beta W in g, up to rounding: at every decay factor
        for c, beta in _BETAS.items():
            w, x, phi, target = _stack(1, 3, 10, seed=0)
            ref = w[0].copy()
            for j in range(10):
                g = grad_w(ref, x[:, j], forward(ref, x[:, j]), target[0, :, j, None], np.ones(1), beta)
                ref = ref - _RATE * g
            _blocks(w, phi, target, [c], np.full((1, 1), _RATE), 5)
            assert np.linalg.norm(w[0] - ref) <= 1e-14 * np.linalg.norm(ref), c

    def test_shape_check(self):
        # a mismatched operand raises before d is written
        d, a = _step_operands(2, 4, 10, seed=5)
        target = np.zeros((2, 10))
        state = d.copy()
        with pytest.raises(ValueError):
            sgd_step(d, a, 1, target[:, :3])
        with pytest.raises(ValueError):
            sgd_step(np.zeros((2, 4, 9)), a, 1, target)
        assert np.array_equal(d, state)

    def test_members_are_independent(self):
        # every member's blocks are its blocks alone, bit for bit, beside a
        # member whose matrix is not finite and one whose decay factor is 0
        c = [0.5, 0.5, 0.0, -1.5]
        w, _, phi, target = _stack(4, 2, 8, seed=6)
        w[1, 2, 3] = np.nan
        rate = np.array([[0.01], [0.02], [0.01], [0.03]])
        stacked = w.copy()
        with np.errstate(invalid="ignore"):
            _blocks(stacked, phi, target, c, rate, 3)
        for k in range(4):
            alone = w[k:k + 1].copy()
            with np.errstate(invalid="ignore"):
                _blocks(alone, phi, target[k:k + 1], c[k:k + 1], rate[k:k + 1], 3)
            assert np.array_equal(stacked[k], alone[0], equal_nan=True), k

    @pytest.mark.parametrize("case", ["nan-grad", "inf-grad", "overflowing-step", "overflowing-w"])
    def test_diverged_step(self, case):
        # a step that leaves the stack non-finite leaves it so for good,
        # whatever finite blocks follow, even with no decay left of the old
        # matrix (c = 0: 0 * inf is NaN): why a member's fit checks its
        # weights once per outer iteration. Member 0 decays by 0.5 per
        # step, member 1 by 0
        w, _, phi, target = _stack(2, 2, 4, seed=7)
        c, rate = [0.5, 0.0], np.full((2, 1), _RATE)
        bad_target, bad_rate = target.copy(), rate
        if case == "nan-grad":
            bad_target[:, 1, 0] = np.nan
        elif case == "inf-grad":
            bad_target[:, 1, 0] = np.inf
        elif case == "overflowing-step":  # finite operands, a rank-1 term past the float range
            bad_target[:, 1, 0], bad_rate = -1e10, np.full((2, 1), 1e300)
        else:  # the matrix has already overflowed
            w[:, 4, 1] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            sgd_block(w, phi, bad_target, np.arange(1), _decay(c, 1), bad_rate)
            assert not np.isfinite(w).all(axis=(1, 2)).any()
            for _ in range(20):
                _blocks(w, phi, target, c, rate, 4)
        assert not np.isfinite(w).all(axis=(1, 2)).any()
