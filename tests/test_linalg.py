import pickle

import numpy as np
import pytest

from flnnsc.linalg import (
    NumericalError,
    sym_eigen,
)
from oracles import solve_sylvester


def _random_laplacian(rng, n):
    adj = (rng.uniform(size=(n, n)) < 0.2).astype(float)
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    # connect everything along a path so the graph is never empty
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return np.diag(adj.sum(axis=1)) - adj


class TestSymEigen:
    def test_diagonal(self):
        values, vectors = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [1.0, 2.0, 3.0])
        # axis-aligned eigenvectors up to sign
        assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_swap_matrix(self):
        values, _ = sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(values, [-1.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((10, 10))
        a = a + a.T
        values, vectors = sym_eigen(a)
        rebuilt = vectors @ np.diag(values) @ vectors.T
        assert np.linalg.norm(rebuilt - a) <= 1e-8 * np.linalg.norm(a)

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 12))
        a = a + a.T
        _, vectors = sym_eigen(a)
        gram = vectors.T @ vectors
        assert np.linalg.norm(gram - np.eye(12)) <= 1e-10 * 12

    def test_returns_a_plain_pair(self):
        # a tuple of arrays: unpacked by every caller, pickled for sweep workers
        result = sym_eigen(np.diag([2.0, 1.0]))
        assert type(result) is tuple and len(result) == 2
        values, vectors = pickle.loads(pickle.dumps(result))
        assert np.array_equal(values, [1.0, 2.0])
        assert np.array_equal(np.abs(vectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            sym_eigen(np.ones((2, 3)))


class TestSolveSylvester:
    def test_identity_pair(self):
        z = solve_sylvester(np.eye(3), np.eye(3), 2.0 * np.eye(3))
        assert np.allclose(z, np.eye(3), atol=1e-12)

    def test_diagonal_elementwise(self):
        z = solve_sylvester(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.ones((2, 2)))
        expected = [[1 / 4, 1 / 5], [1 / 5, 1 / 6]]
        assert np.allclose(z, expected, atol=1e-12)

    def test_spd_plus_laplacian(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((20, 20))
        a = m @ m.T + 0.5 * np.eye(20)
        b = 2.0 * _random_laplacian(rng, 20)
        z = solve_sylvester(a, b, a)
        resid = np.linalg.norm(a @ z + z @ b - a)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(a))

    def test_collision_symmetric_path(self):
        rng = np.random.default_rng(10)
        with pytest.raises(NumericalError, match="collision"):
            solve_sylvester(
                np.diag([1.0, -3.0]), np.diag([3.0, 4.0]), rng.standard_normal((2, 2))
            )

    def test_general_nonsymmetric(self):
        # only symmetric operands are solved; a general pair is refused
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((6, 6))
        c = rng.standard_normal((8, 6))
        with pytest.raises(ValueError, match="symmetric"):
            solve_sylvester(a, b @ b.T, c)
        with pytest.raises(ValueError, match="symmetric"):
            solve_sylvester(a @ a.T, b, c)

    def test_collision_general_path(self):
        # a colliding but non-symmetric pair is refused as non-symmetric
        # before any eigenvalue collision is looked for
        rng = np.random.default_rng(11)
        a = np.array([[1.0, 5.0], [0.0, -3.0]])  # asymmetric, eigenvalue -3
        b = np.diag([3.0, 4.0])
        b[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            solve_sylvester(a, b, rng.standard_normal((2, 2)))

    def test_singular_consistent_gram(self):
        # Gram matrix of rank 4 in a 12-sample problem plus a Laplacian:
        # colliding zero eigenvalues with a consistent right side.
        rng = np.random.default_rng(12)
        h = rng.standard_normal((4, 12))
        gram = h.T @ h
        lap = _random_laplacian(rng, 12)
        z = solve_sylvester(gram, lap, gram)
        resid = np.linalg.norm(gram @ z + z @ lap - gram)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(gram))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="c must be"):
            solve_sylvester(np.eye(2), np.eye(3), np.eye(2))


@pytest.mark.parametrize("n", [2, 5, 10, 25, 50])
def test_factorization_residuals_across_sizes(n):
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n, n))
    sym = a + a.T

    values, vectors = sym_eigen(sym)
    assert np.linalg.norm(vectors @ np.diag(values) @ vectors.T - sym) <= 1e-8 * np.linalg.norm(sym)
    assert np.all(np.diff(values) >= -1e-12)


def test_solver_determinism():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((10, 10))
    sym = a + a.T
    lap = _random_laplacian(np.random.default_rng(43), 10)
    m = rng.standard_normal((4, 10))
    gram = m.T @ m

    def flatten(result):
        return list(result) if isinstance(result, tuple) else [result]

    for op, args in [
        (sym_eigen, (sym,)),
        (solve_sylvester, (gram, lap, gram)),
    ]:
        for x, y in zip(flatten(op(*args)), flatten(op(*args))):
            assert np.array_equal(np.asarray(x), np.asarray(y))
