import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flnnsc.graph import knn_similarity, laplacian
from flnnsc.linalg import sym_eigen


def brute_force_knn(x, k):
    """All-pairs oracle: directed k-nn with index tie-breaks, OR-symmetrized."""
    n = x.shape[1]
    d2 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d2[i, j] = np.sum((x[:, i] - x[:, j]) ** 2)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order = sorted((d2[i, j], j) for j in range(n) if j != i)
        for _, j in order[:k]:
            adj[i, j] = True
    return adj | adj.T


class TestKnnSimilarity:
    def test_identical_points_ties(self):
        x = np.zeros((2, 3))
        s = knn_similarity(x, 1, "binary")
        assert np.array_equal(s, s.T)
        assert np.all(np.diag(s) == 0)
        # ties broken by lowest index: everyone picks sample 0 (or 1 for sample 0)
        assert s[0, 1] == 1.0 and s[1, 0] == 1.0
        assert s[2, 0] == 1.0
        assert s[2, 1] == 0.0

    def test_two_point_heat_kernel(self):
        x = np.array([[0.0, 3.0]])
        dist = 3.0
        s = knn_similarity(x, 1, "heat", sigma=dist)
        assert np.isclose(s[0, 1], np.exp(-0.5))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        x = np.hstack(
            [rng.normal(0.0, 0.3, (2, 15)), rng.normal(3.0, 0.3, (2, 15))]
        )
        s = knn_similarity(x, 4, "binary")
        assert type(s) is np.ndarray and s.shape == (30, 30) and s.dtype == np.float64
        assert np.array_equal(s > 0, brute_force_knn(x, 4))

    def test_default_sigma_is_median(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 10))
        s = knn_similarity(x, 3, "heat")
        # sigma is the median distance over the k = 3 directed nearest
        # neighbours of every sample, computed here from the brute-force graph
        d2 = np.sum((x[:, :, None] - x[:, None, :]) ** 2, axis=0)
        np.fill_diagonal(d2, np.inf)
        sigma = np.median(np.sqrt(np.sort(d2, axis=1)[:, :3]))
        edges = brute_force_knn(x, 3)
        assert np.allclose(s[edges], np.exp(-d2[edges] / (2.0 * sigma**2)), rtol=1e-12, atol=0.0)
        assert np.all(s[~edges] == 0.0)

    def test_k_out_of_range(self):
        x = np.zeros((2, 3))
        with pytest.raises(ValueError, match="k must satisfy"):
            knn_similarity(x, 3, "binary")
        with pytest.raises(ValueError, match="k must satisfy"):
            knn_similarity(x, 0, "binary")

    def test_bad_sigma(self):
        x = np.zeros((2, 3))
        with pytest.raises(ValueError, match="sigma"):
            knn_similarity(x, 1, "heat", sigma=-1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("weights", ["heat", "binary"])
    def test_sigma_must_be_finite_and_positive(self, sigma, weights):
        x = np.zeros((2, 3))
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            knn_similarity(x, 1, weights, sigma=sigma)

    def test_every_row_connected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 20))
        assert np.all(knn_similarity(x, 2, "binary").sum(axis=1) > 0)

    @settings(max_examples=30, deadline=None)
    @given(
        point=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
        n=st.integers(2, 12),
        data=st.data(),
    )
    def test_duplicate_points_need_explicit_sigma(self, point, n, data):
        k = data.draw(st.integers(1, n - 1))
        x = np.tile(np.array(point)[:, None], (1, n))
        with pytest.raises(ValueError, match="cannot infer a positive heat-kernel bandwidth"):
            knn_similarity(x, k, "heat")

    @pytest.mark.parametrize("weights", ["binary", "heat"])
    def test_working_set(self, weights):
        # at n = 600 the build holds the distances (their diagonal masked
        # in place), the n x n argsort, the graph and its symmetrized copy:
        # 4.15 n x n float64 arrays traced
        n = 600
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (10, n))
        knn_similarity(x[:, :20], 4, weights)  # first-call allocations (np.median's)
        tracemalloc.start()
        try:
            knn_similarity(x, 4, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * n * n * 8, f"traced peak {peak / (n * n * 8):.2f} n x n arrays"


class TestLaplacian:
    def test_path_graph(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(laplacian(s), [[1.0, -1.0], [-1.0, 1.0]])

    def test_single_node(self):
        assert np.array_equal(laplacian(np.zeros((1, 1))), [[0.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 4)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"similarity matrix must be square, got shape {shape}")):
            laplacian(np.zeros(shape))

    def test_rejects_negative_entries(self):
        s = np.array([[0.0, -5.0, 1.0], [-5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="^similarity matrix has negative entries$"):
            laplacian(s)

    def test_rejects_asymmetric(self):
        s = knn_similarity(np.random.default_rng(3).standard_normal((2, 8)), 2)
        laplacian(s + 1e-12 * np.triu(np.ones((8, 8)), 1))  # within the tolerance
        s[0, 1] += 1.0
        with pytest.raises(ValueError, match="^similarity matrix is not symmetric within tolerance$"):
            laplacian(s)

    def test_all_ones_nullspace(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 25))
        lap = laplacian(knn_similarity(x, 4, "binary"))
        values, _ = sym_eigen(lap)
        assert values[0] >= -1e-10 * np.linalg.norm(lap)
        assert np.linalg.norm(lap @ np.ones(25)) <= 1e-10 * np.linalg.norm(lap)

    def test_binary_weights_integer_valued(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 12))
        lap = laplacian(knn_similarity(x, 3, "binary"))
        assert np.array_equal(lap, np.round(lap))

    @pytest.mark.parametrize("case", ["heat", "nonzero_diagonal"])
    def test_bitwise_equal_to_degree_matrix_minus_s(self, case):
        # D - S as written, sign bits included: 0 - s keeps +0.0 where -s
        # would give -0.0, and a non-zero s_ii must stay in L_ii
        rng = np.random.default_rng(9)
        if case == "heat":
            s = knn_similarity(rng.standard_normal((3, 30)), 4, "heat")
        else:
            a = rng.uniform(0.0, 2.0, (12, 12)) * (rng.uniform(size=(12, 12)) < 0.5)
            s = a + a.T
            s[0, 0], s[1, 1], s[2, 2] = 0.7, -0.0, 0.0
            s[3, 4] = s[4, 3] = -0.0
        for layout in (s, np.asfortranarray(s)):
            got = laplacian(layout)
            want = np.diag(layout.sum(axis=1)) - layout
            assert got.tobytes() == want.tobytes()

    def test_connected_second_eigenvalue_positive(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 15))  # one blob: k-nn graph is connected
        lap = laplacian(knn_similarity(x, 5, "binary"))
        values, _ = sym_eigen(lap)
        assert values[1] > 1e-8


def test_quadratic_form_identity():
    # x^T L x == 0.5 * sum_ij S_ij (x_i - x_j)^2
    rng = np.random.default_rng(7)
    for trial in range(20):
        pts = rng.standard_normal((3, 12))
        kind = "binary" if trial % 2 == 0 else "heat"
        s = knn_similarity(pts, 3, kind)
        lap = laplacian(s)
        v = rng.standard_normal(12)
        direct = float(v @ lap @ v)
        pairwise = 0.5 * float(np.sum(s * (v[:, None] - v[None, :]) ** 2))
        assert np.isclose(direct, pairwise, rtol=1e-9, atol=1e-12)


def test_laplacian_row_sums_zero():
    rng = np.random.default_rng(8)
    for _ in range(10):
        pts = rng.standard_normal((4, 10))
        lap = laplacian(knn_similarity(pts, 3, "heat"))
        assert np.all(np.abs(lap.sum(axis=1)) <= 1e-10 * max(1.0, np.linalg.norm(lap)))
        assert np.array_equal(lap, lap.T)
