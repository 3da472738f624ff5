import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flnnsc.spectral as spectral_mod
from flnnsc.graph import knn_similarity
from flnnsc.linalg import sym_eigen
from flnnsc.metrics import clustering_accuracy, nmi
from flnnsc.spectral import affinity_from_z, spectral_cluster


class TestAffinityFromZ:
    def test_identity_symabs_is_zero(self):
        g = affinity_from_z(np.eye(4), "symabs")
        assert np.array_equal(g, np.zeros((4, 4)))

    def test_orthogonal_columns_grouping(self):
        z = np.eye(4) * 2.0
        g = affinity_from_z(z, "grouping", 2.0)
        assert np.array_equal(g, np.zeros((4, 4)))

    def test_grouping_matches_pairwise_formula(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((6, 6))
        gamma = 2.0
        g = affinity_from_z(z, "grouping", gamma)
        for i in range(6):
            for j in range(6):
                if i == j:
                    assert g[i, j] == 0.0
                    continue
                zi, zj = z[:, i], z[:, j]
                expected = (
                    abs(zi @ zj) / (np.linalg.norm(zi) * np.linalg.norm(zj))
                ) ** gamma
                assert np.isclose(g[i, j], expected, rtol=1e-12, atol=1e-12)

    def test_symabs_formula(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((5, 5))
        g = affinity_from_z(z, "symabs")
        expected = 0.5 * (np.abs(z) + np.abs(z.T))
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(g, expected, atol=1e-15)

    def test_zero_norm_columns(self):
        z = np.zeros((3, 3))
        z[:, 0] = [1.0, 2.0, 3.0]
        g = affinity_from_z(z, "grouping")
        assert np.all(g[:, 1:] == 0.0) and np.all(g[1:, :] == 0.0)

    def test_invariants(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((8, 8))
        for kind in ("symabs", "grouping"):
            g = affinity_from_z(z, kind)
            assert np.array_equal(g, g.T)
            assert np.all(g >= 0)
            assert np.all(np.diag(g) == 0)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="affinity"):
            affinity_from_z(np.eye(3), "cosine")

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            affinity_from_z(np.eye(3), "grouping", gamma)


def block_graph(rng, sizes):
    """Affinity with one connected component per entry of ``sizes`` (each
    at least 2 samples; an isolated sample has no null vector): a
    weighted path through each block plus random extra edges, samples
    shuffled. Returns ``(g, component of each sample)``."""
    n = sum(sizes)
    g = np.zeros((n, n))
    start = 0
    for size in sizes:
        idx = np.arange(start, start + size)
        for a, b in zip(idx[:-1], idx[1:]):
            g[a, b] = rng.uniform(0.1, 1.0)
        extra = np.triu(rng.uniform(size=(size, size)) < 0.5, 1)
        g[np.ix_(idx, idx)] += extra * rng.uniform(0.1, 1.0, (size, size))
        start += size
    g = np.maximum(g, g.T)
    comp = np.repeat(np.arange(len(sizes)), sizes)
    perm = rng.permutation(n)
    return g[np.ix_(perm, perm)], comp[perm]


class TestSpectralCluster:
    def test_more_components_than_clusters_keeps_each_whole(self):
        # three disjoint triangles, shuffled, two clusters: a triangle the
        # two chosen null vectors miss has rows of rounding noise, which
        # must not be normalized into random directions
        g = np.kron(np.eye(3), np.ones((3, 3)))
        np.fill_diagonal(g, 0.0)
        perm = np.random.default_rng(3).permutation(9)
        comp = (np.arange(9) // 3)[perm]
        labels = spectral_cluster(g[np.ix_(perm, perm)], 2, seed=0)
        for c in range(3):
            assert len(set(labels[comp == c])) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 6), min_size=2, max_size=6),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_components_stay_whole(self, sizes, data, seed):
        # more components than clusters: labels lie in [0, k), repeat for
        # the seed, and are constant on each component
        k = data.draw(st.integers(1, len(sizes) - 1))
        g, comp = block_graph(np.random.default_rng(seed), sizes)
        labels = spectral_cluster(g, k, seed=seed % 100)
        assert labels.min() >= 0 and labels.max() < k
        assert np.array_equal(labels, spectral_cluster(g, k, seed=seed % 100))
        for c in range(len(sizes)):
            assert len(set(labels[comp == c])) == 1

    def test_missed_component_with_noisy_rows_stays_whole(self):
        # six components, three clusters: the chosen null vectors miss the
        # last 6-block, whose rows (~1e-14) exceed n eps times the largest
        # row and, once normalized, were split by k-means
        g, comp = block_graph(np.random.default_rng(3), [3, 3, 6, 3, 6, 6])
        labels = spectral_cluster(g, 3, seed=3)
        for c in range(6):
            assert len(set(labels[comp == c])) == 1

    def test_two_disconnected_blocks(self):
        g = np.zeros((6, 6))
        g[:3, :3] = 1.0
        g[3:, 3:] = 1.0
        np.fill_diagonal(g, 0.0)
        labels = spectral_cluster(g, 2, seed=0)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_k_equals_n(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((2, 5))
        g = knn_similarity(pts, 2, "binary")
        labels = spectral_cluster(g, 5, seed=1)
        assert sorted(labels) == list(range(5))

    def test_two_blobs_full_pipeline(self):
        rng = np.random.default_rng(4)
        pts = np.hstack(
            [rng.normal(0.0, 0.2, (2, 20)), rng.normal(5.0, 0.2, (2, 20))]
        )
        truth = np.repeat([0, 1], 20)
        labels = spectral_cluster(knn_similarity(pts, 4, "binary"), 2, seed=0)
        assert clustering_accuracy(truth, labels) == 1.0

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k must satisfy"):
            spectral_cluster(np.zeros((3, 3)), 4)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((20, 20))
        g = affinity_from_z(z, "grouping")
        first = spectral_cluster(g, 3, seed=9)
        second = spectral_cluster(g, 3, seed=9)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("case", ["grouping", "heat_isolated", "fortran"])
    def test_normalized_laplacian_bitwise(self, case, monkeypatch):
        # the one-buffer L_sym must carry the bits of the expression
        # 0.5 * (a + a.T), a = eye(n) - dinv[:, None] * g * dinv[None, :]
        rng = np.random.default_rng(11)
        if case == "heat_isolated":
            g = knn_similarity(rng.standard_normal((3, 24)), 3, "heat")
            g[5, :] = g[:, 5] = 0.0  # an isolated vertex: dinv is 0 there
        else:
            g = affinity_from_z(rng.standard_normal((24, 24)), "grouping")
        if case == "fortran":
            g = np.asfortranarray(g)
        captured = []
        real = spectral_mod.sym_eigen

        def capture(a):
            captured.append(np.array(a, order="C"))
            return real(a)

        monkeypatch.setattr(spectral_mod, "sym_eigen", capture)
        spectral_cluster(g, 3, seed=0)
        deg = g.sum(axis=1)
        with np.errstate(divide="ignore"):
            dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        a = np.eye(24) - dinv[:, None] * g * dinv[None, :]
        want = 0.5 * (a + a.T)
        assert len(captured) == 1
        assert captured[0].tobytes() == np.ascontiguousarray(want).tobytes()

    def test_normalized_laplacian_spectrum_bounded(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((3, 18))
        g = knn_similarity(pts, 3, "heat")
        deg = g.sum(axis=1)
        dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        lsym = np.eye(18) - dinv[:, None] * g * dinv[None, :]
        lsym = 0.5 * (lsym + lsym.T)
        values, _ = sym_eigen(lsym)
        assert values[0] >= -1e-10
        assert values[-1] <= 2.0 + 1e-10

    def test_downstream_metric_permutation_invariance(self):
        rng = np.random.default_rng(7)
        pts = np.hstack(
            [rng.normal(0.0, 0.3, (2, 12)), rng.normal(4.0, 0.3, (2, 12))]
        )
        truth = np.repeat([0, 1], 12)
        labels = spectral_cluster(knn_similarity(pts, 3, "binary"), 2, seed=0)
        swapped = 1 - labels
        assert clustering_accuracy(truth, labels) == clustering_accuracy(truth, swapped)
        assert np.isclose(nmi(truth, labels), nmi(truth, swapped), atol=1e-12)
