import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from flnnsc.metrics import (
    ari,
    clustering_accuracy,
    contingency_table,
    hungarian,
    nmi,
    pairwise_f1,
)


def brute_force_ca(truth, pred):
    """Best agreement over all one-to-one label matchings (padded square)."""
    counts = contingency_table(truth, pred)
    side = max(counts.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    best = max(
        sum(padded[i, p[i]] for i in range(side))
        for p in itertools.permutations(range(side))
    )
    return best / len(truth)


def pair_stats(truth, pred):
    n = len(truth)
    tp = fp = fn = tn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_t = truth[i] == truth[j]
            same_p = pred[i] == pred[j]
            tp += same_t and same_p
            fp += (not same_t) and same_p
            fn += same_t and (not same_p)
            tn += (not same_t) and (not same_p)
    return tp, fp, fn, tn


def brute_force_ari(truth, pred):
    tp, fp, fn, tn = pair_stats(truth, pred)
    total = tp + fp + fn + tn
    if total == 0:
        return 1.0
    sum_t = tp + fn
    sum_p = tp + fp
    expected = sum_t * sum_p / total
    denom = 0.5 * (sum_t + sum_p) - expected
    if denom == 0.0:
        return 1.0
    return (tp - expected) / denom


def brute_force_f1(truth, pred):
    tp, fp, fn, _ = pair_stats(truth, pred)
    if tp + fn == 0 and tp + fp == 0:
        return 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def brute_force_nmi(truth, pred):
    n = len(truth)
    counts = contingency_table(truth, pred).astype(float)
    a, b = counts.sum(1), counts.sum(0)
    ent = lambda w: -sum(v / n * np.log(v / n) for v in w if v > 0)
    ht, hp = ent(a), ent(b)
    if ht == 0.0 and hp == 0.0:
        return 1.0
    if ht == 0.0 or hp == 0.0:
        return 0.0
    mi = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            if counts[i, j] > 0:
                mi += counts[i, j] / n * np.log(n * counts[i, j] / (a[i] * b[j]))
    return mi / np.sqrt(ht * hp)


class TestContingency:
    def test_counts(self):
        table = contingency_table([0, 0, 1, 1, 2, 2], [1, 0, 2, 1, 0, 2])
        assert table.sum() == 6
        assert np.array_equal(table, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            contingency_table([0, 1], [0, 1, 2])


class TestHungarian:
    def test_identity_cheap(self):
        cost = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(hungarian(cost), [0, 1, 2])

    def test_anti_identity(self):
        cost = 1.0 - np.eye(4)
        assert np.array_equal(hungarian(cost), np.arange(4))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cost = rng.uniform(size=(6, 6))
            assign = hungarian(cost)
            got = cost[np.arange(6), assign].sum()
            best = min(
                sum(cost[i, p[i]] for i in range(6))
                for p in itertools.permutations(range(6))
            )
            assert np.isclose(got, best, atol=1e-12)

    def test_rectangular_padding(self):
        cost = np.array([[0.0, 5.0, 5.0]])
        assign = hungarian(cost)
        assert len(assign) == 3
        assert assign[0] == 0


SHAPES = st.tuples(st.integers(1, 12), st.integers(1, 12))
# Small integer costs tie often; the floats span several magnitudes.
COSTS = st.one_of(
    SHAPES.flatmap(lambda shape: arrays(np.int64, shape, elements=st.integers(0, 5))),
    SHAPES.flatmap(lambda shape: arrays(np.int64, shape, elements=st.integers(-1000, 1000))),
    SHAPES.flatmap(lambda shape: arrays(
        np.float64, shape, elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    )),
)


class TestHungarianOracle:
    """scipy's ``linear_sum_assignment`` is the oracle on the padded matrix."""

    @settings(max_examples=300, deadline=None)
    @given(COSTS)
    def test_optimal_value_matches_scipy(self, cost):
        side = max(cost.shape)
        padded = np.zeros((side, side), dtype=cost.dtype)
        padded[: cost.shape[0], : cost.shape[1]] = cost
        assign = hungarian(cost)
        assert assign.shape == (side,)
        assert sorted(assign.tolist()) == list(range(side))
        rows, cols = linear_sum_assignment(padded)
        got = padded[np.arange(side), assign].sum()
        want = padded[rows, cols].sum()
        if cost.dtype.kind == "i":
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * side * max(1.0, np.abs(cost).max())


class TestClusteringAccuracy:
    def test_identical(self):
        assert clustering_accuracy([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_permuted_ids(self):
        truth = [0, 0, 1, 1, 2, 2]
        pred = [2, 2, 0, 0, 1, 1]
        assert clustering_accuracy(truth, pred) == 1.0

    def test_five_sixths(self):
        truth = [0, 0, 1, 1, 2, 2]
        pred = [0, 1, 1, 1, 2, 2]
        assert np.isclose(clustering_accuracy(truth, pred), 5 / 6)
        assert np.isclose(brute_force_ca(truth, pred), 5 / 6)

    def test_rectangular_tables(self):
        truth = [0, 0, 1, 1]
        pred = [0, 1, 2, 3]
        assert np.isclose(clustering_accuracy(truth, pred), brute_force_ca(truth, pred))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_matches_brute_force(self, k_true, k_pred, data):
        n = data.draw(st.integers(1, 30))
        truth = data.draw(st.lists(st.integers(0, k_true - 1), min_size=n, max_size=n))
        pred = data.draw(st.lists(st.integers(0, k_pred - 1), min_size=n, max_size=n))
        assert clustering_accuracy(truth, pred) == brute_force_ca(truth, pred)


class TestNmi:
    def test_identical_two_clusters(self):
        assert abs(nmi([0, 0, 1, 1], [1, 1, 0, 0]) - 1.0) <= 1e-12

    def test_independent_small(self):
        truth = [0, 0, 1, 1]
        pred = [0, 1, 0, 1]
        assert nmi(truth, pred) == 0.0

    def test_direct_formula(self):
        truth = [0, 0, 1, 1, 2, 2]
        pred = [0, 1, 1, 1, 2, 2]
        assert abs(nmi(truth, pred) - brute_force_nmi(truth, pred)) <= 1e-12

    def test_single_cluster_conventions(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
        assert nmi([0, 1, 2], [0, 0, 0]) == 0.0


class TestAri:
    def test_identical(self):
        assert ari([0, 1, 0, 1], [1, 0, 1, 0]) == 1.0

    def test_one_cluster_prediction(self):
        assert ari([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            truth = rng.integers(0, 3, 8)
            pred = rng.integers(0, 3, 8)
            assert np.isclose(ari(truth, pred), brute_force_ari(truth, pred), atol=1e-12)

    def test_all_singletons(self):
        assert ari([0, 1, 2], [2, 0, 1]) == 1.0


class TestPairwiseF1:
    def test_identical(self):
        assert pairwise_f1([0, 0, 1], [5, 5, 7]) == 1.0

    def test_all_singleton_prediction(self):
        assert pairwise_f1([0, 0, 1, 1], [0, 1, 2, 3]) == 0.0

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            truth = rng.integers(0, 4, 8)
            pred = rng.integers(0, 4, 8)
            assert np.isclose(
                pairwise_f1(truth, pred), brute_force_f1(truth, pred), atol=1e-12
            )

    def test_identical_singletons(self):
        assert pairwise_f1([0, 1, 2], [5, 6, 7]) == 1.0


def test_label_permutation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        truth = rng.integers(0, 3, n)
        pred = rng.integers(0, 3, n)
        perm = rng.permutation(3)
        truth_relabeled = perm[truth]
        for metric in (clustering_accuracy, nmi, ari, pairwise_f1):
            assert np.isclose(
                metric(truth, pred), metric(truth_relabeled, pred), atol=1e-12
            )


def test_maximal_on_identical_partitions():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 4, n)
        relabeled = (labels + 1) % 5
        assert clustering_accuracy(labels, relabeled) == 1.0
        assert abs(nmi(labels, relabeled) - 1.0) <= 1e-12
        assert np.isclose(ari(labels, relabeled), 1.0, atol=1e-12)
        assert pairwise_f1(labels, relabeled) == 1.0


def test_ca_majority_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        k_true = int(rng.integers(2, 4))
        truth = rng.integers(0, k_true, n)
        pred = rng.integers(0, k_true, n)
        if len(np.unique(truth)) < 2:
            continue
        assert clustering_accuracy(truth, pred) >= 1.0 / len(np.unique(truth)) - 1e-12
