"""External clustering metrics: accuracy, NMI, ARI, pairwise F1.

All four are computed from the contingency table of the two labelings
and are invariant to relabeling on either side.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "contingency_table",
    "hungarian",
    "clustering_accuracy",
    "nmi",
    "ari",
    "pairwise_f1",
]


def _check_labels(truth, pred) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(truth)
    p = np.asarray(pred)
    if t.ndim != 1 or p.ndim != 1:
        raise ValueError("labelings must be 1-D")
    if t.shape[0] != p.shape[0]:
        raise ValueError(f"label lengths differ: {t.shape[0]} vs {p.shape[0]}")
    if t.shape[0] == 0:
        raise ValueError("labelings are empty")
    return t, p


def contingency_table(truth, pred) -> np.ndarray:
    """Counts matrix: entry (i, j) is the number of samples in true
    cluster i and predicted cluster j."""
    t, p = _check_labels(truth, pred)
    _, ti = np.unique(t, return_inverse=True)
    _, pi = np.unique(p, return_inverse=True)
    counts = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    return counts


def _min_cost_assignment(c: np.ndarray) -> np.ndarray:
    """Exact minimum-cost perfect matching of a square finite cost matrix
    by shortest augmenting paths (Jonker & Volgenant, 1987), O(side^3).

    Rows are added one at a time. Each addition runs Dijkstra over the
    reduced costs ``c[i, j] - u[i] - v[j]`` from the new row to the
    nearest free column, updates the row and column potentials so the
    reduced costs of the matching stay zero and all others non-negative,
    then flips the path. Returns the column assigned to each row.
    """
    side = c.shape[0]
    u = np.zeros(side)
    v = np.zeros(side)
    col_of = np.full(side, -1, dtype=np.intp)
    row_of = np.full(side, -1, dtype=np.intp)
    for new_row in range(side):
        dist = np.full(side, np.inf)
        pred = np.zeros(side, dtype=np.intp)
        scanned = np.zeros(side, dtype=bool)
        i, reach = new_row, 0.0
        while True:
            via_i = reach + c[i] - u[i] - v
            closer = ~scanned & (via_i < dist)
            dist[closer] = via_i[closer]
            pred[closer] = i
            j = int(np.argmin(np.where(scanned, np.inf, dist)))
            reach = dist[j]
            if row_of[j] < 0:
                break
            scanned[j] = True
            i = row_of[j]
        cols = np.flatnonzero(scanned)
        u[new_row] += reach
        u[row_of[cols]] += reach - dist[cols]
        v[cols] -= reach - dist[cols]
        while True:  # flip the path back from the free column j
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == new_row:
                break
    return col_of


def hungarian(cost) -> np.ndarray:
    """Minimum-cost perfect matching on a (padded-to-square) cost matrix.

    Returns the column assigned to each row. Rectangular inputs are
    padded with zero rows/columns before matching. The matching is exact
    (shortest augmenting paths with row and column potentials, numpy
    only); among optimal matchings with equal cost, which one is returned
    is unspecified.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"cost must be 2-D, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost contains non-finite entries")
    side = max(c.shape)
    padded = np.zeros((side, side))
    padded[: c.shape[0], : c.shape[1]] = c
    return _min_cost_assignment(padded)


def clustering_accuracy(truth, pred) -> float:
    """Largest fraction of agreeing samples over one-to-one matchings of
    cluster labels (optimal-assignment matching on the contingency
    table)."""
    t, p = _check_labels(truth, pred)
    counts = contingency_table(t, p)
    # hungarian pads to square; a row matched to a padding column scores 0
    assign = hungarian(-counts.astype(np.float64))[: counts.shape[0]]
    hit = assign < counts.shape[1]
    matched = counts[np.flatnonzero(hit), assign[hit]].sum()
    return float(matched) / t.shape[0]


def nmi(truth, pred) -> float:
    """Mutual information normalized by the geometric mean of the two
    label entropies (natural logs).

    Degenerate conventions: 1.0 when both partitions are the trivial
    single cluster (identical), 0.0 when exactly one side has zero
    entropy (the partitions necessarily differ).
    """
    t, p = _check_labels(truth, pred)
    counts = contingency_table(t, p).astype(np.float64)
    n = float(t.shape[0])
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)

    def entropy(w):
        w = w[w > 0] / n
        return float(-np.sum(w * np.log(w)))

    ent_t, ent_p = entropy(a), entropy(b)
    if ent_t == 0.0 and ent_p == 0.0:
        return 1.0
    if ent_t == 0.0 or ent_p == 0.0:
        return 0.0
    nz = counts > 0
    outer = np.outer(a, b)
    mi = float(np.sum(counts[nz] / n * np.log(n * counts[nz] / outer[nz])))
    return float(min(max(mi / np.sqrt(ent_t * ent_p), 0.0), 1.0))


def _pair_counts(counts: np.ndarray) -> tuple[float, float, float]:
    def comb2(v):
        v = v.astype(np.int64)
        return float((v * (v - 1) // 2).sum())

    same_both = comb2(counts.ravel())
    same_truth = comb2(counts.sum(axis=1))
    same_pred = comb2(counts.sum(axis=0))
    return same_both, same_truth, same_pred


def ari(truth, pred) -> float:
    """Adjusted Rand index: pair-counting agreement corrected for the
    hypergeometric chance expectation. Degenerate cases with a zero
    denominator (both all-singleton or both single-cluster) score 1.0."""
    t, p = _check_labels(truth, pred)
    counts = contingency_table(t, p)
    n = t.shape[0]
    total_pairs = n * (n - 1) / 2.0
    if total_pairs == 0:
        return 1.0
    same_both, same_truth, same_pred = _pair_counts(counts)
    expected = same_truth * same_pred / total_pairs
    denom = 0.5 * (same_truth + same_pred) - expected
    if denom == 0.0:
        return 1.0
    return float((same_both - expected) / denom)


def pairwise_f1(truth, pred) -> float:
    """F1 of the "same cluster" prediction over all unordered sample
    pairs. When neither partition has any same-cluster pair the
    partitions agree on every pair, scoring 1.0; otherwise F1 is 0 when
    precision + recall is 0."""
    t, p = _check_labels(truth, pred)
    counts = contingency_table(t, p)
    same_both, same_truth, same_pred = _pair_counts(counts)
    if same_truth == 0.0 and same_pred == 0.0:
        return 1.0
    precision = same_both / same_pred if same_pred > 0 else 0.0
    recall = same_both / same_truth if same_truth > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))
