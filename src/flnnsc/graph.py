"""k-nearest-neighbour similarity graphs and their Laplacians."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = ["SimilarityGraph", "pairwise_sq_distances", "knn_similarity", "laplacian"]

WEIGHT_KINDS = ("binary", "heat")


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric non-negative similarity matrix with a zero diagonal.

    ``sigma`` is the resolved heat-kernel bandwidth (``None`` for binary
    weights).
    """

    s: np.ndarray
    k: int
    weights: str = "binary"
    sigma: float | None = None


def pairwise_sq_distances(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of ``x``."""
    gram = x.T @ x
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return d2


def knn_similarity(x, k: int, weights: str = "binary", sigma: float | None = None) -> SimilarityGraph:
    """Build the k-nn similarity graph over the columns of ``x``.

    An edge (i, j) exists when j is among the k nearest neighbours of i
    or vice versa (mutual-OR), with distance ties broken by ascending
    sample index. Binary edges weigh 1; heat-kernel edges weigh
    ``exp(-|x_i - x_j|^2 / (2 sigma^2))`` with ``sigma`` defaulting to
    the median k-nn distance. The result is symmetrized with an
    elementwise max and has an exactly zero diagonal.
    """
    x = as_matrix(x, "x")
    n = x.shape[1]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k} with n={n}")
    if weights not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {weights!r}, expected one of {WEIGHT_KINDS}")
    if sigma is not None and not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")

    d2 = pairwise_sq_distances(x)
    # no sample is its own neighbour, and its heat weight is exp(-inf) = 0
    np.fill_diagonal(d2, np.inf)
    # Stable sort keeps the original (ascending-index) order on ties.
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]

    adj = np.zeros((n, n), dtype=bool)
    adj[np.repeat(np.arange(n), k), neighbors.ravel()] = True
    adj |= adj.T

    if weights == "binary":
        s = adj.astype(np.float64)
        resolved_sigma = None
    else:
        if sigma is None:
            knn_dists = np.sqrt(d2[np.repeat(np.arange(n), k), neighbors.ravel()])
            sigma = float(np.median(knn_dists))
            if sigma <= 0:
                raise ValueError(
                    "cannot infer a positive heat-kernel bandwidth: "
                    "median k-nn distance is zero; pass sigma explicitly"
                )
        s = np.where(adj, np.exp(-d2 / (2.0 * sigma * sigma)), 0.0)
        resolved_sigma = float(sigma)

    np.fill_diagonal(s, 0.0)
    s = np.maximum(s, s.T)
    return SimilarityGraph(s=s, k=k, weights=weights, sigma=resolved_sigma)


def laplacian(graph: SimilarityGraph) -> np.ndarray:
    """Combinatorial Laplacian ``L = D - S`` with ``D_ii = sum_j S_ij``."""
    s = as_matrix(graph.s, "similarity matrix")
    # one n x n buffer: 0 - s keeps the sign of every zero as diag(d) - s
    # does, and adding the degrees keeps a non-zero s_ii
    lap = np.subtract(0.0, s)
    lap[np.diag_indices_from(lap)] += s.sum(axis=1)
    return lap
