"""k-nearest-neighbour similarity graphs and their Laplacians.

A graph is its n x n similarity matrix ``S``: symmetric, non-negative,
with a zero diagonal, as :func:`knn_similarity` returns it.
"""

from __future__ import annotations

import numpy as np

from .linalg import _is_symmetric, _require_square, as_matrix

__all__ = ["pairwise_sq_distances", "knn_similarity", "laplacian"]

WEIGHT_KINDS = ("binary", "heat")


def pairwise_sq_distances(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of ``x``."""
    gram = x.T @ x
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return d2


def knn_similarity(x, k: int, weights: str = "binary", sigma: float | None = None) -> np.ndarray:
    """The n x n similarity matrix of the k-nn graph over the columns of ``x``.

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

    np.fill_diagonal(s, 0.0)
    return np.maximum(s, s.T)


def laplacian(s) -> np.ndarray:
    """Combinatorial Laplacian ``L = D - S`` of the similarity matrix ``s``,
    with ``D_ii = sum_j S_ij``. ``s`` must be non-negative and symmetric
    (within linalg's relative tolerance), so that ``L`` is positive
    semidefinite; a non-zero diagonal is allowed."""
    s = as_matrix(s, "similarity matrix")
    _require_square(s, "similarity matrix")
    if (s < 0.0).any():
        raise ValueError("similarity matrix has negative entries")
    if not _is_symmetric(s):
        raise ValueError("similarity matrix is not symmetric within tolerance")
    # one n x n buffer: 0 - s keeps the sign of every zero as diag(d) - s
    # does, and adding the degrees keeps a non-zero s_ii
    lap = np.subtract(0.0, s)
    lap[np.diag_indices_from(lap)] += s.sum(axis=1)
    return lap
