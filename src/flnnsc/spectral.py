"""Affinity construction from a representation matrix and normalized
spectral clustering with seeded k-means."""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, sym_eigen

__all__ = ["AFFINITY_KINDS", "affinity_from_z", "spectral_cluster"]

AFFINITY_KINDS = ("symabs", "grouping")


def affinity_from_z(z, kind: str = "grouping", gamma: float = 2.0) -> np.ndarray:
    """Symmetric non-negative affinity matrix derived from ``z``.

    ``symabs`` takes ``(|z| + |z^T|) / 2``. ``grouping`` uses the
    absolute cosine between representation columns raised to ``gamma``,
    which sharpens the block structure induced by the grouping effect;
    zero-norm columns yield zero affinity rows/columns. The diagonal is
    zeroed in both cases.
    """
    z = as_matrix(z, "z")
    if z.shape[0] != z.shape[1]:
        raise ValueError(f"z must be square, got shape {z.shape}")
    if kind == "symabs":
        g = 0.5 * (np.abs(z) + np.abs(z.T))
    elif kind == "grouping":
        if not 0.0 < gamma < np.inf:
            raise ValueError(f"gamma must be finite and positive, got {gamma}")
        norms = np.linalg.norm(z, axis=0)
        scale = np.outer(norms, norms)
        cos = np.divide(np.abs(z.T @ z), scale, out=np.zeros_like(scale), where=scale > 0)
        np.minimum(cos, 1.0, out=cos)
        g = cos**gamma
    else:
        raise ValueError(f"unknown affinity kind {kind!r}, expected one of {AFFINITY_KINDS}")
    np.fill_diagonal(g, 0.0)
    return np.maximum(g, g.T)


def spectral_cluster(g, k: int, seed: int = 0) -> np.ndarray:
    """Normalized spectral clustering of an affinity matrix.

    Embeds the samples with the eigenvectors of the k smallest
    eigenvalues of ``I - D^{-1/2} G D^{-1/2}`` (isolated vertices get a
    zero scaling entry), row-normalizes the embedding, and runs seeded
    k-means. Rows at or below ``sqrt(eps)`` times the largest row norm
    are rounding noise (a graph component the chosen eigenvectors miss,
    which a poorly separated null space lifts well above ``n eps``) and
    are set to zero, not normalized, so such a component stays together.
    Returns integer labels in ``[0, k)``.
    """
    g = as_matrix(g, "affinity")
    n = g.shape[0]
    if g.shape[0] != g.shape[1]:
        raise ValueError(f"affinity must be square, got shape {g.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k} with n={n}")

    degrees = g.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    # I - D^{-1/2} G D^{-1/2}, symmetrized, built in one n x n buffer with
    # the roundings of 0.5 * (a + a.T), a = eye(n) - (dinv g) dinv
    lsym = dinv_sqrt[:, None] * g
    lsym *= dinv_sqrt[None, :]
    np.subtract(0.0, lsym, out=lsym)
    lsym[np.diag_indices(n)] += 1.0
    lsym += lsym.T
    lsym *= 0.5

    _, vectors = sym_eigen(lsym)
    embedding = vectors[:, :k].copy()
    row_norms = np.linalg.norm(embedding, axis=1)
    nonzero = row_norms > np.sqrt(np.finfo(np.float64).eps) * row_norms.max()
    embedding[nonzero] /= row_norms[nonzero, None]
    embedding[~nonzero] = 0.0

    return _kmeans(embedding, k, np.random.default_rng(seed))


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        + np.sum(centers**2, axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _farthest_point_init(points: np.ndarray, k: int, first: int) -> np.ndarray:
    chosen = [first]
    min_d2 = _sq_dists(points, points[[first]])[:, 0]
    for _ in range(1, k):
        nxt = int(np.argmax(min_d2))  # ties resolve to the lowest index
        chosen.append(nxt)
        np.minimum(min_d2, _sq_dists(points, points[[nxt]])[:, 0], out=min_d2)
    return points[chosen].copy()


def _kmeans(points: np.ndarray, k: int, rng) -> np.ndarray:
    """Lloyd iterations with greedy farthest-point initialization, 20
    restarts of at most 300 iterations; returns the labels of the restart
    with the lowest inertia.

    The only randomness is the first center of each restart; everything
    downstream (farthest-point choices, tie-breaks, empty-cluster
    reseeding) is deterministic, so runs are reproducible per seed.
    """
    n = points.shape[0]
    best_labels = None
    best_inertia = np.inf
    for _ in range(20):
        centers = _farthest_point_init(points, k, int(rng.integers(n)))
        prev = None
        for _ in range(300):
            d2 = _sq_dists(points, centers)
            labels = np.argmin(d2, axis=1)
            if prev is not None and np.array_equal(labels, prev):
                break  # d2 is the current centers' distances
            prev = labels
            assigned = d2[np.arange(n), labels]
            for c in range(k):
                mask = labels == c
                if mask.any():
                    centers[c] = points[mask].mean(axis=0)
                else:
                    centers[c] = points[int(np.argmax(assigned))]
        else:  # the cap moved the centers after the last distances
            d2 = _sq_dists(points, centers)
            labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels.astype(np.int64)
