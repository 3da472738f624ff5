"""Dataset ingestion, preprocessing, and synthetic union-of-subspaces data.

On disk samples are CSV rows (optional trailing integer label); in memory
samples are always columns of a (d, n) matrix. Scaling to [-1, 1] is
mandatory before the trigonometric expansion, whose features alias
outside one period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = [
    "CsvFormatError",
    "Dataset",
    "SyntheticSpec",
    "load_csv",
    "save_csv",
    "scale_to_unit",
    "pca_reduce",
    "generate_synthetic",
]

class CsvFormatError(ValueError):
    """Malformed CSV content; the message carries path and line number."""


@dataclass
class Dataset:
    """A (d, n) sample matrix with optional ground-truth labels."""

    x: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.x = as_matrix(self.x, "x")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.x.shape[1],):
                raise ValueError(
                    f"labels must have length {self.x.shape[1]}, got {self.labels.shape}"
                )

    @property
    def n_samples(self) -> int:
        return self.x.shape[1]

    @property
    def n_features(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    """Union-of-subspaces generator settings.

    At ``warp_strength = 0`` each cluster is a random
    ``subspace_dim``-dimensional linear subspace of the ambient space.
    A positive strength morphs the clusters (more strongly as it grows,
    fully from 0.5 on) into concentric trigonometric sheets:
    scaled copies of one harmonic manifold sharing a frame, so samples
    of different clusters are pairwise colinear and defeat linear
    self-expression while remaining separable through trigonometric
    features. Gaussian noise is added last. The defaults give a
    three-cluster problem of that nonlinear kind.
    """

    clusters: int = 3
    points_per_cluster: int = 50
    ambient_dim: int = 10
    subspace_dim: int = 2
    warp_strength: float = 0.5
    noise_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 1 or self.points_per_cluster < 1:
            raise ValueError("clusters and points_per_cluster must be >= 1")
        if not 1 <= self.subspace_dim < self.ambient_dim:
            raise ValueError(
                f"need 1 <= subspace_dim < ambient_dim, got "
                f"{self.subspace_dim} vs {self.ambient_dim}"
            )
        if not np.isfinite(self.warp_strength):
            raise ValueError("warp_strength must be finite")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {self.noise_sigma}")


def load_csv(path, has_labels: bool = False, skip_header: bool = False) -> Dataset:
    """Read a numeric CSV of one sample per row into a column-sample Dataset.

    ``has_labels`` treats the final field of every row as an integer
    cluster label. Malformed content raises :class:`CsvFormatError`
    naming the offending line; a missing file raises the usual
    ``FileNotFoundError``.
    """
    rows = []
    labels = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if has_labels and width < 2:
                    raise CsvFormatError(
                        f"{path}:{lineno}: need at least one feature besides the label"
                    )
            elif len(fields) != width:
                raise CsvFormatError(
                    f"{path}:{lineno}: expected {width} fields, found {len(fields)}"
                )
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise CsvFormatError(f"{path}:{lineno}: non-numeric cell") from None
            if not all(np.isfinite(values)):
                raise CsvFormatError(f"{path}:{lineno}: non-finite value")
            if has_labels:
                lab = values.pop()
                if lab != int(lab):
                    raise CsvFormatError(
                        f"{path}:{lineno}: label column must hold integers, got {lab}"
                    )
                labels.append(int(lab))
            rows.append(values)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    x = np.asarray(rows, dtype=np.float64).T
    return Dataset(
        x=x,
        labels=np.asarray(labels, dtype=np.int64) if has_labels else None,
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write one sample per row at 17 significant digits, so a
    load_csv round trip reproduces the values."""
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(dataset.n_samples):
            fields = [format(v, ".17g") for v in dataset.x[:, j]]
            if dataset.labels is not None:
                fields.append(str(int(dataset.labels[j])))
            fh.write(",".join(fields) + "\n")


def scale_to_unit(x) -> np.ndarray:
    """Affinely map each feature (row) onto [-1, 1]; constant features
    map to 0. Idempotent: already-scaled data passes through exactly."""
    x = as_matrix(x, "x")
    lo = x.min(axis=1, keepdims=True)
    hi = x.max(axis=1, keepdims=True)
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = (2.0 * x - (hi + lo)) / span
    return np.where(span > 0, scaled, 0.0)


def pca_reduce(x, target_dim: int) -> tuple[np.ndarray, float]:
    """Project mean-centered samples onto the top principal directions.

    Returns the (target_dim, n) projection and the fraction of total
    variance it retains.
    """
    x = as_matrix(x, "x")
    d, n = x.shape
    if not 1 <= target_dim <= min(d, n):
        raise ValueError(
            f"target_dim must lie in [1, {min(d, n)}] for a {d}x{n} matrix, "
            f"got {target_dim}"
        )
    centered = x - x.mean(axis=1, keepdims=True)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    reduced = u[:, :target_dim].T @ centered
    total = float(np.sum(s**2))
    kept = float(np.sum(s[:target_dim] ** 2))
    return reduced, (kept / total if total > 0 else 1.0)


def _stratified_uniform(rng, rows: int, cols: int) -> np.ndarray:
    """Uniform [-1, 1] coefficients by jittered stratification per row.

    Marginally uniform but with guaranteed coverage, so sparse samplings
    of the cluster manifolds do not leave large gaps that would corrupt
    the nearest-neighbour graph at desk scale.
    """
    out = np.empty((rows, cols))
    for r in range(rows):
        out[r] = (rng.permutation(cols) + rng.uniform(0.0, 1.0, cols)) / cols * 2.0 - 1.0
    return out


def _cluster_radii(clusters: int) -> np.ndarray:
    if clusters == 1:
        return np.array([1.0])
    return np.geomspace(max(0.1, 0.5 ** (clusters - 1)), 1.0, clusters)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample a union of subspaces, optionally morphed into concentric
    trigonometric sheets.

    Per cluster: draw a random orthonormal basis and stratified-uniform
    coefficients ``u`` in [-1, 1]. The linear configuration is
    ``basis @ u``; the warped one replaces it by a radius-scaled copy of
    a shared harmonic sheet, ``r_c * (cos(pi u_0), sin(pi u_0),
    0.1 u_1..)`` in a common orthonormal frame, blended in with weight
    ``min(1, 2 * warp_strength)``. Noise comes last. Bitwise
    reproducible for a fixed spec, and the warp at strength 0 leaves the
    linear construction untouched.
    """
    rng = np.random.default_rng(spec.seed)
    blend = min(1.0, 2.0 * abs(spec.warp_strength))
    frame = None
    if blend > 0.0:
        frame, _ = np.linalg.qr(
            rng.standard_normal((spec.ambient_dim, spec.subspace_dim + 1))
        )
    radii = _cluster_radii(spec.clusters)
    blocks = []
    for c in range(spec.clusters):
        basis, _ = np.linalg.qr(
            rng.standard_normal((spec.ambient_dim, spec.subspace_dim))
        )
        coeffs = _stratified_uniform(rng, spec.subspace_dim, spec.points_per_cluster)
        pts = basis @ coeffs
        if blend > 0.0:
            phase = np.pi * coeffs[0]
            sheet = frame[:, :2] @ np.vstack([np.cos(phase), np.sin(phase)])
            if spec.subspace_dim > 1:
                sheet = sheet + 0.1 * (frame[:, 2:] @ coeffs[1:])
            pts = (1.0 - blend) * pts + blend * radii[c] * sheet
        if spec.noise_sigma > 0:
            pts = pts + spec.noise_sigma * rng.standard_normal(pts.shape)
        blocks.append(pts)
    x = np.hstack(blocks)
    labels = np.repeat(np.arange(spec.clusters, dtype=np.int64), spec.points_per_cluster)
    return Dataset(x=x, labels=labels)
