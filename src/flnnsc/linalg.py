"""Dense linear-algebra kernels shared by the rest of the toolkit.

Factorizations are delegated to LAPACK via numpy; the representation
update in :mod:`flnnsc.models` calls numpy's SVD and QR itself and takes
the symmetric eigendecomposition from here, as the plain
``(values, vectors)`` pair :func:`sym_eigen` returns.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericalError",
    "as_matrix",
    "sym_eigen",
]

# Relative tolerances used throughout; every bound has an absolute floor
# of _ABS_FLOOR so that zero-norm inputs do not produce vacuous checks.
_ABS_FLOOR = 1e-12
_SYM_RTOL = 1e-10


class NumericalError(RuntimeError):
    """Raised when a solver cannot meet its accuracy contract."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def _is_symmetric(m: np.ndarray) -> bool:
    scale = max(float(np.linalg.norm(m)), _ABS_FLOOR)
    return float(np.linalg.norm(m - m.T)) <= _SYM_RTOL * scale


def sym_eigen(a) -> tuple:
    """Eigendecomposition of a symmetric matrix: ``(values, vectors)``,
    ``values`` ascending and ``vectors[:, i]`` the unit eigenvector paired
    with ``values[i]``.

    Raises
    ------
    ValueError
        If ``a`` is not square or departs from symmetry by more than
        1e-10 relative to its Frobenius norm.
    """
    a = as_matrix(a, "a")
    _require_square(a, "a")
    if not _is_symmetric(a):
        raise ValueError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh(a)
    return values, vectors
