"""Dense linear-algebra kernels shared by the rest of the toolkit.

Factorizations are delegated to LAPACK via numpy; the representation
update in :mod:`flnnsc.models` calls numpy's SVD and QR itself and takes
the symmetric eigendecomposition from here. ``solve_sylvester``
(symmetric operands only) is kept as an independent reference solver
that the tests check that update against; no model calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "SymEigen",
    "as_matrix",
    "sym_eigen",
    "solve_sylvester",
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


@dataclass(frozen=True)
class SymEigen:
    """Spectral decomposition of a symmetric matrix.

    ``values`` is ascending and ``vectors[:, i]`` is the unit eigenvector
    paired with ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(a) -> SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

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
    return SymEigen(values=values, vectors=vectors)


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve ``a @ z + z @ b = c`` for symmetric ``a`` and ``b``.

    Both operands are diagonalized so the transformed system is solved
    elementwise. Eigenvalue pairs with ``lam_a + lam_b ~ 0`` are accepted
    only when the coupled right-hand entry vanishes, in which case the
    minimal-norm completion (zero) is used; the returned matrix always
    passes the residual check below.

    Raises
    ------
    ValueError
        If an operand is not square or not symmetric, or ``c`` does not
        match their sizes.
    NumericalError
        If a colliding eigenvalue pair makes the system inconsistent, or
        the final residual ``|a z + z b - c|_F`` exceeds
        ``1e-8 * max(1, |c|_F)``.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    c = as_matrix(c, "c")
    _require_square(a, "a")
    _require_square(b, "b")
    if c.shape != (a.shape[0], b.shape[0]):
        raise ValueError(
            f"c must be {a.shape[0]}x{b.shape[0]} to match a and b, got {c.shape}"
        )

    ea = sym_eigen(a)
    eb = sym_eigen(b)
    ct = ea.vectors.T @ c @ eb.vectors
    denom = ea.values[:, None] + eb.values[None, :]

    spread_a = float(np.max(np.abs(ea.values), initial=0.0))
    spread_b = float(np.max(np.abs(eb.values), initial=0.0))
    # Pairs where both eigenvalues are numerically zero leave y free up
    # to noise; take the minimal-norm choice there instead of dividing
    # one rounding error by another.
    free = (np.abs(ea.values) <= 1e-12 * max(spread_a, 1.0))[:, None] & (
        np.abs(eb.values) <= 1e-12 * max(spread_b, 1.0)
    )[None, :]
    near_singular = np.abs(denom) <= 1e-10 * max(spread_a, spread_b, 1.0)
    problematic = free | near_singular
    if problematic.any():
        # Such pairs are fine while the coupled right-hand entry shrinks
        # with them (singular but consistent); a large entry there means
        # no bounded solution exists.
        consistency = 1e-8 * max(1.0, float(np.linalg.norm(c)))
        bad = problematic & (np.abs(ct) > consistency)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise NumericalError(
                "eigenvalue collision: lam_a="
                f"{ea.values[i]:.6g}, lam_b={eb.values[j]:.6g} "
                f"(sum {denom[i, j]:.3e}) with nonzero coupled right-hand entry "
                f"{ct[i, j]:.3e}"
            )
    skip = free | (denom == 0.0)
    y = np.divide(ct, denom, out=np.zeros_like(ct), where=~skip)
    z = ea.vectors @ y @ eb.vectors.T

    resid = float(np.linalg.norm(a @ z + z @ b - c))
    bound = 1e-8 * max(1.0, float(np.linalg.norm(c)))
    if not np.isfinite(resid) or resid > bound:
        raise NumericalError(
            f"Sylvester residual {resid:.3e} exceeds bound {bound:.3e}; "
            "spectra of a and -b are too close"
        )
    return z
