"""Reference implementations the tests check the package against.

No run of the pipeline calls these: each is a plain, validated version of
something the package computes another way. ``solve_sylvester`` is a
Sylvester solver by diagonalizing both operands, independent of the SVD
representation kernel ``models._zstep``; ``expand``, ``forward`` and
``grad_w`` are the single-sample expansion, output and gradient that the
blocked SGD epoch is held to; ``zstep_objective`` is the partial objective with the dense
``tr(z lap z^T)`` that the fits' recorded values are held to. They import
only the package's public names, so they share no private helper with the
code they check.
"""

from __future__ import annotations

import numpy as np

from flnnsc.flnn import expand_batch
from flnnsc.linalg import NumericalError, as_matrix, sym_eigen


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
    for name, m in (("a", a), ("b", b)):
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"{name} must be square, got shape {m.shape}")
    if c.shape != (a.shape[0], b.shape[0]):
        raise ValueError(
            f"c must be {a.shape[0]}x{b.shape[0]} to match a and b, got {c.shape}"
        )

    lam_a, va = sym_eigen(a)
    lam_b, vb = sym_eigen(b)
    ct = va.T @ c @ vb
    denom = lam_a[:, None] + lam_b[None, :]

    spread_a = float(np.max(np.abs(lam_a), initial=0.0))
    spread_b = float(np.max(np.abs(lam_b), initial=0.0))
    # Pairs where both eigenvalues are numerically zero leave y free up
    # to noise; take the minimal-norm choice there instead of dividing
    # one rounding error by another.
    free = (np.abs(lam_a) <= 1e-12 * max(spread_a, 1.0))[:, None] & (
        np.abs(lam_b) <= 1e-12 * max(spread_b, 1.0)
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
                f"{lam_a[i]:.6g}, lam_b={lam_b[j]:.6g} "
                f"(sum {denom[i, j]:.3e}) with nonzero coupled right-hand entry "
                f"{ct[i, j]:.3e}"
            )
    skip = free | (denom == 0.0)
    y = np.divide(ct, denom, out=np.zeros_like(ct), where=~skip)
    z = va @ y @ vb.T

    resid = float(np.linalg.norm(a @ z + z @ b - c))
    bound = 1e-8 * max(1.0, float(np.linalg.norm(c)))
    if not np.isfinite(resid) or resid > bound:
        raise NumericalError(
            f"Sylvester residual {resid:.3e} exceeds bound {bound:.3e}; "
            "spectra of a and -b are too close"
        )
    return z


def expand(x) -> np.ndarray:
    """Expansion of one d-vector: the single column of ``expand_batch``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expand takes a 1-D vector, got shape {x.shape}")
    return expand_batch(x[:, None])[:, 0]


def _check_sample(w, x) -> tuple[np.ndarray, np.ndarray]:
    """``(w, x)`` as float64 arrays, with ``x`` a 1-D d-vector and ``w`` a
    finite square (5d, 5d) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"a sample must be a 1-D vector, got shape {x.shape}")
    w = as_matrix(w, "w")
    dim = 5 * x.shape[0]
    if w.shape != (dim, dim):
        raise ValueError(
            f"w must be square, {dim}x{dim} for a sample of input dimension "
            f"{x.shape[0]}, got shape {w.shape}"
        )
    return w, x


def forward(w, x) -> np.ndarray:
    """Single-sample output ``tanh(w @ expand(x))``."""
    w, x = _check_sample(w, x)
    return np.tanh(w @ expand(x))


def grad_w(w, x_i, h_i, h, z_i, beta: float) -> np.ndarray:
    """Gradient of the per-sample fit plus weight decay with respect to ``w``.

    Computes ``((h_i - h @ z_i) * tanh'(w @ expand(x_i))) expand(x_i)^T
    + beta * w``, treating the stacked output matrix ``h`` as a constant
    (only the single-sample output ``h_i`` is differentiated through).
    """
    w, x_i = _check_sample(w, x_i)
    h_i = np.asarray(h_i, dtype=np.float64)
    h = as_matrix(h, "h")
    z_i = np.asarray(z_i, dtype=np.float64)
    dim = w.shape[0]
    if h_i.shape != (dim,):
        raise ValueError(f"h_i must have shape ({dim},), got {h_i.shape}")
    if h.shape[0] != dim:
        raise ValueError(f"h must have {dim} rows, got {h.shape[0]}")
    if z_i.shape != (h.shape[1],):
        raise ValueError(f"z_i must have shape ({h.shape[1]},), got {z_i.shape}")
    if not beta >= 0:
        raise ValueError(f"beta must be non-negative, got {beta}")

    phi = expand(x_i)
    t = np.tanh(w @ phi)
    g = np.einsum("i,j->ij", (h_i - h @ z_i) * (1.0 - t**2), phi)
    if beta != 0.0:
        g += beta * w
    return g


def zstep_objective(h, z, lap, alpha: float) -> float:
    """Partial objective ``0.5 |h - h z|_F^2 + (alpha/2) tr(z lap z^T)``."""
    h = as_matrix(h, "h")
    z = as_matrix(z, "z")
    lap = as_matrix(lap, "laplacian")
    if z.shape != (h.shape[1], h.shape[1]):
        raise ValueError(f"z must be {h.shape[1]}x{h.shape[1]}, got {z.shape}")
    if lap.shape != z.shape:
        raise ValueError(f"laplacian must match z, got {lap.shape} vs {z.shape}")
    # dense on purpose: the fits take tr(z lap z^T) from their solve's
    # factors, and this is the independent value they are checked against
    fit = float(np.linalg.norm(h - h @ z))
    grouping = float(np.sum((z @ lap) * z))
    return 0.5 * fit**2 + 0.5 * alpha * grouping
