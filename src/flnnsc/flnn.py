"""Functional-link network: trigonometric expansion, forward pass, gradient.

The network is a single layer: each input vector is expanded by fixed
second-order trigonometric features, multiplied by a trainable square
matrix, and passed through an elementwise tanh. There is no hidden layer,
which is the whole point: nonlinearity comes from the expansion. The
network's whole trainable state is that (5d, 5d) matrix ``w``, and every
function here takes or returns it as a plain array.

The fit writes the gradient itself, for a stack of weight matrices at
once, on a batch expanded once, and steps the stack in place with
:func:`sgd_step`. :func:`forward` and :func:`grad_w` are the validated
single-sample API and the references the fit is tested against.
"""

from __future__ import annotations

import numpy as np

from .linalg import NumericalError, as_matrix

__all__ = [
    "expand",
    "expand_batch",
    "init_network",
    "forward",
    "grad_w",
    "sgd_step",
]

# Output/input dimension ratio of the expansion.
_FACTOR = 5


def expand_batch(x) -> np.ndarray:
    """Expand each column of a (d, n) matrix to 5d features:
    [x; sin(pi x); cos(pi x); sin(2 pi x); cos(2 pi x)].

    Blocks are stacked by term type, each of length d. Inputs are assumed
    to be scaled to [-1, 1] (the data module enforces this); outside one
    period the trigonometric features alias.
    """
    x = as_matrix(x, "x")
    px = np.pi * x
    return np.vstack([x, np.sin(px), np.cos(px), np.sin(2.0 * px), np.cos(2.0 * px)])


def expand(x) -> np.ndarray:
    """Expansion of one d-vector: the single column of :func:`expand_batch`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expand takes a 1-D vector, got shape {x.shape}")
    return expand_batch(x[:, None])[:, 0]


def init_network(input_dim: int, rng=None) -> np.ndarray:
    """Fresh (5d, 5d) weight matrix for d-dimensional inputs.

    Entries are drawn i.i.d. uniform on [-1/sqrt(5d), 1/sqrt(5d)] so the
    pre-activations start in the active region of tanh.
    """
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    rng = np.random.default_rng(rng)
    dim = _FACTOR * input_dim
    bound = 1.0 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=(dim, dim))


def _check_sample(w, x) -> tuple[np.ndarray, np.ndarray]:
    """``(w, x)`` as float64 arrays, with ``x`` a 1-D d-vector and ``w`` a
    finite square (5d, 5d) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"a sample must be a 1-D vector, got shape {x.shape}")
    w = as_matrix(w, "w")
    dim = _FACTOR * x.shape[0]
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


def sgd_step(w: np.ndarray, grad: np.ndarray, mu: float) -> None:
    """One descent step ``w <- w - mu * grad``, in place; ``w`` is one
    weight matrix or a stack of them, (K, p, p), stepped together.

    ``grad`` is overwritten with ``mu * grad``. Raises ``ValueError`` if
    the shapes differ and :class:`NumericalError` if the stepped ``w`` has
    a non-finite entry (with ``mu > 0`` a non-finite ``grad`` always leaves
    one); ``w`` then holds the diverged values, and a stack's members can
    be told apart with :func:`_divergence` on each.
    """
    if grad.shape != w.shape:
        raise ValueError(f"grad shape {grad.shape} does not match w {w.shape}")
    grad *= mu
    w -= grad
    if not np.isfinite(w).all():
        raise _divergence(grad)


def _divergence(step: np.ndarray) -> NumericalError:
    """The error of a step ``step = mu * grad`` that left ``w`` non-finite."""
    culprit = "the step mu * grad" if not np.isfinite(step).all() else "the stepped w"
    return NumericalError(f"weight update diverged: {culprit} has non-finite entries")
