"""Functional-link network: trigonometric expansion, forward pass, gradient.

The network is a single layer: each input vector is expanded by fixed
second-order trigonometric features, multiplied by a trainable square
matrix, and passed through an elementwise tanh. There is no hidden layer,
which is the whole point: nonlinearity comes from the expansion.

The fit owns its weights as a plain array: it steps them with the
unvalidated gradient core :func:`_grad` on a batch expanded once, writing
into buffers it allocates once per epoch, and :func:`sgd_step` updates the
one weight matrix in place. :class:`NetworkState`, :func:`forward` and
:func:`grad_w` are the validated single-sample API and the references the
fit is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, as_matrix

__all__ = [
    "expand",
    "expand_batch",
    "NetworkState",
    "init_network",
    "forward",
    "grad_w",
    "sgd_step",
]

# Output/input dimension ratio of the expansion.
_FACTOR = 5


def expand(x) -> np.ndarray:
    """Expand a d-vector to 5d features: [x; sin(pi x); cos(pi x); sin(2 pi x); cos(2 pi x)].

    Blocks are stacked by term type, each of length d. Inputs are assumed
    to be scaled to [-1, 1] (the data module enforces this); outside one
    period the trigonometric features alias.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expand takes a 1-D vector, got shape {x.shape}")
    px = np.pi * x
    return np.concatenate([x, np.sin(px), np.cos(px), np.sin(2.0 * px), np.cos(2.0 * px)])


def expand_batch(x) -> np.ndarray:
    """Columnwise expansion of a (d, n) matrix to (5d, n)."""
    x = as_matrix(x, "x")
    px = np.pi * x
    return np.vstack([x, np.sin(px), np.cos(px), np.sin(2.0 * px), np.cos(2.0 * px)])


@dataclass(frozen=True)
class NetworkState:
    """Trainable parameters plus the hyperparameters the updates need.

    ``w`` is the (5d, 5d) parameter matrix, ``mu`` the learning rate and
    ``beta`` the weight-decay strength.
    """

    w: np.ndarray
    mu: float = 1e-2
    beta: float = 0.0

    def __post_init__(self):
        w = as_matrix(self.w, "w")
        if w.shape[0] != w.shape[1]:
            raise ValueError(f"w must be square, got shape {w.shape}")
        object.__setattr__(self, "w", w)
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")

    @property
    def expanded_dim(self) -> int:
        return self.w.shape[0]


def init_network(
    input_dim: int,
    rng=None,
    mu: float = 1e-2,
    beta: float = 0.0,
) -> NetworkState:
    """Fresh network for d-dimensional inputs.

    Entries of ``w`` are drawn i.i.d. uniform on [-1/sqrt(5d), 1/sqrt(5d)]
    so the pre-activations start in the active region of tanh.
    """
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    rng = np.random.default_rng(rng)
    dim = _FACTOR * input_dim
    bound = 1.0 / np.sqrt(dim)
    w = rng.uniform(-bound, bound, size=(dim, dim))
    return NetworkState(w=w, mu=mu, beta=beta)


def _check_input_dim(net: NetworkState, d: int) -> None:
    if _FACTOR * d != net.expanded_dim:
        raise ValueError(
            f"sample has input dimension {d}, but the network expects "
            f"{net.expanded_dim // _FACTOR}"
        )


def forward(net: NetworkState, x) -> np.ndarray:
    """Single-sample output ``tanh(w @ expand(x))``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"forward takes a 1-D sample, got shape {x.shape}")
    _check_input_dim(net, x.shape[0])
    return np.tanh(net.w @ expand(x))


def _grad(w, phi, t, h_i, target, beta: float, out=None, decay=None) -> np.ndarray:
    """Unvalidated core of :func:`grad_w` at the activation ``t = tanh(w @ phi)``:
    ``((h_i - target) * (1 - t^2)) phi^T + beta * w``.

    The gradient is written into ``out`` and ``beta * w`` into ``decay``
    when they are given (arrays shaped like ``w``), else into new arrays.
    """
    out = np.einsum("i,j->ij", (h_i - target) * (1.0 - t**2), phi, out=out)
    if beta != 0.0:
        out += np.multiply(beta, w, out=decay)
    return out


def grad_w(net: NetworkState, x_i, h_i, h, z_i) -> np.ndarray:
    """Gradient of the per-sample fit plus weight decay with respect to ``w``.

    Computes ``((h_i - h @ z_i) * tanh'(w @ expand(x_i))) expand(x_i)^T
    + beta * w``, treating the stacked output matrix ``h`` as a constant
    (only the single-sample output ``h_i`` is differentiated through).
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    h_i = np.asarray(h_i, dtype=np.float64)
    h = as_matrix(h, "h")
    z_i = np.asarray(z_i, dtype=np.float64)
    _check_input_dim(net, x_i.shape[0])
    dim = net.expanded_dim
    if h_i.shape != (dim,):
        raise ValueError(f"h_i must have shape ({dim},), got {h_i.shape}")
    if h.shape[0] != dim:
        raise ValueError(f"h must have {dim} rows, got {h.shape[0]}")
    if z_i.shape != (h.shape[1],):
        raise ValueError(f"z_i must have shape ({h.shape[1]},), got {z_i.shape}")

    phi = expand(x_i)
    return _grad(net.w, phi, np.tanh(net.w @ phi), h_i, h @ z_i, net.beta)


def sgd_step(w: np.ndarray, grad: np.ndarray, mu: float) -> None:
    """One descent step ``w <- w - mu * grad``, in place.

    ``grad`` is overwritten with ``mu * grad``. Raises ``ValueError`` if
    the shapes differ and :class:`NumericalError` if the stepped ``w`` has
    a non-finite entry (with ``mu > 0`` a non-finite ``grad`` always leaves
    one); ``w`` then holds the diverged values.
    """
    if grad.shape != w.shape:
        raise ValueError(f"grad shape {grad.shape} does not match w {w.shape}")
    grad *= mu
    w -= grad
    if not np.isfinite(w).all():
        culprit = "the step mu * grad" if not np.isfinite(grad).all() else "the stepped w"
        raise NumericalError(f"weight update diverged: {culprit} has non-finite entries")
