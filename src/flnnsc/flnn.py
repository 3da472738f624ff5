"""Functional-link network: trigonometric expansion, forward pass, gradient.

The network is a single layer: each input vector is expanded by fixed
second-order trigonometric features, multiplied by a trainable square
matrix, and passed through an elementwise tanh. There is no hidden layer,
which is the whole point: nonlinearity comes from the expansion. The
network's whole trainable state is that (5d, 5d) matrix ``w``, and every
function here takes or returns it as a plain array.

The fit steps a stack of weight matrices at once, on a batch expanded
once, with :func:`sgd_step`: each matrix is held as a scale times a
matrix, so the weight decay is a change of scale and a sample's step is
one rank-1 update, and those updates are delayed over a block of
samples. :func:`sgd_block_start` forms the products the block's steps
read, each step forms its outputs from them and the block's earlier
rank-1 terms, and :func:`sgd_block_end` gives the matrices all of those
terms at once. :func:`forward` and :func:`grad_w` are the validated
single-sample API and the references the fit is tested against.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix

__all__ = [
    "expand",
    "expand_batch",
    "init_network",
    "forward",
    "grad_w",
    "sgd_block_start",
    "sgd_step",
    "sgd_block_end",
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


def sgd_block_start(v: np.ndarray, phi: np.ndarray):
    """The start of a block of :func:`sgd_step` calls on the stack ``v``
    (K, p, p), whose samples' expansions are the rows of ``phi`` (b, p).
    Returns ``(p, d, gram)``: ``p`` (K, b, p) holds ``v_k phi_j`` as row
    ``j`` of member ``k`` (one product per member), ``d`` (K, b, p) is the
    zeroed rows the steps keep their rank-1 terms in, and ``gram`` (b, b)
    is ``phi phi^T``. ``v`` is not touched."""
    p = np.matmul(phi, v.transpose(0, 2, 1))
    return p, np.zeros_like(p), phi @ phi.T


def sgd_step(v: np.ndarray, p: np.ndarray, d: np.ndarray, gram: np.ndarray, j: int,
             scale: np.ndarray, rate: np.ndarray, target: np.ndarray, fold=()) -> None:
    """Step ``j`` of a block of samples on a stack of networks ``W_k = scale_k
    (v_k - sum_{l<j} d_kl phi_l^T)``, in place: the block's steps leave
    ``v`` (K, p, p) as it is and keep each step's rank-1 term as a row of
    ``d`` (K, b, p), which :func:`sgd_block_end` subtracts from ``v``.
    ``p`` (K, b, p) holds the products ``v phi_l`` and ``gram`` (b, b) the
    block's inner products ``phi_l . phi_m``, both formed by
    :func:`sgd_block_start`; ``scale`` and ``rate`` are (K, 1) and
    ``target`` the sample's (K, p) targets.

    The step forms ``t = tanh(scale * (p[:, j] - d[:, :j]^T gram[j, :j]))``,
    the outputs of the networks as the earlier steps of the block left
    them, and stores ``rate * ((t - target) * (1 - t^2))`` as row ``j`` of
    ``d``: one (j, p) product per member; but for a fold, no p x p matrix
    is touched. The caller moves the weight decay into the scale: with the
    new scale ``s = c * scale``, ``c = 1 - mu lam beta`` and ``rate = mu
    lam / s``, ``s`` times the matrix after the step is ``W - mu lam
    (((t - target) * tanh'(W phi)) phi^T + beta W)``, the step of
    :func:`grad_w`'s gradient scaled by ``lam``. ``fold`` lists
    ``(k, f)`` pairs: member ``k``'s matrix is multiplied by ``f`` (its
    decayed scale) between the outputs and the update, which then takes
    the scale 1; that is, its ``v``, the rows of ``d`` before ``j`` and the
    rows of ``p`` after ``j`` are multiplied by ``f``. That is how the
    caller keeps a scale from vanishing, and how a decay factor of exactly
    0 is applied.

    Nothing is checked: a non-finite entry never becomes finite again
    under these steps and block updates, so the caller checks each member
    once it has formed ``W``.
    """
    t = np.matmul(gram[j, :j], d[:, :j])
    np.subtract(p[:, j], t, out=t)
    t *= scale
    np.tanh(t, out=t)
    e = t - target
    t *= t
    np.subtract(1.0, t, out=t)
    e *= t
    np.multiply(e, rate, out=d[:, j])
    for k, f in fold:
        v[k] *= f
        d[k, :j] *= f
        p[k, j + 1:] *= f


def sgd_block_end(v: np.ndarray, d: np.ndarray, phi: np.ndarray) -> None:
    """The end of a block of :func:`sgd_step` calls: ``v`` takes the
    block's rank-1 terms, ``v_k -= d_k^T phi``, in place. One (p, b) by
    (b, p) product per member, formed in a (K, p, p) temporary."""
    v -= np.matmul(d.transpose(0, 2, 1), phi)
