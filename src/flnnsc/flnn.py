"""Functional-link network: trigonometric expansion, initial weights, SGD steps.

The network is a single layer: each input vector is expanded by fixed
second-order trigonometric features, multiplied by a trainable square
matrix, and passed through an elementwise tanh. There is no hidden layer,
which is the whole point: nonlinearity comes from the expansion. The
network's whole trainable state is that (5d, 5d) matrix ``w``, and every
function here takes or returns it as a plain array.

The fit steps a stack of weight matrices at once, on a batch expanded
once, a block of samples at a time (:func:`sgd_block`): within a block
the matrices are left as they are, each sample's step (:func:`sgd_step`)
forms its outputs in one product from the rows the block's start seeded
and its earlier steps wrote, weight decay included exactly, and the
block's end gives the matrices every step at once. A block holds two
arrays, each at most the size of the stack, and one temporary that size
at its end. The tests hold these steps to a single-sample forward pass
and gradient written out, kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix

__all__ = [
    "expand_batch",
    "init_network",
    "sgd_block",
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


def sgd_block(w: np.ndarray, phi_rows: np.ndarray, targets: np.ndarray, block: np.ndarray,
              powers: np.ndarray, rate: np.ndarray) -> None:
    """One :func:`sgd_step` per sample of ``block``, in order, on the stack
    of networks ``w`` (K, p, p), in place. Row ``i`` of ``phi_rows`` (n, p)
    is the expansion of sample ``i`` and ``targets[:, :, i]`` ((K, p, n),
    read as views) its targets; ``rate`` (K, 1) is each member's ``mu lam``
    and ``powers`` (K, > b) its ``c ** arange`` for the decay factor ``c =
    1 - mu lam beta``. Each step is ``W <- c W - mu lam ((t - target) * (1
    - t^2)) phi_j^T`` with ``t = tanh(W phi_j)``: the gradient of
    the per-sample fit plus weight decay, scaled by ``lam``.

    Unrolled, ``W_j = c^j W - sum_{l<j} mu lam c^(j-1-l) d_l phi_l^T``
    with ``d_l = (t_l - target_l) * (1 - t_l^2)``. So at its start the
    block seeds row ``j`` of ``D`` (K, b, p) with ``P_j = c^j W phi_j``
    (one product per member) and forms ``A`` (K, b, b): ``-mu lam
    c^(j-1-l) (phi_l . phi_j)`` below the diagonal, 1 on it; step ``j``
    overwrites ``P_j`` with ``d_j``. At its end ``W <- c^b W - sum_l mu
    lam c^(b-1-l) d_l phi_l^T``, one more product per member, in a
    temporary the size of ``w``; ``D`` and ``A`` are no larger than ``w``
    when ``b <= p``. Every operation acts member by member, so each
    member's steps are those of its stack alone, bit for bit.
    """
    phi, b = phi_rows[block], len(block)
    d = np.matmul(phi, w.transpose(0, 2, 1))
    d *= powers[:, :b, None]
    lag = np.arange(b)[:, None] - np.arange(1, b + 1)  # j - 1 - l
    a = powers.take(np.maximum(lag, 0), axis=1)  # C order, as the members' bits need
    a *= phi @ phi.T
    a *= -rate[:, :, None]
    a[:, range(b), range(b)] = 1.0  # the steps read nothing above the diagonal
    for j, i in enumerate(block):
        sgd_step(d, a, j, targets[:, :, i])
    d *= (rate * powers[:, b - 1::-1])[:, :, None]
    w *= powers[:, b, None, None]
    w -= np.matmul(d.transpose(0, 2, 1), phi)


def sgd_step(d: np.ndarray, a: np.ndarray, j: int, target: np.ndarray) -> None:
    """Step ``j`` of :func:`sgd_block`, in place: with ``t = tanh(A[:, j,
    :j+1] D[:, :j+1])``, that is ``tanh(P_j - sum_{l<j} mu lam c^(j-1-l)
    (phi_l . phi_j) d_l)``, the outputs of the networks as the block's
    earlier steps left them, it overwrites row ``j`` of ``d`` (K, b, p),
    ``P_j``, with ``d_j = (t - target) * (1 - t^2)``. ``a`` (K, b, b) is
    the block's coefficients and ``target`` the sample's (K, p) targets.
    One (j + 1,) by (j + 1, p) product per member; no p x p matrix is read.

    Nothing is checked: a non-finite entry never becomes finite again
    under these steps and blocks (``0 * inf`` is NaN), so each member's
    fit checks its weights once the epochs have stepped the stack.
    """
    t = np.matmul(a[:, j, None, :j + 1], d[:, :j + 1])[:, 0]
    np.tanh(t, out=t)
    e = t - target
    t *= t
    np.subtract(1.0, t, out=t)
    np.multiply(e, t, out=d[:, j])
