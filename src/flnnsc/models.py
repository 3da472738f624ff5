"""Optimization drivers: alternating nonlinear fit, convex combination, and
closed-form linear baselines.

Every method computes its representation with one exact kernel,
:func:`_zstep`, which solves ``h^T h z + alpha z lap = h^T h`` from the thin
SVD of ``h`` and the eigendecomposition of ``lap``. Both iterative models
alternate stochastic gradient steps on the network weights with that
update; the convex-combination variant additionally carries a linear
representation computed once from the raw data (``h = x``), the smooth-
representation baseline is the same solve on the raw data, and the ridge
baseline is the same solve with ``lap = I``.

The weight updates run on data expanded once per fit, through the gradient
core of :mod:`flnnsc.flnn` rather than the validated ``forward``/``grad_w``.
The fit owns one weight array for its whole run, steps it in place, and
returns it; the learning rate of each outer iteration is a local.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .flnn import _grad, expand_batch, init_network, sgd_step
from .graph import SimilarityGraph, laplacian
from .linalg import NumericalError, SymEigen, as_matrix, svd_thin, sym_eigen

__all__ = [
    "FlnnscConfig",
    "CcscConfig",
    "SolveTrace",
    "Representation",
    "objective_flnnsc",
    "zstep_objective",
    "update_z",
    "fit_flnnsc",
    "fit_ccsc",
    "fit_lsr",
    "fit_linear_smr",
]

# Residual bound for an accepted representation update, relative to the
# Gram matrix norm; the non-increase check on the partial objective uses
# _OBJ_RTOL relative slack.
_Z_RESIDUAL_RTOL = 1e-8
_OBJ_RTOL = 1e-9


@dataclass(frozen=True)
class FlnnscConfig:
    """Hyperparameters of the alternating fit.

    ``alpha`` weighs the Laplacian (grouping) regularizer, ``beta`` the
    weight decay, ``mu`` the learning rate. Convergence is declared when
    the squared Frobenius change of the representation drops to ``tol``.
    ``mu_decay`` multiplies the learning rate once per outer iteration;
    the geometric schedule lets the weight updates die out so the
    representation actually reaches a fixed point (1.0 keeps mu flat).
    """

    alpha: float = 1.0
    beta: float = 1.0
    mu: float = 1e-2
    max_outer_iters: int = 100
    inner_epochs: int = 1
    tol: float = 1e-6
    seed: int = 0
    mu_decay: float = 0.85

    def __post_init__(self):
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")
        if not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.inner_epochs < 1:
            raise ValueError("inner_epochs must be >= 1")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not 0.0 < self.mu_decay <= 1.0:
            raise ValueError(f"mu_decay must lie in (0, 1], got {self.mu_decay}")


@dataclass(frozen=True)
class CcscConfig:
    """Convex-combination fit: ``lam`` in [0, 1] balances the nonlinear
    representation (lam=1) against the linear one (lam=0)."""

    base: FlnnscConfig = field(default_factory=FlnnscConfig)
    lam: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")


@dataclass
class SolveTrace:
    """Per-outer-iteration diagnostics of an alternating fit.

    The first three arrays are the convergence record proper; the last
    three make the exactness of each representation update auditable
    (relative residual of the representation equation and the partial
    objective on either side of the update). ``z2_*`` fields are set once
    for the combination model's linear solve.
    """

    objective: list = field(default_factory=list)
    z_delta: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    z_residual: list = field(default_factory=list)
    zstep_obj_before: list = field(default_factory=list)
    zstep_obj_after: list = field(default_factory=list)
    z2_residual: float | None = None
    z2_obj_before: float | None = None
    z2_obj_after: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.z_delta)


@dataclass(frozen=True)
class Representation:
    """Self-representation matrix; the combination model also stores the
    nonlinear (``z1``) and linear (``z2``) parts it blends."""

    z: np.ndarray
    z1: np.ndarray | None = None
    z2: np.ndarray | None = None


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
    return _partial_objective(h, z, float(np.sum((z @ lap) * z)), alpha)


def _partial_objective(h: np.ndarray, z: np.ndarray, grouping: float, alpha: float) -> float:
    """Unvalidated :func:`zstep_objective` with ``tr(z lap z^T)`` given."""
    return 0.5 * float(np.linalg.norm(h - h @ z)) ** 2 + 0.5 * alpha * grouping


def objective_flnnsc(h, z, w, lap, alpha: float, beta: float) -> float:
    """Full objective: fit + grouping regularizer + weight decay."""
    w = as_matrix(w, "w")
    return zstep_objective(h, z, lap, alpha) + 0.5 * beta * float(np.linalg.norm(w)) ** 2


def _zstep(h: np.ndarray, lap_eig: SymEigen, alpha: float) -> tuple[np.ndarray, float, float]:
    """Exact minimal-norm solution of ``h^T h z + alpha z lap = h^T h``.

    With the thin SVD ``h = u diag(s) w^T`` and ``lap = v diag(lam) v^T``
    the solution is ``z = w (m * (w^T v)) v^T`` with
    ``m_ij = s_i^2 / (s_i^2 + alpha max(lam_j, 0))``. Singular values at
    or below ``s_max max(p, n) eps`` are dropped; the cutoff is relative,
    so any rescaling of ``h`` is solved alike, and ``h = 0`` gives ``z = 0``.

    Returns ``(z, rel_residual, grouping)``: the residual
    ``h^T (h z - h) + alpha z lap`` (``h z`` from ``h`` itself, ``z lap``
    from the factors) relative to ``|h^T h|_F``, and the grouping term
    ``tr(z lap z^T) = sum_ij y_ij^2 max(lam_j, 0)`` with ``y = m * (w^T v)``
    (``w`` has orthonormal columns and ``v`` is orthogonal, so no n x n
    product is needed). Raises :class:`NumericalError` if the residual
    exceeds the accepted bound.
    """
    _, s, wt = svd_thin(h)
    keep = (s > s[0] * max(h.shape) * np.finfo(np.float64).eps) & (s * s > 0.0)
    s2 = s[keep, None] ** 2
    w = wt[keep].T
    lam, v = np.maximum(lap_eig.values, 0.0), lap_eig.vectors
    y = s2 / (s2 + alpha * lam) * (w.T @ v)
    z = w @ (y @ v.T)

    # h^T (h z - h) + alpha (z lap) in two n x n buffers, rounded as written
    y_lam = y * lam
    resid = h.T @ (h @ z - h)
    z_lap = w @ (y_lam @ v.T)
    z_lap *= alpha
    resid += z_lap
    gram_norm = float(np.linalg.norm(s**2))
    bound = _Z_RESIDUAL_RTOL * max(gram_norm, 1e-12)
    resid_norm = float(np.linalg.norm(resid))
    if not resid_norm <= bound:
        raise NumericalError(
            f"representation update residual {resid_norm:.3e} exceeds bound {bound:.3e}"
        )
    return z, resid_norm / max(gram_norm, 1e-12), float(np.sum(y_lam * y))


def update_z(h, lap, alpha: float) -> np.ndarray:
    """Exact representation update: solve ``h^T h z + alpha z lap = h^T h``.

    This is the stationarity condition of the partial objective in ``z``;
    the accepted solution must satisfy the residual bound relative to
    ``|h^T h|_F`` or a :class:`NumericalError` is raised. Fits call the
    kernel directly with the Laplacian factored once.
    """
    h = as_matrix(h, "h")
    lap = as_matrix(lap, "laplacian")
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
    n = h.shape[1]
    if lap.shape != (n, n):
        raise ValueError(f"laplacian must be {n}x{n}, got {lap.shape}")
    return _zstep(h, sym_eigen(lap), alpha)[0]


def _check_non_increase(before: float, after: float, what: str, iteration: int) -> None:
    if after > before + _OBJ_RTOL * max(1.0, abs(before)):
        raise NumericalError(
            f"{what} objective increased at iteration {iteration}: "
            f"{before:.12g} -> {after:.12g}"
        )


def _validate_fit_inputs(x, graph: SimilarityGraph):
    x = as_matrix(x, "x")
    n = x.shape[1]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if float(np.max(np.abs(x))) > 1.0 + 1e-9:
        raise ValueError("data must be scaled to [-1, 1] before fitting")
    if graph.s.shape != (n, n):
        raise ValueError(
            f"similarity graph is {graph.s.shape} but the data has {n} samples"
        )
    return x, laplacian(graph)


def _epoch(w: np.ndarray, phi_rows: np.ndarray, h: np.ndarray, z: np.ndarray,
           order: np.ndarray, mu: float, beta: float, lam: float | None) -> None:
    """One pass of per-sample gradient steps on ``w``, in place, with ``h``
    and ``z`` fixed; row ``i`` of ``phi_rows`` is the expansion of sample
    ``i``, contiguous.

    Each sample takes one ``tanh`` (its output and the derivative both come
    from it), and the gradient and weight-decay buffers are allocated once
    per pass, not per sample.
    """
    g, decay = np.empty_like(w), np.empty_like(w)
    for i in order:
        phi = phi_rows[i]
        t = np.tanh(w @ phi)
        _grad(w, phi, t, t, h @ z[:, i], beta, g, decay)
        if lam is not None:
            g *= lam
        sgd_step(w, g, mu)


def fit_flnnsc(x, graph: SimilarityGraph, cfg: FlnnscConfig):
    """Alternating fit of the nonlinear self-representation model.

    Each outer iteration runs ``inner_epochs`` passes of per-sample
    weight updates (network outputs fixed at the previous batch forward
    pass), recomputes the batch outputs, and solves exactly for the
    representation. Stops when the squared change of the representation
    falls to ``cfg.tol`` or after ``cfg.max_outer_iters`` iterations.

    Returns ``(representation, w, trace)``, ``w`` being the fitted weights.
    """
    return _fit_alternating(x, graph, cfg, lam=None)


def fit_ccsc(x, graph: SimilarityGraph, cfg: CcscConfig):
    """Alternating fit of the convex-combination model.

    Identical alternation with the gradient scaled by ``lam``; the linear
    representation (solved from the raw data) has no dependence on the
    network, so it is computed once and cached. The returned
    representation blends the two parts: ``z = lam z1 + (1 - lam) z2``.
    At ``lam = 1`` the run reproduces :func:`fit_flnnsc` exactly under
    the same seed.
    """
    return _fit_alternating(x, graph, cfg.base, lam=cfg.lam)


def _fit_alternating(x, graph: SimilarityGraph, cfg: FlnnscConfig, lam: float | None):
    x, lap = _validate_fit_inputs(x, graph)
    d, n = x.shape
    # the Laplacian is fixed for the whole fit: factor it once, keep the factors
    lap_eig = sym_eigen(lap)
    del lap

    rng = np.random.default_rng(cfg.seed)
    w = init_network(d, rng)
    phi = expand_batch(x)
    phi_rows = np.ascontiguousarray(phi.T)

    trace = SolveTrace()
    # both start at zero; neither is written in place, so they share one array
    z1 = z_combined = np.zeros((n, n))
    grouping = 0.0  # tr(z1 lap z1^T), carried from each solve to the next check
    h = np.tanh(w @ phi)

    z2 = None
    if lam is not None:
        trace.z2_obj_before = _partial_objective(x, z1, 0.0, cfg.alpha)
        z2, trace.z2_residual, z2_grouping = _zstep(x, lap_eig, cfg.alpha)
        trace.z2_obj_after = _partial_objective(x, z2, z2_grouping, cfg.alpha)
        _check_non_increase(trace.z2_obj_before, trace.z2_obj_after, "linear part", 0)

    for it in range(1, cfg.max_outer_iters + 1):
        tic = time.perf_counter()

        mu = cfg.mu * cfg.mu_decay ** (it - 1)
        for _ in range(cfg.inner_epochs):
            _epoch(w, phi_rows, h, z1, rng.permutation(n), mu, cfg.beta, lam)

        h = np.tanh(w @ phi)

        obj_before = _partial_objective(h, z1, grouping, cfg.alpha)
        z1_new, z_residual, grouping = _zstep(h, lap_eig, cfg.alpha)
        obj_after = _partial_objective(h, z1_new, grouping, cfg.alpha)
        _check_non_increase(obj_before, obj_after, "representation", it)

        decay = 0.5 * cfg.beta * float(np.linalg.norm(w)) ** 2
        if lam is None:
            z_new = z1_new
            objective = obj_after + decay
        else:
            z_new = lam * z1_new + (1.0 - lam) * z2
            objective = lam * obj_after + (1.0 - lam) * trace.z2_obj_after + decay
        if not np.isfinite(objective):
            raise NumericalError(f"objective became non-finite at iteration {it}")

        z_delta = float(np.linalg.norm(z_new - z_combined)) ** 2

        trace.objective.append(float(objective))
        trace.z_delta.append(z_delta)
        trace.seconds.append(time.perf_counter() - tic)
        trace.z_residual.append(z_residual)
        trace.zstep_obj_before.append(obj_before)
        trace.zstep_obj_after.append(obj_after)

        z1 = z1_new
        z_combined = z_new
        if z_delta <= cfg.tol:
            break

    if lam is None:
        rep = Representation(z=z_combined)
    else:
        rep = Representation(z=z_combined, z1=z1, z2=z2)
    return rep, w, trace


def fit_lsr(x, lambda_reg: float) -> Representation:
    """Frobenius-regularized least-squares baseline.

    Closed form: ``z`` solves ``(x^T x + lambda I) z = x^T x``, the
    representation update with ``h = x`` and the identity in place of the
    Laplacian.
    """
    x = as_matrix(x, "x")
    _check_lambda_reg(lambda_reg)
    return Representation(z=update_z(x, np.eye(x.shape[1]), lambda_reg))


def _check_lambda_reg(lambda_reg: float) -> None:
    if not lambda_reg > 0:
        raise ValueError(f"lambda_reg must be positive, got {lambda_reg}")


def fit_linear_smr(x, graph: SimilarityGraph, alpha: float) -> Representation:
    """Linear smooth-representation baseline: the representation solve of
    :func:`update_z` applied directly to the raw data matrix."""
    x = as_matrix(x, "x")
    n = x.shape[1]
    if graph.s.shape != (n, n):
        raise ValueError(
            f"similarity graph is {graph.s.shape} but the data has {n} samples"
        )
    return Representation(z=update_z(x, laplacian(graph), alpha))
