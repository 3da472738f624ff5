"""Optimization drivers: alternating nonlinear fit, convex combination, and
closed-form linear baselines.

Every method computes its representation with one exact kernel,
:func:`_zstep`, which solves ``h^T h z + alpha z lap = h^T h`` from the thin
SVD of ``h`` and the eigendecomposition of ``lap``. Both iterative models
alternate stochastic gradient steps on the network weights with that
update; the convex-combination variant additionally carries a linear
representation solved once from the raw data (``h = x``, :func:`_linear_part`),
and both linear baselines are that solve: smooth representation with the
graph Laplacian, ridge with ``lap = I``.

The iterative fits share one loop, :func:`_fit_lockstep`, which runs K
fits that share a seed, a learning-rate schedule and alpha at once, on
data prepared once (:class:`_FitData`): their weight matrices are stacked
(K, p, p) and every per-sample step serves all of them, while each keeps
its own representation updates, stopping rule and trace; a combination
row solves its linear part once. :func:`fit_flnnsc` and :func:`fit_ccsc`
are its K = 1 case; sweeps and repeats call it on one row of points per
(seed, alpha). A flnnsc fit is the combination member at ``lam = 1``
with no linear part (:class:`CcscConfig` is :class:`FlnnscConfig` plus
``lam``), so both models run one member path. Each member fails as
diverged if its weights are not finite when its update starts, or still
grow (``|1 - mu lam beta| > 1``) when it stops. The weight
updates run on data expanded once, a block of samples at a time
(:func:`_epoch`): within a block each sample's step reads products taken
at the block's start, the weight decay included exactly, and the block's
updates are taken as one matrix product at its end (the tests hold those
steps to the gradient written out, in ``tests/oracles.py``). Each
member's targets are its row of one stack: the ``h z`` its last
:func:`_zstep` formed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .flnn import expand_batch, init_network, sgd_block
from .graph import laplacian
from .linalg import NumericalError, as_matrix, sym_eigen

__all__ = [
    "FlnnscConfig",
    "CcscConfig",
    "SolveTrace",
    "Representation",
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
    beta: float = 0.1
    mu: float = 1e-2
    max_iters: int = 100
    inner_epochs: int = 1
    tol: float = 1e-6
    seed: int = 0
    mu_decay: float = 0.85
    lam: ClassVar[float] = 1.0  # a flnnsc fit is the combination at lam = 1

    def __post_init__(self):
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")
        if not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.inner_epochs < 1:
            raise ValueError("inner_epochs must be >= 1")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not 0.0 < self.mu_decay <= 1.0:
            raise ValueError(f"mu_decay must lie in (0, 1], got {self.mu_decay}")


@dataclass(frozen=True)
class CcscConfig(FlnnscConfig):
    """Convex-combination fit: :class:`FlnnscConfig`'s settings, and ``lam``
    in [0, 1] balancing the nonlinear representation (lam=1) against the
    linear one (lam=0)."""

    lam: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")


@dataclass
class SolveTrace:
    """Per-outer-iteration diagnostics of an alternating fit.

    The first three arrays are the convergence record proper; the next
    three make the exactness of each representation update auditable
    (relative residual of the representation equation and the partial
    objective on either side of the update), and the last three its
    health: the singular values of the network output kept, ``s_min /
    s_max`` over them (0 when none is kept), and ``|W|_F`` after the
    iteration's epochs. ``z2_*`` fields are set once
    for the combination model's linear solve. ``stop_reason`` says why the
    fit stopped: ``tol``, ``max_iters``, or ``collapsed`` when the last
    update kept no singular value of the network output (``z1 = 0``).
    """

    objective: list = field(default_factory=list)
    z_delta: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    z_residual: list = field(default_factory=list)
    zstep_obj_before: list = field(default_factory=list)
    zstep_obj_after: list = field(default_factory=list)
    rank: list = field(default_factory=list)
    s_ratio: list = field(default_factory=list)
    w_norm: list = field(default_factory=list)
    z2_residual: float | None = None
    z2_obj_before: float | None = None
    z2_obj_after: float | None = None
    stop_reason: str | None = None

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


def _objective(fit: float, grouping: float, alpha: float) -> float:
    """The partial objective from ``fit = |h - h z|_F`` and ``tr(z lap z^T)``."""
    return 0.5 * fit**2 + 0.5 * alpha * grouping


def _zstep(h: np.ndarray, lap_eig: tuple, alpha: float) -> tuple:
    """Exact minimal-norm solution of ``h^T h z + alpha z lap = h^T h``.

    With the thin SVD ``h = u diag(s) w^T`` and ``lap = v diag(lam) v^T``
    (``lap_eig = (lam, v)``, as :func:`sym_eigen` returns it), the solution
    is ``z = w (m * (w^T v)) v^T`` with
    ``m_ij = s_i^2 / (s_i^2 + alpha max(lam_j, 0))``. Only ``s`` and ``w``
    are formed, from the short side of the p x n ``h``: the SVD of the
    n x n R of ``h = QR`` when ``2p >= 3n`` (Chan's R-SVD), else that of
    ``h^T``, so no p x n ``u`` is built. Singular values at
    or below ``s_max max(p, n) eps`` are dropped; the cutoff is relative,
    so any rescaling of ``h`` is solved alike, and ``h = 0`` gives ``z = 0``.

    Returns ``(z, rel_residual, grouping, fit, rank, hz, s_ratio)``: the
    residual ``h^T (h z - h) + alpha z lap`` (``h z`` from ``h`` itself,
    ``z lap`` from the factors) relative to ``|h^T h|_F``; the grouping term
    ``tr(z lap z^T) = sum_ij y_ij^2 max(lam_j, 0)`` with ``y = m * (w^T v)``
    (``w`` has orthonormal columns and ``v`` is orthogonal, so no n x n
    product is needed); ``fit = |h z - h|_F``; the number of singular
    values kept, 0 when no ``s^2`` is positive; ``hz = h @ z``, the
    product the residual is built on, so neither the partial objective
    after the update nor the next epoch's targets need a second ``h z``;
    and ``s_min / s_max`` over the kept values (0 when none is kept).
    Raises :class:`NumericalError` if the residual exceeds the accepted
    bound.
    """
    p, n = h.shape
    if 2 * p >= 3 * n:  # tall: the n x n R of h = QR has h's s and w
        _, s, wt = np.linalg.svd(np.linalg.qr(h, mode="r"))
        w = wt.T
    else:  # h^T = w diag(s) u^T, with u at most n x p and discarded
        w, s, _ = np.linalg.svd(h.T, full_matrices=False)
    keep = (s > s[0] * max(p, n) * np.finfo(np.float64).eps) & (s * s > 0.0)
    s2 = s[keep, None] ** 2
    w = w[:, keep]
    rank = int(keep.sum())
    lam, v = lap_eig
    lam = np.maximum(lam, 0.0)
    y = s2 / (s2 + alpha * lam) * (w.T @ v)
    z = w @ (y @ v.T)
    y_lam = y * lam
    grouping = float(np.sum(y_lam * y))
    del y

    # h^T (h z - h) + alpha (z lap), rounded as written, in two n x n
    # buffers besides z: z lap first, so the factors are freed before h z
    z_lap = w @ (y_lam @ v.T)
    del w, y_lam
    z_lap *= alpha
    hz = h @ z
    fit = hz - h
    resid = h.T @ fit
    fit = float(np.linalg.norm(fit))
    resid += z_lap
    del z_lap
    gram_norm = float(np.linalg.norm(s**2))
    bound = _Z_RESIDUAL_RTOL * max(gram_norm, 1e-12)
    resid_norm = float(np.linalg.norm(resid))
    if not resid_norm <= bound:
        raise NumericalError(
            f"representation update residual {resid_norm:.3e} exceeds bound {bound:.3e}"
        )
    s_ratio = float(s[rank - 1] / s[0]) if rank else 0.0
    return z, resid_norm / max(gram_norm, 1e-12), grouping, fit, rank, hz, s_ratio


def _check_non_increase(before: float, after: float, what: str, iteration: int) -> None:
    if after > before + _OBJ_RTOL * max(1.0, abs(before)):
        raise NumericalError(
            f"{what} objective increased at iteration {iteration}: "
            f"{before:.12g} -> {after:.12g}"
        )


class _FitData:
    """What every fit on one dataset shares: the validated data, its
    expansion as contiguous rows (``phi_rows.T`` is Phi), and ``eig(L)``.

    A plain class: a dataclass would cost the package's import a
    millisecond for code that only stores three arrays."""

    __slots__ = ("x", "phi_rows", "lap_eig")

    def __init__(self, x, s):
        x = as_matrix(x, "x")
        n = x.shape[1]
        if n < 2:
            raise ValueError(f"need at least 2 samples, got {n}")
        if float(np.max(np.abs(x))) > 1.0 + 1e-9:
            raise ValueError("data must be scaled to [-1, 1] before fitting")
        if np.shape(s) != (n, n):
            raise ValueError(f"similarity matrix is {np.shape(s)} but the data has {n} samples")
        self.x = x
        # the Laplacian is fixed for every fit: factor it once, keep the factors
        self.lap_eig = sym_eigen(laplacian(s))
        self.phi_rows = np.ascontiguousarray(expand_batch(x).T)


def _diverged(c: float, it: int, w_norm: float) -> NumericalError:
    """The error of a member whose ``|W|_F``, ``w_norm`` after the epochs of
    iteration ``it``, is not finite or grows by ``c = 1 - mu lam beta``."""
    why = ", whose magnitude exceeds 1, so they grow geometrically" if abs(c) > 1.0 else ""
    state = f"= {w_norm:.3g}" if np.isfinite(w_norm) else "is no longer finite"
    return NumericalError(
        f"weight update diverged at iteration {it}: |W|_F {state}; "
        f"each step multiplies the weights by 1 - mu*lam*beta = {c:.6g}{why}"
    )


def _epoch(w: np.ndarray, phi_rows: np.ndarray, targets: np.ndarray, order: np.ndarray,
           mu: float, beta: list, lam: list) -> None:
    """One pass of per-sample gradient steps on the stacked weights ``w``
    (K, p, p), in place, every member on the same sample order. Row ``i``
    of ``phi_rows`` is the expansion of sample ``i``, and ``targets``
    (K, p, n) holds each member's ``h @ z``, whose column ``i`` is its
    target for sample ``i``; ``beta`` and ``lam`` hold one float per
    member (``lam = 1`` for flnnsc).

    Each step is ``W <- W - mu lam (((t - target) * (1 - t^2)) phi^T +
    beta W)`` with ``t = tanh(W phi)``, that is ``W <- c W - mu lam (...)
    phi^T`` with the decay factor ``c = 1 - mu lam beta``. The steps are
    taken in blocks of ``b = min(n, p)`` consecutive samples of the order
    (:func:`sgd_block`), which apply the decay exactly from the powers
    ``c^0 .. c^b`` formed here once per pass. A block holds ``D`` (seeded
    with the block's products) and ``A``, each at most the size of ``w``
    (b is capped at p for that, and at n so a small epoch is one block),
    plus one temporary the size of ``w`` at its end.
    The rounding is not that of the gradient written out,
    but every operation acts member by member, so each member's steps are
    those of its fit alone, bit for bit, and a member whose weights are no
    longer finite touches no other: it steps on until its own
    :meth:`_Member.step` fails.
    """
    n = len(order)
    rate = mu * np.array(lam)
    c = 1.0 - rate * np.array(beta)
    b = min(n, w.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged member fails in its step
        powers = c[:, None] ** np.arange(b + 1)
        for start in range(0, n, b):
            sgd_block(w, phi_rows, targets, order[start:start + b], powers, rate[:, None])


class _Member:
    """One fit of a lockstep run: its settings, trace and current iterates
    (``grouping`` is ``tr(z1 lap z1^T)``, carried from each solve to the
    next check). Its weights and epoch targets are its rows of the run's
    stacks. ``linear`` is the row's :func:`_linear_part`, or four Nones
    for a flnnsc fit: the combination member at ``lam = 1`` with no linear
    part."""

    def __init__(self, index: int, cfg: FlnnscConfig, z: np.ndarray, linear: tuple):
        self.index, self.cfg, self.trace = index, cfg, SolveTrace()
        self.z1, self.z, self.grouping = z, z, 0.0
        self.z2, self.trace.z2_residual, self.trace.z2_obj_before, self.trace.z2_obj_after = linear

    def step(self, w: np.ndarray, target: np.ndarray, data: _FitData, it: int, mu: float) -> bool:
        """The member's part of outer iteration ``it`` once the epochs, at
        learning rate ``mu``, have stepped its weights ``w``: divergence
        check, batch forward pass, exact representation update (its
        ``h @ z1`` is copied into ``target``) and its checks, trace.
        Returns whether the fit stops here; a stop at ``|c| > 1`` fails
        instead, as its weights still grow (a saturated ``tanh`` froze z)."""
        cfg, lam, trace = self.cfg, self.cfg.lam, self.trace
        c = 1.0 - mu * lam * cfg.beta
        w_norm = float(np.linalg.norm(w))
        if not np.isfinite(w_norm):
            raise _diverged(c, it, w_norm)
        h = np.tanh(w @ data.phi_rows.T)
        obj_before = _objective(float(np.linalg.norm(h - h @ self.z1)), self.grouping, cfg.alpha)
        z1, z_residual, grouping, fit, rank, target[...], s_ratio = _zstep(
            h, data.lap_eig, cfg.alpha)
        obj_after = _objective(fit, grouping, cfg.alpha)
        _check_non_increase(obj_before, obj_after, "representation", it)

        z, objective = z1, obj_after
        if self.z2 is not None:
            z = lam * z1 + (1.0 - lam) * self.z2
            objective = lam * obj_after + (1.0 - lam) * trace.z2_obj_after
        objective += 0.5 * cfg.beta * w_norm**2
        if not np.isfinite(objective):
            raise NumericalError(f"objective became non-finite at iteration {it}")
        z_delta = float(np.linalg.norm(z - self.z)) ** 2

        trace.objective.append(float(objective))
        trace.z_delta.append(z_delta)
        trace.z_residual.append(z_residual)
        trace.zstep_obj_before.append(obj_before)
        trace.zstep_obj_after.append(obj_after)
        trace.rank.append(rank)
        trace.s_ratio.append(s_ratio)
        trace.w_norm.append(w_norm)
        self.z1, self.z, self.grouping = z1, z, grouping
        if z_delta <= cfg.tol or it == cfg.max_iters:
            if abs(c) > 1.0:
                raise _diverged(c, it, w_norm)
            trace.stop_reason = (
                "collapsed" if rank == 0 else "tol" if z_delta <= cfg.tol else "max_iters"
            )
            return True
        return False

    def representation(self) -> Representation:
        if self.z2 is None:
            return Representation(z=self.z)
        return Representation(z=self.z, z1=self.z1, z2=self.z2)


def _linear_part(x: np.ndarray, lap_eig: tuple, alpha: float):
    """The combination model's linear representation (``h = x``), its
    residual, and the partial objective before (``z = 0``) and after it."""
    before = _objective(float(np.linalg.norm(x)), 0.0, alpha)
    z2, residual, grouping, fit = _zstep(x, lap_eig, alpha)[:4]
    after = _objective(fit, grouping, alpha)
    _check_non_increase(before, after, "linear part", 0)
    return z2, residual, before, after


def _fit_lockstep(data: _FitData, cfgs: list) -> list:
    """The alternating fit, run for K members at once on shared data:
    ``cfgs`` holds one :class:`FlnnscConfig` (a flnnsc fit) or
    :class:`CcscConfig` (a ccsc fit) per member. Returns, per member,
    ``(representation, w, trace)`` or the exception its fit alone raises.

    The members share the seed, mu, mu_decay, inner_epochs and alpha, so
    they share the initial weights, every epoch's sample order, every
    learning rate and, for ccsc, the linear part, solved once before the
    network is initialised (if that raises, the one exception is every
    member's result); each reads its own beta, lam (1 for flnnsc) and
    stopping rule from its config. Each member owns a row of the stacked
    weights and of the epoch targets, the ``h @ z1`` of its last update
    (zero at the start). Each outer iteration steps the weights through
    the epochs together (:func:`_epoch`), then runs each member's
    divergence check, forward pass and exact representation update
    (:meth:`_Member.step`) in turn. A member that stops or fails leaves
    both stacks; the others go on. Every member's result is bit for bit
    that of its fit alone (K = 1).

    A member's per-iteration ``seconds`` count the shared epochs in full
    plus its own update.
    """
    first = cfgs[0]
    shared = ("seed", "mu", "mu_decay", "inner_epochs", "alpha")
    if any(getattr(cfg, f) != getattr(first, f) for cfg in cfgs for f in shared):
        raise ValueError(f"lockstep members must share {', '.join(shared)}")
    if len({type(c) for c in cfgs}) > 1:
        raise ValueError("lockstep members must be all flnnsc or all ccsc fits")

    x, n = data.x, data.x.shape[1]
    linear = (None,) * 4  # (z2, its residual, objective before, after); flnnsc has none
    if isinstance(first, CcscConfig):
        try:
            linear = _linear_part(x, data.lap_eig, first.alpha)
        except Exception as exc:  # every member's fit raises it
            return [exc] * len(cfgs)
    rng = np.random.default_rng(first.seed)
    w0 = init_network(x.shape[0], rng)
    z0 = np.zeros((n, n))  # every member starts from it; none writes it in place
    fits = [_Member(index, cfg, z0, linear) for index, cfg in enumerate(cfgs)]
    del z0  # the members hold it until their first update
    results: list = [None] * len(fits)

    w = np.empty((len(fits),) + w0.shape)
    w[...] = w0
    targets = np.zeros((len(fits), len(w0), n))  # z = 0, so h z = 0
    it = 0
    while fits:
        it += 1
        tic = time.perf_counter()
        mu = first.mu * first.mu_decay ** (it - 1)
        beta, lam = [m.cfg.beta for m in fits], [m.cfg.lam for m in fits]
        for _ in range(first.inner_epochs):
            _epoch(w, data.phi_rows, targets, rng.permutation(n), mu, beta, lam)
        epoch_seconds = time.perf_counter() - tic

        going = []
        for k, m in enumerate(fits):
            tic = time.perf_counter()
            try:
                stopped = m.step(w[k], targets[k], data, it, mu)
            except Exception as exc:  # this member's fit raises it; the others go on
                results[m.index] = exc
                continue
            m.trace.seconds.append(epoch_seconds + time.perf_counter() - tic)
            if stopped:
                results[m.index] = (m.representation(), w[k].copy(), m.trace)
            else:
                going.append(k)
        if len(going) < len(fits):
            fits = [fits[k] for k in going]
            w, targets = w[going], targets[going]
    return results


def _fit(x, s, cfg, fitted):
    """The fit of one configuration: the K = 1 case of :func:`_fit_lockstep`,
    or ``fitted`` when a row fit already ran it."""
    result = _fit_lockstep(_FitData(x, s), [cfg])[0] if fitted is None else fitted
    if isinstance(result, Exception):
        raise result
    return result


def fit_flnnsc(x, s, cfg: FlnnscConfig, *, _fitted=None):
    """Alternating fit of the nonlinear self-representation model on the
    data ``x`` (features x samples) and the k-nn similarity matrix ``s``.

    Each outer iteration runs ``inner_epochs`` passes of per-sample
    weight updates (network outputs fixed at the previous batch forward
    pass), recomputes the batch outputs, and solves exactly for the
    representation. Stops when the squared change of the representation
    falls to ``cfg.tol`` or after ``cfg.max_iters`` iterations;
    ``trace.stop_reason`` says which, or ``collapsed`` when the last
    update kept no singular value (the network output vanished, so the
    representation is zero).

    Returns ``(representation, w, trace)``, ``w`` being the fitted weights.

    ``_fitted``, when a row fit (:func:`_fit_lockstep`) already ran this
    configuration, is its outcome: returned or raised as this call's, so
    every fit of a run, alone or in a row, is one call of this function.
    """
    return _fit(x, s, cfg, _fitted)


def fit_ccsc(x, s, cfg: CcscConfig, *, _fitted=None):
    """Alternating fit of the convex-combination model.

    ``cfg`` holds :class:`FlnnscConfig`'s settings plus ``lam``, e.g.
    ``CcscConfig(alpha=1, beta=0.1, lam=0.3)``. Identical alternation with
    the gradient scaled by ``lam``; the linear representation (solved
    from the raw data) has no dependence on the network, so it is
    computed once, before the network is built. The returned
    representation blends the two parts: ``z = lam z1 + (1 - lam) z2``.
    At ``lam = 1`` the run reproduces :func:`fit_flnnsc` exactly under
    the same seed. ``s`` and ``_fitted`` are as in :func:`fit_flnnsc`.
    """
    return _fit(x, s, cfg, _fitted)


def fit_lsr(x, lambda_reg: float) -> Representation:
    """Frobenius-regularized least-squares baseline.

    Closed form: ``z`` solves ``(x^T x + lambda I) z = x^T x``, the
    combination model's linear part with the identity in place of the
    Laplacian, whose eigendecomposition is known and not computed.
    """
    x = as_matrix(x, "x")
    if not 0.0 < lambda_reg < np.inf:
        raise ValueError(f"lambda_reg must be finite and positive, got {lambda_reg}")
    n = x.shape[1]
    return Representation(z=_linear_part(x, (np.ones(n), np.eye(n)), lambda_reg)[0])


def fit_linear_smr(x, s, alpha: float) -> Representation:
    """Linear smooth-representation baseline: the combination model's
    linear part, solved on the raw data with the Laplacian of the
    similarity matrix ``s``."""
    x = as_matrix(x, "x")
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
    n = x.shape[1]
    if np.shape(s) != (n, n):
        raise ValueError(f"similarity matrix is {np.shape(s)} but the data has {n} samples")
    return Representation(z=_linear_part(x, sym_eigen(laplacian(s)), alpha)[0])
