"""Stochastic update rules over minibatch subgradients: plain SGD, online
BFGS, and online Nesterov-accelerated quasi-Newton.

Both quasi-Newton methods take a normalized direction -H*grad, step with a
decaying rate, re-evaluate the gradient at the new point on the same
minibatch, and feed the damped difference pair into the inverse rank-two
update. The damping term lambda*s added to the gradient difference keeps the
curvature product positive on most steps; a relative curvature floor guards
the remaining ones, skipping the matrix update but keeping the step.

``cfg`` is the run's ``TrainConfig``: ``subgradient`` reads its ``C`` and
``weight_mode``, the quasi-Newton steps its ``damping`` and oNAQ its ``mu``.
The caller counts the steps and passes each step's size as ``rate``. The steps
and ``QuasiNewtonState.initial`` check nothing but the dense-H size: they
expect a batch fit for ``subgradient`` and finite eps_h > 0, damping >= 0 and
0 <= mu < 1, which ``train()`` and ``TrainConfig`` guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .objective import _dot, subgradient

# Skip the H update when y.s <= floor * ||s|| * ||y||: below a cosine of ~1e-5 H may not factor.
CURVATURE_FLOOR = 1e-4

# Largest dense inverse Hessian a quasi-Newton run may allocate (d >= 16,385
# is refused); the sgd optimizer keeps no d x d state.
MAX_DENSE_H_BYTES = 2**31

# Scratch buffer of the blocked H update (512 KiB; 32 rows at d = 2,001).
# A block's product has m*n*k <= 2^17, which OpenBLAS 0.3.31 runs on the
# calling thread.
_BLOCK_ELEMS = 2**16

# Largest row block of _matvec (1 MiB of H; 64 rows at d = 2,001). OpenBLAS
# 0.3.31 runs a gemv this size on the calling thread, so its idle workers stay
# asleep and the bytes do not depend on the thread count; 256 x 2,001 woke one.
_MATVEC_ELEMS = 2**17


@dataclass
class QuasiNewtonState:
    """Mutable per-run state: inverse-Hessian approximation H and velocity v."""

    H: np.ndarray
    v: np.ndarray

    @classmethod
    def initial(cls, dim: int, eps_h: float = 1.0) -> "QuasiNewtonState":
        need = dim * dim * 8
        if need > MAX_DENSE_H_BYTES:
            raise MemoryError(f"a dense {dim} x {dim} inverse Hessian needs {need / 2**30:.2f} GiB, "
                              f"above the {MAX_DENSE_H_BYTES / 2**30:g} GiB bound")
        H = np.eye(dim)
        H *= eps_h
        return cls(H=H, v=np.zeros(dim))


def bfgs_inverse_update(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(I - rho s y^T) H (I - rho y s^T) + rho s s^T, rho = 1/y.s, as H + p p^T - q q^T.

    Overwrites the float64 array ``H`` with the update and returns it. With
    u = H y (by ``_matvec``, so with the 1-thread BLAS bytes at any thread
    count) and z = u - (rho y.u + 1)/2 s, the update is H - rho (s z^T + z s^T).
    Balanced as a = lam s, b = z/lam with lam = sqrt(||z||/||s||) (1 when
    z = 0), that is H + p p^T - q q^T with p = sqrt(rho/2)(a - b) and
    q = sqrt(rho/2)(a + b). Each block of rows gets the k = 2 product
    [p q][rows] @ [p; -q] in a scratch buffer of ``_BLOCK_ELEMS`` elements,
    then adds it, so no d x d temporary is allocated. Element (i, j) adds
    p_i p_j - q_i q_j and element (j, i) the same two products with their
    factors swapped, so a symmetric H stays exactly symmetric, with or
    without FMA, as long as every block goes through the same gemm: the
    block before a 1-row tail, which numpy would send to gemv, ends a row
    early. A block's m*n*k <= 2^17 keeps OpenBLAS 0.3.31 on the calling
    thread, so the bytes do not depend on the thread count. One update
    takes ~5.5 ms at d = 2,001 and ~42 us at d = 124 on one 2-core Xeon
    (~18 ms and ~67 us for the element-wise s u^T + u s^T form it
    replaced); at d = 3 both take ~16 us.
    In exact arithmetic it preserves positive definiteness whenever
    y.s > 0; a pair below the curvature floor raises ValueError and leaves
    H unchanged.
    """
    ys = _dot(y, s)
    if not _curvature_ok(s, y):
        raise ValueError(f"curvature y.s={ys} too small for a stable update")
    rho = 1.0 / ys
    u = _matvec(H, y)
    z = u - 0.5 * (rho * _dot(y, u) + 1.0) * s
    nz = math.sqrt(_dot(z, z))
    lam = math.sqrt(nz / math.sqrt(_dot(s, s))) if nz > 0.0 else 1.0
    a, b = lam * s, z / lam
    d = len(s)
    R = np.empty((2, d))
    np.subtract(a, b, out=R[0])
    np.add(a, b, out=R[1])
    R *= math.sqrt(rho / 2.0)
    L = R.T.copy()  # [p q]
    np.negative(R[1], out=R[1])  # [p; -q]
    rows = min(d, _BLOCK_ELEMS // d)
    scratch = np.empty((rows, d))
    i = 0
    while i < d:
        j = min(d, i + rows)
        if d - j == 1:  # numpy takes a 1-row product through gemv, which rounds differently
            j -= 1
        out = scratch[:j - i]
        np.matmul(L[i:j], R, out=out)
        H[i:j] += out
        i = j
    return H


def _matvec(H: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H @ v for a C-ordered square H through ``_row_blocks``' fixed row
    blocks: each runs on the calling thread and rounds its rows as the
    1-thread H @ v does. Up to ``_MATVEC_ELEMS`` elements H is one block."""
    if H.size <= _MATVEC_ELEMS:
        return H @ v
    out = np.empty(len(H))
    start = 0
    for stop in _row_blocks(len(H)):
        np.matmul(H[start:stop], v, out=out[start:stop])
        start = stop
    return out


def _row_blocks(d: int) -> list[int]:
    """Stops of ``_matvec``'s row blocks over d rows. Each block starts at a
    multiple of 4, has at least 4 rows (a shorter tail joins the block before
    it) and at most ``_MATVEC_ELEMS`` elements (the blocks shrink by 4 rows
    until the joined tail fits). The gemv kernel takes rows in fours: blocks
    of 1-3 or 5 rows, or a 1-row tail, rounded differently from H @ v."""
    rows = max(4, _MATVEC_ELEMS // d // 4 * 4)
    while rows > 4 and 0 < d % rows < 4 and (rows + d % rows) * d > _MATVEC_ELEMS:
        rows -= 4
    return [*range(rows, d - 3, rows), d]


def _curvature_ok(s: np.ndarray, y: np.ndarray) -> bool:
    """y.s above the floor, and ||s|| ||y|| neither 0 (squares underflowed)
    nor infinite (overflowed)."""
    return _dot(y, s) > CURVATURE_FLOOR * math.sqrt(_dot(s, s)) * math.sqrt(_dot(y, y)) > 0.0


def sgd_step(w: np.ndarray, X, y: np.ndarray, alpha: np.ndarray,
             cfg, rate: float) -> np.ndarray:
    """w - rate * grad on the minibatch."""
    return w - rate * subgradient(w, X, y, alpha, cfg)


def obfgs_step(w: np.ndarray, state: QuasiNewtonState, X, y: np.ndarray, alpha: np.ndarray,
               cfg, rate: float) -> np.ndarray:
    """One online-BFGS step; mutates ``state`` (H, v) and returns the new w.

    A zero search direction skips the step; a curvature pair below the floor
    skips only the H update.
    """
    return _qn_step(w, state, X, y, alpha, cfg, rate, 0.0)


def onaq_step(w: np.ndarray, state: QuasiNewtonState, X, y: np.ndarray, alpha: np.ndarray,
              cfg, rate: float) -> np.ndarray:
    """One online Nesterov-accelerated quasi-Newton step with momentum
    ``cfg.mu``; mutates ``state``.

    The first gradient is taken at the lookahead point w + mu*v; the curvature
    pair is formed between the new iterate and the lookahead point.
    """
    return _qn_step(w, state, X, y, alpha, cfg, rate, cfg.mu)


def _qn_step(w: np.ndarray, state: QuasiNewtonState, X, y: np.ndarray, alpha: np.ndarray,
             cfg, rate: float, mu: float) -> np.ndarray:
    """The shared quasi-Newton step with momentum ``mu``.

    With mu = 0 this is the online-BFGS step bit for bit: w never holds -0.0,
    so w + 0*v == w, and 0*v + r*d differs from r*d only in the sign of a zero.
    """
    look = w + mu * state.v
    g1 = subgradient(look, X, y, alpha, cfg)
    direction = -_matvec(state.H, g1)
    nrm = math.sqrt(_dot(direction, direction))
    if nrm == 0.0:
        return w
    direction /= nrm
    v_new = mu * state.v + rate * direction
    w_new = w + v_new
    g2 = subgradient(w_new, X, y, alpha, cfg)
    s = w_new - look
    yvec = g2 - g1 + cfg.damping * s
    if _curvature_ok(s, yvec):
        state.H = bfgs_inverse_update(state.H, s, yvec)
    state.v = v_new
    return w_new
