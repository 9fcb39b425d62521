"""Stochastic update rules over minibatch subgradients: plain SGD, online
BFGS, and online Nesterov-accelerated quasi-Newton.

Both quasi-Newton methods take a normalized direction -H*grad, step with a
decaying rate, re-evaluate the gradient at the new point on the same
minibatch, and feed the damped difference pair into the inverse rank-two
update. The damping term lambda*s added to the gradient difference keeps the
curvature product positive on most steps; a relative curvature floor guards
the remaining ones, skipping the matrix update but keeping the step.

The steps and ``QuasiNewtonState.initial`` check nothing but the dense-H size:
they expect a batch fit for ``objective.subgradient`` and finite eps_h > 0,
damping >= 0 and 0 <= mu < 1, which ``train()`` and ``TrainConfig`` guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from .objective import ObjectiveConfig, subgradient

# Skip the H update when y.s <= floor * ||s|| * ||y||: below a cosine of ~1e-5 H may not factor.
CURVATURE_FLOOR = 1e-4

# Largest dense inverse Hessian a quasi-Newton run may allocate (d >= 16,385
# is refused); the sgd optimizer keeps no d x d state.
MAX_DENSE_H_BYTES = 2**31

# Scratch budget of the blocked H update: its four rows x d float64 buffers
# hold at most 2 * _BLOCK_ELEMS elements (512 KiB) together.
_BLOCK_ELEMS = 2**15


class ScheduleKind(Enum):
    CONSTANT = "constant"
    TAU_DECAY = "tau"
    SQRT_DECAY = "sqrt"


@dataclass(frozen=True)
class StepSchedule:
    """Step size at step k >= 1: alpha0, (tau/(tau+k))*alpha0, or alpha0/sqrt(k)."""

    kind: ScheduleKind
    alpha0: float = 1.0
    tau: float = 10.0

    def __post_init__(self) -> None:
        if not (self.alpha0 >= 0 and self.tau > 0):
            raise ValueError(f"alpha0 must be nonnegative and tau positive, "
                             f"got alpha0={self.alpha0}, tau={self.tau}")
        for key, v in (("alpha0", self.alpha0), ("tau", self.tau)):
            if math.isinf(v):
                raise ValueError(f"{key} must be finite, got {v}")

    def rate(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"step counter must be >= 1, got {k}")
        if self.kind is ScheduleKind.CONSTANT:
            return self.alpha0
        if self.kind is ScheduleKind.TAU_DECAY:
            return self.tau / (self.tau + k) * self.alpha0
        return self.alpha0 / math.sqrt(k)


@dataclass
class QuasiNewtonState:
    """Mutable per-run state: inverse-Hessian approximation H, velocity v,
    step counter k, damping lambda, and momentum mu."""

    H: np.ndarray
    v: np.ndarray
    k: int = 1
    damping: float = 0.2
    mu: float = 0.1

    @classmethod
    def initial(cls, dim: int, eps_h: float = 1.0, damping: float = 0.2, mu: float = 0.1) -> "QuasiNewtonState":
        need = dim * dim * 8
        if need > MAX_DENSE_H_BYTES:
            raise MemoryError(f"a dense {dim} x {dim} inverse Hessian needs {need / 2**30:.2f} GiB, "
                              f"above the {MAX_DENSE_H_BYTES / 2**30:g} GiB bound")
        H = np.eye(dim)
        H *= eps_h
        return cls(H=H, v=np.zeros(dim), k=1, damping=damping, mu=mu)


def bfgs_inverse_update(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(I - s y^T/y.s) H (I - y s^T/y.s) + s s^T/y.s, expanded symmetrically.

    Overwrites the float64 array ``H`` with the update and returns it. With
    rho = 1/y.s, u = H y and c = rho^2 y.u + rho, element (i, j) becomes
    (H_ij - rho*(s_i*u_j + u_i*s_j)) + c*(s_i*s_j), rounded in that order,
    so a symmetric H stays exactly symmetric. Rows are updated in blocks
    through four small scratch buffers, so no d x d temporary is allocated:
    each outer product is a column of s or u broadcast across a block, then
    multiplied in place by a row-tiled copy of u or s made once per call;
    numpy's broadcast product np.multiply(s[:, None], u, out) rounds the
    same but is slower (at d = 2,001, ~27 against ~21 ms per update on one
    2-core Xeon).
    In exact arithmetic it preserves positive definiteness whenever
    y.s > 0; a pair below the curvature floor raises ValueError and leaves
    H unchanged.
    """
    ys = float(y @ s)
    if not _curvature_ok(s, y):
        raise ValueError(f"curvature y.s={ys} too small for a stable update")
    rho = 1.0 / ys
    u = H @ y
    c = rho * rho * float(y @ u) + rho
    d = len(s)
    rows = min(d, max(1, _BLOCK_ELEMS // (2 * d)))
    a_buf, b_buf, u_rows, s_rows = (np.empty((rows, d)) for _ in range(4))
    u_rows[...] = u
    s_rows[...] = s
    s_col, u_col = s[:, None], u[:, None]
    for i in range(0, d, rows):
        j = i + rows
        blk = H[i:j]
        n = len(blk)
        a, b = a_buf[:n], b_buf[:n]
        a[...] = s_col[i:j]
        a *= u_rows[:n]
        b[...] = u_col[i:j]
        b *= s_rows[:n]
        a += b
        a *= rho
        blk -= a
        b[...] = s_col[i:j]
        b *= s_rows[:n]
        b *= c
        blk += b
    return H


def _curvature_ok(s: np.ndarray, y: np.ndarray) -> bool:
    return float(y @ s) > CURVATURE_FLOOR * np.linalg.norm(s) * np.linalg.norm(y)


def sgd_step(w: np.ndarray, X, y: np.ndarray, alpha: np.ndarray,
             cfg: ObjectiveConfig, schedule: StepSchedule, k: int) -> np.ndarray:
    """w - rate(k) * grad on the minibatch."""
    return w - schedule.rate(k) * subgradient(w, X, y, alpha, cfg)


def obfgs_step(w: np.ndarray, state: QuasiNewtonState, X, y: np.ndarray, alpha: np.ndarray,
               cfg: ObjectiveConfig, schedule: StepSchedule) -> np.ndarray:
    """One online-BFGS step; mutates ``state`` (H, v, k) and returns the new w.

    A zero search direction skips the step (counter still advances); a
    curvature pair below the floor skips only the H update.
    """
    return _qn_step(w, state, X, y, alpha, cfg, schedule, 0.0)


def onaq_step(w: np.ndarray, state: QuasiNewtonState, X, y: np.ndarray, alpha: np.ndarray,
              cfg: ObjectiveConfig, schedule: StepSchedule) -> np.ndarray:
    """One online Nesterov-accelerated quasi-Newton step; mutates ``state``.

    The first gradient is taken at the lookahead point w + mu*v; the curvature
    pair is formed between the new iterate and the lookahead point.
    """
    return _qn_step(w, state, X, y, alpha, cfg, schedule, state.mu)


def _qn_step(w: np.ndarray, state: QuasiNewtonState, X, y: np.ndarray, alpha: np.ndarray,
             cfg: ObjectiveConfig, schedule: StepSchedule, mu: float) -> np.ndarray:
    """The shared quasi-Newton step with momentum ``mu``.

    With mu = 0 this is the online-BFGS step bit for bit: w never holds -0.0,
    so w + 0*v == w, and 0*v + r*d differs from r*d only in the sign of a zero.
    """
    look = w + mu * state.v
    g1 = subgradient(look, X, y, alpha, cfg)
    direction = -(state.H @ g1)
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:
        state.k += 1
        return w
    direction /= nrm
    v_new = mu * state.v + schedule.rate(state.k) * direction
    w_new = w + v_new
    g2 = subgradient(w_new, X, y, alpha, cfg)
    s = w_new - look
    yvec = g2 - g1 + state.damping * s
    if _curvature_ok(s, yvec):
        state.H = bfgs_inverse_update(state.H, s, yvec)
    state.v = v_new
    state.k += 1
    return w_new
