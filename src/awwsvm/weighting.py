"""Distance-driven per-sample weights and wrong-side noise elimination.

The weight of a sample at unsigned distance d from the hyperplane is

    2/(sqrt(2*pi)*sigma) * exp(-d^2 / (2*sigma^2))  +  (1/(M-m)) * exp(-d/(M-m))

clamped into [0,1], where M and m are the max/min unsigned distances over the
currently active samples. The Gaussian term dominates near the hyperplane;
the exponential term normalizes for the spread of the distances. The raw
(unclamped) function integrates to exactly 2 over [0, inf) for any sigma > 0
and M > m.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np


class NoiseMode(Enum):
    SIGNED_SIDE = "signed"
    RAW_DOT = "rawdot"


@dataclass
class WeightState:
    """Per-sample weights plus the permanent active mask.

    ``M``/``m`` are the max/min unsigned distances seen at the most recent
    update. Samples flagged as noise are deactivated for good: their weight is
    pinned to 0 and they never re-enter a minibatch.
    """

    alpha: np.ndarray
    active: np.ndarray
    sigma: float = 1.0
    M: float = float("nan")
    m: float = float("nan")


def init_weights(l: int, sigma: float = 1.0) -> WeightState:
    """Uniform initial weights 2/l (clamped into [0,1]); everything active."""
    if l < 1:
        raise ValueError("need at least one sample")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    alpha = np.full(l, min(2.0 / l, 1.0), dtype=np.float64)
    return WeightState(alpha=alpha, active=np.ones(l, dtype=bool), sigma=sigma)


def aw_raw(d, sigma: float, spread: float):
    """Unclamped weight at unsigned distance ``d`` with distance spread M-m."""
    d = np.asarray(d, dtype=np.float64)
    gauss = 2.0 / (math.sqrt(2.0 * math.pi) * sigma) * np.exp(-(d ** 2) / (2.0 * sigma ** 2))
    rate = 1.0 / spread
    # a subnormal spread overflows the reciprocal; dividing avoids inf * 0 = NaN
    tail = rate * np.exp(-d / spread) if math.isfinite(rate) else np.exp(-d / spread) / spread
    return gauss + tail


def aw_value(d, sigma: float, M: float, m: float):
    """Weight at unsigned distance ``d``, clamped into [0,1]. Requires M > m."""
    if M <= m:
        raise ValueError(f"requires M > m, got M={M}, m={m}")
    return np.clip(aw_raw(d, sigma, M - m), 0.0, 1.0)


def update_weights(state: WeightState, signed_distances: np.ndarray) -> WeightState:
    """Refresh M, m and the active samples' weights from current distances.

    ``signed_distances`` is aligned with the full sample array; inactive
    entries are ignored and their weight stays 0. If all active distances are
    equal (M == m) only the Gaussian term is used (an infinite spread, whose
    term is exactly 0), since the spread term is undefined at zero spread.
    """
    if not np.any(state.active):
        raise ValueError("no active samples")
    signed_distances = np.asarray(signed_distances, dtype=np.float64)
    if signed_distances.shape != state.alpha.shape:
        raise ValueError(f"need one distance per sample: got {signed_distances.shape}, "
                         f"expected {state.alpha.shape}")
    d_abs = np.abs(signed_distances)[state.active]
    M = float(d_abs.max())
    m = float(d_abs.min())
    spread = M - m if M > m else math.inf
    state.alpha[state.active] = np.clip(aw_raw(d_abs, state.sigma, spread), 0.0, 1.0)
    state.alpha[~state.active] = 0.0
    state.M = M
    state.m = m
    return state


def detect_noise(signed_distances: np.ndarray, labels: np.ndarray, active: np.ndarray,
                 mode: NoiseMode = NoiseMode.SIGNED_SIDE, X=None) -> np.ndarray:
    """Indices of active samples flagged as noise, per class.

    SIGNED_SIDE flags a sample iff its signed distance has a non-positive
    product with every other active classmate's distance, i.e. it sits on the
    opposite side of the hyperplane from all of them (distance exactly 0
    counts as opposite to everything). RAW_DOT is the literal feature-space
    rule: flag iff the raw inner product <x_i, x_j> is <= 0 for every other
    active classmate; it needs the non-augmented feature matrix ``X`` and
    costs O(k^2) products per class. A class with fewer than two active
    samples produces no flags.
    """
    signed_distances = np.asarray(signed_distances, dtype=np.float64)
    labels = np.asarray(labels)
    flagged: list[np.ndarray] = []
    for cls in (1, -1):
        idx = np.where(active & (labels == cls))[0]
        if len(idx) < 2:
            continue
        if mode is NoiseMode.SIGNED_SIDE:
            d = signed_distances[idx]
            n_pos = int(np.sum(d > 0))
            n_neg = int(np.sum(d < 0))
            local = (d == 0) | ((d > 0) & (n_pos == 1)) | ((d < 0) & (n_neg == 1))
        elif mode is NoiseMode.RAW_DOT:
            if X is None:
                raise ValueError("RAW_DOT mode needs the feature matrix")
            local = _rawdot_flags(X, idx)
        else:
            raise ValueError(f"unknown noise mode {mode}")
        if np.any(local):
            flagged.append(idx[local])
    if not flagged:
        return np.array([], dtype=np.int64)
    return np.sort(np.concatenate(flagged))


def _rawdot_flags(X, idx: np.ndarray, chunk: int = 512) -> np.ndarray:
    """For each sample in idx: is max_{j != i} <x_i, x_j> <= 0 within idx?"""
    Xc = X[idx]
    k = len(idx)
    best = np.full(k, -np.inf)
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        G = np.asarray((Xc @ Xc[start:stop].T).todense() if hasattr(Xc, "todense") else Xc @ Xc[start:stop].T)
        for col, j in enumerate(range(start, stop)):
            G[j, col] = -np.inf
        best = np.maximum(best, G.max(axis=1))
    return best <= 0.0
