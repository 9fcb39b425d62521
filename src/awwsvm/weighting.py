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

from enum import Enum
import math

import numpy as np


class NoiseMode(Enum):
    SIGNED_SIDE = "signed"
    RAW_DOT = "rawdot"


def init_weights(l: int) -> np.ndarray:
    """Uniform initial weights 2/l, clamped into [0,1]."""
    if l < 1:
        raise ValueError("need at least one sample")
    return np.full(l, min(2.0 / l, 1.0), dtype=np.float64)


def aw_raw(d, sigma: float, spread: float):
    """Unclamped weight at unsigned distance ``d`` with distance spread M-m."""
    d = np.asarray(d, dtype=np.float64)
    rate = 1.0 / spread
    # overflow to inf is the right limit: d ** 2 = inf (|d| > ~1.3e154) makes the
    # Gaussian term 0, sigma ** 2 = inf makes its exponential 1 (a float's ** would
    # raise), and a subnormal spread gives an inf weight that clamps to 1.
    # Such a spread also overflows the reciprocal; dividing avoids inf * 0 = NaN
    with np.errstate(over="ignore"):
        gauss = (2.0 / (math.sqrt(2.0 * math.pi) * sigma)
                 * np.exp(-(d ** 2) / (2.0 * np.float64(sigma) ** 2)))
        tail = rate * np.exp(-d / spread) if math.isfinite(rate) else np.exp(-d / spread) / spread
    return gauss + tail


def update_weights(signed_distances: np.ndarray, active: np.ndarray, sigma: float) -> np.ndarray:
    """Weights of the active samples from their current distances; 0 elsewhere.

    ``signed_distances`` and ``active`` are aligned with the full sample array;
    M and m are taken over the active entries. If all active distances are
    equal (M == m) only the Gaussian term is used (an infinite spread, whose
    term is exactly 0), since the spread term is undefined at zero spread.
    """
    active = np.asarray(active, dtype=bool)
    if not np.any(active):
        raise ValueError("no active samples")
    signed_distances = np.asarray(signed_distances, dtype=np.float64)
    if signed_distances.shape != active.shape:
        raise ValueError(f"need one distance per sample: got {signed_distances.shape}, "
                         f"expected {active.shape}")
    d_abs = np.abs(signed_distances[active])
    M = float(d_abs.max())
    m = float(d_abs.min())
    spread = M - m if M > m else math.inf
    alpha = np.zeros(active.shape)
    alpha[active] = np.clip(aw_raw(d_abs, sigma, spread), 0.0, 1.0)
    return alpha


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
            n_pos = int(np.count_nonzero(d > 0))
            n_neg = int(np.count_nonzero(d < 0))
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
