"""Weighted soft-margin objective and its minibatch subgradient.

Two placements of the per-sample weights are supported. REGULARIZER averages
``(a_i*C/2)*||w||^2 + hinge_i`` over the batch, so the weights scale the
squared-norm term; it is the default. HINGE is the conventional weighted SVM,
``(C/2)*||w||^2 + mean(a_i*hinge_i)``, where the weights scale each sample's
hinge loss. With all weights equal to 1 the two coincide.

Vectors are expected in augmented form (bias as the last component) but the
functions are agnostic to that convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class WeightMode(Enum):
    REGULARIZER = "regularizer"
    HINGE = "hinge"


@dataclass(frozen=True)
class ObjectiveConfig:
    C: float = 1.0
    weight_mode: WeightMode = WeightMode.REGULARIZER

    def __post_init__(self) -> None:
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if np.isinf(self.C):
            raise ValueError(f"C must be finite, got {self.C}")


def _margins(w: np.ndarray, X, y: np.ndarray) -> np.ndarray:
    return y * (np.asarray(X @ w).ravel())


def _check_batch(y: np.ndarray, alpha: np.ndarray) -> None:
    if len(y) == 0:
        raise ValueError("empty batch")
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise ValueError("weights must lie in [0, 1]")


def loss(w: np.ndarray, X, y: np.ndarray, alpha: np.ndarray, cfg: ObjectiveConfig) -> float:
    """Batch-mean weighted soft-margin objective value."""
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    _check_batch(y, alpha)
    hinge = np.maximum(0.0, 1.0 - _margins(w, X, y))
    sq = float(w @ w)
    if cfg.weight_mode is WeightMode.REGULARIZER:
        return float(alpha.mean() * cfg.C / 2.0 * sq + hinge.mean())
    return float(cfg.C / 2.0 * sq + (alpha * hinge).mean())


def subgradient(w: np.ndarray, X, y: np.ndarray, alpha: np.ndarray, cfg: ObjectiveConfig) -> np.ndarray:
    """Batch-mean subgradient; at a margin of exactly 1 the hinge contributes 0."""
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    _check_batch(y, alpha)
    k = len(y)
    viol = _margins(w, X, y) < 1.0
    if cfg.weight_mode is WeightMode.REGULARIZER:
        coef = y
        reg = alpha.mean() * cfg.C * w
    else:
        coef = alpha * y
        reg = cfg.C * w
    pull = np.asarray(X.T @ np.where(viol, coef, 0.0)).ravel() / k
    return reg - pull
