"""Weighted soft-margin objective and its minibatch subgradient.

Two placements of the per-sample weights are supported. REGULARIZER averages
``(a_i*C/2)*||w||^2 + hinge_i`` over the batch, so the weights scale the
squared-norm term; it is the default. HINGE is the conventional weighted SVM,
``(C/2)*||w||^2 + mean(a_i*hinge_i)``, where the weights scale each sample's
hinge loss. With all weights equal to 1 the two coincide.

Vectors are expected in augmented form (bias as the last component) but the
functions are agnostic to that convention.

``loss`` and ``subgradient`` read ``C`` and ``weight_mode`` from ``cfg``, the
run's ``TrainConfig``, and check nothing: they expect a non-empty float64
batch and weights in [0, 1] without NaN. ``train()`` guarantees both through
its sampler and its weights, made from distances it checks to be finite.
``loss`` takes the batch's scores ``X @ w``, so a caller that has them already
does not compute them again. ``subgradient``'s ``X`` is a CSR matrix, a 2-D
ndarray or a ``data.RowBatch``: each ``X @ w`` and ``X.T @ v`` is a new 1-D
float64 array.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class WeightMode(Enum):
    REGULARIZER = "regularizer"
    HINGE = "hinge"


def loss(w: np.ndarray, scores: np.ndarray, y: np.ndarray, alpha: np.ndarray, cfg) -> float:
    """Batch-mean weighted soft-margin objective value at ``w``, whose scores
    ``X @ w`` on the batch are ``scores``."""
    k = len(y)
    hinge = np.maximum(0.0, 1.0 - y * scores)
    sq = float(w @ w)
    if cfg.weight_mode is WeightMode.REGULARIZER:
        return float(np.add.reduce(alpha) / k * cfg.C / 2.0 * sq + np.add.reduce(hinge) / k)
    return float(cfg.C / 2.0 * sq + np.add.reduce(alpha * hinge) / k)


def subgradient(w: np.ndarray, X, y: np.ndarray, alpha: np.ndarray, cfg) -> np.ndarray:
    """Batch-mean subgradient; at a margin of exactly 1 the hinge contributes 0."""
    k = len(y)
    viol = y * (X @ w) < 1.0
    if cfg.weight_mode is WeightMode.REGULARIZER:
        coef = y
        reg = np.add.reduce(alpha) / k * cfg.C * w
    else:
        coef = alpha * y
        reg = cfg.C * w
    pull = X.T @ np.where(viol, coef, 0.0)
    pull /= k
    return reg - pull
