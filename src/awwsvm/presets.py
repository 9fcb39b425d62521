"""Tuned per-dataset hyperparameters for the usual public benchmark files.

Every preset shares tau = 10, damping = 0.2 and momentum mu = 0.1; the
learning rate applies to SGD only (the quasi-Newton schedules start at
alpha0 = 1). The iteration budget is split as 10 outer rounds of
``iters // 10`` optimizer steps each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .trainer import Optimizer, TrainConfig


@dataclass(frozen=True)
class Preset:
    sgd_lr: float
    sgd_iters: int
    sgd_batch: int
    qn_iters: int
    qn_batch: int


PRESETS: dict[str, Preset] = {
    "a7a": Preset(0.1, 50, 256, 100, 128),
    "a8a": Preset(0.1, 100, 32, 100, 128),
    "a9a": Preset(0.1, 50, 256, 100, 128),
    "mushroom": Preset(0.1, 50, 256, 100, 64),
    "yeast": Preset(0.3, 50, 128, 50, 64),
    "ijcnn1": Preset(0.5, 50, 64, 50, 64),
    "w1a": Preset(0.5, 50, 64, 50, 64),
    "w2a": Preset(0.5, 50, 64, 50, 64),
    "w3a": Preset(0.5, 50, 64, 50, 64),
    "w4a": Preset(0.5, 50, 64, 50, 64),
    "w5a": Preset(0.5, 50, 64, 50, 64),
    "w6a": Preset(0.5, 50, 64, 50, 64),
}

OUTER_ITERS = 10


def preset_config(dataset: str, base: TrainConfig) -> TrainConfig:
    """``base`` with the preset budget for ``dataset`` (case-insensitive) and
    ``base.optimizer``: iterations, batch size and alpha0.

    Unknown datasets raise KeyError. ``base`` supplies everything else
    (optimizer, adaptive, C, sigma, noise mode, seed, ...).
    """
    preset = PRESETS[dataset.lower()]
    if base.optimizer is Optimizer.SGD:
        total, batch, alpha0 = preset.sgd_iters, preset.sgd_batch, preset.sgd_lr
    else:
        total, batch, alpha0 = preset.qn_iters, preset.qn_batch, 1.0
    return replace(base, outer_iters=OUTER_ITERS, inner_iters=max(1, total // OUTER_ITERS),
                   batch_size=batch, alpha0=alpha0)
