"""``loss`` and ``subgradient`` check nothing; ``train()`` keeps their inputs
valid. A spy on the names the trainer calls them through
(``optimizers.subgradient``, ``trainer.loss``) asserts the kernels'
preconditions on every call: a non-empty float64 batch, and every weight in
[0, 1] with no NaN."""

import itertools

import numpy as np
import pytest

from awwsvm import optimizers, trainer
from awwsvm.data import synth_two_gaussians
from awwsvm.objective import ObjectiveConfig, WeightMode
from awwsvm.trainer import Optimizer, TrainConfig, train
from awwsvm.weighting import NoiseMode


def check_batch(X, y, alpha) -> None:
    assert len(y) > 0, "empty batch"
    assert X.shape[0] == len(y) == len(alpha)
    assert y.dtype == alpha.dtype == np.float64
    assert np.all((alpha >= 0.0) & (alpha <= 1.0)), "weights must lie in [0, 1]"  # NaN fails both


@pytest.fixture()
def calls(monkeypatch):
    """Per-kernel call counts, with ``check_batch`` run before each call."""
    counts = {"subgradient": 0, "loss": 0}
    for owner, name in ((optimizers, "subgradient"), (trainer, "loss")):
        def spy(w, X, y, alpha, cfg, _real=getattr(owner, name), _name=name):
            check_batch(X, y, alpha)
            counts[_name] += 1
            return _real(w, X, y, alpha, cfg)
        monkeypatch.setattr(owner, name, spy)
    return counts


# flip-noise sets on which noise elimination fires for every optimizer,
# weight mode and noise mode below
NOISY_SETS = [(10, 10, 100), (6, 14, 2)]


@pytest.mark.parametrize("n_pos, n_neg, seed", NOISY_SETS)
@pytest.mark.parametrize("opt, mode, noise", list(itertools.product(Optimizer, WeightMode, NoiseMode)),
                         ids=lambda v: v.value)
def test_adaptive_train_feeds_the_kernels_valid_batches(calls, n_pos, n_neg, seed, opt, mode, noise):
    train_ds = synth_two_gaussians(n_pos, n_neg, 4.0, 0.05, seed=seed)
    eval_ds = synth_two_gaussians(20, 20, 4.0, 0.0, seed=seed + 1)
    cfg = TrainConfig(optimizer=opt, adaptive=True, outer_iters=5, inner_iters=5, batch_size=8,
                      objective=ObjectiveConfig(weight_mode=mode), noise_mode=noise, seed=0)
    _, rounds = train(train_ds, eval_ds, cfg)
    assert rounds[-1]["n_noise"] >= 1
    assert calls["subgradient"] >= 25 and calls["loss"] == 5


@pytest.mark.parametrize("opt", list(Optimizer), ids=lambda o: o.value)
def test_batch_larger_than_the_set_stays_valid(calls, opt):
    train_ds = synth_two_gaussians(10, 10, 4.0, 0.05, seed=100)
    eval_ds = synth_two_gaussians(20, 20, 4.0, 0.0, seed=101)
    cfg = TrainConfig(optimizer=opt, adaptive=True, outer_iters=4, inner_iters=3,
                      batch_size=64, seed=0)
    _, rounds = train(train_ds, eval_ds, cfg)
    assert rounds[-1]["n_noise"] >= 1
    assert calls["subgradient"] >= 12 and calls["loss"] == 4


# the spy's check is not vacuous: it fails on each batch the kernels must not see
@pytest.mark.parametrize("y, alpha", [([], []), ([1.0, -1.0], [np.nan, 0.5]),
                                      ([1.0, -1.0], [1.5, 0.5]), ([1.0, -1.0], [-0.1, 0.5])],
                         ids=["empty", "nan", "above_one", "negative"])
def test_check_rejects_invalid_batches(y, alpha):
    with pytest.raises(AssertionError):
        check_batch(np.zeros((len(y), 2)), np.array(y, dtype=np.float64),
                    np.array(alpha, dtype=np.float64))
