"""``train``'s inner-phase seam: the loop around any ``inner(w, alpha, active)``.

A stub phase that returns a fixed ``w`` pins what the loop does with a round's
solve, and the loop's guards hold whatever the phase returns. ``DualCD`` is an
exact phase: dual coordinate descent (Hsieh et al., ICML 2008; LIBLINEAR's
L1-loss solver) on each round's weighted problem, run through ``train`` itself.
"""

import math
import re

import numpy as np
import pytest

from awwsvm import trainer
from awwsvm.data import Dataset, Sample, synth_two_gaussians
from awwsvm.objective import WeightMode, loss
from awwsvm.trainer import Optimizer, TrainConfig, TrainingError, train
from awwsvm.weighting import NoiseMode, detect_noise, init_weights, update_weights


class FixedPhase:
    """Returns ``w`` every round and records the weights and mask it was given."""

    def __init__(self, w):
        self.w, self.calls = np.asarray(w, dtype=np.float64), []

    def __call__(self, w, alpha, active):
        self.calls.append((alpha.copy(), active.copy()))
        return self.w.copy()


@pytest.mark.parametrize("noise_mode", list(NoiseMode), ids=lambda m: m.value)
@pytest.mark.parametrize("mode", list(WeightMode), ids=lambda m: m.value)
def test_fixed_w_rounds_equal_a_hand_computation(monkeypatch, mode, noise_mode):
    # one flipped label leaves a sample alone on its side, in either noise mode
    train_ds = synth_two_gaussians(20, 20, 3.0, 0.05, seed=12)
    w = np.array([1.0, 0.5, -0.2])
    cfg = TrainConfig(adaptive=True, outer_iters=3, weight_mode=mode, noise_mode=noise_mode)
    seen = []

    def spy(dist, *args, **kw):
        flagged = detect_noise(dist, *args, **kw)
        seen.append((dist.copy(), flagged))
        return flagged
    monkeypatch.setattr(trainer, "detect_noise", spy)
    phase = FixedPhase(w)
    _, rounds = train(train_ds, train_ds, cfg, inner=phase)

    X, y = train_ds.X, train_ds.labels()
    scores = X @ w[:-1] + w[-1]
    dist = scores / math.sqrt(w[:-1].dot(w[:-1]))
    alpha, active = init_weights(len(y)), np.ones(len(y), dtype=bool)
    assert len(phase.calls) == len(rounds) == cfg.outer_iters
    n_flagged = 0
    for (got_alpha, got_active), (got_dist, got_flags), row in zip(phase.calls, seen, rounds):
        np.testing.assert_array_equal(got_alpha, alpha)
        np.testing.assert_array_equal(got_active, active)
        np.testing.assert_array_equal(got_dist, dist)
        flagged = detect_noise(dist, y, active, noise_mode, X=X)
        np.testing.assert_array_equal(got_flags, flagged)
        n_flagged += flagged.size
        active[flagged] = False
        alpha = update_weights(dist, active, cfg.sigma)
        assert row["train_loss"] == loss(w, scores[active], y[active], alpha[active], cfg)
        assert row["n_noise"] == np.count_nonzero(~active)
        assert (row["alpha_min"], row["alpha_mean"], row["alpha_max"]) == (
            alpha[active].min(), alpha[active].mean(), alpha[active].max())
    assert n_flagged > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_w_from_any_phase_is_divergence(bad):
    train_ds = synth_two_gaussians(10, 10, 3.0, 0.0, seed=1)
    with pytest.raises(TrainingError,
                       match=r"^weights diverged to a non-finite value in outer round 1$"):
        train(train_ds, train_ds, TrainConfig(adaptive=True),
              inner=FixedPhase([1.0, bad, 0.0]))


@pytest.mark.parametrize("cls", [1, -1])
def test_phase_that_empties_a_class_is_refused(cls):
    # w puts every sample of class cls on the hyperplane x1 = cls, where a zero
    # distance counts as the wrong side of every classmate
    samples = [Sample(features=((1, float(label)), (2, float(t))), label=label)
               for label in (1, -1) for t in range(5)]
    ds = Dataset.from_samples(samples)
    with pytest.raises(TrainingError,
                       match=re.escape(f"noise elimination removed every class {cls:+d} sample")):
        train(ds, ds, TrainConfig(adaptive=True), inner=FixedPhase([1.0, 0.0, -cls]))


class DualCD:
    """Exact inner phase: each round solves min_w 1/2 ||w||^2 + sum_i U_i hinge_i(w)
    over the augmented rows by dual coordinate descent, with U = 1/(m C mean(alpha))
    (REGULARIZER) or U_i = alpha_i/(m C) (HINGE) over the m active rows and 0 for
    the eliminated ones, so ``loss`` is C mean(alpha) P (REGULARIZER) or C P
    (HINGE) at the same weights. Each round warm-starts from the previous dual
    variables clipped into the new bounds, and stops once the projected gradient
    spans less than ``tol``."""

    def __init__(self, train_ds, cfg, tol=1e-13, max_epochs=10_000):
        self.X = train_ds.to_matrix(augment=True).toarray()
        self.y = train_ds.labels().astype(np.float64)
        self.Q = np.einsum("ij,ij->i", self.X, self.X)  # the dual Hessian's diagonal
        self.cfg, self.tol, self.max_epochs = cfg, tol, max_epochs
        self.beta = np.zeros(len(self.y))
        self.rng = np.random.default_rng(0)
        self.rounds = []  # (returned w, bounds, relative duality gap) per call

    def bounds(self, alpha, active):
        m, C = np.count_nonzero(active), self.cfg.C
        if self.cfg.weight_mode is WeightMode.REGULARIZER:
            return np.where(active, 1.0 / (m * C * alpha[active].mean()), 0.0)
        return np.where(active, alpha / (m * C), 0.0)

    def primal(self, w, U):
        return 0.5 * w @ w + U @ np.maximum(0.0, 1.0 - self.y * (self.X @ w))

    def __call__(self, w, alpha, active):
        X, y, Q = self.X, self.y, self.Q
        U = self.bounds(alpha, active)
        beta = np.clip(self.beta, 0.0, U)
        w = (beta * y) @ X  # the warm start's w; the w passed in is the last round's
        for _ in range(self.max_epochs):
            lo, hi = math.inf, -math.inf
            for i in self.rng.permutation(np.flatnonzero(U > 0)):
                g = y[i] * (X[i] @ w) - 1.0
                pg = min(g, 0.0) if beta[i] == 0.0 else max(g, 0.0) if beta[i] == U[i] else g
                lo, hi = min(lo, pg), max(hi, pg)
                if pg != 0.0:
                    old, beta[i] = beta[i], min(max(beta[i] - g / Q[i], 0.0), U[i])
                    w += (beta[i] - old) * y[i] * X[i]
            if hi - lo < self.tol:
                break
        self.beta = beta
        p = self.primal(w, U)
        gap = p - (beta.sum() - 0.5 * w @ w)
        self.rounds.append((w.copy(), U, gap / p))
        return w


@pytest.mark.parametrize("adaptive", [False, True], ids=["bare", "adaptive"])
@pytest.mark.parametrize("mode", list(WeightMode), ids=lambda m: m.value)
def test_dual_cd_phase_solves_each_round_exactly(monkeypatch, mode, adaptive):
    # two flipped labels, which the adaptive runs eliminate
    train_ds = synth_two_gaussians(50, 50, 4.0, 0.02, seed=2)
    cfg = TrainConfig(adaptive=adaptive, outer_iters=3, weight_mode=mode)
    scored = []  # the weights and mask each round's train_loss reads

    def spy(dist, active, sigma):
        alpha = update_weights(dist, active, sigma)
        scored.append((alpha, active.copy()))
        return alpha
    monkeypatch.setattr(trainer, "update_weights", spy)
    phase = DualCD(train_ds, cfg)
    model, rounds = train(train_ds, train_ds, cfg, inner=phase)

    n = len(train_ds)
    if not adaptive:
        scored = [(init_weights(n), np.ones(n, dtype=bool))] * cfg.outer_iters
    assert len(phase.rounds) == len(scored) == len(rounds) == cfg.outer_iters
    np.testing.assert_array_equal(model.augmented(), phase.rounds[-1][0])
    for (w, _, gap), (alpha, active), row in zip(phase.rounds, scored, rounds):
        assert -1e-12 < gap < 1e-8  # weak duality, up to rounding
        p = phase.primal(w, phase.bounds(alpha, active))
        scale = cfg.C * (alpha[active].mean() if mode is WeightMode.REGULARIZER else 1.0)
        assert row["train_loss"] == pytest.approx(scale * p, rel=1e-9, abs=0.0)
    if adaptive:
        assert rounds[-1]["n_noise"] > 0
        # each round solves under the bounds of the weights and mask the last one
        # left, so the eliminated rows are held at bound 0
        for (_, U, _), (alpha, active) in zip(phase.rounds[1:], scored):
            np.testing.assert_array_equal(U, phase.bounds(alpha, active))
            assert not U[~active].any()


@pytest.mark.parametrize("mode", list(WeightMode), ids=lambda m: m.value)
def test_no_stochastic_run_beats_the_exact_optimum(mode):
    # each bare run's final train_loss against the DualCD optimum of one round on
    # the same set; the gap need not fall as the budget grows, so only its sign
    # is asserted and its mean is reported
    budgets = (10, 100)  # inner_iters, at the default outer_iters
    gaps = {}  # (optimizer, inner_iters) -> relative gap per seed
    for seed in range(3):
        train_ds = synth_two_gaussians(50, 50, 4.0, 0.02, seed)
        exact = TrainConfig(outer_iters=1, weight_mode=mode)
        best = train(train_ds, train_ds, exact, inner=DualCD(train_ds, exact))[1][-1]["train_loss"]
        for optimizer in Optimizer:
            for inner_iters in budgets:
                cfg = TrainConfig(optimizer=optimizer, inner_iters=inner_iters, batch_size=16,
                                  weight_mode=mode, seed=seed)
                got = train(train_ds, train_ds, cfg)[1][-1]["train_loss"]
                assert got >= best * (1 - 1e-12), (cfg, got, best)
                gaps.setdefault((optimizer, inner_iters), []).append((got - best) / best)
    for optimizer in Optimizer:
        print(f"{mode.value} {optimizer.value}: mean relative gap to the optimum "
              + "  ".join(f"{np.mean(gaps[optimizer, n]):.4f} at {n} inner"
                          for n in budgets))
