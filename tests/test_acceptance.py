"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> PASS|FAIL` line (run with ``-s`` to see
them inline). Criteria 8-10 need the real benchmark files under ``data/``
(or ``$AWWSVM_DATA``); run ``scripts/fetch_data.py`` on a network-enabled
machine to obtain them, otherwise those tests skip with a message.
"""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import rankdata

from awwsvm.data import MinibatchSampler, load_libsvm, split, synth_two_gaussians
from awwsvm.metrics import confusion, report
from awwsvm.objective import ObjectiveConfig, WeightMode, loss, subgradient
from awwsvm.optimizers import (QuasiNewtonState, bfgs_inverse_update, obfgs_step,
                               onaq_step, sgd_step)
from awwsvm.presets import preset_config
from awwsvm.stats import friedman, nemenyi_cd, pairwise_significance, rank_rows
from awwsvm.trainer import Optimizer, TrainConfig, train
from awwsvm.weighting import aw_raw, init_weights

SEEDS = [0, 1, 2, 3, 4]

# Published per-dataset accuracies of the six method variants (columns:
# plain and adaptive quasi-Newton/secant/SGD runs) used as the ranking
# fixture, and the published mean-rank row they are compared against.
ACCURACY_TABLE = np.array([
    [0.8431, 0.8486, 0.8453, 0.8469, 0.7682, 0.8486],
    [0.8492, 0.8514, 0.8456, 0.8521, 0.7767, 0.8513],
    [0.8425, 0.8445, 0.8434, 0.8469, 0.7733, 0.8500],
    [0.9832, 0.9906, 0.9791, 0.9865, 0.7733, 0.9869],
    [0.6452, 0.6498, 0.6475, 0.6498, 0.6495, 0.6495],
    [0.9050, 0.9207, 0.9050, 0.9193, 0.9050, 0.9151],
    [0.9765, 0.9805, 0.9747, 0.9790, 0.9706, 0.9780],
    [0.9752, 0.9805, 0.9734, 0.9816, 0.9704, 0.9816],
    [0.9747, 0.9800, 0.9745, 0.9812, 0.9702, 0.9823],
    [0.9731, 0.9812, 0.9723, 0.9818, 0.9702, 0.9827],
    [0.9730, 0.9830, 0.9750, 0.9816, 0.9699, 0.9828],
    [0.9755, 0.9830, 0.9733, 0.9849, 0.9707, 0.9845],
])
PUBLISHED_MEAN_RANKS = np.array([4.04, 1.83, 4.46, 1.83, 5.42, 2.13])


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _data_dir():
    return Path(os.environ.get("AWWSVM_DATA", Path(__file__).resolve().parent.parent / "data"))


def _benchmark(name):
    path = _data_dir() / f"{name}.libsvm"
    if not path.exists():
        print(f"ACCEPTANCE SKIP: benchmark file {path} not present "
              f"(run scripts/fetch_data.py on a networked machine)")
        pytest.skip(f"{path} not present")
    return load_libsvm(str(path))


def test_criterion_01_nemenyi_critical_difference():
    cd = nemenyi_cd(6, 12, 2.850)
    ok = abs(cd - 2.1767) <= 1e-4
    _line(1, ok, f"nemenyi_cd(6,12,2.850) = {cd:.6f}, target 2.1767 +- 1e-4")
    assert ok


def _counted_rank_sums(values):
    """Per-method rank sums by counting: in each row, method j gets rank
    1 + #{i : v_i > v_j} + 1/2 #{i != j : v_i = v_j} (1 = best, ties averaged)."""
    sums = [0.0] * values.shape[1]
    for row in values.tolist():
        for j, v in enumerate(row):
            above = sum(1 for u in row if u > v)
            tied = sum(1 for u in row if u == v) - 1
            sums[j] += 1 + above + 0.5 * tied
    return sums


def test_criterion_02_mean_ranks_match_published_row():
    # The published row cannot be matched entry by entry: every tie-averaged
    # rank row sums to K(K+1)/2, so valid mean ranks sum to 21, while the
    # published row sums to 19.71. What it does fix is the order of the
    # methods, including the tie of methods 1 and 3; the values are pinned to
    # an independent count over the published accuracies.
    n, k = ACCURACY_TABLE.shape
    rt = rank_rows(ACCURACY_TABLE)
    counted = _counted_rank_sums(ACCURACY_TABLE)
    assert counted == [54, 24, 57, 24, 68.5, 24.5]
    exact = np.allclose(rt.mean_ranks, np.array(counted) / n, rtol=0, atol=1e-12)

    order = rankdata(rt.mean_ranks)
    ordered = np.array_equal(order, rankdata(PUBLISHED_MEAN_RANKS))

    full = k * (k + 1) / 2
    sums_full = abs(rt.mean_ranks.sum() - full) <= 1e-12
    published_off = abs(PUBLISHED_MEAN_RANKS.sum() - full) > k * 0.01

    cd = nemenyi_cd(k, n, 2.850)
    changed = np.argwhere(np.triu(pairwise_significance(rt, cd)
                                  != pairwise_significance(PUBLISHED_MEAN_RANKS, cd)))
    verdicts = "; ".join(
        f"methods {i}/{j} gap {abs(rt.mean_ranks[i] - rt.mean_ranks[j]):.3f} vs published "
        f"{abs(PUBLISHED_MEAN_RANKS[i] - PUBLISHED_MEAN_RANKS[j]):.2f}"
        for i, j in changed)
    ok = exact and ordered and sums_full and published_off
    _line(2, ok,
          f"mean ranks {np.round(rt.mean_ranks, 4).tolist()} (sum {rt.mean_ranks.sum():.2f}) "
          f"vs published {PUBLISHED_MEAN_RANKS.tolist()} (sum {PUBLISHED_MEAN_RANKS.sum():.2f}), "
          f"ordering {'matches' if ordered else 'differs'}; Nemenyi (CD {cd:.4f}) "
          f"changed by the published row: {verdicts or 'none'}")
    assert exact, f"mean ranks {rt.mean_ranks.tolist()} != counted {np.array(counted) / n}"
    assert ordered, f"method order {order.tolist()} != published {rankdata(PUBLISHED_MEAN_RANKS)}"
    assert sums_full, f"mean ranks sum to {rt.mean_ranks.sum()}, not K(K+1)/2 = {full}"
    assert published_off, "published row sums close enough to K(K+1)/2 for a 0.01 match"


def test_criterion_03_friedman_p_value_magnitude():
    chi2, p = friedman(rank_rows(ACCURACY_TABLE))
    ok = p < 1e-6
    _line(3, ok, f"friedman chi2 = {chi2:.4f}, p = {p:.4g} (required < 1e-6)")
    assert ok


def test_criterion_04_weight_function_integral():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        sigma = float(rng.uniform(0.5, 1.5))
        spread = float(rng.uniform(0.1, 100.0))
        val, _ = quad(lambda d: aw_raw(d, sigma, spread), 0.0, np.inf, limit=200)
        worst = max(worst, abs(val - 2.0))
    ok = worst <= 1e-6
    _line(4, ok, f"100 quadratures of the raw weight function: max |I - 2| = {worst:.2e}")
    assert ok


def test_criterion_05_gradient_matches_finite_differences():
    rng = np.random.default_rng(43)
    h = 1e-5
    worst = 0.0
    for trial in range(200):
        cfg = ObjectiveConfig(C=float(rng.uniform(0.1, 3.0)),
                              weight_mode=WeightMode.REGULARIZER if trial % 2 else WeightMode.HINGE)
        while True:
            n, d = int(rng.integers(2, 9)), int(rng.integers(2, 7))
            X = rng.uniform(-2.0, 2.0, size=(n, d))
            y = rng.choice([-1.0, 1.0], size=n)
            w = rng.normal(size=d)
            alpha = rng.uniform(0.0, 1.0, size=n)
            if np.all(np.abs(y * (X @ w) - 1.0) > 1e-3):
                break
        g = subgradient(w, X, y, alpha, cfg)
        fd = np.zeros_like(w)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (loss(w + e, X, y, alpha, cfg) - loss(w - e, X, y, alpha, cfg)) / (2 * h)
        err = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)
        worst = max(worst, err)
    ok = worst < 1e-6
    _line(5, ok, f"200 gradient fixtures: max relative error vs central differences = {worst:.2e}")
    assert ok


def test_criterion_06_inverse_hessian_update_properties():
    rng = np.random.default_rng(44)
    d = 12
    basis = rng.normal(size=(d, d))
    curv = basis @ basis.T / d + 0.5 * np.eye(d)  # SPD map linking s to y
    H = np.eye(d)
    accepted = 0
    worst_sym = worst_sec = 0.0
    while accepted < 500:
        s = rng.normal(size=d)
        y = curv @ s + 0.05 * rng.normal(size=d)
        if y @ s <= 0.1:
            continue
        H = bfgs_inverse_update(H, s, y)
        accepted += 1
        worst_sym = max(worst_sym, float(np.abs(H - H.T).max()))
        np.linalg.cholesky(H)
        worst_sec = max(worst_sec, float(np.linalg.norm(H @ y - s) / np.linalg.norm(s)))
    ok = worst_sym < 1e-10 and worst_sec < 1e-8
    _line(6, ok, f"500 chained updates: max asymmetry {worst_sym:.2e}, "
                 f"max secant residual {worst_sec:.2e}, all Cholesky factorizations succeeded")
    assert ok


def _bare_trajectory(train_ds, cfg):
    X = train_ds.to_matrix(augment=True)
    y = train_ds.labels()
    n, d = X.shape
    w = np.zeros(d)
    alpha = init_weights(n)
    sampler = MinibatchSampler(n, cfg.batch_size, cfg.seed)
    sched = cfg.schedule()
    state = QuasiNewtonState.initial(d, eps_h=cfg.eps_h, damping=cfg.damping, mu=cfg.mu)
    k = 1
    for _ in range(cfg.outer_iters * cfg.inner_iters):
        idx = sampler.next_batch()
        Xb, yb, ab = X[idx], y[idx], alpha[idx]
        if cfg.optimizer is Optimizer.SGD:
            w = sgd_step(w, Xb, yb, ab, cfg.objective, sched, k)
            k += 1
        elif cfg.optimizer is Optimizer.OBFGS:
            w = obfgs_step(w, state, Xb, yb, ab, cfg.objective, sched)
        else:
            w = onaq_step(w, state, Xb, yb, ab, cfg.objective, sched)
    return w


def test_criterion_07_disabled_framework_is_bitwise_baseline():
    train_ds = synth_two_gaussians(30, 20, 3.0, 0.0, seed=50)
    eval_ds = synth_two_gaussians(30, 30, 3.0, 0.0, seed=51)
    ok = True
    details = []
    for opt in Optimizer:
        cfg = TrainConfig(optimizer=opt, adaptive=False, outer_iters=4, inner_iters=5,
                          batch_size=8, seed=13, alpha0=0.1)
        model, _ = train(train_ds, eval_ds, cfg)
        same = np.array_equal(model.augmented(), _bare_trajectory(train_ds, cfg))
        ok &= same
        details.append(f"{opt.value}={'bitwise-equal' if same else 'MISMATCH'}")
    _line(7, ok, "adaptive=False vs bare optimizer: " + ", ".join(details))
    assert ok


# Experimental criteria share this objective placement: weights scale the
# hinge (the placement where per-sample emphasis reaches the data term) with
# a negligible quadratic term so the baseline is a genuine hinge minimizer.
EXPERIMENT_OBJECTIVE = ObjectiveConfig(C=1e-6, weight_mode=WeightMode.HINGE)


def test_criterion_08_mushroom_adaptive_sgd():
    ds = _benchmark("mushroom")
    base = TrainConfig(objective=EXPERIMENT_OBJECTIVE)
    accs, wins = [], 0
    for seed in SEEDS:
        tr, ev = split(ds, 0.2, seed=seed)
        cfg_a = replace(preset_config("mushroom", Optimizer.SGD, True, base), seed=seed)
        cfg_b = replace(preset_config("mushroom", Optimizer.SGD, False, base), seed=seed)
        m_a, _ = train(tr, ev, cfg_a)
        m_b, _ = train(tr, ev, cfg_b)
        acc_a = report(confusion(m_a, ev)).accuracy
        acc_b = report(confusion(m_b, ev)).accuracy
        accs.append(acc_a)
        wins += acc_a >= acc_b
    mean_acc = float(np.mean(accs))
    ok = mean_acc >= 0.96 and wins >= 4
    _line(8, ok, f"mushroom adaptive SGD: mean accuracy {mean_acc:.4f} "
                 f"(target >= 0.96), beat baseline in {wins}/5 seeds")
    assert ok


def test_criterion_09_w1a_adaptive_onaq():
    ds = _benchmark("w1a")
    base = TrainConfig(objective=EXPERIMENT_OBJECTIVE)
    accs = []
    for seed in SEEDS:
        tr, ev = split(ds, 0.2, seed=seed)
        cfg = replace(preset_config("w1a", Optimizer.ONAQ, True, base), seed=seed)
        model, _ = train(tr, ev, cfg)
        accs.append(report(confusion(model, ev)).accuracy)
    mean_acc = float(np.mean(accs))
    ok = abs(mean_acc - 0.9805) <= 0.015
    _line(9, ok, f"w1a adaptive quasi-Newton: mean accuracy {mean_acc:.4f}, "
                 f"target 0.9805 +- 0.015")
    assert ok


def test_criterion_10_yeast_adaptive_never_worse():
    ds = _benchmark("yeast")
    base = TrainConfig(objective=EXPERIMENT_OBJECTIVE)
    ok = True
    details = []
    for opt in Optimizer:
        wins = 0
        for seed in SEEDS:
            tr, ev = split(ds, 0.2, seed=seed)
            cfg_a = replace(preset_config("yeast", opt, True, base), seed=seed)
            cfg_b = replace(preset_config("yeast", opt, False, base), seed=seed)
            m_a, _ = train(tr, ev, cfg_a)
            m_b, _ = train(tr, ev, cfg_b)
            acc_a = report(confusion(m_a, ev)).accuracy
            acc_b = report(confusion(m_b, ev)).accuracy
            wins += acc_a >= acc_b - 0.005
        details.append(f"{opt.value}: {wins}/5")
        ok &= wins >= 4
    _line(10, ok, "yeast adaptive within 0.005 of baseline or better: " + ", ".join(details))
    assert ok


def _angle(u, v):
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return float(np.degrees(np.arccos(np.clip(abs(u @ v), 0.0, 1.0))))


def test_criterion_11_outlier_robustness_ordering():
    base = TrainConfig(optimizer=Optimizer.OBFGS, adaptive=False, outer_iters=30,
                       inner_iters=10, batch_size=16, alpha0=1.0,
                       objective=ObjectiveConfig(C=1e-3, weight_mode=WeightMode.HINGE))
    eval_ds = synth_two_gaussians(400, 400, 4.0, 0.0, seed=999)
    wins = 0
    pairs = []
    for seed in SEEDS:
        clean = synth_two_gaussians(10, 10, 4.0, 0.0, seed=seed + 100)
        noisy = synth_two_gaussians(10, 10, 4.0, 0.05, seed=seed + 100)
        cfg_b = replace(base, seed=seed)
        cfg_a = replace(base, adaptive=True, seed=seed)
        ref_b, _ = train(clean, eval_ds, cfg_b)
        ref_a, _ = train(clean, eval_ds, cfg_a)
        m_b, _ = train(noisy, eval_ds, cfg_b)
        m_a, _ = train(noisy, eval_ds, cfg_a)
        ang_a = _angle(m_a.w, ref_a.w)
        ang_b = _angle(m_b.w, ref_b.w)
        wins += ang_a < ang_b
        pairs.append(f"{ang_a:.1f}<{ang_b:.1f}" if ang_a < ang_b else f"{ang_a:.1f}>={ang_b:.1f}")
    ok = wins >= 4
    _line(11, ok, f"flip-noise tilt (degrees, adaptive vs baseline): "
                  f"{', '.join(pairs)} -> {wins}/5 wins (need >= 4)")
    assert ok


def test_criterion_12_gmean_ordering_across_imbalance_ratios():
    base = TrainConfig(optimizer=Optimizer.OBFGS, adaptive=False, outer_iters=15,
                       inner_iters=10, batch_size=128, alpha0=1.0,
                       objective=EXPERIMENT_OBJECTIVE)
    eval_ds = synth_two_gaussians(3000, 3000, 1.0, 0.0, seed=987)
    ok = True
    details = []
    for ir in (2, 5, 10):
        wins = 0
        for seed in SEEDS:
            tr = synth_two_gaussians(300, 300 * ir, 1.0, 0.0, seed=seed + 200)
            m_b, _ = train(tr, eval_ds, replace(base, seed=seed))
            m_a, _ = train(tr, eval_ds, replace(base, adaptive=True, seed=seed))
            g_a = report(confusion(m_a, eval_ds)).gmean
            g_b = report(confusion(m_b, eval_ds)).gmean
            wins += g_a >= g_b
        details.append(f"IR{ir}: {wins}/5")
        ok &= wins >= 4
    _line(12, ok, "adaptive G-mean >= baseline per imbalance ratio: " + ", ".join(details))
    assert ok
