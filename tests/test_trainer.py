from dataclasses import replace
import warnings

import numpy as np
import pytest

from awwsvm import trainer
from awwsvm.data import Dataset, MinibatchSampler, Sample, split, synth_two_gaussians
from awwsvm.model import decision_values
from awwsvm.objective import WeightMode
from awwsvm.optimizers import QuasiNewtonState, obfgs_step, onaq_step, sgd_step
from awwsvm.cli import WEIGHTS_COLUMNS
from awwsvm.presets import preset_config
from awwsvm.trainer import (METRIC_COLUMNS, Optimizer, RESULTS_COLUMNS, TrainConfig,
                            TrainingError, run_experiment, summary, to_csv, train)
from awwsvm.weighting import NoiseMode, detect_noise, init_weights


def small_config(optimizer=Optimizer.SGD, **kw):
    defaults = dict(optimizer=optimizer, adaptive=False, outer_iters=3, inner_iters=4,
                    batch_size=8, seed=7, alpha0=0.1)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def synth_pair():
    train_ds = synth_two_gaussians(25, 25, 3.0, 0.0, seed=11)
    eval_ds = synth_two_gaussians(50, 50, 3.0, 0.0, seed=12)
    return train_ds, eval_ds


def bare_optimizer_trajectory(train_ds, cfg):
    """The optimizer loop run directly, without the adaptive wrapper."""
    X = train_ds.to_matrix(augment=True)
    y = train_ds.labels()
    n, d = X.shape
    w = np.zeros(d)
    alpha = init_weights(n)
    sampler = MinibatchSampler(n, cfg.batch_size, cfg.seed)
    state = QuasiNewtonState.initial(d, eps_h=cfg.eps_h)
    trace = []
    for k in range(1, cfg.outer_iters * cfg.inner_iters + 1):
        idx = sampler.next_batch()
        Xb, yb, ab = X[idx], y[idx], alpha[idx]
        if cfg.optimizer is Optimizer.SGD:
            w = sgd_step(w, Xb, yb, ab, cfg, cfg.rate(k))
        elif cfg.optimizer is Optimizer.OBFGS:
            w = obfgs_step(w, state, Xb, yb, ab, cfg, cfg.rate(k))
        else:
            w = onaq_step(w, state, Xb, yb, ab, cfg, cfg.rate(k))
        trace.append(w.copy())
    return trace


class TestBaselineEquivalence:
    @pytest.mark.parametrize("opt", list(Optimizer), ids=lambda o: o.value)
    def test_disabled_framework_is_bitwise_bare_optimizer(self, synth_pair, opt):
        train_ds, eval_ds = synth_pair
        cfg = small_config(optimizer=opt)
        model, _ = train(train_ds, eval_ds, cfg)
        bare_final = bare_optimizer_trajectory(train_ds, cfg)[-1]
        np.testing.assert_array_equal(model.augmented(), bare_final)


class TestStepCounter:
    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "bare"])
    @pytest.mark.parametrize("opt", list(Optimizer), ids=lambda o: o.value)
    def test_one_counter_feeds_every_step_its_rate(self, monkeypatch, opt, adaptive):
        # noisy set: adaptive runs eliminate samples between the outer rounds
        calls = []
        for name in ("sgd_step", "obfgs_step", "onaq_step"):
            def spy(*args, name=name, step=getattr(trainer, name)):
                calls.append((name, args[-1]))
                return step(*args)
            monkeypatch.setattr(trainer, name, spy)
        train_ds = synth_two_gaussians(10, 10, 4.0, 0.05, seed=100)
        cfg = small_config(opt, adaptive=adaptive, outer_iters=3, inner_iters=4)
        _, rounds = train(train_ds, train_ds, cfg)
        assert {name for name, _ in calls} == {f"{opt.value}_step"}
        assert [rate for _, rate in calls] == [cfg.rate(k) for k in range(1, 3 * 4 + 1)]
        assert (rounds[-1]["n_noise"] > 0) == adaptive


class TestTrainLoop:
    def test_history_length_matches_outer_iters(self, synth_pair):
        train_ds, eval_ds = synth_pair
        model, rounds = train(train_ds, eval_ds, small_config(outer_iters=1))
        assert len(rounds) == 1
        model, rounds = train(train_ds, eval_ds, small_config(outer_iters=5))
        assert len(rounds) == 5

    def test_round_rows_hold_every_output_column(self, synth_pair):
        train_ds, eval_ds = synth_pair
        _, rounds = train(train_ds, eval_ds, small_config(adaptive=True))
        keys = ["outer_iter", *METRIC_COLUMNS, "train_loss", "n_noise",
                "alpha_min", "alpha_mean", "alpha_max"]
        assert [list(r) for r in rounds] == [keys] * len(rounds)
        assert [r["outer_iter"] for r in rounds] == list(range(1, len(rounds) + 1))
        selected = set(RESULTS_COLUMNS) - {"dataset", "method", "seed"} | set(WEIGHTS_COLUMNS)
        assert selected <= set(keys)

    def test_non_adaptive_weights_never_move(self, synth_pair):
        train_ds, eval_ds = synth_pair
        _, rounds = train(train_ds, eval_ds, small_config())
        uniform = 2.0 / len(train_ds)
        for r in rounds:
            assert r["n_noise"] == 0
            assert r["alpha_min"] == r["alpha_max"] == pytest.approx(uniform)

    def test_accuracies_in_unit_interval(self, synth_pair):
        train_ds, eval_ds = synth_pair
        for opt in Optimizer:
            _, rounds = train(train_ds, eval_ds, small_config(optimizer=opt, adaptive=True))
            assert all(0.0 <= r["accuracy"] <= 1.0 for r in rounds)

    def test_active_count_nonincreasing(self):
        train_ds = synth_two_gaussians(10, 10, 4.0, 0.05, seed=100)
        eval_ds = synth_two_gaussians(20, 20, 4.0, 0.0, seed=101)
        _, rounds = train(train_ds, eval_ds, TrainConfig(adaptive=True, seed=0))
        noise = [r["n_noise"] for r in rounds]
        assert all(a <= b for a, b in zip(noise, noise[1:]))

    def test_flipped_sample_flagged_early_under_default_config(self):
        # 20 samples at 5% flip: exactly one inverted label, isolated on the
        # wrong side, so it is eliminated within the first few rounds
        train_ds = synth_two_gaussians(10, 10, 4.0, 0.05, seed=100)
        eval_ds = synth_two_gaussians(20, 20, 4.0, 0.0, seed=101)
        _, rounds = train(train_ds, eval_ds, TrainConfig(adaptive=True, seed=0))
        assert rounds[2]["n_noise"] >= 1

    def test_clean_separable_data_never_eliminates(self):
        train_ds = synth_two_gaussians(20, 20, 12.0, 0.0, seed=5)
        eval_ds = synth_two_gaussians(20, 20, 12.0, 0.0, seed=6)
        _, rounds = train(train_ds, eval_ds, TrainConfig(adaptive=True, seed=1))
        assert all(r["n_noise"] == 0 for r in rounds)

    def test_adaptive_weights_spread_out(self, synth_pair):
        train_ds, eval_ds = synth_pair
        _, rounds = train(train_ds, eval_ds, small_config(adaptive=True, outer_iters=4))
        last = rounds[-1]
        assert last["alpha_max"] > last["alpha_min"]

    @pytest.mark.parametrize("opt", list(Optimizer), ids=lambda o: o.value)
    def test_zero_geometric_norm_keeps_weights_and_mask(self, synth_pair, opt):
        # alpha0 = 0 never moves w off 0, so no round has a distance to use
        train_ds, eval_ds = synth_pair
        cfg = TrainConfig(optimizer=opt, adaptive=True, alpha0=0.0, outer_iters=3, seed=2)
        model, rounds = train(train_ds, eval_ds, cfg)
        assert not model.w.any() and model.b == 0.0
        uniform = 2.0 / len(train_ds)
        for r in rounds:
            assert r["n_noise"] == 0
            assert r["alpha_min"] == r["alpha_mean"] == r["alpha_max"] == uniform

    def test_single_class_training_set_rejected(self):
        samples = [Sample(features=((1, float(i)),), label=1) for i in range(6)]
        ds = Dataset.from_samples(samples)
        with pytest.raises(TrainingError):
            train(ds, ds, small_config())

    @staticmethod
    def _straddling_positives():
        # the two positives straddle the learned boundary, so both get
        # flagged as wrong-siders and the positive class would vanish
        rng = np.random.default_rng(3)
        samples = [Sample(features=((1, float(v)), (2, float(h))), label=-1)
                   for v, h in zip(rng.normal(-2.0, 0.1, size=50), rng.normal(0, 0.1, size=50))]
        samples.append(Sample(features=((1, 2.0), (2, 0.0)), label=1))
        samples.append(Sample(features=((1, -2.05), (2, 0.05)), label=1))
        ds = Dataset.from_samples(samples)
        cfg = TrainConfig(optimizer=Optimizer.OBFGS, adaptive=True, outer_iters=10,
                          inner_iters=10, batch_size=16, seed=2,
                          C=1e-4, weight_mode=WeightMode.HINGE)
        return ds, cfg

    def test_abort_when_class_would_be_emptied(self):
        ds, cfg = self._straddling_positives()
        with pytest.raises(TrainingError, match="class"):
            train(ds, ds, cfg)

    def test_emptied_class_named_by_its_label(self):
        # two classmates on opposite sides of the hyperplane are both flagged
        d = np.array([-1.0, -2.0, 0.5, -0.5])
        y = np.array([-1, -1, 1, 1])
        np.testing.assert_array_equal(detect_noise(d, y, np.ones(4, dtype=bool)), [2, 3])
        ds, cfg = self._straddling_positives()
        with pytest.raises(TrainingError,
                           match=r"^noise elimination removed every class \+1 sample$"):
            train(ds, ds, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_naming_round(self, synth_pair):
        train_ds, eval_ds = synth_pair
        with pytest.raises(TrainingError, match=r"non-finite value in outer round 1$"):
            train(train_ds, eval_ds, small_config(alpha0=1e200))

    def test_train_loss_reads_the_active_rows_bitwise(self, monkeypatch):
        # the scores the loss receives, cut from one product over all rows,
        # equal a product over a copy of the active rows
        train_ds = synth_two_gaussians(10, 10, 4.0, 0.05, seed=100)
        eval_ds = synth_two_gaussians(20, 20, 4.0, 0.0, seed=101)
        X = train_ds.to_matrix(augment=True)
        real_loss, real_detect, masks, sizes = trainer.loss, trainer.detect_noise, [], []

        def detect(dist, y, active, *args, **kw):
            masks.append(active)  # updated in place before the round's loss
            return real_detect(dist, y, active, *args, **kw)

        def spy(w, scores, y, alpha, cfg):
            want = X[masks[-1]] @ w
            assert scores.dtype == want.dtype and scores.tobytes() == want.tobytes()
            sizes.append(len(scores))
            return real_loss(w, scores, y, alpha, cfg)

        monkeypatch.setattr(trainer, "detect_noise", detect)
        monkeypatch.setattr(trainer, "loss", spy)
        _, rounds = train(train_ds, eval_ds, TrainConfig(adaptive=True, seed=0))
        assert sizes == [len(train_ds) - r["n_noise"] for r in rounds]
        assert sizes[-1] < len(train_ds)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["bare", "adaptive"])
    def test_one_score_vector_per_round(self, synth_pair, monkeypatch, adaptive):
        # every round scores the training rows once; the loss takes its
        # active entries as a fresh 1-D float64 array
        real_scores, real_loss, calls, received = trainer.decision_values, trainer.loss, [], []

        def scores(m, X):
            calls.append(X.shape)
            return real_scores(m, X)

        def spy(w, scores, y, alpha, cfg):
            received.append((type(scores), scores.ndim, scores.dtype, len(scores), len(y)))
            return real_loss(w, scores, y, alpha, cfg)

        monkeypatch.setattr(trainer, "decision_values", scores)
        monkeypatch.setattr(trainer, "loss", spy)
        train_ds, eval_ds = synth_pair
        cfg = small_config(adaptive=adaptive)
        _, rounds = train(train_ds, eval_ds, cfg)
        assert calls == [train_ds.X.shape] * cfg.outer_iters
        assert received == [(np.ndarray, 1, np.float64, len(train_ds) - r["n_noise"],
                             len(train_ds) - r["n_noise"]) for r in rounds]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_objective_overflow_raises_naming_round(self):
        # bare, so no distance check runs; ||w||^2 overflows in the objective
        ds = synth_two_gaussians(60, 140, 4.0, 0.05, seed=3)
        cfg = TrainConfig(optimizer=Optimizer.OBFGS, adaptive=False, alpha0=1e300, seed=0)
        with pytest.raises(TrainingError, match=r"^objective value inf is not finite in outer round 1$"):
            train(ds, ds, cfg)

    # a tiny ||w|| with a large b: the norm is finite, b / ||w|| is not
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_distance_overflow_with_finite_norm_names_distances(self, synth_pair, monkeypatch):
        real = trainer.LinearModel.from_augmented

        def tiny_w(w_aug, label_map=None):
            m = real(w_aug, label_map)
            return trainer.LinearModel(m.w * 1e-150, 1e200, m.label_map)

        monkeypatch.setattr(trainer.LinearModel, "from_augmented", staticmethod(tiny_w))
        with pytest.raises(TrainingError,
                           match=r"^hyperplane distances overflowed in outer round 1$"):
            train(*synth_pair, small_config(adaptive=True))

    def test_aborted_run_drops_its_warnings(self):
        ds = synth_two_gaussians(60, 140, 4.0, 0.05, seed=3)
        cfg = TrainConfig(optimizer=Optimizer.OBFGS, adaptive=False, alpha0=1e300, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingError, match="objective value inf"):
                train(ds, ds, cfg)
        assert caught == []

    @staticmethod
    def _warn_in_loss(monkeypatch) -> list:
        """Make each ``trainer.loss`` call warn; returns the list of calls."""
        real, calls = trainer.loss, []

        def noisy(*args):
            calls.append(args)
            warnings.warn("loss warning", RuntimeWarning)
            return real(*args)

        monkeypatch.setattr(trainer, "loss", noisy)
        return calls

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_completed_run_shows_its_warnings(self, synth_pair, monkeypatch):
        self._warn_in_loss(monkeypatch)
        with pytest.warns(RuntimeWarning, match="^loss warning$") as record:
            train(*synth_pair, small_config())
        assert {w.filename for w in record} == {__file__}

    # the filters decide once, inside: a warning shown only for its own module
    # must not meet the catch-all error filter when it is shown after the run
    def test_completed_run_keeps_the_filters_decision(self, synth_pair, monkeypatch):
        self._warn_in_loss(monkeypatch)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("error")
            warnings.filterwarnings("default", category=RuntimeWarning, module=__name__)
            train(*synth_pair, small_config())
        assert [str(w.message) for w in record] == ["loss warning"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_error_filter_still_raises_inside(self, synth_pair, monkeypatch):
        calls = self._warn_in_loss(monkeypatch)
        with pytest.raises(RuntimeWarning, match="^loss warning$"):
            train(*synth_pair, small_config())
        assert len(calls) == 1  # raised at the first warning, not after the run

    def test_rawdot_noise_mode_runs_end_to_end(self):
        from awwsvm.weighting import NoiseMode
        train_ds = synth_two_gaussians(10, 10, 4.0, 0.05, seed=100)
        eval_ds = synth_two_gaussians(20, 20, 4.0, 0.0, seed=101)
        cfg = TrainConfig(adaptive=True, seed=0, noise_mode=NoiseMode.RAW_DOT)
        _, rounds = train(train_ds, eval_ds, cfg)
        assert len(rounds) == cfg.outer_iters

    def test_deterministic_under_seed(self, synth_pair):
        train_ds, eval_ds = synth_pair
        cfg = small_config(adaptive=True)
        m1, r1 = train(train_ds, eval_ds, cfg)
        m2, r2 = train(train_ds, eval_ds, cfg)
        np.testing.assert_array_equal(m1.augmented(), m2.augmented())
        assert [r["accuracy"] for r in r1] == [r["accuracy"] for r in r2]


class TestLabelSwapSymmetry:
    """Swapping the labels (y -> -y, label map negated) is an exact symmetry
    of ``train``: the model comes out negated bit for bit, and each round's
    recall and specificity trade places. The pair is swapped after ``split``,
    which is not label-symmetric itself."""

    @staticmethod
    def _swapped(ds: Dataset) -> Dataset:
        return Dataset(ds.X, -ds.y, {k: -v for k, v in ds.label_map.items()})

    @staticmethod
    def _pair(seed: int) -> tuple[Dataset, Dataset]:
        """Seeds 1-3: a 60/140 set with 5% flips, split; seed 0: a 10/10 set
        on which every configuration flags a sample as noise."""
        if seed == 0:
            return (synth_two_gaussians(10, 10, 4.0, 0.05, seed=100),
                    synth_two_gaussians(20, 20, 4.0, 0.0, seed=101))
        return split(synth_two_gaussians(60, 140, 2.0, 0.05, seed=seed), 0.2, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("noise_mode", list(NoiseMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("mode", list(WeightMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("opt", list(Optimizer), ids=lambda o: o.value)
    def test_swapped_labels_negate_the_model(self, opt, mode, noise_mode, seed):
        tr, ev = self._pair(seed)
        cfg = TrainConfig(optimizer=opt, adaptive=True, weight_mode=mode,
                          noise_mode=noise_mode, seed=seed)
        model, rounds = train(tr, ev, cfg)
        assert seed != 0 or rounds[-1]["n_noise"] > 0
        swapped, swapped_rounds = train(self._swapped(tr), self._swapped(ev), cfg)

        assert swapped.augmented().tobytes() == (-model.augmented()).tobytes()
        # predict maps a score of exactly 0 to +1, the one asymmetry
        assert np.all(decision_values(model, ev.X) != 0.0)
        same = ["train_loss", "n_noise", "accuracy", "gmean",
                "alpha_min", "alpha_mean", "alpha_max"]
        assert [{c: r[c] for c in same} for r in swapped_rounds] == \
            [{c: r[c] for c in same} for r in rounds]
        assert [(r["recall"], r["specificity"]) for r in swapped_rounds] == \
            [(r["specificity"], r["recall"]) for r in rounds]


def _sweep(datasets, methods, seeds):
    """run_experiment's (rows, failures) over the datasets x methods x seeds
    cross product."""
    return run_experiment([(name, tr, ev, replace(cfg, seed=seed)) for name, tr, ev in datasets
                           for cfg in methods for seed in seeds])


def _finals(rows):
    return [r for r in rows if r["outer_iter"] == "final"]


class TestRunExperiment:
    @staticmethod
    def _cells():
        datasets = [
            ("synth-a", synth_two_gaussians(15, 15, 3.0, 0.0, seed=1),
             synth_two_gaussians(20, 20, 3.0, 0.0, seed=2)),
            ("synth-b", synth_two_gaussians(20, 10, 3.0, 0.0, seed=3),
             synth_two_gaussians(20, 10, 3.0, 0.0, seed=4)),
        ]
        methods = [small_config(), small_config(adaptive=True)]
        return datasets, methods

    def test_row_counts(self):
        datasets, methods = self._cells()
        rows, failures = _sweep(datasets, methods, seeds=[0, 1])
        assert len(_finals(rows)) == 2 * 2 * 2
        per_run_rows = 3 + 1  # outer_iters history rows plus the final row
        assert len(rows) == 2 * 2 * 2 * per_run_rows
        assert not failures

    def test_csv_deterministic(self):
        datasets, methods = self._cells()
        a = to_csv(_sweep(datasets, methods, seeds=[0, 1])[0], RESULTS_COLUMNS)
        b = to_csv(_sweep(datasets, methods, seeds=[0, 1])[0], RESULTS_COLUMNS)
        assert a == b
        assert a.splitlines()[0] == ",".join(RESULTS_COLUMNS)

    def test_empty_methods_give_empty_table(self):
        datasets, _ = self._cells()
        rows, _ = _sweep(datasets, [], seeds=[0])
        assert rows == []
        assert to_csv(rows, RESULTS_COLUMNS) == ",".join(RESULTS_COLUMNS) + "\n"

    def test_cell_failure_recorded_without_aborting(self):
        single_class = Dataset.from_samples(
            [Sample(features=((1, 1.0),), label=1) for _ in range(5)])
        ok = synth_two_gaussians(10, 10, 3.0, 0.0, seed=1)
        datasets = [("bad", single_class, ok), ("good", ok, ok)]
        rows, failures = _sweep(datasets, [small_config()], seeds=[0])
        assert len(failures) == 1
        assert failures[0]["dataset"] == "bad"
        assert {r["dataset"] for r in _finals(rows)} == {"good"}

    def test_summary_averages_over_seeds(self):
        datasets, methods = self._cells()
        rows, _ = _sweep(datasets, methods, seeds=[0, 1, 2])
        means = summary(rows)
        assert len(means) == 4
        assert all(s["n_seeds"] == 3 for s in means)
        method_names = {s["method"] for s in means}
        assert method_names == {"sgd", "aw+sgd"}

    def test_summary_ignores_non_final_rows_and_keeps_first_seen_order(self):
        def row(dataset, method, outer_iter, acc):
            return {"dataset": dataset, "method": method, "outer_iter": outer_iter,
                    "accuracy": acc}
        rows = [row("b", "sgd", 1, 0.0), row("b", "sgd", "final", 0.5),
                row("a", "onaq", "final", 0.25), row("b", "sgd", 2, 9.0),
                row("a", "sgd", "final", 1.0), row("b", "sgd", "final", 0.75)]
        assert summary(rows, ["accuracy"]) == [
            {"dataset": "b", "method": "sgd", "n_seeds": 2, "accuracy": 0.625},
            {"dataset": "a", "method": "onaq", "n_seeds": 1, "accuracy": 0.25},
            {"dataset": "a", "method": "sgd", "n_seeds": 1, "accuracy": 1.0},
        ]


class TestPresets:
    @pytest.mark.parametrize("dataset, optimizer, inner, batch", [
        ("a9a", Optimizer.OBFGS, 10, 128),
        ("W1A", Optimizer.ONAQ, 5, 64),
    ])
    def test_quasi_newton_budget(self, dataset, optimizer, inner, batch):
        # quasi-Newton runs take the preset's qn_* budget and start at alpha0 = 1
        base = TrainConfig(optimizer=optimizer, adaptive=True, alpha0=0.3, seed=4)
        assert preset_config(dataset, base) == replace(
            base, outer_iters=10, inner_iters=inner, batch_size=batch, alpha0=1.0)
