import numpy as np
import pytest

from scipy import sparse

from awwsvm.data import Dataset, parse_libsvm
from awwsvm.metrics import (ConfusionMatrix, confusion, confusion_from_predictions, report)
from awwsvm.model import LinearModel


class TestConfusion:
    def test_perfect_classifier(self):
        y = np.array([1, 1, -1, -1])
        cm = confusion_from_predictions(y, y)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 0, 0, 2)

    def test_constant_positive_predictor(self):
        y_true = np.array([1] * 30 + [-1] * 70)
        y_pred = np.ones(100, dtype=int)
        cm = confusion_from_predictions(y_true, y_pred)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (30, 0, 70, 0)

    def test_label_flip_swaps_counts(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            y = rng.choice([-1, 1], size=50)
            p = rng.choice([-1, 1], size=50)
            cm = confusion_from_predictions(y, p)
            cm_flip = confusion_from_predictions(y, -p)
            assert (cm.tp, cm.fn) == (cm_flip.fn, cm_flip.tp)
            assert (cm.fp, cm.tn) == (cm_flip.tn, cm_flip.fp)

    def test_counts_equal_the_four_masks(self):
        # tp and the two marginals give fn, fp and tn; any label not 1 is negative
        rng = np.random.default_rng(15)
        for n in (0, 1, 7, 500):
            y = rng.choice([-1, 0, 1, 2], size=n)
            p = rng.choice([-1, 1], size=n)
            pos, pred = y == 1, p == 1
            cm = confusion_from_predictions(y, p)
            assert (cm.tp, cm.fn, cm.fp, cm.tn) == tuple(
                int(np.sum(m)) for m in (pos & pred, pos & ~pred, ~pos & pred, ~pos & ~pred))
            assert cm.total == n

    def test_model_on_dataset(self):
        ds = parse_libsvm("+1 1:2.0\n-1 1:-3.0\n+1 1:-0.5")
        m = LinearModel(w=np.array([1.0]), b=0.0)
        cm = confusion(m, ds)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 0, 1)

    def test_length_mismatch_is_error(self):
        with pytest.raises(ValueError, match="^prediction/label length mismatch$"):
            confusion_from_predictions(np.array([1, -1]), np.array([1]))

    def test_empty_dataset_is_error(self):
        empty = Dataset(X=sparse.csr_matrix((0, 1)), y=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="^empty dataset$"):
            confusion(LinearModel(w=np.array([1.0]), b=0.0), empty)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fn=0, fp=0, tn=0)


class TestReport:
    def test_hand_case(self):
        rep = report(ConfusionMatrix(tp=50, fn=10, fp=5, tn=35))
        assert rep.accuracy == pytest.approx(0.85)
        assert rep.precision == pytest.approx(0.9090909090909091)
        assert rep.recall == pytest.approx(0.8333333333333334)
        assert rep.specificity == pytest.approx(0.875)
        assert rep.sensitivity == rep.recall
        assert rep.f1 == pytest.approx(0.8695652173913043)
        assert rep.gmean == pytest.approx(0.8539125638299666)
        assert not rep.degenerate

    def test_perfect_case(self):
        rep = report(ConfusionMatrix(tp=5, fn=0, fp=0, tn=5))
        for name in ("accuracy", "precision", "recall", "specificity", "sensitivity", "f1", "gmean"):
            assert getattr(rep, name) == 1.0

    def test_degenerate_precision_flagged(self):
        rep = report(ConfusionMatrix(tp=0, fn=3, fp=0, tn=7))
        assert rep.precision == 0.0
        assert "precision" in rep.degenerate
        assert "f1" in rep.degenerate

    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            tp, fn, fp, tn = rng.integers(0, 40, size=4)
            rep = report(ConfusionMatrix(tp=int(tp), fn=int(fn), fp=int(fp), tn=int(tn)))
            for name in ("accuracy", "precision", "recall", "specificity", "sensitivity", "f1", "gmean"):
                assert 0.0 <= getattr(rep, name) <= 1.0

    def test_gmean_squared_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            tp, fn, fp, tn = (int(v) for v in rng.integers(1, 50, size=4))
            rep = report(ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn))
            assert rep.gmean ** 2 == pytest.approx(rep.recall * rep.specificity, abs=1e-12)

    def test_accuracy_is_prevalence_weighted_mix(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            tp, fn, fp, tn = (int(v) for v in rng.integers(1, 50, size=4))
            rep = report(ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn))
            n_pos, n_neg = tp + fn, fp + tn
            mix = (n_pos * rep.recall + n_neg * rep.specificity) / (n_pos + n_neg)
            assert rep.accuracy == pytest.approx(mix, abs=1e-12)
