"""Confusion matrix and the scalar evaluation metrics derived from it."""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .data import Dataset
from .model import LinearModel, predict


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class EvalReport:
    """The seven scalar metrics; ``degenerate`` names any 0/0 ratio that was
    reported as 0. Sensitivity follows the standard tp/(tp+fn) definition and
    therefore equals recall; the tp/(tp+fp) variant equals precision and is
    available from the confusion matrix where needed."""

    accuracy: float
    precision: float
    recall: float
    specificity: float
    sensitivity: float
    f1: float
    gmean: float
    degenerate: frozenset[str] = frozenset()


def confusion_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("prediction/label length mismatch")
    pos = y_true == 1
    pred_pos = y_pred == 1
    tp = int(np.count_nonzero(pos & pred_pos))
    n_pos, n_pred = int(np.count_nonzero(pos)), int(np.count_nonzero(pred_pos))
    return ConfusionMatrix(tp=tp, fn=n_pos - tp, fp=n_pred - tp, tn=pos.size - n_pos - n_pred + tp)


def confusion(m: LinearModel, ds: Dataset) -> ConfusionMatrix:
    if len(ds) == 0:
        raise ValueError("empty dataset")
    X = ds.to_matrix(dim=m.dim)
    return confusion_from_predictions(ds.labels(), predict(m, X))


def report(cm: ConfusionMatrix) -> EvalReport:
    degenerate: set[str] = set()

    def ratio(name: str, num: int, den: int) -> float:
        if den == 0:
            degenerate.add(name)
            return 0.0
        return num / den

    accuracy = ratio("accuracy", cm.tp + cm.tn, cm.total)
    precision = ratio("precision", cm.tp, cm.tp + cm.fp)
    recall = ratio("recall", cm.tp, cm.tp + cm.fn)
    specificity = ratio("specificity", cm.tn, cm.tn + cm.fp)
    if recall + precision == 0.0:
        degenerate.add("f1")
        f1 = 0.0
    else:
        f1 = 2.0 * recall * precision / (recall + precision)
    gmean = math.sqrt(recall * specificity)
    return EvalReport(accuracy=accuracy, precision=precision, recall=recall,
                      specificity=specificity, sensitivity=recall, f1=f1,
                      gmean=gmean, degenerate=frozenset(degenerate))
