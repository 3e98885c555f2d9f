"""Classification metrics and the early-stopping rule shared by all trainers."""

from __future__ import annotations

import numpy as np


def confusion_matrix(predictions, labels, n_classes: int) -> np.ndarray:
    """(n_classes, n_classes) count matrix; rows are true, columns predicted."""
    preds = np.asarray(predictions, dtype=np.int64)
    labs = np.asarray(labels, dtype=np.int64)
    if preds.shape != labs.shape:
        raise ValueError("predictions and labels differ in length")
    mat = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(mat, (labs, preds), 1)
    return mat


def accuracy_from_confusion(mat: np.ndarray) -> float:
    total = int(mat.sum())
    if total == 0:
        raise ValueError("empty label set")
    return float(np.trace(mat)) / total


def macro_f1_from_confusion(mat: np.ndarray) -> float:
    """Unweighted mean of per-class F1.

    Convention: a class with neither true instances nor predictions is
    excluded from the mean; a class with instances or predictions but zero
    precision+recall contributes F1 = 0.
    """
    if int(mat.sum()) == 0:
        raise ValueError("empty label set")
    f1s = []
    for c in range(mat.shape[0]):
        tp = float(mat[c, c])
        row = float(mat[c].sum())      # true instances
        col = float(mat[:, c].sum())   # predictions
        if row == 0.0 and col == 0.0:
            continue
        denom = row + col              # = 2TP + FP + FN
        f1s.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(f1s)) if f1s else 0.0


def split_scores(conf: np.ndarray, loss: float) -> dict:
    """One split's scores from its confusion matrix and summed loss; an
    empty split scores NaN."""
    if int(conf.sum()) == 0:
        return {"accuracy": float("nan"), "macro_f1": float("nan"), "loss": loss}
    return {"accuracy": accuracy_from_confusion(conf), "macro_f1": macro_f1_from_confusion(conf),
            "loss": loss}


class EarlyStopper:
    """Stop after `patience` epochs without a strict validation improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = -1
        self.stale = 0

    def update(self, epoch: int, val_score: float) -> bool:
        """Record one epoch; returns True when this epoch is a new best."""
        if val_score > self.best:
            self.best = val_score
            self.best_epoch = epoch
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale >= self.patience
