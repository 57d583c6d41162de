"""Evaluation metrics: feature-space shift, accuracy, and backward transfer."""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeMismatchError
from .models import Batch, ToyModel, forward_features, forward_logits
from .sinkhorn import SinkhornConfig, sinkhorn_distance


class AccuracyMatrix:
    """Lower-triangular matrix a[t][i]: accuracy after merge step t on task i.

    Steps and tasks are 1-indexed to match the merging protocol.
    """

    def __init__(self, num_tasks: int):
        if num_tasks < 1:
            raise DataError("need at least one task")
        self.num_tasks = num_tasks
        self._a = np.full((num_tasks, num_tasks), np.nan)

    def set(self, step: int, task: int, acc: float) -> None:
        if not (1 <= task <= step <= self.num_tasks):
            raise DataError(f"entry ({step}, {task}) outside lower triangle")
        if not 0.0 <= acc <= 1.0:
            raise DataError(f"accuracy {acc} outside [0, 1]")
        self._a[step - 1, task - 1] = acc

    def get(self, step: int, task: int) -> float:
        return float(self._a[step - 1, task - 1])

    def as_array(self) -> np.ndarray:
        return self._a.copy()

    def final_average(self) -> float:
        row = self._a[self.num_tasks - 1, :]
        if np.any(np.isnan(row)):
            raise DataError("final row is incomplete")
        return float(row.mean())


def normalized_feature_scale(reference: np.ndarray) -> float:
    """Scale that brings the reference cloud to unit mean norm."""
    mean_norm = float(np.linalg.norm(reference, axis=1).mean())
    return 1.0 / mean_norm if mean_norm > 0 else 1.0


def l1_shift(merged: ToyModel, reference: ToyModel, inputs: np.ndarray) -> float:
    """Mean per-sample l1 distance between the two models' features."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise DataError("empty input set")
    fm = forward_features(merged, inputs)
    fr = forward_features(reference, inputs)
    if fm.shape != fr.shape:
        raise ShapeMismatchError("feature dimensions differ between models")
    return float(np.abs(fm - fr).sum(axis=1).mean())


def sinkhorn_shift(
    merged: ToyModel, reference: ToyModel, inputs: np.ndarray, cfg: SinkhornConfig
) -> float:
    """Sinkhorn distance between the feature clouds, with both clouds scaled
    to the reference model's unit-mean-norm convention."""
    fm = forward_features(merged, inputs)
    fr = forward_features(reference, inputs)
    s = normalized_feature_scale(fr)
    return sinkhorn_distance(s * fm, s * fr, cfg)[0]


def accuracy(model: ToyModel, task: str, batch: Batch) -> float:
    """Fraction of argmax-correct predictions; argmax ties break low."""
    logits = forward_logits(model, task, batch.inputs)
    preds = np.argmax(logits, axis=1)  # np.argmax already takes the lowest index
    return float((preds == batch.labels).mean())


def bwt(matrix: AccuracyMatrix) -> float:
    """Backward transfer: mean final-row minus diagonal accuracy."""
    T = matrix.num_tasks
    if T < 2:
        raise DataError("BWT needs at least 2 tasks")
    vals = []
    for i in range(1, T):
        final = matrix.get(T, i)
        diag = matrix.get(i, i)
        if np.isnan(final) or np.isnan(diag):
            raise DataError(f"missing accuracy entries for task {i}")
        vals.append(final - diag)
    return float(np.mean(vals))
