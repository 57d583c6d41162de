"""Evaluation metrics: feature-space shift, accuracy, and backward transfer."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DataError, ShapeMismatchError
from .models import Batch, ToyModel, forward_features, forward_logits
from .sinkhorn import SinkhornConfig, SolverState, TransportPlan, sinkhorn_distance


def normalized_feature_scale(reference: np.ndarray) -> float:
    """Scale that brings the reference cloud to unit mean norm."""
    mean_norm = float(np.linalg.norm(reference, axis=1).mean())
    return 1.0 / mean_norm if mean_norm > 0 else 1.0


def _check_clouds(fm: np.ndarray, fr: np.ndarray) -> None:
    if len(fm) == 0 or len(fr) == 0:
        raise DataError("feature cloud is empty")
    if fm.shape != fr.shape:
        raise ShapeMismatchError(f"feature clouds differ in shape: {fm.shape} vs {fr.shape}")


def l1_shift(fm: np.ndarray, fr: np.ndarray) -> float:
    """Mean per-sample l1 distance between two models' features of the same inputs."""
    _check_clouds(fm, fr)
    return float(np.abs(fm - fr).sum(axis=1).mean())


def sinkhorn_shift(
    fm: np.ndarray, fr: np.ndarray, cfg: SinkhornConfig
) -> tuple[float, TransportPlan]:
    """Sinkhorn distance between two feature clouds and its plan, both clouds
    scaled to the reference cloud fr's unit-mean-norm convention."""
    _check_clouds(fm, fr)
    s = normalized_feature_scale(fr)
    return sinkhorn_distance(s * fm, s * fr, cfg)


class Shift(NamedTuple):
    """A merged model's shifts from a reference on one input cloud and the
    two feature clouds they measure. It keeps no plan: score_shift records
    the Sinkhorn solve in the caller's SolverState, so the n x m plan is
    freed when the solve returns."""

    l1: float
    sinkhorn: float
    merged: np.ndarray
    reference: np.ndarray


def score_shift(
    merged: ToyModel,
    reference: ToyModel,
    inputs: np.ndarray,
    cfg: SinkhornConfig,
    solver: SolverState,
) -> Shift:
    """Both shifts of merged from reference on inputs, from one feature
    pass per model; solver counts the Sinkhorn solve."""
    fm = forward_features(merged, inputs)
    fr = forward_features(reference, inputs)
    l1 = l1_shift(fm, fr)
    distance, plan = sinkhorn_shift(fm, fr, cfg)
    solver.record(plan)
    return Shift(l1, distance, fm, fr)


def accuracy(model: ToyModel, task: str, batch: Batch) -> float:
    """Fraction of argmax-correct predictions; argmax ties break low."""
    logits = forward_logits(model, task, batch.inputs)
    preds = np.argmax(logits, axis=1)  # np.argmax already takes the lowest index
    return float((preds == batch.labels).mean())


def bwt(matrix: np.ndarray) -> float:
    """Backward transfer of a T x T accuracy matrix, whose entry [t, i] is
    the accuracy after merge step t + 1 on task i + 1: the mean over the
    first T - 1 tasks of final-row minus diagonal accuracy."""
    if len(matrix) < 2:
        raise DataError("BWT needs at least 2 tasks")
    return float(np.mean(matrix[-1, :-1] - np.diag(matrix)[:-1]))
