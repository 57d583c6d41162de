"""Continual merging baselines.

All three methods consume the task-vector stream one vector at a time and
keep only the running merged vector, matching the constant-memory contract
of the mask-trained merger they are compared against. Task vectors and
merged vectors are flat arrays (otmf.models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError, ShapeMismatchError

METHODS = ("swa", "task_arithmetic", "ties")


@dataclass(frozen=True)
class BaselineConfig:
    scaling: float = 0.3  # task-arithmetic coefficient
    trim_fraction: float = 0.2  # ties top-magnitude keep rate

    def __post_init__(self):
        if not 0.0 < self.trim_fraction <= 1.0:
            raise ConfigError(f"trim_fraction must be in (0, 1], got {self.trim_fraction}")
        if not math.isfinite(self.scaling):
            raise ConfigError(f"scaling must be finite, got {self.scaling}")


def _trim(flat: np.ndarray, trim_fraction: float) -> np.ndarray:
    """Zero all but the top trim_fraction entries by absolute value."""
    keep = math.ceil(trim_fraction * flat.size)
    if keep >= flat.size:
        return flat.copy()
    order = np.argsort(np.abs(flat), kind="stable")
    out = flat.copy()
    out[order[: flat.size - keep]] = 0.0
    return out


def ties_merge_pair(
    merged: np.ndarray, incoming: np.ndarray, trim_fraction: float
) -> np.ndarray:
    """One trim / elect / disjoint-merge step of streaming ties-merging,
    on two flat vectors of one shape.

    Zero-magnitude sign ties elect positive, a fixed rule the source
    method leaves open.
    """
    a = _trim(merged, trim_fraction)
    b = _trim(incoming, trim_fraction)
    pos_mass = np.maximum(a, 0.0) + np.maximum(b, 0.0)
    neg_mass = np.maximum(-a, 0.0) + np.maximum(-b, 0.0)
    elected = np.where(pos_mass >= neg_mass, 1.0, -1.0)
    agree_a = (a != 0.0) & (np.sign(a) == elected)
    agree_b = (b != 0.0) & (np.sign(b) == elected)
    count = agree_a.astype(np.float64) + agree_b.astype(np.float64)
    total = np.where(agree_a, a, 0.0) + np.where(agree_b, b, 0.0)
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


def baseline_fold(
    method: str, cfg: BaselineConfig, task_vectors: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """Yield the merged task vector after each incoming task vector.

    swa keeps the running mean, task_arithmetic the running sum, scaled by
    cfg.scaling on output, and ties the left fold of ties_merge_pair. The
    first yield is the first vector alone (scaled, for task arithmetic).
    Vectors are pulled one at a time, so a lazy iterable keeps one incoming
    vector resident. A vector whose shape differs from the first's raises
    ShapeMismatchError, and a stream of fewer than two vectors raises
    DataError once it is exhausted.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown baseline method '{method}'")
    t = 0
    for t, delta in enumerate(task_vectors, start=1):
        if t == 1:
            merged = delta
        elif np.shape(delta) != np.shape(merged):
            raise ShapeMismatchError(
                f"task vector {t} has shape {np.shape(delta)}, the first {np.shape(merged)}")
        elif method == "swa":
            merged = merged + (delta - merged) / t
        elif method == "task_arithmetic":
            merged = merged + delta
        else:
            merged = ties_merge_pair(merged, delta, cfg.trim_fraction)
        yield cfg.scaling * merged if method == "task_arithmetic" else merged
    if t < 2:
        raise DataError("continual merging needs at least 2 task vectors")
