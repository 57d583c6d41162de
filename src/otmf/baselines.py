"""Continual merging baselines.

All three methods consume the task-vector stream one vector at a time and
keep only the running merged vector, matching the constant-memory contract
of the mask-trained merger they are compared against. Task vectors and
merged vectors are flat arrays (otmf.models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError

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


def baseline_fold(method: str, cfg: BaselineConfig) -> Callable[[np.ndarray], np.ndarray]:
    """The method's streaming fold: a function that takes the next task
    vector and returns the merged task vector so far. swa keeps the running
    mean, task_arithmetic the running sum, scaled by cfg.scaling on output,
    and ties the left fold of ties_merge_pair; the first call returns the
    first vector alone (scaled, for task arithmetic). The fold keeps only
    the running merged vector and checks nothing about the stream."""
    if method not in METHODS:
        raise ConfigError(f"unknown baseline method '{method}'")
    merged, t = None, 0

    def fold(delta: np.ndarray) -> np.ndarray:
        nonlocal merged, t
        t += 1
        if t == 1:
            merged = delta
        elif method == "swa":
            merged = merged + (delta - merged) / t
        elif method == "task_arithmetic":
            merged = merged + delta
        else:
            merged = ties_merge_pair(merged, delta, cfg.trim_fraction)
        return cfg.scaling * merged if method == "task_arithmetic" else merged

    return fold
