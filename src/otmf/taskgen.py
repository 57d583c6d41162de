"""Deterministic synthetic task streams.

Each task is a Gaussian-blob classification problem whose class centroids
are a seeded rotation + translation of a shared base layout, with the
displacement scaled by a heterogeneity knob. The rotation is the
exponential of a random skew-symmetric matrix, taken through numpy's
Hermitian eigensolver. heterogeneity = 0 collapses every task onto the
same distribution; larger values make per-task specialists forget each
other under naive merging, which is what the merging comparisons need to
measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import Batch

_NOISE_STD = 0.6
_TEST_FRACTION = 0.2
_UNLABELED_POOL = 128
_CENTROID_SPREAD = 1.5


@dataclass(frozen=True)
class TaskStreamSpec:
    num_tasks: int = 3
    input_dim: int = 8
    classes_per_task: int = 4
    samples_per_task: int = 150
    heterogeneity: float = 3.5

    def __post_init__(self):
        if self.num_tasks < 2:
            raise ConfigError("need at least 2 tasks")
        if min(self.input_dim, self.classes_per_task) < 1:
            raise ConfigError("all stream counts must be positive")
        if self.samples_per_task < 2:  # else the test or the train split is empty
            raise ConfigError(f"samples_per_task must be >= 2, got {self.samples_per_task}")
        if not math.isfinite(self.heterogeneity) or self.heterogeneity < 0:
            raise ConfigError(f"bad heterogeneity {self.heterogeneity}")


@dataclass(frozen=True)
class TaskData:
    task_id: str
    train: Batch
    test: Batch
    unlabeled: np.ndarray  # inputs only, for the OT alignment loss


def _sample_task(rng, centroids, n_samples, d):
    k = centroids.shape[0]
    per = [n_samples // k + (1 if i < n_samples % k else 0) for i in range(k)]
    xs, ys = [], []
    for ci, cnt in enumerate(per):
        xs.append(rng.normal(centroids[ci], _NOISE_STD, size=(cnt, d)))
        ys.append(np.full(cnt, ci, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(len(y))
    return x[order], y[order]


def _rotation(h: float, skew: np.ndarray) -> np.ndarray:
    """exp(h * skew) for a real skew-symmetric matrix: a rotation.

    i*h*skew is Hermitian, so with its eigendecomposition V diag(w) V^H the
    exponential is V diag(exp(-i w)) V^H, real up to rounding.
    """
    w, v = np.linalg.eigh(1j * h * skew)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def task_ids(num_tasks: int) -> list[str]:
    """The ids of a stream's tasks, in stream order: task01, task02, ..."""
    return [f"task{t:02d}" for t in range(1, num_tasks + 1)]


def generate_stream(spec: TaskStreamSpec, seed: int = 0) -> tuple[Batch, list[TaskData]]:
    """Pretraining batch plus one (train, test, unlabeled) triple per task,
    drawn from seed."""
    rng = np.random.default_rng(seed)
    d, k = spec.input_dim, spec.classes_per_task
    base = rng.normal(0.0, _CENTROID_SPREAD, size=(k, d))

    # pretraining data comes from the un-rotated base layout
    pre_x, pre_y = _sample_task(rng, base, 4 * spec.samples_per_task, d)
    pretrain = Batch(pre_x, pre_y)

    tasks = []
    for tid in task_ids(spec.num_tasks):
        raw = rng.normal(size=(d, d))
        skew = (raw - raw.T) / 2.0
        rot = _rotation(spec.heterogeneity, skew)
        shift = spec.heterogeneity * rng.normal(0.0, 1.0, size=d)
        centroids = base @ rot.T + shift

        x, y = _sample_task(rng, centroids, spec.samples_per_task, d)
        n_test = max(1, int(round(_TEST_FRACTION * len(y))))
        test = Batch(x[:n_test], y[:n_test])
        train = Batch(x[n_test:], y[n_test:])
        unlabeled = rng.normal(
            centroids[rng.integers(0, k, size=_UNLABELED_POOL)], _NOISE_STD
        )
        tasks.append(TaskData(task_id=tid, train=train, test=test, unlabeled=unlabeled))
    return pretrain, tasks


def subsample_labeled(batch: Batch, fraction: float, seed: int) -> Batch:
    """Deterministic stratified subsample of ceil(fraction * n) labels,
    apportioned over the classes by largest remainder, each class keeping
    at least one when the budget allows: 120 labels in 4 classes of 30 at
    fraction 0.25 keep 8, 8, 7 and 7. Each class keeps the first of its
    rows in the order np.random.default_rng(seed).permutation would give,
    drawn through otmf._pcg; a negative seed raises ConfigError. The few
    remainders and row indices are ordered by Python's stable sorted, not
    numpy's sort, whose code would stay resident through the merge that
    calls this (about 0.37 MB of its peak)."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return batch
    # labels are non-negative integers (Batch checks), so bincount finds the
    # classes; np.unique would import numpy.ma, about 12 ms per process
    sizes = np.bincount(batch.labels)
    classes = np.flatnonzero(sizes)
    sizes = sizes[classes]
    total = math.ceil(fraction * batch.size)
    # largest-remainder apportionment of the total across classes, keeping
    # every class represented when the budget allows
    exact = fraction * sizes
    counts = np.floor(exact).astype(int)
    if total >= len(classes):
        counts = np.maximum(counts, 1)
    counts = np.minimum(counts, sizes)
    # top up by largest fractional remainder among classes with spare
    # capacity, ties in class order; total <= sum(sizes), so this always
    # terminates
    remainders = (exact - np.floor(exact)).tolist()
    order = sorted(range(len(classes)), key=remainders.__getitem__, reverse=True)
    i = 0
    while counts.sum() < total:
        j = order[i % len(classes)]
        if counts[j] < sizes[j]:
            counts[j] += 1
        i += 1
    while counts.sum() > total:
        j = int(np.argmax(counts))
        counts[j] -= 1

    from ._pcg import PCG64  # only a merge compiles it; see otmf._pcg

    rng = PCG64(seed)
    keep = []
    for c, cnt in zip(classes, counts):
        idx = np.flatnonzero(batch.labels == c)
        keep.extend(idx[rng.permutation(idx.size)[:cnt]].tolist())
    sel = sorted(keep)
    return Batch(batch.inputs[sel], batch.labels[sel])
