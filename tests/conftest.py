"""Shared fixtures: small random models, the cross-entropy loss, the OT
oracle, a mask side's state and the default worlds."""

import dataclasses
import itertools
from functools import lru_cache

import numpy as np
import pytest

from otmf.cli import RunConfig
from otmf.errors import DataError, ShapeMismatchError
from otmf.fusion import MaskSide
from otmf.models import (Batch, ModelSpec, ToyModel, _softmax, forward_logits, init_head,
                         init_model, train_world)
from otmf.taskgen import generate_stream


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def small_model(rng, dims=(3, 4, 3), num_heads=0, classes=3) -> ToyModel:
    spec = ModelSpec(dims)
    model = init_model(spec, seed=int(rng.integers(1 << 30)))
    backbone = model.backbone + 0.1 * rng.normal(size=model.backbone.shape)
    heads = {f"task{i + 1:02d}": init_head(spec, classes, rng) for i in range(num_heads)}
    return ToyModel(spec=spec, backbone=backbone, heads=heads)


def cross_entropy_loss(model: ToyModel, task: str, batch: Batch) -> float:
    """Mean softmax cross-entropy of the task's head on the batch."""
    probs = _softmax(forward_logits(model, task, batch.inputs))
    return float(-np.log(probs[np.arange(batch.size), batch.labels] + 1e-300).mean())


def exact_ot_oracle(C: np.ndarray) -> float:
    """Exact OT cost for uniform marginals by permutation enumeration.

    For square cost matrices with uniform marginals the LP optimum is
    attained at a permutation, so the minimum over all n! assignments is
    exact. Deliberately brute force; serves as the solver's test oracle.
    """
    n, m = C.shape
    if n != m:
        raise ShapeMismatchError(f"oracle needs a square matrix, got {n}x{m}")
    if n > 8:
        raise DataError(f"oracle limited to n <= 8, got n={n}")
    perms = itertools.permutations(range(n))
    return min(sum(C[i, p[i]] for i in range(n)) for p in perms) / n


def side_state(side: MaskSide) -> tuple:
    """Everything a mask epoch may change on a side, copied: mask, Adam
    moments and step count, solve counts and the target's duals (replaced,
    never written in place, by a solve)."""
    return (side.mask.copy(), side.m.copy(), side.v.copy(), side.t, side.solver.counts(),
            side.target.duals)


def same_state(a: tuple, b: tuple) -> bool:
    """Whether two side_state snapshots are bit-identical."""
    return (all(np.array_equal(x, y) for x, y in zip(a[:3], b[:3]))
            and a[3:5] == b[3:5] and a[5] is b[5])


@lru_cache(maxsize=None)
def build_world(seed, num_tasks=3):
    """The default stream's tasks (num_tasks of them) and the world `otmf train` fine-tunes
    on them: the pretrained model, theta0 (its backbone, no heads) and the task models."""
    cfg = RunConfig()
    pretrain, tasks = generate_stream(dataclasses.replace(cfg.stream, num_tasks=num_tasks), seed)
    pre, sfts, _ = train_world(cfg.model, pretrain, [(td.task_id, td.train) for td in tasks],
                               cfg.stream.classes_per_task, cfg.sft.epochs, cfg.sft.lr, seed)
    return tasks, pre, ToyModel(spec=cfg.model, backbone=pre.backbone), tuple(sfts)
