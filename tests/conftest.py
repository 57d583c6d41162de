"""Shared fixtures: small random models, the cross-entropy loss and the OT
oracle."""

import itertools

import numpy as np
import pytest

from otmf.errors import DataError, ShapeMismatchError
from otmf.models import Batch, ModelSpec, ToyModel, _softmax, forward_logits, init_head, init_model
from otmf.sinkhorn import CostMatrix


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


def exact_ot_oracle(C: CostMatrix) -> float:
    """Exact OT cost for uniform marginals by permutation enumeration.

    For square cost matrices with uniform marginals the LP optimum is
    attained at a permutation, so the minimum over all n! assignments is
    exact. Deliberately brute force; serves as the solver's test oracle.
    """
    if C.n != C.m:
        raise ShapeMismatchError(f"oracle needs a square matrix, got {C.n}x{C.m}")
    if C.n > 8:
        raise DataError(f"oracle limited to n <= 8, got n={C.n}")
    values = C.values
    perms = itertools.permutations(range(C.n))
    return min(sum(values[i, p[i]] for i in range(C.n)) for p in perms) / C.n
