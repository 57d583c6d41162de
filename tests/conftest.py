"""Shared fixtures: small random models and parameter vectors."""

import numpy as np
import pytest

from otmf.models import ModelSpec, ToyModel, init_head, init_model
from otmf.params import ParamVector


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_pv(rng, layout=(("a", (3, 2)), ("b", (4,)))) -> ParamVector:
    return ParamVector({name: rng.normal(size=shape) for name, shape in layout})


def small_model(rng, dims=(3, 4, 3), num_heads=0, classes=3) -> ToyModel:
    spec = ModelSpec(dims)
    model = init_model(spec, seed=int(rng.integers(1 << 30)))
    backbone = ParamVector(
        {n: a + 0.1 * rng.normal(size=a.shape) for n, a in model.backbone.entries.items()}
    )
    heads = {f"task{i + 1:02d}": init_head(spec, classes, rng) for i in range(num_heads)}
    return ToyModel(spec=spec, backbone=backbone, heads=heads)
