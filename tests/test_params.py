"""A model's parameters are private copies: write-protected arrays held by a
frozen ToyModel."""

import numpy as np
import pytest

from otmf.models import ModelSpec, ToyModel, init_head, init_model


def test_constructor_copies_and_write_protects(rng):
    spec = ModelSpec((3, 4, 3))
    backbone, head = init_model(spec, seed=0).backbone.copy(), init_head(spec, 3, rng)
    model = ToyModel(spec, backbone, {"t": head})
    backbone[0] = head["weight"][0, 0] = 99.0
    assert model.backbone[0] != 99.0 and model.heads["t"]["weight"][0, 0] != 99.0
    for arr in (model.backbone, *model.heads["t"].values()):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_immutable():
    spec = ModelSpec((3, 4, 3))
    model = init_model(spec, seed=0)
    with pytest.raises(AttributeError):
        model.backbone = np.zeros_like(model.backbone)
    with pytest.raises(AttributeError):
        model.heads = {}
