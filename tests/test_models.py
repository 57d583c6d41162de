import numpy as np
import pytest

from conftest import small_model
from otmf.errors import ConfigError, DataError, ShapeMismatchError
from otmf.models import (
    Batch,
    ModelSpec,
    ToyModel,
    backbone_layout,
    backward,
    cross_entropy_loss,
    forward_features,
    forward_logits,
    init_head,
    init_model,
    label_gradients,
    task_vector,
    train_sft,
)
from otmf.params import ParamVector


def make_batch(rng, n=12, d=3, k=3):
    return Batch(rng.normal(size=(n, d)), rng.integers(0, k, size=n))


def test_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec((4,))
    with pytest.raises(ConfigError):
        ModelSpec((4, 0))
    with pytest.raises(ConfigError):
        ModelSpec((4, 3), activation="sigmoid")
    spec = ModelSpec((4, 8, 2))
    assert spec.input_dim == 4 and spec.feature_dim == 2 and spec.num_layers == 2


def test_batch_validation(rng):
    with pytest.raises(ShapeMismatchError):
        Batch(rng.normal(size=(3,)), np.zeros(3, dtype=int))
    with pytest.raises(ShapeMismatchError):
        Batch(rng.normal(size=(3, 2)), np.zeros(4, dtype=int))
    with pytest.raises(DataError):
        Batch(rng.normal(size=(2, 2)), np.array([0, -1]))


def test_layout_and_init():
    spec = ModelSpec((3, 5, 2))
    layout = backbone_layout(spec)
    assert layout == [
        ("layer0.weight", (5, 3)),
        ("layer0.bias", (5,)),
        ("layer1.weight", (2, 5)),
        ("layer1.bias", (2,)),
    ]
    model = init_model(spec, seed=1)
    assert model.backbone.signature() == tuple((n, s) for n, s in layout)
    assert np.array_equal(model.backbone["layer0.bias"], np.zeros(5))
    assert init_model(spec, seed=1) == ToyModel(spec=spec, backbone=model.backbone)


def test_forward_shapes_and_activation(rng):
    for act in ("tanh", "relu"):
        spec = ModelSpec((3, 4, 2), activation=act)
        model = init_model(spec, seed=0)
        feats = forward_features(model, rng.normal(size=(7, 3)))
        assert feats.shape == (7, 2)
        if act == "tanh":
            assert np.all(np.abs(feats) <= 1.0)
        else:
            assert np.all(feats >= 0.0)


def test_forward_rejects_bad_input_dim(rng):
    model = small_model(rng)
    with pytest.raises(ShapeMismatchError):
        forward_features(model, rng.normal(size=(4, 5)))


def test_logits_require_head(rng):
    model = small_model(rng)
    with pytest.raises(DataError):
        forward_logits(model, "task01", rng.normal(size=(2, 3)))
    with pytest.raises(DataError):
        label_gradients(model, "task01", make_batch(rng))


def _fd_check(loss_fn, params: ParamVector, grad: ParamVector, h=1e-6, tol=1e-6):
    flat = params.flatten()
    g = grad.flatten()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        p, m = flat.copy(), flat.copy()
        p[i] += h
        m[i] -= h
        fd[i] = (loss_fn(params.with_flat(p)) - loss_fn(params.with_flat(m))) / (2 * h)
    assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < tol


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_backbone_gradient_matches_fd(rng, activation):
    spec = ModelSpec((3, 4, 3), activation=activation)
    model = ToyModel(spec, init_model(spec, seed=3).backbone, {"t": init_head(spec, 3, rng)})
    # keep relu pre-activations away from the kink
    batch = make_batch(rng)
    grad, _ = label_gradients(model, "t", batch)

    def loss(backbone):
        return cross_entropy_loss(model.with_backbone(backbone), "t", batch)

    _fd_check(loss, model.backbone, grad)


def test_head_gradient_matches_fd(rng):
    spec = ModelSpec((3, 4, 3))
    model = ToyModel(spec, init_model(spec, seed=3).backbone, {"t": init_head(spec, 3, rng)})
    batch = make_batch(rng)
    _, grad = label_gradients(model, "t", batch)

    def loss(head):
        return cross_entropy_loss(ToyModel(spec, model.backbone, {"t": head}), "t", batch)

    _fd_check(loss, model.heads["t"], grad)


def test_feature_grad_mode_matches_fd(rng):
    """Backbone gradient of sum(w * features) via the upstream-gradient path."""
    spec = ModelSpec((3, 4, 2))
    model = init_model(spec, seed=5)
    inputs = rng.normal(size=(6, 3))
    w = rng.normal(size=(6, 2))
    grad = backward(model, inputs, w)

    def loss(backbone):
        return float((w * forward_features(model.with_backbone(backbone), inputs)).sum())

    _fd_check(loss, model.backbone, grad)


def test_train_sft_deterministic_and_learns(rng):
    spec = ModelSpec((3, 6, 3))
    init = init_model(spec, seed=0)
    x = np.concatenate([rng.normal(c, 0.2, size=(20, 3)) for c in np.eye(3) * 2])
    y = np.repeat(np.arange(3), 20)
    batch = Batch(x, y)
    m1 = train_sft(spec, init, "t", batch, 3, epochs=150, lr=0.2, seed=7)
    m2 = train_sft(spec, init, "t", batch, 3, epochs=150, lr=0.2, seed=7)
    assert m1 == m2
    fresh = ToyModel(spec=spec, backbone=init.backbone, heads=m1.heads)
    assert cross_entropy_loss(m1, "t", batch) < cross_entropy_loss(fresh, "t", batch)
    preds_ok = (np.argmax(forward_logits(m1, "t", x), axis=1) == y).mean()
    assert preds_ok > 0.9


def test_task_vector_is_difference(rng):
    base = small_model(rng)
    shifted = base.with_backbone(
        ParamVector({n: a + 0.5 for n, a in base.backbone.entries.items()})
    )
    delta = task_vector(shifted, base)
    for n in delta.layers():
        np.testing.assert_allclose(delta[n], np.full_like(base.backbone[n], 0.5))
