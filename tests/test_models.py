import numpy as np
import pytest

from conftest import cross_entropy_loss, small_model
from otmf.errors import ConfigError, DataError, NumericalError, ShapeMismatchError
from otmf.models import (
    _forward_trace,
    _label_grads,
    _softmax,
    Batch,
    ModelSpec,
    ToyModel,
    backbone_layout,
    backward,
    forward_features,
    forward_logits,
    head_gradient,
    init_head,
    init_model,
    layer_views,
    task_vector,
    train_sft,
)


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
    assert model.backbone.shape == (5 * 3 + 5 + 2 * 5 + 2,)
    views = layer_views(model.backbone, layout)
    assert [(n, a.shape) for n, a in views.items()] == layout
    assert np.array_equal(views["layer0.bias"], np.zeros(5))
    assert np.array_equal(init_model(spec, seed=1).backbone, model.backbone)


def test_model_rejects_empty_and_nonfinite_parameters(rng):
    spec = ModelSpec((3, 4, 3))
    backbone, head = init_model(spec, seed=0).backbone, init_head(spec, 3, rng)
    with pytest.raises(ShapeMismatchError):
        ToyModel(spec, np.empty(0))
    with pytest.raises(ShapeMismatchError):
        ToyModel(spec, backbone, {"t": {"weight": np.empty((0, 3)), "bias": np.empty(0)}})
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError):
            ToyModel(spec, np.where(np.arange(backbone.size) == 5, bad, backbone))
        with pytest.raises(NumericalError):
            ToyModel(spec, backbone, {"t": dict(head, bias=np.array([0.0, bad, 0.0]))})


def test_model_rejects_a_wrong_size(rng):
    spec = ModelSpec((3, 4, 3))
    backbone, head = init_model(spec, seed=0).backbone, init_head(spec, 3, rng)
    for bad in (backbone[:-1], np.append(backbone, 0.0), backbone.reshape(-1, 1)):
        with pytest.raises(ShapeMismatchError):
            ToyModel(spec, bad)
    for bad in ({"weight": head["weight"]},
                dict(head, scale=np.ones(3)),
                dict(head, weight=head["weight"][:, :2]),
                dict(head, weight=head["weight"].T[:2]),
                dict(head, bias=head["bias"][:2]),
                dict(head, bias=head["bias"].reshape(3, 1))):
        with pytest.raises(ShapeMismatchError):
            ToyModel(spec, backbone, {"t": bad})


def test_constructor_copies_and_write_protects(rng):
    # a model's parameters are private copies: write-protected arrays
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


def test_overflowing_logits_raise(rng):
    # every feature is tanh(10), so a head row of the largest finite float
    # overflows; a finite head must not score on inf logits
    model = small_model(rng)
    backbone = model.backbone.copy()
    layers = layer_views(backbone, backbone_layout(model.spec))
    layers["layer1.weight"][...] = 0.0
    layers["layer1.bias"][...] = 10.0
    head = {"weight": np.full((3, 3), np.finfo(np.float64).max), "bias": np.zeros(3)}
    model = ToyModel(model.spec, backbone, {"t": head})
    batch = make_batch(rng)
    with pytest.raises(NumericalError):
        forward_logits(model, "t", batch.inputs)
    with pytest.raises(NumericalError):
        head_gradient(forward_features(model, batch.inputs), head, batch.labels)


def _fd_check(loss_fn, flat: np.ndarray, g: np.ndarray, h=1e-6, tol=1e-6):
    """loss_fn's central differences at the flat parameters against g."""
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        p, m = flat.copy(), flat.copy()
        p[i] += h
        m[i] -= h
        fd[i] = (loss_fn(p) - loss_fn(m)) / (2 * h)
    assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < tol


def _head_layout(head):
    return [(n, head[n].shape) for n in ("weight", "bias")]


def _stacked_label_grads(models, task, batches):
    """_label_grads of models (sharing a spec) on their batches, stacked
    along a leading axis as train_sft stacks its runs; each model's
    backbone and head gradients, flat."""
    spec = models[0].spec
    backbone = {n: np.stack([layer_views(m.backbone, backbone_layout(spec))[n] for m in models])
                for n, _ in backbone_layout(spec)}
    head = {n: np.stack([m.heads[task][n] for m in models]) for n in ("weight", "bias")}
    g_back, g_head = _label_grads(spec, backbone, head, np.stack([b.inputs for b in batches]),
                                  np.stack([b.labels for b in batches]))
    return ([np.concatenate([g[i].ravel() for g in g_back.values()]) for i in range(len(models))],
            [np.concatenate([g[i].ravel() for g in g_head.values()]) for i in range(len(models))])


def _two_models_and_batches(rng, spec):
    models, batches = [], []
    for seed in (3, 4):
        models.append(ToyModel(spec, init_model(spec, seed=seed).backbone,
                               {"t": init_head(spec, 3, rng)}))
        batches.append(make_batch(rng))
    return models, batches


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_backbone_gradient_matches_fd(rng, activation):
    # two models stacked, as train_sft runs them: each slice's gradient is
    # its own model's
    spec = ModelSpec((3, 4, 3), activation=activation)
    # keep relu pre-activations away from the kink
    models, batches = _two_models_and_batches(rng, spec)
    grads, _ = _stacked_label_grads(models, "t", batches)

    for model, batch, grad in zip(models, batches, grads):
        def loss(backbone):
            return cross_entropy_loss(ToyModel(spec, backbone, model.heads), "t", batch)

        _fd_check(loss, model.backbone, grad)


def test_head_gradient_matches_fd(rng):
    spec = ModelSpec((3, 4, 3))
    models, batches = _two_models_and_batches(rng, spec)
    _, grads = _stacked_label_grads(models, "t", batches)

    for model, batch, grad in zip(models, batches, grads):
        layout = _head_layout(model.heads["t"])

        def loss(head):
            return cross_entropy_loss(
                ToyModel(spec, model.backbone, {"t": layer_views(head, layout)}), "t", batch)

        _fd_check(loss, np.concatenate([a.ravel() for a in model.heads["t"].values()]), grad)


def test_feature_grad_mode_matches_fd(rng):
    """Backbone gradient of sum(w * features) via the upstream-gradient path."""
    spec = ModelSpec((3, 4, 2))
    model = init_model(spec, seed=5)
    inputs = rng.normal(size=(6, 3))
    w = rng.normal(size=(6, 2))
    # from the forward trace that gave the features, as the mask loop does
    layers = layer_views(model.backbone, backbone_layout(spec))
    trace = _forward_trace(spec, layers, inputs)
    grad = backward(spec, layers, trace, w)

    def loss(backbone):
        return float((w * forward_features(ToyModel(spec, backbone), inputs)).sum())

    _fd_check(loss, model.backbone, grad)


def test_train_sft_deterministic_and_learns(rng):
    spec = ModelSpec((3, 6, 3))
    init = init_model(spec, seed=0)
    x = np.concatenate([rng.normal(c, 0.2, size=(20, 3)) for c in np.eye(3) * 2])
    y = np.repeat(np.arange(3), 20)
    batch = Batch(x, y)
    [m1] = train_sft(init, [("t", batch, 7)], 3, epochs=150, lr=0.2)
    [m2] = train_sft(init, [("t", batch, 7)], 3, epochs=150, lr=0.2)
    _assert_same_bits(m1, m2, "t")
    fresh = ToyModel(spec=spec, backbone=init.backbone, heads=m1.heads)
    assert cross_entropy_loss(m1, "t", batch) < cross_entropy_loss(fresh, "t", batch)
    preds_ok = (np.argmax(forward_logits(m1, "t", x), axis=1) == y).mean()
    assert preds_ok > 0.9


def _reference_sft(spec, init, task, batch, num_classes, epochs, lr, seed):
    """The per-layer dict loop, one model at a time, that train_sft's
    stacked flat buffer replaces: every layer and the head are separate
    arrays, updated one by one."""
    head = init_head(spec, num_classes, np.random.default_rng(seed))
    back = {n: a.copy() for n, a in layer_views(init.backbone, backbone_layout(spec)).items()}
    for _ in range(epochs):
        g_back, g_head = _label_grads(spec, back, head, batch.inputs, batch.labels)
        back = {n: back[n] - lr * g_back[n] for n in back}
        head = {n: head[n] - lr * g_head[n] for n in ("weight", "bias")}
    return ToyModel(spec=spec, backbone=np.concatenate([a.ravel() for a in back.values()]),
                    heads={task: head})


def _assert_same_bits(got, want, task):
    assert got.backbone.shape == want.backbone.shape
    assert got.backbone.tobytes() == want.backbone.tobytes()
    assert list(got.heads) == [task]
    for name in ("weight", "bias"):
        assert got.heads[task][name].shape == want.heads[task][name].shape
        assert got.heads[task][name].tobytes() == want.heads[task][name].tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_train_sft_matches_per_layer_loop(rng, activation):
    # same arithmetic in the same order, so the flat buffer is exact
    spec = ModelSpec((4, 7, 5, 3), activation=activation)
    init = init_model(spec, seed=3)
    batch = make_batch(rng, n=30, d=4, k=4)
    [got] = train_sft(init, [("t", batch, 11)], 4, epochs=25, lr=0.3)
    want = _reference_sft(spec, init, "t", batch, 4, epochs=25, lr=0.3, seed=11)
    _assert_same_bits(got, want, "t")


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_stacked_sft_equals_one_run_at_a_time(rng, activation):
    # each slice of the stack does its own model's arithmetic, so training
    # three models together gives each one's solo run bit for bit
    spec = ModelSpec((4, 7, 5, 3), activation=activation)
    init = init_model(spec, seed=3)
    runs = [(f"t{i}", make_batch(rng, n=30, d=4, k=4), 11 + i) for i in range(3)]
    stacked = train_sft(init, runs, 4, epochs=25, lr=0.3)
    for run, got in zip(runs, stacked):
        [alone] = train_sft(init, [run], 4, epochs=25, lr=0.3)
        _assert_same_bits(got, alone, run[0])
        _assert_same_bits(got, _reference_sft(spec, init, *run[:2], 4, 25, 0.3, run[2]), run[0])


def test_train_sft_rejects_bad_runs(rng):
    spec = ModelSpec((3, 4, 3))
    runs = [("a", make_batch(rng, n=12), 0), ("b", make_batch(rng, n=13), 1)]
    with pytest.raises(ShapeMismatchError):
        train_sft(init_model(spec, seed=0), runs, 3, epochs=2, lr=0.1)
    with pytest.raises(DataError):
        train_sft(init_model(spec, seed=0), [], 3, epochs=2, lr=0.1)
    # label 3 has no row in a 3-class head
    beyond = Batch(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(DataError):
        train_sft(init_model(spec, seed=0), [("c", beyond, 2)], 3, epochs=2, lr=0.1)


def test_train_sft_overflowing_update_raises_without_warnings(rng):
    # the first step overflows the update itself, silently (the suite turns
    # any RuntimeWarning into an error), into the per-epoch finite check
    spec = ModelSpec((3, 6, 3), activation="relu")
    batch = Batch(1e3 * rng.normal(size=(40, 3)), rng.integers(0, 3, size=40))
    with pytest.raises(NumericalError, match="non-finite parameters"):
        train_sft(init_model(spec, seed=0), [("t", batch, 0)], 3,
                  epochs=20, lr=np.finfo(np.float64).max)


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_overflow_in_one_stacked_model_names_its_task(rng, bad):
    # (a) one model's forward pass overflows; (b) with relu, zero inputs and
    # balanced labels give a model all-zero gradients, so at the largest
    # step size only the other model's first update overflows
    spec = ModelSpec((3, 6, 2), activation="relu")
    runs = [(f"task{i}", make_batch(rng, n=32, k=2), i) for i in range(3)]
    huge = Batch(np.full((32, 3), 1e308), runs[bad][1].labels)
    runs[bad] = (runs[bad][0], huge, bad)
    with pytest.raises(NumericalError, match=f"'task{bad}': layer . pre-activation") as exc:
        train_sft(init_model(spec, seed=0), runs, 2, epochs=3, lr=0.1)
    assert exc.value.__cause__.model == bad

    calm = Batch(np.zeros((32, 3)), np.repeat([0, 1], 16))
    runs = [(f"task{i}", calm, i) for i in range(3)]
    runs[bad] = (f"task{bad}", Batch(1e3 * rng.normal(size=(32, 3)), calm.labels), bad)
    with pytest.raises(NumericalError, match=f"'task{bad}': .*non-finite parameters"):
        train_sft(init_model(spec, seed=0), runs, 2, epochs=3,
                  lr=np.finfo(np.float64).max)


def test_softmax_survives_overflowing_row_spread():
    # the row spread 2e308 overflows to inf; exp(-inf) = 0 is the exact limit
    np.testing.assert_array_equal(_softmax(np.array([[1e308, -1e308]])), [[1.0, 0.0]])


def test_task_vector_is_difference(rng):
    base = small_model(rng)
    shifted = ToyModel(base.spec, base.backbone + 0.5, base.heads)
    delta = task_vector(shifted, base)
    np.testing.assert_allclose(delta, np.full_like(base.backbone, 0.5))


def test_task_vector_rejects_a_spec_mismatch(rng):
    # both layouts hold 31 parameters, so the flat difference would exist
    base = small_model(rng)
    other = init_model(ModelSpec((30, 1)), seed=0)
    assert other.backbone.shape == base.backbone.shape
    relu = ToyModel(ModelSpec((3, 4, 3), activation="relu"), base.backbone)
    for model in (other, relu):
        with pytest.raises(ShapeMismatchError):
            task_vector(model, base)
        with pytest.raises(ShapeMismatchError):
            task_vector(base, model)
