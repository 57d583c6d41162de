"""Small feed-forward classifiers with manual forward/backward passes.

A ToyModel is a stack of affine+nonlinearity layers (the shared backbone)
plus one affine classification head per task. Features are the activations
of the last backbone layer; logits are the head applied to those features.
Gradients are computed by hand-written reverse mode over the fixed layer
list and are validated against central finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import ConfigError, DataError, NumericalError, ShapeMismatchError
from .params import ParamVector, layer_views, pv_sub

_ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class ModelSpec:
    layer_dims: tuple[int, ...]  # input dim, hidden dims..., feature dim
    activation: str = "tanh"

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ConfigError("layer_dims needs at least input and feature dims")
        if any(d < 1 for d in self.layer_dims):
            raise ConfigError(f"all layer dims must be >= 1: {self.layer_dims}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation '{self.activation}'")
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # n x d
    labels: np.ndarray  # length n, class indices

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if x.ndim != 2:
            raise ShapeMismatchError("batch inputs must be 2-D")
        if y.shape != (x.shape[0],):
            raise ShapeMismatchError("labels length does not match inputs")
        if x.shape[0] < 1:
            raise DataError("batch is empty")
        if np.any(y < 0):
            raise DataError("negative class label")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class ToyModel:
    spec: ModelSpec
    backbone: ParamVector
    heads: dict[str, ParamVector] = field(default_factory=dict)

    def with_backbone(self, backbone: ParamVector) -> "ToyModel":
        if backbone.signature() != self.backbone.signature():
            raise ShapeMismatchError("replacement backbone has a different layout")
        return replace(self, backbone=backbone)


def backbone_layout(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    layout = []
    for i in range(spec.num_layers):
        fan_in, fan_out = spec.layer_dims[i], spec.layer_dims[i + 1]
        layout.append((f"layer{i}.weight", (fan_out, fan_in)))
        layout.append((f"layer{i}.bias", (fan_out,)))
    return layout


def init_model(spec: ModelSpec, seed: int) -> ToyModel:
    """Random backbone with scaled-Gaussian weights, zero biases."""
    rng = np.random.default_rng(seed)
    entries = {}
    for name, shape in backbone_layout(spec):
        if name.endswith("weight"):
            fan_in = shape[1]
            entries[name] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
        else:
            entries[name] = np.zeros(shape)
    return ToyModel(spec=spec, backbone=ParamVector(entries))


def init_head(spec: ModelSpec, num_classes: int, rng: np.random.Generator) -> ParamVector:
    return ParamVector(
        {
            "weight": rng.normal(0.0, 0.1, size=(num_classes, spec.feature_dim)),
            "bias": np.zeros(num_classes),
        }
    )


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - a * a
    return (z > 0.0).astype(np.float64)


def _forward_trace(spec: ModelSpec, backbone: Mapping[str, np.ndarray], inputs: np.ndarray):
    """Forward pass keeping pre/post-activation values for backprop.

    backbone maps each layer name of backbone_layout(spec) to its array (a
    ParamVector is one such mapping). A non-finite pre-activation (finite
    weights can overflow) raises NumericalError; it is checked before the
    activation, since tanh maps inf to a finite +-1.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ShapeMismatchError(f"inputs must be n x {spec.input_dim}, got {x.shape}")
    acts = [x]
    pre = []
    h = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(spec.num_layers):
            w = backbone[f"layer{i}.weight"]
            b = backbone[f"layer{i}.bias"]
            z = h @ w.T + b
            if not np.isfinite(z).all():
                raise NumericalError(f"layer {i} pre-activation is not finite")
            h = _activate(z, spec.activation)
            pre.append(z)
            acts.append(h)
    return acts, pre


def forward_features(model: ToyModel, inputs: np.ndarray) -> np.ndarray:
    """Latent features: activations of the last backbone layer."""
    acts, _ = _forward_trace(model.spec, model.backbone, inputs)
    return acts[-1]


def _logits(features: np.ndarray, head: Mapping[str, np.ndarray]) -> np.ndarray:
    """The head applied to features. A non-finite logit (a finite head can
    overflow) raises NumericalError, as a non-finite pre-activation does."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = features @ head["weight"].T + head["bias"]
    if not np.isfinite(logits).all():
        raise NumericalError("head logits are not finite")
    return logits


def forward_logits(model: ToyModel, task: str, inputs: np.ndarray) -> np.ndarray:
    if task not in model.heads:
        raise DataError(f"model has no head for task '{task}'")
    return _logits(forward_features(model, inputs), model.heads[task])


def _softmax(logits: np.ndarray) -> np.ndarray:
    # finite logits whose row spread exceeds the float maximum overflow to
    # -inf here, and exp maps -inf to 0, the exact limit
    with np.errstate(over="ignore"):
        z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_loss(model: ToyModel, task: str, batch: Batch) -> float:
    logits = forward_logits(model, task, batch.inputs)
    probs = _softmax(logits)
    n = batch.size
    return float(-np.log(probs[np.arange(n), batch.labels] + 1e-300).mean())


def _backprop_backbone(
    spec: ModelSpec, backbone: Mapping[str, np.ndarray], acts, pre, grad_features: np.ndarray
) -> dict[str, np.ndarray]:
    """Backbone gradient, in layout order, from a _forward_trace of backbone
    and the loss's gradient with respect to its features."""
    grads = {}
    delta = np.asarray(grad_features, dtype=np.float64)
    if delta.shape != acts[-1].shape:
        raise ShapeMismatchError(
            f"feature gradient shape {delta.shape} != features {acts[-1].shape}"
        )
    for i in reversed(range(spec.num_layers)):
        dz = delta * _activate_grad(pre[i], acts[i + 1], spec.activation)
        grads[f"layer{i}.weight"] = dz.T @ acts[i]
        grads[f"layer{i}.bias"] = dz.sum(axis=0)
        if i > 0:
            delta = dz @ backbone[f"layer{i}.weight"]
    return {name: grads[name] for name, _ in backbone_layout(spec)}


def backward(
    spec: ModelSpec, backbone: Mapping[str, np.ndarray], trace, feature_grad: np.ndarray
) -> np.ndarray:
    """Flat backbone gradient, in layout order, of a loss whose gradient
    with respect to the features is feature_grad (the OT alignment path).

    trace is the _forward_trace of backbone on the loss's inputs, so the
    gradient reuses the forward pass that gave the features.
    """
    acts, pre = trace
    grads = _backprop_backbone(spec, backbone, acts, pre, feature_grad)
    return np.concatenate([g.ravel() for g in grads.values()])


def head_gradient(
    features: np.ndarray, head: Mapping[str, np.ndarray], labels: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Softmax cross-entropy gradient of a head on fixed features.

    Returns the head's gradient ("weight", "bias") and the loss's gradient
    with respect to the logits.
    """
    probs = _softmax(_logits(features, head))
    n = features.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return {"weight": dlogits.T @ features, "bias": dlogits.sum(axis=0)}, dlogits


def _label_grads(
    spec: ModelSpec,
    backbone: Mapping[str, np.ndarray],
    head: Mapping[str, np.ndarray],
    batch: Batch,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    acts, pre = _forward_trace(spec, backbone, batch.inputs)
    g_head, dlogits = head_gradient(acts[-1], head, batch.labels)
    g_back = _backprop_backbone(spec, backbone, acts, pre, dlogits @ head["weight"])
    return g_back, g_head


def label_gradients(
    model: ToyModel, task: str, batch: Batch
) -> tuple[ParamVector, ParamVector]:
    """Backbone and head gradients of the task's cross-entropy loss, from
    one forward pass."""
    if task not in model.heads:
        raise DataError(f"model has no head for task '{task}'")
    g_back, g_head = _label_grads(model.spec, model.backbone, model.heads[task], batch)
    return ParamVector(g_back), ParamVector(g_head)


def train_sft(
    spec: ModelSpec,
    init: ToyModel,
    task: str,
    train_batch: Batch,
    num_classes: int,
    epochs: int,
    lr: float,
    seed: int,
) -> ToyModel:
    """Full-batch gradient-descent fine-tuning of backbone + fresh head.

    Backbone and head live in one flat float64 buffer with per-layer views,
    and their gradients in a second one. Each epoch takes both gradients
    from one forward pass, updates the whole buffer in one step and checks
    it once: a non-finite parameter raises NumericalError. The model is
    built once, at the end. Deterministic given the seed; the seed only
    affects head initialization.
    """
    if train_batch.size == 0:
        raise DataError("empty training batch")
    rng = np.random.default_rng(seed)
    head = init_head(spec, num_classes, rng)
    n_back = init.backbone.num_params()
    flat = np.concatenate([init.backbone.flatten(), head.flatten()])
    grad = np.empty_like(flat)

    def split(buf):
        return (layer_views(buf[:n_back], init.backbone.signature()),
                layer_views(buf[n_back:], head.signature()))

    params, grad_views = split(flat), split(grad)
    for _ in range(epochs):
        for views, g in zip(grad_views, _label_grads(spec, *params, train_batch)):
            for name, arr in g.items():
                views[name][...] = arr
        with np.errstate(over="ignore", invalid="ignore"):
            flat -= lr * grad
        if not np.isfinite(flat).all():
            raise NumericalError(f"fine-tuning '{task}' produced non-finite parameters")
    backbone, head = (ParamVector(views) for views in params)
    return ToyModel(spec=spec, backbone=backbone, heads={task: head})


def task_vector(model: ToyModel, base: ToyModel) -> ParamVector:
    """Deviation of a fine-tuned backbone from the shared backbone."""
    return pv_sub(model.backbone, base.backbone)
