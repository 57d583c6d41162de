"""Small feed-forward classifiers with manual forward/backward passes.

A ToyModel is a stack of affine+nonlinearity layers (the shared backbone)
plus one affine classification head per task. The backbone is one flat
float64 array, its layers' arrays one after another in backbone_layout
order; layer_views reads it layer by layer without copying. The task
vectors that merging combines are flat arrays of the same length, and a
head is a {"weight", "bias"} dict of arrays. Features are the activations
of the last backbone layer; logits are the head applied to those features.
Gradients are computed by hand-written reverse mode over the fixed layer
list and are validated against central finite differences in the tests.
The forward and backward passes also take a stack of models along a
leading axis, which is how fine-tuning trains several models as one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError, ShapeMismatchError

_ACTIVATIONS = ("tanh", "relu")

# a classification head: {"weight": k x feature_dim, "bias": k}
Head = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelSpec:
    layer_dims: tuple[int, ...] = (8, 16, 8)  # input dim, hidden dims..., feature dim
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


def _frozen(values, what: str) -> np.ndarray:
    """A write-protected float64 copy of values; NumericalError unless finite."""
    a = np.array(values, dtype=np.float64, copy=True)
    if not np.isfinite(a).all():
        raise NumericalError(f"{what} contains non-finite values")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ToyModel:
    """A backbone, flat in backbone_layout(spec) order, and per-task heads.

    Construction keeps write-protected copies of every array. It raises
    ShapeMismatchError unless the backbone has the spec's parameter count
    and each head a (k, feature_dim) weight and a (k,) bias with k >= 1,
    NumericalError on a non-finite parameter, and DataError on a head name
    holding whitespace (a checkpoint header's words are whitespace-split) or
    one that does not encode as UTF-8 (the header's encoding).
    """

    spec: ModelSpec
    backbone: np.ndarray
    heads: dict[str, Head] = field(default_factory=dict)

    def __post_init__(self):
        size = sum(math.prod(shape) for _, shape in backbone_layout(self.spec))
        backbone = _frozen(self.backbone, "backbone")
        if backbone.shape != (size,):
            raise ShapeMismatchError(
                f"backbone has shape {backbone.shape}, the spec needs ({size},)")
        heads = {}
        for task, head in self.heads.items():
            if any(c.isspace() for c in task):
                raise DataError(f"head name {task!r} holds whitespace")
            try:
                task.encode("utf-8")
            except UnicodeEncodeError as exc:  # a lone surrogate
                raise DataError(f"head name {task!r} does not encode as UTF-8") from exc
            if set(head) != {"weight", "bias"}:
                raise ShapeMismatchError(f"head '{task}' has arrays {sorted(head)}")
            w = _frozen(head["weight"], f"head '{task}'")
            b = _frozen(head["bias"], f"head '{task}'")
            if b.ndim != 1 or b.size < 1 or w.shape != (b.size, self.spec.feature_dim):
                raise ShapeMismatchError(
                    f"head '{task}' has weight {w.shape} and bias {b.shape}, expected "
                    f"(k, {self.spec.feature_dim}) and (k,) with k >= 1")
            heads[task] = {"weight": w, "bias": b}
        object.__setattr__(self, "backbone", backbone)
        object.__setattr__(self, "heads", heads)


def backbone_layout(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    layout = []
    for i in range(spec.num_layers):
        fan_in, fan_out = spec.layer_dims[i], spec.layer_dims[i + 1]
        layout.append((f"layer{i}.weight", (fan_out, fan_in)))
        layout.append((f"layer{i}.bias", (fan_out,)))
    return layout


def layer_views(flat: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Per-layer views of consecutive slices of flat, in layout order."""
    views, ofs = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = flat[ofs : ofs + size].reshape(shape)
        ofs += size
    return views


def init_model(spec: ModelSpec, seed: int) -> ToyModel:
    """Random backbone with scaled-Gaussian weights, zero biases."""
    rng = np.random.default_rng(seed)
    layers = []
    for name, shape in backbone_layout(spec):
        if name.endswith("weight"):
            fan_in = shape[1]
            layers.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape).ravel())
        else:
            layers.append(np.zeros(math.prod(shape)))
    return ToyModel(spec=spec, backbone=np.concatenate(layers))


def init_head(spec: ModelSpec, num_classes: int, rng: np.random.Generator) -> Head:
    return {
        "weight": rng.normal(0.0, 0.1, size=(num_classes, spec.feature_dim)),
        "bias": np.zeros(num_classes),
    }


def _activate(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z, out=out)
    return np.maximum(z, 0.0, out=out)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - a * a
    return (z > 0.0).astype(np.float64)


def _require_finite(values: np.ndarray, message: str, stacked: bool) -> None:
    """Raise NumericalError(message) unless values is all finite. When
    stacked, axis 0 indexes models computed together, and the error's
    `model` is the first one whose values are not."""
    finite = np.isfinite(values)
    if finite.all():
        return
    model = int(np.argmin(finite.reshape(len(values), -1).all(axis=1))) if stacked else None
    raise NumericalError(message, model=model)


def _forward_trace(spec: ModelSpec, backbone: Mapping[str, np.ndarray], inputs: np.ndarray,
                   out=None):
    """Forward pass keeping pre/post-activation values for backprop.

    backbone maps each layer name of backbone_layout(spec) to its array
    (layer_views of a flat backbone). inputs is n x d, or a stack of them
    (models x n x d) whose backbone arrays carry the same leading axis, one
    model per slice. A non-finite pre-activation (finite weights can
    overflow) raises NumericalError, naming a stacked model; it is checked
    before the activation, since tanh maps inf to a finite +-1. out, if
    given, holds per-layer (activations, pre-activations) lists to write into.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != spec.input_dim:
        raise ShapeMismatchError(f"inputs must be n x {spec.input_dim}, got {x.shape}")
    acts = [x]
    pre = []
    h = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(spec.num_layers):
            w = backbone[f"layer{i}.weight"]
            b = backbone[f"layer{i}.bias"]
            z = np.matmul(h, w.swapaxes(-1, -2), out=out and out[1][i])
            z += b[..., None, :]
            _require_finite(z, f"layer {i} pre-activation is not finite", x.ndim == 3)
            h = _activate(z, spec.activation, out and out[0][i])
            pre.append(z)
            acts.append(h)
    return acts, pre


def forward_features(model: ToyModel, inputs: np.ndarray) -> np.ndarray:
    """Latent features: activations of the last backbone layer."""
    backbone = layer_views(model.backbone, backbone_layout(model.spec))
    acts, _ = _forward_trace(model.spec, backbone, inputs)
    return acts[-1]


def _logits(features: np.ndarray, head: Mapping[str, np.ndarray], out=None) -> np.ndarray:
    """The head applied to features (or a stack of heads to a stack of
    features), into out if given. A non-finite logit (a finite head can
    overflow) raises NumericalError, as a non-finite pre-activation does."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = np.matmul(features, head["weight"].swapaxes(-1, -2), out=out)
        logits += head["bias"][..., None, :]
    _require_finite(logits, "head logits are not finite", logits.ndim == 3)
    return logits


def forward_logits(model: ToyModel, task: str, inputs: np.ndarray) -> np.ndarray:
    if task not in model.heads:
        raise DataError(f"model has no head for task '{task}'")
    return _logits(forward_features(model, inputs), model.heads[task])


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of logits, written over logits and returned."""
    # the row maximum column by column: exact, and faster than max(axis=-1)
    top = logits[..., :1].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., j : j + 1], out=top)
    # finite logits whose row spread exceeds the float maximum overflow to
    # -inf here, and exp maps -inf to 0, the exact limit
    with np.errstate(over="ignore"):
        logits -= top
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _backprop_backbone(
    spec: ModelSpec, backbone: Mapping[str, np.ndarray], acts, pre, grad_features: np.ndarray,
    out: Mapping[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Backbone gradient, in layout order, from a _forward_trace of backbone
    and the loss's gradient with respect to its features (stacked models
    keep their leading axis), into out's arrays of the same names if given."""
    grads = {}
    delta = np.asarray(grad_features, dtype=np.float64)
    if delta.shape != acts[-1].shape:
        raise ShapeMismatchError(
            f"feature gradient shape {delta.shape} != features {acts[-1].shape}"
        )
    for i in reversed(range(spec.num_layers)):
        dz = delta * _activate_grad(pre[i], acts[i + 1], spec.activation)
        w, b = f"layer{i}.weight", f"layer{i}.bias"
        grads[w] = np.matmul(dz.swapaxes(-1, -2), acts[i], out=out and out[w])
        grads[b] = dz.sum(axis=-2, out=out and out[b])
        if i > 0:
            delta = dz @ backbone[w]
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
    features: np.ndarray, head: Mapping[str, np.ndarray], onehot: np.ndarray,
    logits: np.ndarray | None = None, out: Mapping[str, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Softmax cross-entropy gradient of a head on fixed features and the
    labels' one-hot rows (labels[..., None] == np.arange(k)): the head's
    ("weight", "bias") and the logits', into out's arrays and logits if
    given. A stack of heads takes a stack of features and labels along the
    same leading axis.
    """
    dlogits = _softmax(_logits(features, head, logits))
    dlogits -= onehot
    dlogits /= features.shape[-2]
    return {"weight": np.matmul(dlogits.swapaxes(-1, -2), features, out=out and out["weight"]),
            "bias": dlogits.sum(axis=-2, out=out and out["bias"])}, dlogits


def _label_grads(
    spec: ModelSpec,
    backbone: Mapping[str, np.ndarray],
    head: Mapping[str, np.ndarray],
    inputs: np.ndarray,
    onehot: np.ndarray,
    out=(None, None, None),
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Backbone and head gradients of the cross-entropy loss from one forward
    pass, stacked for stacked models, into out's (trace, logits, gradients)."""
    acts, pre = _forward_trace(spec, backbone, inputs, out[0])
    g_head, dlogits = head_gradient(acts[-1], head, onehot, *out[1:])
    g_back = _backprop_backbone(spec, backbone, acts, pre, dlogits @ head["weight"], out[2])
    return g_back, g_head


def train_sft(
    init: ToyModel,
    runs: Sequence[tuple[str, Batch, int]],
    num_classes: int,
    epochs: int,
    lr: float,
) -> list[ToyModel]:
    """Full-batch gradient-descent fine-tuning of init's backbone plus a
    fresh head, once per (task, train batch, seed) run, all runs together.

    The runs' batches must share a size: the runs are stacked along a
    leading axis and trained as one. Their parameters live in one flat
    float64 buffer, layer by layer, so each layer is one contiguous
    (runs x ...) array. Each epoch writes one forward pass's trace, logits
    and gradients into arrays allocated once per call, takes lr times the
    flat gradient from the buffer and checks it once: a non-finite
    parameter, pre-activation or logit raises NumericalError naming its
    run's task. Each run's model is what training it alone gives, bit for
    bit; its seed only affects its head's initialization.
    """
    if not runs:
        raise DataError("no fine-tuning runs")
    if len({batch.size for _, batch, _ in runs}) > 1:
        raise ShapeMismatchError("stacked fine-tuning runs need train sets of one size")
    spec = init.spec
    inputs = np.stack([batch.inputs for _, batch, _ in runs])
    labels = np.stack([batch.labels for _, batch, _ in runs])
    if labels.max() >= num_classes:
        raise DataError(f"label {labels.max()} is not below num_classes {num_classes}")
    heads = [init_head(spec, num_classes, np.random.default_rng(seed)) for _, _, seed in runs]
    # the layer names differ from the head's, so one mapping serves as both
    arrays = {**{n: np.broadcast_to(a, (len(runs), *a.shape))
                 for n, a in layer_views(init.backbone, backbone_layout(spec)).items()},
              **{n: np.stack([h[n] for h in heads]) for n in ("weight", "bias")}}
    layout = [(n, a.shape) for n, a in arrays.items()]
    flat = np.concatenate([a.ravel() for a in arrays.values()])
    grad = np.empty_like(flat)
    params = layer_views(flat, layout)
    trace = [[np.empty((*labels.shape, d)) for d in spec.layer_dims[1:]] for _ in range(2)]
    workspace = (trace, np.empty((*labels.shape, num_classes)), layer_views(grad, layout))
    onehot = labels[..., None] == np.arange(num_classes)
    try:
        for _ in range(epochs):
            _label_grads(spec, params, params, inputs, onehot, workspace)
            with np.errstate(over="ignore", invalid="ignore"):
                grad *= lr
                flat -= grad
            if not np.isfinite(flat).all():
                for arr in params.values():
                    _require_finite(arr, "an update left non-finite parameters", True)
    except NumericalError as exc:
        raise NumericalError(f"fine-tuning '{runs[exc.model][0]}': {exc}") from exc
    return [
        ToyModel(spec=spec,
                 backbone=np.concatenate([params[n][i].ravel() for n, _ in backbone_layout(spec)]),
                 heads={task: {n: params[n][i] for n in ("weight", "bias")}})
        for i, (task, _, _) in enumerate(runs)
    ]


def train_world(
    spec: ModelSpec, pretrain: Batch, trains: Sequence[tuple[str, Batch]], num_classes: int,
    epochs: int, lr: float, seed: int,
) -> tuple[ToyModel, list[ToyModel], dict[str, float]]:
    """Fine-tune a world from seed: init_model(spec, seed) with a "pretrain"
    head on pretrain, then each (task, train batch) of trains from theta0
    (that backbone, no heads), the i-th task's head seeded seed + 100 + i,
    tasks whose train sets share a size in one stack. Returns the pretrained
    model, the task models in trains' order and each train_sft run's
    seconds, keyed by its tasks joined with commas."""
    seconds = {}

    def sft(init: ToyModel, runs) -> list[ToyModel]:
        t = time.perf_counter()
        models = train_sft(init, runs, num_classes, epochs, lr)
        seconds[",".join(task for task, _, _ in runs)] = time.perf_counter() - t
        return models

    [pre] = sft(init_model(spec, seed=seed), [("pretrain", pretrain, seed)])
    theta0 = ToyModel(spec=spec, backbone=pre.backbone)
    groups: dict[int, list] = {}
    for i, (task, batch) in enumerate(trains):
        groups.setdefault(batch.size, []).append((task, batch, seed + 100 + i))
    tuned = {}
    for runs in groups.values():
        tuned.update(zip([task for task, _, _ in runs], sft(theta0, runs)))
    return pre, [tuned[task] for task, _ in trains], seconds


def task_vector(model: ToyModel, base: ToyModel) -> np.ndarray:
    """Deviation of a fine-tuned backbone from the shared backbone, flat.
    The models must share a spec: two layouts of one size would subtract
    without complaint."""
    if model.spec != base.spec:
        raise ShapeMismatchError(f"task vector of a {model.spec} model from a {base.spec} base")
    return model.backbone - base.backbone
