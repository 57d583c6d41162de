"""Mask-trained continual fusion.

At each continual step the previous merged task vector (pre) and the
incoming task vector (post) are combined through a convex rule

    delta_m = alpha * (m_pre . pre) + (1 - alpha) * (m_post . post)

and the two masks are trained by alternating gradient steps on a Sinkhorn
alignment loss between the merged model's features and the pre / post
target models' features: odd epochs update the pre mask against the
previous merged model, even epochs update the post mask against the
incoming task's fine-tuned model. Only the selected mask moves; the
backbone and both task vectors stay frozen throughout. After mask
training the step's merged vector is frozen and the previous task's
classification head is lightly re-tuned on a small labeled subsample.

The backbone, the task vectors and the masks are flat arrays of one shape
(otmf.models). Each side of a step is one MaskSide: its frozen task vector
and that vector's weight in the rule above, its OT target (OTTarget, the
target features computed once), its mask with the mask's Adam moments,
and a SolverState (otmf.sinkhorn) that counts its mask-loop solves. A
step is one FlatStep: it takes the step's alpha, set once there, builds
both sides from it and runs on one flat buffer next to the frozen
backbone. masked_fuse, the one place the rule above is written,
writes the merged task vector into the buffer, next to the merged
backbone. Each mask epoch takes one forward pass on the backbone's
per-layer views, solves against its side's target, back-propagates from
that pass into a flat gradient and moves its side's mask; the initial and
final pair losses (the sum of both sides' OT losses) are the same pass and
solve, without the backward pass. The step's merged vectors are the
buffer itself.

Each side's OTTarget keeps the duals of the last solve against it, and
every solve starts from them and leaves its own there: the side's initial
pair-loss solve is cold, and each later one, mask loop and final pair
loss, is warm-started from the one before. A third SolverState counts the
four pair-loss solves. Both sides are created afresh at every step
because the OT batches are redrawn. Each step logs its per-side mask-loop
counts at INFO, and its unconverged and fallen-back solves at WARNING;
its StepLog keeps the three SolverStates and no side, whose arrays are
backbone-size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

import numpy as np

from .baselines import BaselineConfig, baseline_fold
from .errors import ConfigError, DataError, ShapeMismatchError
from .metrics import normalized_feature_scale
from .models import (
    Batch,
    Head,
    ModelSpec,
    ToyModel,
    _forward_trace,
    backbone_layout,
    backward,
    forward_features,
    head_gradient,
    layer_views,
)
from .sinkhorn import (
    SinkhornConfig,
    SolverState,
    TransportPlan,
    sinkhorn_distance,
    sinkhorn_grad_features,
    warn_on_trouble,
)
from .taskgen import subsample_labeled

if TYPE_CHECKING:
    from ._pcg import PCG64

log = logging.getLogger(__name__)

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = 0.8
    ot_epochs: int = 50
    mask_lr: float = 0.2
    batch_size: int = 64
    head_epochs: int = 100
    head_lr: float = 0.01
    head_fraction: float = 0.25
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.ot_epochs < 1:
            raise ConfigError("ot_epochs must be >= 1")
        if self.mask_lr <= 0:
            raise ConfigError("mask_lr must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.head_epochs < 0:
            raise ConfigError("head_epochs must be >= 0")
        if self.head_lr <= 0:
            raise ConfigError("head_lr must be > 0")
        if not 0.0 < self.head_fraction <= 1.0:
            raise ConfigError(f"head_fraction must be in (0, 1], got {self.head_fraction}")


def masked_fuse(
    pre: np.ndarray,
    post: np.ndarray,
    m_pre: np.ndarray,
    m_post: np.ndarray,
    alpha: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The merged task vector alpha * (m_pre . pre) + (1 - alpha) * (m_post . post)
    of two flat task vectors, written into out when it is given.

    The task vectors must share a shape and both masks must have exactly
    that shape: a length-1 or column mask would otherwise broadcast.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    if np.shape(pre) != np.shape(post):
        raise ShapeMismatchError(
            f"task vector shapes differ: {np.shape(pre)} vs {np.shape(post)}")
    for side, m in (("pre", m_pre), ("post", m_post)):
        if np.shape(m) != np.shape(pre):
            raise ShapeMismatchError(
                f"{side} mask has shape {np.shape(m)}, expected {np.shape(pre)}")
    out = np.multiply(m_pre, pre, out=out)
    out *= alpha
    out += (1.0 - alpha) * (m_post * post)
    return out


@dataclass
class OTTarget:
    """One side's OT target for a continual step: the batch inputs, and the
    target model's features on them scaled to unit mean norm (s * f_t)
    with their scale s, all constant for the step; and duals, the
    (log_u, log_v) of the last solve against the target, from which the
    next one starts (None before the first)."""

    inputs: np.ndarray
    scale: float
    features: np.ndarray
    duals: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def of(cls, model: ToyModel, inputs: np.ndarray) -> "OTTarget":
        ft = forward_features(model, inputs)
        s = normalized_feature_scale(ft)
        return cls(inputs, s, s * ft)


class MaskSide:
    """One side of a continual step's mask loop.

    name labels the side in logs ("pre" or "post"). vector is the side's
    frozen flat task vector and weight its factor in masked_fuse (alpha on
    pre, 1 - alpha on post); target is its OTTarget. mask starts at exactly
    1, the vector's shape; step() moves it by Adam (moments m, v after t
    steps, learning rate lr). solver counts the side's mask-loop solves.
    """

    def __init__(self, name: str, vector: np.ndarray, weight: float, target: OTTarget,
                 lr: float):
        self.name, self.vector, self.weight, self.target, self.lr = name, vector, weight, target, lr
        self.mask = np.ones(np.shape(vector))
        self.t = 0
        self.m = np.zeros_like(self.mask)
        self.v = np.zeros_like(self.mask)
        self.solver = SolverState()

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad**2
        mhat = self.m / (1 - b1**self.t)
        vhat = self.v / (1 - b2**self.t)
        self.mask = self.mask - self.lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)


class FlatStep:
    """One continual step: its frozen backbone and the two mask sides it builds
    from the step's alpha, set once, here (pre weighted alpha, post 1 - alpha).

    theta0 and the task vectors pre and post are flat arrays of one shape, read
    and never written. fuse() writes masked_fuse of the sides' current masks at
    alpha into delta and theta0 + delta into theta, and returns theta's per-layer views.
    """

    def __init__(self, theta0_model: ToyModel, pre: np.ndarray, post: np.ndarray,
                 targets: tuple[OTTarget | None, OTTarget | None], alpha: float, lr: float):
        self.spec = theta0_model.spec
        self.theta0 = theta0_model.backbone
        for name, vector in (("pre", pre), ("post", post)):
            shape = np.shape(vector)
            if shape != self.theta0.shape:
                raise ShapeMismatchError(f"{name} task vector has shape {shape}, "
                                         f"the backbone {self.theta0.shape}")
        self.alpha = alpha
        self.pre = MaskSide("pre", pre, alpha, targets[0], lr)
        self.post = MaskSide("post", post, 1.0 - alpha, targets[1], lr)
        self.delta = np.empty_like(self.theta0)
        self.theta = np.empty_like(self.theta0)
        self.backbone = layer_views(self.theta, backbone_layout(self.spec))

    def fuse(self) -> dict[str, np.ndarray]:
        pre, post = self.pre, self.post
        masked_fuse(pre.vector, post.vector, pre.mask, post.mask, self.alpha, out=self.delta)
        np.add(self.delta, self.theta0, out=self.theta)
        return self.backbone


def _ot_loss(
    spec: ModelSpec,
    backbone: Mapping[str, np.ndarray],
    target: OTTarget,
    cfg: SinkhornConfig,
    solver: SolverState,
) -> tuple[float, TransportPlan, np.ndarray, tuple]:
    """Sinkhorn alignment loss between the features of backbone and the
    target's, from one forward pass: (loss, plan, the merged side's scaled
    features, the forward trace).

    Both clouds are scaled to the target's unit-mean-norm convention. The
    solve starts from target.duals and leaves its plan's there; solver
    counts it.
    """
    trace = _forward_trace(spec, backbone, target.inputs)
    fm = target.scale * trace[0][-1]
    dist, plan = sinkhorn_distance(fm, target.features, cfg, init=target.duals)
    target.duals = (plan.log_u, plan.log_v)
    solver.record(plan)
    return dist, plan, fm, trace


def ot_alignment_loss_and_grad(
    spec: ModelSpec,
    backbone: Mapping[str, np.ndarray],
    target: OTTarget,
    cfg: SinkhornConfig,
    solver: SolverState,
) -> tuple[float, np.ndarray]:
    """The alignment loss of _ot_loss plus its fixed-plan gradient with
    respect to backbone, flat, back-propagated from the loss's forward pass.

    The target's scale is a constant of the target, so the chain rule only
    carries the factor through the merged side.
    """
    dist, plan, fm, trace = _ot_loss(spec, backbone, target, cfg, solver)
    g_feat = target.scale * sinkhorn_grad_features(fm, target.features, plan)
    return dist, backward(spec, backbone, trace, g_feat)


def ot_mask_epoch(step: FlatStep, side: MaskSide, cfg: SinkhornConfig) -> float:
    """One alternating mask update of side, one of step's two sides: the
    epoch's OT loss. Only side's mask moves. side.solver counts the solve,
    which is warm-started from side.target's duals."""
    backbone = step.fuse()
    loss, grad = ot_alignment_loss_and_grad(step.spec, backbone, side.target, cfg, side.solver)
    side.step(side.weight * (side.vector * grad))
    return loss


def head_finetune(
    merged_model: ToyModel,
    task: str,
    labeled_subset: Batch,
    epochs: int,
    lr: float,
) -> Head:
    """Cross-entropy gradient descent on a copy of one head, one buffer
    updated in place. The backbone is frozen, so its features are computed once."""
    if task not in merged_model.heads:
        raise DataError(f"model has no head for task '{task}'")
    head = merged_model.heads[task]
    layout = [(n, head[n].shape) for n in ("weight", "bias")]
    flat = np.concatenate([head[n].ravel() for n, _ in layout])
    grad = np.empty_like(flat)
    head, grads = layer_views(flat, layout), layer_views(grad, layout)
    feats = forward_features(merged_model, labeled_subset.inputs)
    onehot = labeled_subset.labels[:, None] == np.arange(head["bias"].size)
    logits = np.empty(onehot.shape)
    for _ in range(epochs):
        head_gradient(feats, head, onehot, logits, grads)
        grad *= lr
        flat -= grad
    return head


@dataclass
class StepLog:
    step: int
    incoming_task: str
    ot_loss_history: list[tuple[int, str, float]]
    initial_pair_loss: float
    final_pair_loss: float
    # the step's solve tallies: the mask loop's by side, the pair losses'
    mask_loop_solver: dict[str, SolverState]
    pair_loss_solver: SolverState


# a task as streamed: (id, flat task vector, head, train batch, unlabeled set)
Task = tuple[str, np.ndarray, Head, Batch, np.ndarray]


def _ot_batch(rng: PCG64, pool: np.ndarray, size: int) -> np.ndarray:
    if pool.shape[0] <= size:
        return pool.copy()
    return pool[sorted(rng.choice(pool.shape[0], size))]


def _checked_stream(tasks: Iterable[Task], theta0: np.ndarray,
                    heads: dict[str, Head]) -> Iterator[tuple[int, Task]]:
    """Every merge method's stream contract: pull each task once, in stream
    order, enter its head in heads under its id and yield (step, task). A
    vector whose shape is not theta0's raises ShapeMismatchError; a repeated
    id (it would overwrite a head) raises DataError, as does a stream of
    fewer than two tasks once it is exhausted."""
    t = 0
    for t, task in enumerate(tasks, start=1):
        tid, incoming, head, *_ = task
        if np.shape(incoming) != theta0.shape:
            raise ShapeMismatchError(f"task {t}'s vector has shape {np.shape(incoming)}, "
                                     f"the backbone {theta0.shape}")
        if tid in heads:
            raise DataError(f"task id '{tid}' appears twice in the stream")
        heads[tid] = head
        yield t, task
    if t < 2:
        raise DataError("continual merging needs at least 2 task vectors")


def continual_merge(
    theta0_model: ToyModel,
    tasks: Iterable[Task],
    cfg: FusionConfig,
    seed: int = 0,
    on_step: Callable[[int, ToyModel], None] | None = None,
) -> tuple[np.ndarray, dict[str, Head], list[StepLog]]:
    """Stream the tasks through alternating OT mask training.

    Tasks are pulled one at a time, in stream order, so a lazy iterable
    keeps one incoming task vector resident next to the merged one. A
    task's id keys its head and names its step's incoming_task. The seen
    tasks' unlabeled sets are kept for the pre-side OT batch, and the
    previous task's train batch for its head re-tune. on_step(step, model),
    if given, receives each step's merged ToyModel, re-tuned head included,
    from step 2 on. Returns the final merged backbone, the heads and the
    per-step logs. The stream is checked as _checked_stream does.

    The OT batches draw from seed's stream and step t's head subsample from
    seed + t's, both through otmf._pcg, the same integers numpy's
    default_rng would give without importing numpy.random. A negative seed
    raises ConfigError.
    """
    from ._pcg import PCG64  # only a merge compiles it; see otmf._pcg

    rng = PCG64(seed)
    spec, theta0 = theta0_model.spec, theta0_model.backbone
    heads: dict[str, Head] = {}
    seen_unlabeled: list[np.ndarray] = []
    logs: list[StepLog] = []

    for t, (tid, incoming, _, train, unlabeled) in _checked_stream(tasks, theta0, heads):
        if t == 1:
            merged, prev_tid, prev_train = incoming, tid, train
            merged_model = ToyModel(spec=spec, backbone=theta0 + incoming)
            seen_unlabeled.append(unlabeled)
            continue

        # the pre-side OT batch mixes all seen tasks
        pre_batch = _ot_batch(rng, np.concatenate(seen_unlabeled), cfg.batch_size)
        post_batch = _ot_batch(rng, unlabeled, cfg.batch_size)
        seen_unlabeled.append(unlabeled)
        targets = (OTTarget.of(merged_model, pre_batch),
                   OTTarget.of(ToyModel(spec=spec, backbone=theta0 + incoming), post_batch))
        flat = FlatStep(theta0_model, merged, incoming, targets, cfg.alpha, cfg.mask_lr)
        pre, post = flat.pre, flat.post
        pair = SolverState()

        def _pair_loss() -> float:
            backbone = flat.fuse()
            return sum(_ot_loss(flat.spec, backbone, side.target, cfg.sinkhorn, pair)[0]
                       for side in (pre, post))

        # the pre side's first mask-loop solve is the problem its initial
        # pair-loss solve solves cold, and the post side's is close to it:
        # both start warm from those duals, which the targets keep
        initial_pair_loss = _pair_loss()
        history: list[tuple[int, str, float]] = []
        for e in range(1, cfg.ot_epochs + 1):
            side = pre if e % 2 == 1 else post
            history.append((e, side.name, ot_mask_epoch(flat, side, cfg.sinkhorn)))
        log.info("step %d mask-loop Sinkhorn: pre %s; post %s", t, pre.solver, post.solver)

        # each side of the final pair loss is one mask update away from the
        # side's last mask-loop solve, and starts from its duals. It leaves
        # the final masks' fuse in flat's buffers: the step's merged vectors
        final_pair_loss = _pair_loss()
        warn_on_trouble(f"step {t}", {"mask-loop pre": pre.solver,
                                      "mask-loop post": post.solver, "pair-loss": pair})
        merged = flat.delta
        # a merge that overflowed fails here, before on_step sees it
        merged_model = ToyModel(spec=spec, backbone=flat.theta, heads=heads)

        # light re-tune of the pre task's head on a labeled subsample
        subset = subsample_labeled(prev_train, cfg.head_fraction, seed=seed + t)
        heads[prev_tid] = head_finetune(
            merged_model, prev_tid, subset, cfg.head_epochs, cfg.head_lr
        )
        prev_tid, prev_train = tid, train

        if on_step is not None:
            on_step(t, ToyModel(spec=spec, backbone=merged_model.backbone, heads=heads))

        logs.append(
            StepLog(
                step=t,
                incoming_task=tid,
                ot_loss_history=history,
                initial_pair_loss=initial_pair_loss,
                final_pair_loss=final_pair_loss,
                mask_loop_solver={"pre": pre.solver, "post": post.solver},
                pair_loss_solver=pair,
            )
        )

    return merged_model.backbone, heads, logs


def merge_stream(method: str, theta0_model: ToyModel, tasks: Iterable[Task], cfg: FusionConfig,
                 baseline: BaselineConfig, seed: int = 0,
                 on_step: Callable[[int, ToyModel], None] | None = None,
                 ) -> tuple[np.ndarray, dict[str, Head], list[StepLog]]:
    """Stream the tasks through one merge method, "otmf" or a baseline:
    (final merged backbone, heads, step logs). otmf is continual_merge as
    it is. A baseline folds the task vectors (baseline_fold), each task
    keeping its own head; on_step, if given, receives each step's merged
    ToyModel from step 2 on, and the logs are []. Every method checks the
    stream as _checked_stream does; an unknown method raises ConfigError."""
    if method == "otmf":
        return continual_merge(theta0_model, tasks, cfg, seed=seed, on_step=on_step)
    fold = baseline_fold(method, baseline)
    heads: dict[str, Head] = {}
    for step, (_, delta, *_) in _checked_stream(tasks, theta0_model.backbone, heads):
        backbone = theta0_model.backbone + fold(delta)
        if on_step is not None and step >= 2:
            on_step(step, ToyModel(spec=theta0_model.spec, backbone=backbone, heads=heads))
    return backbone, heads, []
