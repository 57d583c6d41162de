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
(otmf.models). A step runs on one flat buffer (FlatStep) next to the
frozen backbone and both task vectors, and each side's target features
are computed once (OTTarget). masked_fuse, the one place the rule above
is written, writes the merged task vector into the buffer, next to the
merged backbone. Each mask epoch takes one forward pass on the backbone's
per-layer views, solves, and back-propagates from that pass into a flat
gradient; the initial and final pair losses (the sum of both sides' OT
losses) are the same pass and solve, without the backward pass. The
step's merged vectors are the buffer itself.

Each side keeps, next to its optimizer moments, a SolverState
(otmf.sinkhorn), both created afresh at every step because the OT batches
are redrawn. Its mask-loop solves are warm-started from the side's
previous plan, the first from the side's cold initial pair-loss solve,
and the side's final pair-loss solve from its last; a third SolverState
tallies the four pair-loss solves. Each step logs its per-side mask-loop
counts at INFO, and its unconverged and fallen-back solves at WARNING;
its StepLog keeps the three SolverStates, counts only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

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

log = logging.getLogger(__name__)

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = 0.8
    ot_epochs: int = 100
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


# a mask pair (pre, post): float64 arrays the shape of the flat task
# vectors, elementwise multipliers that start at exactly 1
Masks = tuple[np.ndarray, np.ndarray]


class _MaskOptimizer:
    """Adam over one flat mask."""

    def __init__(self, template: np.ndarray, cfg: FusionConfig):
        self.lr = cfg.mask_lr
        self.t = 0
        self.m = np.zeros_like(template)
        self.v = np.zeros_like(template)

    def step(self, mask: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad**2
        mhat = self.m / (1 - b1**self.t)
        vhat = self.v / (1 - b2**self.t)
        return mask - self.lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)


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


class FlatStep:
    """One continual step's frozen backbone and task vectors.

    theta0, pre and post are flat arrays of one shape, read and never
    written. fuse() writes the merged task vector (masked_fuse) into delta
    and the merged backbone theta0 + delta into theta, and returns theta's
    per-layer views.
    """

    def __init__(self, theta0_model: ToyModel, pre: np.ndarray, post: np.ndarray):
        self.spec = theta0_model.spec
        self.theta0 = theta0_model.backbone
        for side, delta in (("pre", pre), ("post", post)):
            if np.shape(delta) != self.theta0.shape:
                raise ShapeMismatchError(f"{side} task vector has shape {np.shape(delta)}, "
                                         f"the backbone {self.theta0.shape}")
        self.pre, self.post = pre, post
        self.delta = np.empty_like(self.theta0)
        self.theta = np.empty_like(self.theta0)
        self.backbone = layer_views(self.theta, backbone_layout(self.spec))

    def fuse(self, masks: Masks, alpha: float) -> dict[str, np.ndarray]:
        masked_fuse(self.pre, self.post, *masks, alpha, out=self.delta)
        np.add(self.delta, self.theta0, out=self.theta)
        return self.backbone


@dataclass(frozen=True)
class OTTarget:
    """One side's OT target for a continual step: the batch inputs, and the
    target model's features on them scaled to unit mean norm (s * f_t)
    with their scale s. Both stay constant for the step."""

    inputs: np.ndarray
    scale: float
    features: np.ndarray

    @classmethod
    def of(cls, model: ToyModel, inputs: np.ndarray) -> "OTTarget":
        ft = forward_features(model, inputs)
        s = normalized_feature_scale(ft)
        return cls(inputs, s, s * ft)


def _ot_loss(
    spec: ModelSpec,
    backbone: Mapping[str, np.ndarray],
    target: OTTarget,
    cfg: SinkhornConfig,
    solver: SolverState | None,
) -> tuple[float, TransportPlan, np.ndarray, tuple]:
    """Sinkhorn alignment loss between the features of backbone and the
    target's, from one forward pass: (loss, plan, the merged side's scaled
    features, the forward trace).

    Both clouds are scaled to the target's unit-mean-norm convention. With
    a solver state the solve starts from its duals and records the plan
    into it.
    """
    trace = _forward_trace(spec, backbone, target.inputs)
    fm = target.scale * trace[0][-1]
    init = None if solver is None else solver.duals
    dist, plan = sinkhorn_distance(fm, target.features, cfg, init=init)
    if solver is not None:
        solver.record(plan)
    return dist, plan, fm, trace


def ot_alignment_loss_and_grad(
    spec: ModelSpec,
    backbone: Mapping[str, np.ndarray],
    target: OTTarget,
    cfg: SinkhornConfig,
    solver: SolverState | None = None,
) -> tuple[float, np.ndarray]:
    """The alignment loss of _ot_loss plus its fixed-plan gradient with
    respect to backbone, flat, back-propagated from the loss's forward pass.

    The target's scale is a constant of the target, so the chain rule only
    carries the factor through the merged side.
    """
    dist, plan, fm, trace = _ot_loss(spec, backbone, target, cfg, solver)
    g_feat = target.scale * sinkhorn_grad_features(fm, target.features, plan)
    return dist, backward(spec, backbone, trace, g_feat)


def ot_mask_epoch(
    masks: Masks,
    step: FlatStep,
    target: OTTarget,
    side: str,
    cfg: FusionConfig,
    optimizer: _MaskOptimizer,
    solver: SolverState | None = None,
) -> tuple[Masks, float]:
    """One alternating mask update: the new (pre, post) masks and the
    epoch's OT loss. Only the selected side's mask moves.

    optimizer is any object with step(mask, grad) -> mask; solver, the
    selected side's SolverState, warm-starts the solve.
    """
    if side not in ("pre", "post"):
        raise ConfigError(f"side must be 'pre' or 'post', got '{side}'")
    backbone = step.fuse(masks, cfg.alpha)
    loss, grad = ot_alignment_loss_and_grad(step.spec, backbone, target, cfg.sinkhorn, solver)
    m_pre, m_post = masks
    if side == "pre":
        return (optimizer.step(m_pre, cfg.alpha * (step.pre * grad)), m_post), loss
    return (m_pre, optimizer.step(m_post, (1.0 - cfg.alpha) * (step.post * grad))), loss


def head_finetune(
    merged_model: ToyModel,
    task: str,
    labeled_subset: Batch,
    epochs: int,
    lr: float,
) -> Head:
    """Cross-entropy gradient descent on one head. The backbone is frozen,
    so the subset's features are computed once."""
    if labeled_subset.size == 0:
        raise DataError("empty labeled subset")
    if task not in merged_model.heads:
        raise DataError(f"model has no head for task '{task}'")
    head = merged_model.heads[task]
    feats = forward_features(merged_model, labeled_subset.inputs)
    for _ in range(epochs):
        g, _ = head_gradient(feats, head, labeled_subset.labels)
        head = {n: head[n] - lr * g[n] for n in ("weight", "bias")}
    return dict(head)


@dataclass
class StepLog:
    step: int
    incoming_task: str
    ot_loss_history: list[tuple[int, str, float]]
    initial_pair_loss: float
    final_pair_loss: float
    # the step's solve tallies, no duals: the mask loop's by side, the pair losses'
    mask_loop_solver: dict[str, SolverState]
    pair_loss_solver: SolverState


# a task as streamed: (id, flat task vector, head, train batch, unlabeled set)
Task = tuple[str, np.ndarray, Head, Batch, np.ndarray]


def _ot_batch(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    if pool.shape[0] <= size:
        return pool.copy()
    idx = rng.choice(pool.shape[0], size=size, replace=False)
    return pool[np.sort(idx)]


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
    per-step logs. A task vector whose shape is not the backbone's raises
    ShapeMismatchError; a repeated id (it would overwrite a head) raises
    DataError, as does a stream of fewer than two tasks once it is exhausted.
    """
    rng = np.random.default_rng(seed)
    spec, theta0 = theta0_model.spec, theta0_model.backbone
    heads: dict[str, Head] = {}
    seen_unlabeled: list[np.ndarray] = []
    logs: list[StepLog] = []

    for t, (tid, incoming, head, train, unlabeled) in enumerate(tasks, start=1):
        if np.shape(incoming) != theta0.shape:
            raise ShapeMismatchError(f"task {t}'s vector has shape {np.shape(incoming)}, "
                                     f"the backbone {theta0.shape}")
        if tid in heads:
            raise DataError(f"task id '{tid}' appears twice in the stream")
        heads[tid] = head
        if t == 1:
            merged, prev_tid, prev_train = incoming, tid, train
            merged_model = ToyModel(spec=spec, backbone=theta0 + incoming)
            seen_unlabeled.append(unlabeled)
            continue

        # the pre-side OT batch mixes all seen tasks
        pre_batch = _ot_batch(rng, np.concatenate(seen_unlabeled), cfg.batch_size)
        post_batch = _ot_batch(rng, unlabeled, cfg.batch_size)
        seen_unlabeled.append(unlabeled)
        pre_target = OTTarget.of(merged_model, pre_batch)
        post_target = OTTarget.of(ToyModel(spec=spec, backbone=theta0 + incoming), post_batch)
        flat = FlatStep(theta0_model, merged, incoming)

        masks = (np.ones(flat.theta.size), np.ones(flat.theta.size))
        opt_pre = _MaskOptimizer(masks[0], cfg)
        opt_post = _MaskOptimizer(masks[1], cfg)
        solver_pre, solver_post, pair = SolverState(), SolverState(), SolverState()

        def _pair_loss(masks: Masks) -> float:
            # each side's solve starts from the side's duals and leaves its
            # own there; pair tallies it
            backbone = flat.fuse(masks, cfg.alpha)
            loss = 0.0
            for target, solver in ((pre_target, solver_pre), (post_target, solver_post)):
                pair.duals = solver.duals
                loss += _ot_loss(flat.spec, backbone, target, cfg.sinkhorn, pair)[0]
                solver.duals = pair.duals
            return loss

        # the pre side's first mask-loop solve is the problem its initial
        # pair-loss solve solves cold, and the post side's is close to it:
        # both start warm from those duals
        initial_pair_loss = _pair_loss(masks)
        pre_side = (pre_target, opt_pre, solver_pre)
        post_side = (post_target, opt_post, solver_post)
        history: list[tuple[int, str, float]] = []
        for e in range(1, cfg.ot_epochs + 1):
            side = "pre" if e % 2 == 1 else "post"
            target, opt, solver = pre_side if side == "pre" else post_side
            masks, loss = ot_mask_epoch(masks, flat, target, side, cfg, opt, solver)
            history.append((e, side, loss))
        log.info("step %d mask-loop Sinkhorn: pre %s; post %s", t, solver_pre, solver_post)

        # each side of the final pair loss is one mask update away from the
        # side's last mask-loop solve, and starts from its duals. It leaves
        # the final masks' fuse in flat's buffers: the step's merged vectors
        final_pair_loss = _pair_loss(masks)
        warn_on_trouble(f"step {t}", {"mask-loop pre": solver_pre,
                                      "mask-loop post": solver_post, "pair-loss": pair})
        solver_pre.duals = solver_post.duals = pair.duals = None  # the log keeps no arrays
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
                mask_loop_solver={"pre": solver_pre, "post": solver_post},
                pair_loss_solver=pair,
            )
        )

    if not logs:
        raise DataError("continual merging needs at least 2 task vectors")
    return merged_model.backbone, heads, logs


def merge_stream(method: str, theta0_model: ToyModel, tasks: Iterable[Task], cfg: FusionConfig,
                 baseline: BaselineConfig, seed: int = 0,
                 on_step: Callable[[int, ToyModel], None] | None = None,
                 ) -> tuple[np.ndarray, dict[str, Head], list[StepLog]]:
    """Stream the tasks through one merge method, "otmf" or a baseline:
    (final merged backbone, heads, step logs). otmf is continual_merge as
    it is. A baseline folds the task vectors (baseline_fold), each task
    keeping its own head; on_step, if given, receives each step's merged
    ToyModel from step 2 on, and the logs are []. A repeated id raises
    DataError, an unknown method ConfigError."""
    if method == "otmf":
        return continual_merge(theta0_model, tasks, cfg, seed=seed, on_step=on_step)
    heads: dict[str, Head] = {}

    def vectors():
        for tid, delta, head, *_ in tasks:
            if tid in heads:
                raise DataError(f"task id '{tid}' appears twice in the stream")
            heads[tid] = head
            yield delta

    for step, merged in enumerate(baseline_fold(method, baseline, vectors()), start=1):
        backbone = theta0_model.backbone + merged
        if on_step is not None and step >= 2:
            on_step(step, ToyModel(spec=theta0_model.spec, backbone=backbone, heads=heads))
    return backbone, heads, []
