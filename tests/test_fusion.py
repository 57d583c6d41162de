
import dataclasses
import logging

import numpy as np
import pytest

from conftest import build_world, cross_entropy_loss, same_state, side_state
from otmf import fusion as fusion_module
from otmf import metrics as metrics_module
from otmf import models as models_module
from otmf.baselines import METHODS, BaselineConfig, baseline_fold
from otmf.errors import ConfigError, DataError, ShapeMismatchError
from otmf.fusion import (
    FlatStep,
    FusionConfig,
    OTTarget,
    SolverState,
    continual_merge,
    head_finetune,
    masked_fuse,
    merge_stream,
    ot_mask_epoch,
)
from otmf.metrics import normalized_feature_scale
from otmf.models import (
    Batch,
    ModelSpec,
    ToyModel,
    backbone_layout,
    backward,
    forward_features,
    init_head,
    init_model,
    layer_views,
    task_vector,
    train_sft,
)
from otmf.sinkhorn import SinkhornConfig, sinkhorn_distance, sinkhorn_grad_features
from otmf.taskgen import task_ids

SPEC = ModelSpec((3, 4, 3))


def world(seed=0, T=2):
    """theta0 plus T random task vectors, heads, batches, pools."""
    rng = np.random.default_rng(seed)
    theta0_model = init_model(SPEC, seed=seed)
    deltas = [0.3 * rng.normal(size=theta0_model.backbone.shape) for _ in range(T)]
    heads = [init_head(SPEC, 3, rng) for _ in range(T)]
    batches = [
        Batch(rng.normal(size=(12, 3)), rng.integers(0, 3, size=12)) for _ in range(T)
    ]
    pools = [rng.normal(size=(16, 3)) for _ in range(T)]
    return theta0_model, deltas, heads, batches, pools


def stream(deltas, heads, batches, pools, ids=None):
    """The tasks as continual_merge takes them, with the stream's ids
    unless ids are given."""
    return list(zip(ids or task_ids(len(deltas)), deltas, heads, batches, pools))


def ones(delta):
    return np.ones(delta.size), np.ones(delta.size)


def plus(theta0_model, delta):
    """theta0_model with delta added to its backbone."""
    return ToyModel(theta0_model.spec, theta0_model.backbone + delta)


def test_config_validation():
    with pytest.raises(ConfigError):
        FusionConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        FusionConfig(ot_epochs=0)
    with pytest.raises(ConfigError):
        FusionConfig(mask_lr=0.0)
    for bad in ({"head_epochs": -1}, {"head_lr": 0.0}, {"head_lr": -1.0},
                {"head_fraction": 0.0}, {"head_fraction": 1.01}):
        with pytest.raises(ConfigError):
            FusionConfig(**bad)
    # no re-tune, and a re-tune on the whole train batch, stay valid
    FusionConfig(head_epochs=0, head_fraction=1.0)


def test_masked_fuse_endpoints(rng):
    theta0_model, (pre, post), *_ = world(seed=1)
    m_pre, m_post = ones(pre)
    fused_pre = masked_fuse(pre, post, m_pre, m_post, alpha=1.0)
    fused_post = masked_fuse(pre, post, m_pre, m_post, alpha=0.0)
    assert np.array_equal(fused_pre, pre)
    assert np.array_equal(fused_post, post)
    x = rng.normal(size=(5, 3))
    pre_model = plus(theta0_model, pre)
    merged = plus(theta0_model, fused_pre)
    np.testing.assert_allclose(
        forward_features(merged, x), forward_features(pre_model, x), atol=1e-15
    )


def test_masked_fuse_convexity(rng):
    _, (pre, post), *_ = world(seed=2)
    m_pre = rng.normal(size=pre.size)
    m_post = rng.normal(size=post.size)
    fused = masked_fuse(pre, post, m_pre, m_post, alpha=0.7)
    # written into a given buffer, the same bits
    out = np.empty_like(pre)
    assert masked_fuse(pre, post, m_pre, m_post, alpha=0.7, out=out) is out
    assert np.array_equal(out, fused)
    # the per-layer formula on each layer's arrays, bit-exact
    layers = [layer_views(v, backbone_layout(SPEC)) for v in (fused, pre, post, m_pre, m_post)]
    for n, _ in backbone_layout(SPEC):
        f, dp, dq, mp, mq = (views[n] for views in layers)
        assert np.array_equal(f, 0.7 * (mp * dp) + (1.0 - 0.7) * (mq * dq))
    with pytest.raises(ConfigError):
        masked_fuse(pre, post, m_pre, m_post, alpha=-0.1)


def test_masked_fuse_rejects_mismatched_shapes():
    _, (pre, post), *_ = world(seed=2)
    n = pre.size
    # the same number of entries in another layout
    with pytest.raises(ShapeMismatchError):
        masked_fuse(pre, post.reshape(n, 1), np.ones(n), np.ones(n), 0.5)
    # a length-1 mask would broadcast; a column or a short mask would not fit
    for bad in (np.ones(1), np.ones(n - 1), np.ones((n, 1))):
        with pytest.raises(ShapeMismatchError):
            masked_fuse(pre, post, bad, np.ones(n), 0.5)
        with pytest.raises(ShapeMismatchError):
            masked_fuse(pre, post, np.ones(n), bad, 0.5)


@pytest.mark.parametrize("alpha", [0.7, 0.35])
def test_flat_step_backbone_is_theta0_plus_delta(rng, alpha):
    theta0_model, (d_pre, d_post), *_ = world(seed=3)
    step = FlatStep(theta0_model, d_pre, d_post, (None, None), alpha, 0.2)
    pre, post = step.pre, step.post
    assert pre.weight == alpha and post.weight == 1.0 - alpha
    pre.mask, post.mask = rng.normal(size=d_pre.size), rng.normal(size=d_post.size)
    backbone = step.fuse()
    delta = masked_fuse(d_pre, d_post, pre.mask, post.mask, alpha)
    assert np.array_equal(step.delta, delta)
    assert np.array_equal(step.theta, theta0_model.backbone + delta)
    theta = layer_views(theta0_model.backbone + delta, backbone_layout(SPEC))
    assert list(backbone) == list(theta)
    for n in theta:
        assert np.array_equal(backbone[n], theta[n])


# ---------------------------------------------------------------------------
# mask gradient


def _reg_plan(theta0_model, d_pre, d_post, m_pre, m_post, target, inputs, cfg, init=None):
    merged = plus(theta0_model, masked_fuse(d_pre, d_post, m_pre, m_post, cfg.alpha))
    fm = forward_features(merged, inputs)
    ft = forward_features(target, inputs)
    s = normalized_feature_scale(ft)
    _, plan = sinkhorn_distance(s * fm, s * ft, cfg.sinkhorn, init=init)
    return plan


@pytest.mark.parametrize("side", ["pre", "post"])
def test_mask_gradient_matches_fd(side):
    theta0_model, (d_pre, d_post), _, _, pools = world(seed=4)
    cfg = FusionConfig(
        alpha=0.6,
        sinkhorn=SinkhornConfig(epsilon=0.1, max_iters=20000, tolerance=1e-14),
    )
    target_delta = d_pre if side == "pre" else d_post
    target = plus(theta0_model, target_delta)
    inputs = pools[0][:8]
    m_pre, m_post = ones(d_pre)

    # the analytic gradient and every finite-difference solve start from the
    # duals of the converged cold solve at the unperturbed masks. Each
    # perturbed solve must move from there: at tolerance 1e-10 one Newton
    # step would stop it near 1e-12, too coarse for central differences at
    # h=1e-6, so the tolerance is 1e-14
    cold = _reg_plan(theta0_model, d_pre, d_post, m_pre, m_post, target, inputs, cfg)
    assert cold.converged
    init = (cold.log_u, cold.log_v)

    # the side records the raw gradient its step is given
    ot_target = dataclasses.replace(OTTarget.of(target, inputs), duals=init)
    step = FlatStep(theta0_model, d_pre, d_post, (ot_target, ot_target), cfg.alpha, cfg.mask_lr)
    recorder, grads = getattr(step, side), []
    recorder.step = grads.append
    ot_mask_epoch(step, recorder, cfg.sinkhorn)
    assert recorder.solver.solves == 1 and recorder.solver.unconverged == 0
    base = m_pre if side == "pre" else m_post

    h = 1e-6
    fd = np.zeros_like(base)
    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        if side == "pre":
            pp = _reg_plan(theta0_model, d_pre, d_post, up, m_post, target, inputs, cfg, init)
            pm = _reg_plan(theta0_model, d_pre, d_post, down, m_post, target, inputs, cfg, init)
        else:
            pp = _reg_plan(theta0_model, d_pre, d_post, m_pre, up, target, inputs, cfg, init)
            pm = _reg_plan(theta0_model, d_pre, d_post, m_pre, down, target, inputs, cfg, init)
        assert pp.converged and pm.converged
        assert pp.iterations_used > 1 and pm.iterations_used > 1
        fd[i] = (pp.reg_objective - pm.reg_objective) / (2 * h)
    assert np.linalg.norm(grads[0] - fd) / np.linalg.norm(fd) < 1e-4


def test_ot_loss_decreases_toward_target():
    theta0_model, (d_pre, d_post), _, _, pools = world(seed=5)
    cfg = FusionConfig(alpha=0.5, mask_lr=0.1)
    target = plus(theta0_model, d_pre)
    step = FlatStep(theta0_model, d_pre, d_post, (OTTarget.of(target, pools[0]), None),
                    cfg.alpha, cfg.mask_lr)
    losses = [ot_mask_epoch(step, step.pre, cfg.sinkhorn) for _ in range(30)]
    assert losses[-1] < 0.5 * losses[0]


def _reference_epoch(masks, adam, theta0_model, d_pre, d_post, target, inputs, side, cfg,
                     solver, duals):
    """The epoch that ot_mask_epoch replaces: masked_fuse, the merged
    backbone as separate per-layer arrays, both models' features, the
    solve from duals[side], which then holds the plan's, a backward pass
    from a second forward trace of the merged backbone, and Adam (beta1
    0.9, beta2 0.999, eps 1e-8) written out on adam[side], the side's
    (m, v, t), which then holds the updated moments."""
    m_pre, m_post = masks
    fused = masked_fuse(d_pre, d_post, m_pre, m_post, cfg.alpha)
    layout = backbone_layout(SPEC)
    theta0, delta = (layer_views(v, layout) for v in (theta0_model.backbone, fused))
    merged = {n: theta0[n] + delta[n] for n, _ in layout}
    fm = models_module._forward_trace(SPEC, merged, inputs)[0][-1]
    ft = forward_features(target, inputs)
    s = normalized_feature_scale(ft)
    loss, plan = sinkhorn_distance(s * fm, s * ft, cfg.sinkhorn, init=duals[side])
    duals[side] = (plan.log_u, plan.log_v)
    solver.record(plan)
    g_feat = s * sinkhorn_grad_features(s * fm, s * ft, plan)
    trace = models_module._forward_trace(SPEC, merged, inputs)
    g_backbone = backward(SPEC, merged, trace, g_feat)
    if side == "pre":
        grad, mask = cfg.alpha * (d_pre * g_backbone), m_pre
    else:
        grad, mask = (1.0 - cfg.alpha) * (d_post * g_backbone), m_post
    m, v, t = adam[side]
    t += 1
    m = 0.9 * m + (1 - 0.9) * grad
    v = 0.999 * v + (1 - 0.999) * grad**2
    mask = mask - cfg.mask_lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    adam[side] = m, v, t
    return ((mask, m_post) if side == "pre" else (m_pre, mask)), loss


@pytest.mark.parametrize("alpha", [0.8, 0.35])
def test_flat_epoch_equals_the_param_vector_composition(alpha):
    theta0_model, (d_pre, d_post), _, _, pools = world(seed=21)
    cfg = FusionConfig(alpha=alpha)
    models = {"pre": plus(theta0_model, d_pre), "post": plus(theta0_model, d_post)}
    inputs = {"pre": pools[0], "post": pools[1]}
    step = FlatStep(theta0_model, d_pre, d_post,
                    [OTTarget.of(models[n], inputs[n]) for n in models], cfg.alpha, cfg.mask_lr)
    pre, post = step.pre, step.post
    # the reference's own masks, Adam state, solve counts and duals
    masks = ones(d_pre)
    adam = {n: (np.zeros(d_pre.size), np.zeros(d_pre.size), 0) for n in models}
    ref_solvers = {n: SolverState() for n in models}
    ref_duals = {n: None for n in models}
    for e in range(1, 9):
        side = pre if e % 2 == 1 else post
        loss = ot_mask_epoch(step, side, cfg.sinkhorn)
        masks, ref_loss = _reference_epoch(masks, adam, theta0_model, d_pre, d_post,
                                           models[side.name], inputs[side.name], side.name, cfg,
                                           ref_solvers[side.name], ref_duals)
        assert loss == ref_loss
        assert np.array_equal(pre.mask, masks[0])
        assert np.array_equal(post.mask, masks[1])
        m, v, t = adam[side.name]
        assert side.t == t and np.array_equal(side.m, m) and np.array_equal(side.v, v)
    for side in (pre, post):
        assert side.solver.counts() == ref_solvers[side.name].counts()
        assert all(np.array_equal(a, b) for a, b in zip(side.target.duals, ref_duals[side.name]))
    # the masks moved, so the comparison covers fused backbones away from theta0 + pre + post
    assert not np.array_equal(pre.mask, ones(d_pre)[0])


def test_flat_step_rejects_mismatched_layouts_and_masks():
    theta0_model, (d_pre, d_post), *_ = world(seed=2)
    n, targets = d_pre.size, (None, None)
    for bad in (np.ones(1), np.ones(n - 1), np.ones((n, 1))):
        with pytest.raises(ShapeMismatchError):
            FlatStep(theta0_model, d_pre, bad, targets, 0.8, 0.2)
        with pytest.raises(ShapeMismatchError):
            FlatStep(theta0_model, bad, d_post, targets, 0.8, 0.2)


# ---------------------------------------------------------------------------
# schedule


def test_alternation_schedule_and_frozen_state():
    theta0_model, (d_pre, d_post), _, _, pools = world(seed=6)
    cfg = FusionConfig(ot_epochs=10)
    targets = [OTTarget.of(plus(theta0_model, d), pools[0]) for d in (d_pre, d_post)]
    step = FlatStep(theta0_model, d_pre, d_post, targets, cfg.alpha, cfg.mask_lr)
    pre, post = step.pre, step.post
    pre_snapshot = d_pre.copy()
    post_snapshot = d_post.copy()
    for e in range(1, cfg.ot_epochs + 1):
        side, idle = (pre, post) if e % 2 == 1 else (post, pre)
        before, idle_before = side_state(side), side_state(idle)
        ot_mask_epoch(step, side, cfg.sinkhorn)
        # the whole non-selected side and both task vectors are bit-identical
        assert same_state(side_state(idle), idle_before)
        assert not np.array_equal(side.mask, before[0])
        assert side.t == before[3] + 1 and side.solver.solves == before[4]["solves"] + 1
        assert np.array_equal(d_pre, pre_snapshot)
        assert np.array_equal(d_post, post_snapshot)
        assert pre.vector is d_pre and post.vector is d_post
    # continual_merge records each epoch's (epoch, side) in that order
    theta0_model, deltas, heads, batches, pools = world(seed=6, T=2)
    _, _, [lg] = continual_merge(theta0_model, stream(deltas, heads, batches, pools),
                                 dataclasses.replace(cfg, batch_size=8), seed=0)
    assert [e for e, _, _ in lg.ot_loss_history] == list(range(1, 11))
    assert [s for _, s, _ in lg.ot_loss_history] == ["pre", "post"] * 5


def test_mask_epochs_warm_start_from_their_side_duals(monkeypatch):
    theta0_model, (d_pre, d_post), _, _, pools = world(seed=16)
    cfg = FusionConfig(ot_epochs=4)
    targets = [OTTarget.of(plus(theta0_model, d), pools[0]) for d in (d_pre, d_post)]
    step = FlatStep(theta0_model, d_pre, d_post, targets, cfg.alpha, cfg.mask_lr)
    pre, post = step.pre, step.post
    inits = []
    distance = fusion_module.sinkhorn_distance
    monkeypatch.setattr(
        fusion_module, "sinkhorn_distance",
        lambda *a, init=None: inits.append(init) or distance(*a, init=init),
    )
    duals_before = []
    for e in range(1, cfg.ot_epochs + 1):
        side = pre if e % 2 == 1 else post
        duals_before.append(side.target.duals)
        ot_mask_epoch(step, side, cfg.sinkhorn)
    # each side starts cold, then from the duals its own last solve left on its target
    assert inits[0] is None and inits[1] is None
    assert inits[2] is duals_before[2] is not None
    assert inits[3] is duals_before[3] is not None
    assert inits[2] is not inits[3]
    for side in (pre, post):
        assert side.solver.solves == 2
        assert side.solver.iters >= 2 and 0 <= side.solver.unconverged <= 2
        log_u, log_v = side.target.duals
        assert log_u.shape == log_v.shape == (pools[0].shape[0],)


# ---------------------------------------------------------------------------
# head fine-tuning


def test_head_finetune_zero_lr_is_noop(rng):
    theta0_model, _, (head, _), (batch, _), _ = world(seed=8)
    model = ToyModel(SPEC, theta0_model.backbone, {"t": head})
    tuned = head_finetune(model, "t", batch, epochs=20, lr=0.0)
    assert list(tuned) == ["weight", "bias"]
    for name in tuned:
        assert np.array_equal(tuned[name], head[name])


def test_head_finetune_reduces_loss(rng):
    theta0_model, _, (head, _), (batch, _), _ = world(seed=9)
    model = ToyModel(SPEC, theta0_model.backbone, {"t": head})
    tuned = head_finetune(model, "t", batch, epochs=100, lr=0.2)
    before = cross_entropy_loss(model, "t", batch)
    after = cross_entropy_loss(ToyModel(SPEC, model.backbone, {"t": tuned}), "t", batch)
    assert after < before


def test_each_gradient_runs_one_forward_pass(monkeypatch):
    theta0_model, deltas, heads, batches, pools = world(seed=20, T=3)
    traces = []
    trace = models_module._forward_trace
    monkeypatch.setattr(models_module, "_forward_trace",
                        lambda *a: traces.append(1) or trace(*a))
    # SFT takes both gradients from one pass per epoch
    train_sft(theta0_model, [("t", batches[0], 0)], 3, epochs=7, lr=0.1)
    assert len(traces) == 7
    # the head is tuned on the frozen backbone's features, computed once
    traces.clear()
    head_finetune(ToyModel(SPEC, theta0_model.backbone, {"t": heads[0]}), "t", batches[0],
                  epochs=9, lr=0.1)
    assert len(traces) == 1
    # the pair losses run no backward pass: one per mask epoch in all
    backwards = []
    backward = fusion_module.backward
    monkeypatch.setattr(fusion_module, "backward",
                        lambda *a, **k: backwards.append(1) or backward(*a, **k))
    # and each mask epoch runs one forward trace, whose backward pass reuses
    # it; per step there are 2 more per pair loss (the merged features on
    # each side), 2 for the targets' OT features and 1 for the head re-tune
    traces.clear()
    monkeypatch.setattr(fusion_module, "_forward_trace",
                        lambda *a: traces.append(1) or trace(*a))
    cfg = FusionConfig(ot_epochs=4, batch_size=8)
    continual_merge(theta0_model, stream(deltas, heads, batches, pools), cfg, seed=0)
    steps = len(deltas) - 1
    assert len(backwards) == steps * cfg.ot_epochs
    assert len(traces) == steps * (cfg.ot_epochs + 2 * 2 + 2 + 1)


def test_pair_losses_are_the_shift_metric_without_calling_it(monkeypatch):
    theta0_model, deltas, heads, batches, pools = world(seed=22, T=3)
    cfg = FusionConfig(ot_epochs=4, batch_size=8)
    shift = metrics_module.sinkhorn_shift

    def no_shift(*a, **k):
        raise AssertionError("continual_merge called metrics.sinkhorn_shift")

    # each step's task vectors and OT batches (pre, then post)
    steps, ot_batches = [], []

    class RecordingStep(FlatStep):
        def __init__(self, theta0_model, pre, post, *args):
            steps.append((pre, post))
            super().__init__(theta0_model, pre, post, *args)

    ot_batch = fusion_module._ot_batch
    monkeypatch.setattr(metrics_module, "sinkhorn_shift", no_shift)
    monkeypatch.setattr(fusion_module, "FlatStep", RecordingStep)
    monkeypatch.setattr(fusion_module, "_ot_batch",
                        lambda *a: ot_batches.append(ot_batch(*a)) or ot_batches[-1])
    _, _, logs = continual_merge(theta0_model, stream(deltas, heads, batches, pools), cfg,
                                 seed=0)
    assert len(logs) == len(steps) == 2 and len(ot_batches) == 4
    for lg, (pre, post), pre_batch, post_batch in zip(
            logs, steps, ot_batches[0::2], ot_batches[1::2]):
        # the cold initial pair loss is the eval-side shift metric on the
        # merged and target models, bit for bit
        unit = np.ones(pre.size)
        merged = plus(theta0_model, masked_fuse(pre, post, unit, unit, cfg.alpha))
        pre_target = plus(theta0_model, pre)
        post_target = plus(theta0_model, post)
        pre_shift, _ = shift(forward_features(merged, pre_batch),
                             forward_features(pre_target, pre_batch), cfg.sinkhorn)
        post_shift, _ = shift(forward_features(merged, post_batch),
                              forward_features(post_target, post_batch), cfg.sinkhorn)
        assert lg.initial_pair_loss == pre_shift + post_shift


# ---------------------------------------------------------------------------
# continual loop


def test_continual_merge_deterministic():
    theta0_model, deltas, heads, batches, pools = world(seed=10, T=3)
    cfg = FusionConfig(ot_epochs=6, batch_size=8)
    a = continual_merge(theta0_model, stream(deltas, heads, batches, pools), cfg, seed=1)
    b = continual_merge(theta0_model, stream(deltas, heads, batches, pools), cfg, seed=1)
    assert np.array_equal(a[0], b[0])
    assert a[1].keys() == b[1].keys()
    assert [lg.final_pair_loss for lg in a[2]] == [lg.final_pair_loss for lg in b[2]]
    # the warm-started mask loop carries solver state deterministically
    assert sum(len(lg.ot_loss_history) for lg in a[2]) == 2 * cfg.ot_epochs
    assert [lg.ot_loss_history for lg in a[2]] == [lg.ot_loss_history for lg in b[2]]


def test_continual_merge_logs_solver_counts_per_step(caplog):
    theta0_model, deltas, heads, batches, pools = world(seed=18, T=3)
    cfg = FusionConfig(ot_epochs=5, batch_size=8)
    with caplog.at_level(logging.INFO, logger="otmf.fusion"):
        _, _, logs = continual_merge(
            theta0_model, stream(deltas, heads, batches, pools), cfg, seed=0)
    lines = [r.getMessage() for r in caplog.records if r.name == "otmf.fusion"]
    assert len(lines) == 2
    for step, line, lg in zip((2, 3), lines, logs):
        assert line.startswith(f"step {step} ")
        assert "pre 3 solves" in line and "post 2 solves" in line
        # the line's counts are the step log's tallies, which keep no arrays
        pre, post = lg.mask_loop_solver["pre"], lg.mask_loop_solver["post"]
        assert line == f"step {step} mask-loop Sinkhorn: " + "; ".join(
            f"{side} {n.solves} solves, {n.iters} marginal checks, "
            f"{n.directions} Newton directions, {n.fallbacks} fallbacks, "
            f"{n.unconverged} unconverged" for side, n in (("pre", pre), ("post", post)))
        assert (pre.solves, post.solves, lg.pair_loss_solver.solves) == (3, 2, 4)
        assert all(type(v) is int
                   for s in (pre, post, lg.pair_loss_solver) for v in vars(s).values())


def test_solver_state_counts_newton_directions_and_fallbacks(rng):
    X, Y = rng.normal(size=(64, 8)), rng.normal(size=(64, 8))
    X, Y = (Z / np.linalg.norm(Z, axis=1).mean() for Z in (X, Y))
    cfg = SinkhornConfig()
    solver = SolverState()
    _, cold = sinkhorn_distance(X, Y, cfg)
    solver.record(cold)
    log_u, log_v = cold.log_u, cold.log_v
    _, warm = sinkhorn_distance(X + 0.02, Y, cfg, init=(log_u, log_v))
    solver.record(warm)
    log_v_far = log_v.copy()
    log_v_far[0] -= 40  # Newton cannot raise the dual from here
    _, fell_back = sinkhorn_distance(X, Y, cfg, init=(log_u, log_v_far))
    solver.record(fell_back)
    assert cold.newton[1] is False and warm.newton[1] is False and fell_back.newton[1]
    plans = (cold, warm, fell_back)
    assert solver.counts() == {
        "solves": 3,
        "iters": sum(p.iterations_used for p in plans),
        "directions": sum(p.newton[0] for p in plans),
        "fallbacks": 1,
        "unconverged": sum(not p.converged for p in plans),
    }


def test_first_mask_loop_solves_start_from_initial_pair_loss_duals(monkeypatch):
    theta0_model, deltas, heads, batches, pools = world(seed=19, T=2)
    cfg = FusionConfig(ot_epochs=2, batch_size=8)
    calls = []
    distance = fusion_module.sinkhorn_distance

    def record(*a, init=None):
        out = distance(*a, init=init)
        calls.append((init, out[1]))
        return out

    # the mask loop and the pair losses solve in fusion
    monkeypatch.setattr(fusion_module, "sinkhorn_distance", record)
    continual_merge(theta0_model, stream(deltas, heads, batches, pools), cfg, seed=0)
    # initial pair loss (pre, post), epoch 1 (pre), epoch 2 (post), final
    # pair loss (pre, post): only the initial pair-loss solves are cold, and
    # each later solve starts from its side's previous one
    assert len(calls) == 6
    assert [calls[i][0] for i in (0, 1)] == [None] * 2
    for previous, solve in ((0, 2), (1, 3), (2, 4), (3, 5)):
        plan = calls[previous][1]
        log_u, log_v = calls[solve][0]
        assert log_u is plan.log_u and log_v is plan.log_v


def test_default_stream_seed1_mask_loop_solves_converge_without_fallback():
    # default config, seed 1: with scaling updates, step 3 stopped 93 of its
    # 100 mask-loop solves at max_iters
    tasks, _, theta0, sfts = build_world(1)
    cfg = FusionConfig()
    _, _, logs = continual_merge(
        theta0,
        [(td.task_id, task_vector(m, theta0), m.heads[td.task_id], td.train, td.unlabeled)
         for m, td in zip(sfts, tasks)],
        cfg, seed=1,
    )
    assert [lg.step for lg in logs] == [2, 3]
    for lg in logs:
        for side in ("pre", "post"):
            counts = lg.mask_loop_solver[side]
            assert counts.solves == cfg.ot_epochs // 2
            assert counts.unconverged == 0 and counts.fallbacks == 0
            assert counts.directions > 0


def test_continual_merge_warns_on_unconverged_mask_loop_solves(caplog):
    theta0_model, deltas, heads, batches, pools = world(seed=18, T=3)
    cfg = FusionConfig(ot_epochs=4, batch_size=8,
                       sinkhorn=SinkhornConfig(max_iters=1, tolerance=1e-300))
    with caplog.at_level(logging.INFO, logger="otmf.fusion"):
        _, _, logs = continual_merge(
            theta0_model, stream(deltas, heads, batches, pools), cfg, seed=0)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert [w.split(":")[0] for w in warnings] == ["step 2", "step 3"]
    for lg in logs:
        assert lg.mask_loop_solver["pre"].unconverged == 2


def test_continual_merge_step_warning_names_pair_loss_solves(caplog):
    # below float64 epsilon no solve meets the tolerance: the step's four
    # pair-loss solves are named next to its mask-loop solves
    theta0_model, deltas, heads, batches, pools = world(seed=18, T=2)
    cfg = FusionConfig(ot_epochs=4, batch_size=8, sinkhorn=SinkhornConfig(tolerance=1e-300))
    with caplog.at_level(logging.INFO, logger="otmf"):
        _, _, [lg] = continual_merge(
            theta0_model, stream(deltas, heads, batches, pools), cfg, seed=0)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        "step 2: Sinkhorn solves unconverged, above tolerance: "
        "mask-loop pre 2 of 2, mask-loop post 2 of 2, pair-loss 4 of 4"]
    assert lg.pair_loss_solver.solves == lg.pair_loss_solver.unconverged == 4


def test_continual_merge_warning_names_only_what_occurred(caplog, monkeypatch):
    # every mask-loop solve converges but is reported as fallen back
    theta0_model, deltas, heads, batches, pools = world(seed=18, T=3)
    cfg = FusionConfig(ot_epochs=4, batch_size=8)
    distance = fusion_module.sinkhorn_distance

    def fell_back(*a, init=None):
        dist, plan = distance(*a, init=init)
        return dist, dataclasses.replace(plan, newton=(plan.newton[0], True))

    monkeypatch.setattr(fusion_module, "sinkhorn_distance", fell_back)
    with caplog.at_level(logging.INFO, logger="otmf.fusion"):
        _, _, logs = continual_merge(
            theta0_model, stream(deltas, heads, batches, pools), cfg, seed=0)
    for lg in logs:
        pre, post = lg.mask_loop_solver["pre"], lg.mask_loop_solver["post"]
        assert pre.unconverged == post.unconverged == 0
        assert pre.fallbacks == post.fallbacks == 2
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        f"step {t}: Sinkhorn solves fell back from Newton to scaling updates: "
        "mask-loop pre 2 of 2, mask-loop post 2 of 2, pair-loss 4 of 4" for t in (2, 3)
    ]


def test_continual_merge_accumulates_heads_and_logs():
    theta0_model, deltas, heads, batches, pools = world(seed=11, T=4)
    cfg = FusionConfig(ot_epochs=4, batch_size=8)
    final, merged_heads, logs = continual_merge(
        theta0_model, stream(deltas, heads, batches, pools), cfg, seed=0
    )
    assert sorted(merged_heads) == ["task01", "task02", "task03", "task04"]
    assert [lg.step for lg in logs] == [2, 3, 4]
    assert all(len(lg.ot_loss_history) == cfg.ot_epochs for lg in logs)
    assert final.shape == theta0_model.backbone.shape


def test_continual_merge_keys_heads_and_logs_by_the_given_ids():
    theta0_model, deltas, heads, batches, pools = world(seed=11, T=3)
    cfg = FusionConfig(ot_epochs=4, batch_size=8)
    ids = ["zeta", "alpha", "mid"]
    seen = []
    final, named_heads, logs = continual_merge(
        theta0_model, stream(deltas, heads, batches, pools, ids=ids), cfg, seed=0,
        on_step=lambda step, model: seen.append(sorted(model.heads)))
    assert sorted(named_heads) == sorted(ids)
    assert [lg.incoming_task for lg in logs] == ["alpha", "mid"]
    assert seen == [["alpha", "zeta"], ["alpha", "mid", "zeta"]]
    # the same stream under the default ids: the same merge, head for head,
    # with only the last head left as it was given
    default_final, default_heads, _ = continual_merge(
        theta0_model, stream(deltas, heads, batches, pools), cfg, seed=0)
    assert np.array_equal(final, default_final)
    for tid, default_tid in zip(ids, task_ids(3)):
        for n in ("weight", "bias"):
            assert np.array_equal(named_heads[tid][n], default_heads[default_tid][n])
    assert all(np.array_equal(named_heads["mid"][n], heads[2][n]) for n in ("weight", "bias"))
    assert not np.array_equal(named_heads["zeta"]["weight"], heads[0]["weight"])


def test_continual_merge_pulls_each_task_once_in_order():
    theta0_model, deltas, heads, batches, pools = world(seed=12, T=6)
    cfg = FusionConfig(ot_epochs=4, batch_size=8)
    pulls = []

    def lazy():
        for i, task in enumerate(stream(deltas, heads, batches, pools)):
            pulls.append(i)
            yield task

    final_lazy, heads_lazy, logs_lazy = continual_merge(theta0_model, lazy(), cfg, seed=2)
    final_list, heads_list, logs_list = continual_merge(
        theta0_model, stream(deltas, heads, batches, pools), cfg, seed=2
    )
    assert pulls == list(range(6))
    assert np.array_equal(final_lazy, final_list)
    assert heads_lazy.keys() == heads_list.keys()
    for task, head in heads_list.items():
        assert heads_lazy[task].keys() == head.keys()
        assert all(np.array_equal(heads_lazy[task][n], head[n]) for n in head)
    assert [lg.ot_loss_history for lg in logs_lazy] == [lg.ot_loss_history for lg in logs_list]


def test_continual_merge_on_step_callback():
    theta0_model, deltas, heads, batches, pools = world(seed=13, T=3)
    cfg = FusionConfig(ot_epochs=4, batch_size=8)
    seen = []
    final, final_heads, _ = continual_merge(
        theta0_model, stream(deltas, heads, batches, pools), cfg, seed=0,
        on_step=lambda step, model: seen.append((step, model)),
    )
    assert [s for s, _ in seen] == [2, 3]
    assert all(isinstance(model, ToyModel) for _, model in seen)
    assert sorted(seen[0][1].heads) == ["task01", "task02"]
    # the last step's model is the merge's result, the head re-tuned at
    # that step (task02's) included
    last = seen[-1][1]
    assert np.array_equal(last.backbone, final)
    assert last.heads.keys() == final_heads.keys() == {"task01", "task02", "task03"}
    for tid, head in final_heads.items():
        assert all(np.array_equal(last.heads[tid][n], head[n]) for n in ("weight", "bias"))
    assert not np.array_equal(last.heads["task02"]["weight"], heads[1]["weight"])
    # and step 2's model carries its own re-tune, task01's
    assert not np.array_equal(seen[0][1].heads["task01"]["weight"], heads[0]["weight"])


def test_continual_merge_input_validation():
    theta0_model, deltas, heads, batches, pools = world(seed=14, T=2)
    cfg = FusionConfig(ot_epochs=2)
    tasks = stream(deltas, heads, batches, pools)
    for short in (tasks[:1], []):
        with pytest.raises(DataError):
            continual_merge(theta0_model, iter(short), cfg, seed=0)
    # a repeated id would overwrite the first task's head
    with pytest.raises(DataError, match="'task01' appears twice"):
        continual_merge(theta0_model, stream(deltas, heads, batches, pools,
                                             ids=["task01", "task01"]), cfg, seed=0)


def test_continual_merge_rejects_a_negative_seed():
    theta0_model, deltas, heads, batches, pools = world(seed=14, T=2)
    pulled = []

    def tasks():
        for task in stream(deltas, heads, batches, pools):
            pulled.append(task[0])
            yield task

    with pytest.raises(ConfigError, match="non-negative"):
        continual_merge(theta0_model, tasks(), FusionConfig(ot_epochs=2), seed=-1)
    assert pulled == []


def same_heads(a, b):
    """Whether two head dicts hold the same tasks' heads, bit for bit."""
    return a.keys() == b.keys() and all(
        np.array_equal(a[t][n], b[t][n]) for t in a for n in ("weight", "bias"))


@pytest.mark.parametrize("method", METHODS)
def test_merge_stream_baseline_steps_are_theta0_plus_the_fold(method):
    theta0_model, deltas, heads, batches, pools = world(seed=15, T=4)
    baseline = BaselineConfig(scaling=0.7, trim_fraction=0.5)
    seen = []
    final, final_heads, logs = merge_stream(
        method, theta0_model, stream(deltas, heads, batches, pools), FusionConfig(), baseline,
        on_step=lambda step, model: seen.append((step, model)))
    fold = list(map(baseline_fold(method, baseline), deltas))
    assert logs == []
    assert [step for step, _ in seen] == [2, 3, 4]
    for step, model in seen:
        assert np.array_equal(model.backbone, theta0_model.backbone + fold[step - 1])
        # the seen tasks' own heads
        assert same_heads(model.heads, dict(zip(task_ids(step), heads)))
    assert np.array_equal(final, theta0_model.backbone + fold[-1])
    assert same_heads(final_heads, dict(zip(task_ids(4), heads)))


def test_merge_stream_otmf_is_continual_merge():
    theta0_model, deltas, heads, batches, pools = world(seed=16, T=3)
    cfg = FusionConfig(ot_epochs=4, batch_size=8)
    tasks = stream(deltas, heads, batches, pools)
    steps, want_steps = [], []
    final, final_heads, logs = merge_stream(
        "otmf", theta0_model, tasks, cfg, BaselineConfig(), seed=3,
        on_step=lambda step, model: steps.append((step, model)))
    want, want_heads, want_logs = continual_merge(
        theta0_model, tasks, cfg, seed=3,
        on_step=lambda step, model: want_steps.append((step, model)))

    def summary(logs):
        return [(lg.step, lg.incoming_task, lg.ot_loss_history, lg.initial_pair_loss,
                 lg.final_pair_loss, {k: sv.counts() for k, sv in lg.mask_loop_solver.items()},
                 lg.pair_loss_solver.counts()) for lg in logs]

    assert np.array_equal(final, want) and same_heads(final_heads, want_heads)
    assert len(logs) == 2 and summary(logs) == summary(want_logs)
    assert [s for s, _ in steps] == [s for s, _ in want_steps] == [2, 3]
    for (_, model), (_, want_model) in zip(steps, want_steps):
        assert np.array_equal(model.backbone, want_model.backbone)
        assert same_heads(model.heads, want_model.heads)


def assert_rejects_malformed_streams(method):
    """merge_stream(method, ...) rejects too few tasks, a repeated id and a
    task vector that does not fit the backbone."""
    theta0_model, deltas, heads, batches, pools = world(seed=14, T=2)
    tasks = stream(deltas, heads, batches, pools)

    def merge(tasks):
        return merge_stream(method, theta0_model, iter(tasks), FusionConfig(ot_epochs=2),
                            BaselineConfig())

    for short in (tasks[:1], []):
        with pytest.raises(DataError, match="at least 2 task vectors"):
            merge(short)
    with pytest.raises(DataError, match="'task01' appears twice"):
        merge(stream(deltas, heads, batches, pools, ids=["task01", "task01"]))
    # a length-1 vector would broadcast over the backbone; a shorter one or
    # a column of the same entries would not fit it
    v = deltas[0]
    for vecs in ([v[:1], v[:1]], [v, v[:1]], [v, v[:-1]], [v, v.reshape(-1, 1)]):
        with pytest.raises(ShapeMismatchError, match="the backbone"):
            merge(stream(vecs, heads, batches, pools))


@pytest.mark.parametrize("method", METHODS)
def test_merge_stream_baseline_input_validation(method):
    assert_rejects_malformed_streams(method)


def test_merge_stream_otmf_input_validation():
    assert_rejects_malformed_streams("otmf")


def test_merge_stream_rejects_unknown_method():
    theta0_model, deltas, heads, batches, pools = world(seed=14, T=2)
    with pytest.raises(ConfigError, match="unknown .*'mean'"):
        merge_stream("mean", theta0_model, stream(deltas, heads, batches, pools),
                     FusionConfig(ot_epochs=2), BaselineConfig())
