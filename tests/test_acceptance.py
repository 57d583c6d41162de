"""Acceptance suite: ten numbered criteria, one test each.

Each test prints a single `CRITERION <n> PASS/FAIL` line (visible even
under capture) before asserting, so the run log doubles as a checklist.
The empirical criteria (5-7) run on the frozen default synthetic stream
with the default model and training settings, matching the CLI defaults.
"""

import json
import time
import tracemalloc
from functools import lru_cache

import numpy as np

from conftest import exact_ot_oracle
from otmf.baselines import BaselineConfig, baseline_fold, ties_merge_pair
from otmf.fusion import (
    FlatStep,
    FusionConfig,
    OTTarget,
    _MaskOptimizer,
    continual_merge,
    head_finetune,
    masked_fuse,
    merge_stream,
    ot_mask_epoch,
)
from otmf.metrics import accuracy, bwt, l1_shift, normalized_feature_scale
from otmf.models import (
    Batch,
    ModelSpec,
    ToyModel,
    forward_features,
    forward_logits,
    init_head,
    init_model,
    task_vector,
    train_sft,
)
from otmf.sinkhorn import (
    SinkhornConfig,
    sinkhorn_distance,
    sinkhorn_grad_features,
    sinkhorn_plan,
)
from otmf.taskgen import TaskStreamSpec, generate_stream, task_ids

MODEL = ModelSpec((8, 16, 8))
SFT_EPOCHS = 300
SFT_LR = 0.1


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@lru_cache(maxsize=None)
def build_world(seed):
    """Default stream + pretrained backbone + per-task fine-tuned models."""
    stream = TaskStreamSpec()
    pretrain, tasks = generate_stream(stream, seed)
    base = init_model(MODEL, seed=seed)
    [theta0] = train_sft(base, [("pretrain", pretrain, seed)],
                         stream.classes_per_task, SFT_EPOCHS, SFT_LR)
    theta0 = ToyModel(spec=MODEL, backbone=theta0.backbone, heads={})
    runs = [(td.task_id, td.train, seed + 100 + i) for i, td in enumerate(tasks)]
    sfts = tuple(train_sft(theta0, runs, stream.classes_per_task, SFT_EPOCHS, SFT_LR))
    return stream, tasks, theta0, sfts


def run_otmf(seed, cfg=None, method="otmf"):
    """Full merge by one method (merge_stream, the call `otmf merge` makes),
    with each step's merged model from step 2 on, by step."""
    _, tasks, theta0, sfts = build_world(seed)
    stream = [(td.task_id, task_vector(m, theta0), m.heads[td.task_id], td.train, td.unlabeled)
              for m, td in zip(sfts, tasks)]
    snapshots = {}
    final, merged_heads, logs = merge_stream(method, theta0, stream, cfg or FusionConfig(),
                                             BaselineConfig(), seed=seed,
                                             on_step=snapshots.__setitem__)
    return tasks, sfts, final, merged_heads, logs, snapshots


def accuracy_matrix_from_snapshots(tasks, sfts, snapshots):
    mat = np.full((len(tasks), len(tasks)), np.nan)
    mat[0, 0] = accuracy(sfts[0], tasks[0].task_id, tasks[0].test)
    for step, model in sorted(snapshots.items()):
        for i in range(1, step + 1):
            mat[step - 1, i - 1] = accuracy(model, tasks[i - 1].task_id, tasks[i - 1].test)
    return mat


# ---------------------------------------------------------------------------


def test_criterion_1_sinkhorn_vs_exact_oracle(capsys):
    rng = np.random.default_rng(0)
    cfg = SinkhornConfig(epsilon=1e-3, max_iters=20000, tolerance=1e-7)
    t0 = time.perf_counter()
    worst_gap, worst_marginal = 0.0, 0.0
    for k in range(50):
        n = 2 + k % 5
        C = rng.uniform(0.0, 4.0, size=(n, n))
        plan = sinkhorn_plan(C, cfg)
        assert plan.converged
        gap = abs(plan.transport_cost - exact_ot_oracle(C))
        l1_err = max(
            float(np.abs(plan.plan.sum(axis=1) - 1.0 / n).sum()),
            float(np.abs(plan.plan.sum(axis=0) - 1.0 / n).sum()),
        )
        worst_gap = max(worst_gap, gap)
        worst_marginal = max(worst_marginal, l1_err)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-2 and worst_marginal <= 1e-6 and elapsed < 10.0
    report(capsys, 1, ok,
           f"max |cost - oracle| {worst_gap:.2e} (tol 1e-2), "
           f"max marginal l1 {worst_marginal:.2e} (tol 1e-6), {elapsed:.2f}s (<10s)")


def test_criterion_2_gradient_fidelity(capsys):
    spec = ModelSpec((3, 4, 3))  # 31 backbone parameters (<= 200)
    t0 = time.perf_counter()
    worst_feat, worst_mask = 0.0, 0.0
    instance = 0
    # compact clouds keep the cost-to-epsilon ratio in the regime where
    # the solver converges tightly enough for finite differences
    cloud_scale = 0.25
    for epsilon in (0.05, 0.5):
        scfg = SinkhornConfig(epsilon=epsilon, max_iters=100000, tolerance=1e-9)
        for k in range(10):
            instance += 1
            rng = np.random.default_rng(1000 + instance)
            X = cloud_scale * rng.normal(size=(6, 3))
            Y = cloud_scale * rng.normal(size=(6, 3))

            # (a) features: envelope gradient of the entropic objective
            def obj_feat(Xf):
                _, plan = sinkhorn_distance(Xf, Y, scfg)
                return plan.reg_objective

            _, plan = sinkhorn_distance(X, Y, scfg)
            g = sinkhorn_grad_features(X, Y, plan)
            h = 1e-5
            fd = np.zeros_like(X)
            for i in range(X.shape[0]):
                for j in range(X.shape[1]):
                    xp, xm = X.copy(), X.copy()
                    xp[i, j] += h
                    xm[i, j] -= h
                    fd[i, j] = (obj_feat(xp) - obj_feat(xm)) / (2 * h)
            worst_feat = max(worst_feat,
                             np.linalg.norm(g - fd) / np.linalg.norm(fd))

            # (b) mask entries: chain through fusion and the backbone
            theta0_model = init_model(spec, seed=instance)
            theta0 = theta0_model.backbone
            d_pre = 0.3 * rng.normal(size=theta0.shape)
            d_post = 0.3 * rng.normal(size=theta0.shape)
            target = ToyModel(spec, theta0 + d_pre)
            inputs = rng.normal(size=(6, 3))
            alpha = 0.6
            m_post = np.ones(d_post.size)

            def obj_mask(m_pre):
                fused = masked_fuse(d_pre, d_post, m_pre, m_post, alpha)
                merged = ToyModel(spec, theta0 + fused)
                fm = forward_features(merged, inputs)
                ft = forward_features(target, inputs)
                s = cloud_scale * normalized_feature_scale(ft)
                _, plan = sinkhorn_distance(s * fm, s * ft, scfg)
                return plan.reg_objective

            # the gradient the mask loop takes: one epoch on the pre side,
            # with the target's scale times cloud_scale
            ft = forward_features(target, inputs)
            s = cloud_scale * normalized_feature_scale(ft)

            class Recorder:
                def step(self, mask, grad):
                    self.grad = grad
                    return mask

            recorder = Recorder()
            m_pre = np.ones(d_pre.size)
            ot_mask_epoch((m_pre, m_post), FlatStep(theta0_model, d_pre, d_post),
                          OTTarget(inputs, s, s * ft), "pre",
                          FusionConfig(alpha=alpha, sinkhorn=scfg), recorder)
            g_mask = recorder.grad
            fd_mask = np.zeros_like(m_pre)
            for i in range(m_pre.size):
                plus, minus = m_pre.copy(), m_pre.copy()
                plus[i] += h
                minus[i] -= h
                fd_mask[i] = (obj_mask(plus) - obj_mask(minus)) / (2 * h)
            worst_mask = max(worst_mask,
                             np.linalg.norm(g_mask - fd_mask) / np.linalg.norm(fd_mask))
    elapsed = time.perf_counter() - t0
    ok = worst_feat < 1e-3 and worst_mask < 1e-3 and elapsed < 60.0
    report(capsys, 2, ok,
           f"max rel err features {worst_feat:.2e}, masks {worst_mask:.2e} "
           f"(tol 1e-3), {elapsed:.1f}s (<60s)")


def test_criterion_3_endpoint_identities(capsys):
    rng = np.random.default_rng(3)
    theta0_model = init_model(MODEL, seed=3)
    theta0 = theta0_model.backbone
    d_pre = rng.normal(size=theta0.shape)
    d_post = rng.normal(size=theta0.shape)
    ones = np.ones(d_pre.size)
    head = init_head(MODEL, 4, rng)
    x = rng.normal(size=(100, 8))

    worst = 0.0
    for alpha, delta in ((1.0, d_pre), (0.0, d_post)):
        fused = masked_fuse(d_pre, d_post, ones, ones, alpha)
        merged = ToyModel(spec=MODEL, backbone=theta0 + fused, heads={"t": head})
        endpoint = ToyModel(spec=MODEL, backbone=theta0 + delta, heads={"t": head})
        worst = max(
            worst,
            float(np.abs(forward_features(merged, x) - forward_features(endpoint, x)).max()),
            float(np.abs(forward_logits(merged, "t", x) - forward_logits(endpoint, "t", x)).max()),
        )
    ok = worst <= 1e-12
    report(capsys, 3, ok, f"max endpoint output deviation {worst:.2e} (tol 1e-12)")


def test_criterion_4_schedule_conformance(capsys):
    rng = np.random.default_rng(4)
    spec = ModelSpec((3, 4, 3))
    theta0_model = init_model(spec, seed=4)
    theta0 = theta0_model.backbone
    d_pre = 0.3 * rng.normal(size=theta0.shape)
    d_post = 0.3 * rng.normal(size=theta0.shape)
    cfg = FusionConfig(ot_epochs=10)
    pre_target = ToyModel(spec, theta0 + d_pre)
    post_target = ToyModel(spec, theta0 + d_post)
    inputs = rng.normal(size=(12, 3))
    masks = (np.ones(d_pre.size), np.ones(d_post.size))
    opts = {"pre": _MaskOptimizer(masks[0], cfg), "post": _MaskOptimizer(masks[1], cfg)}
    pre_bits = d_pre.copy()
    post_bits = d_post.copy()
    step = FlatStep(theta0_model, d_pre, d_post)
    frozen_ok = True
    for e in range(1, cfg.ot_epochs + 1):
        side = "pre" if e % 2 == 1 else "post"
        target = pre_target if side == "pre" else post_target
        before_pre, before_post = (m.copy() for m in masks)
        masks, _ = ot_mask_epoch(masks, step, OTTarget.of(target, inputs),
                                 side, cfg, opts[side])
        if side == "pre":
            frozen_ok &= np.array_equal(masks[1], before_post)
        else:
            frozen_ok &= np.array_equal(masks[0], before_pre)
        frozen_ok &= np.array_equal(d_pre, pre_bits)
        frozen_ok &= np.array_equal(d_post, post_bits)
        # the vectors the epochs read are those very arrays
        frozen_ok &= step.pre is d_pre and step.post is d_post
    # the schedule the merge runs: one step fusing d_pre and d_post
    tasks = [(tid, d, init_head(spec, 3, rng),
              Batch(rng.normal(size=(12, 3)), rng.integers(0, 3, size=12)), inputs)
             for tid, d in zip(task_ids(2), (d_pre, d_post))]
    _, _, [step_log] = continual_merge(theta0_model, tasks, cfg, seed=4)
    sides = [s for _, s, _ in step_log.ot_loss_history]
    alternation_ok = sides == ["pre", "post"] * 5
    ok = frozen_ok and alternation_ok
    report(capsys, 4, ok,
           f"E=10 gave {sides.count('pre')} pre / {sides.count('post')} post updates, "
           f"strict alternation {alternation_ok}, non-selected state bit-unchanged {frozen_ok}")


def test_criterion_5_alignment_efficacy(capsys):
    t0 = time.perf_counter()
    tasks, sfts, _, _, logs, snapshots = run_otmf(0)
    ratios = [lg.final_pair_loss / lg.initial_pair_loss for lg in logs]

    # l1 total shift at the final step: merged vs previous merged (pre side)
    # plus merged vs the incoming fine-tuned model (post side)
    pre_inputs = np.concatenate([td.unlabeled for td in tasks[:-1]])
    post_inputs = tasks[-1].unlabeled
    T = len(tasks)

    def l1(merged, reference, inputs):
        return l1_shift(forward_features(merged, inputs), forward_features(reference, inputs))

    def final_l1(steps):
        return l1(steps[T], steps[T - 1], pre_inputs) + l1(steps[T], sfts[-1], post_inputs)

    otmf_l1 = final_l1(snapshots)
    ta_l1 = final_l1(run_otmf(0, method="task_arithmetic")[-1])

    elapsed = time.perf_counter() - t0
    ok = max(ratios) <= 0.5 and otmf_l1 < ta_l1 and elapsed < 300.0
    report(capsys, 5, ok,
           f"pair-loss ratios {[f'{r:.3f}' for r in ratios]} (<= 0.5), "
           f"final l1 shift {otmf_l1:.3f} < task arithmetic {ta_l1:.3f}, "
           f"{elapsed:.0f}s (<300s)")


def test_criterion_6_forgetting_comparison(capsys):
    t0 = time.perf_counter()
    avgs = {"otmf": [], "swa": [], "task_arithmetic": [], "ties": []}
    bwts = {"otmf": [], "task_arithmetic": []}
    for seed in range(5):
        for name in avgs:
            tasks, sfts, _, _, _, snapshots = run_otmf(seed, method=name)
            mat = accuracy_matrix_from_snapshots(tasks, sfts, snapshots)
            avgs[name].append(float(mat[-1].mean()))
            if name in bwts:
                bwts[name].append(bwt(mat))
    means = {k: float(np.mean(v)) for k, v in avgs.items()}
    bwt_means = {k: float(np.mean(v)) for k, v in bwts.items()}
    elapsed = time.perf_counter() - t0
    acc_ok = all(means["otmf"] >= means[b]
                 for b in ("swa", "task_arithmetic", "ties"))
    bwt_ok = bwt_means["otmf"] >= bwt_means["task_arithmetic"]
    ok = acc_ok and bwt_ok and elapsed < 900.0
    report(capsys, 6, ok,
           f"mean avg acc {json.dumps({k: round(v, 4) for k, v in means.items()})}, "
           f"mean bwt otmf {bwt_means['otmf']:+.4f} >= "
           f"task arithmetic {bwt_means['task_arithmetic']:+.4f}, {elapsed:.0f}s (<900s)")


def test_criterion_7_alpha_ablation_shape(capsys):
    t0 = time.perf_counter()
    grid = [i / 10 for i in range(11)]
    averages = []
    for alpha in grid:
        cfg = FusionConfig(alpha=alpha)
        tasks, _, final, heads, _, _ = run_otmf(0, cfg)
        model = ToyModel(spec=MODEL, backbone=final, heads=heads)
        accs = [accuracy(model, td.task_id, td.test) for td in tasks]
        averages.append(float(np.mean(accs)))
    best = int(np.argmax(averages))
    elapsed = time.perf_counter() - t0
    ok = (0.5 <= grid[best] <= 0.9
          and averages[0] < averages[best]
          and averages[-1] < averages[best]
          and elapsed < 1800.0)
    report(capsys, 7, ok,
           f"argmax alpha {grid[best]} in [0.5, 0.9], curve "
           f"{[round(a, 3) for a in averages]}, endpoints below max, "
           f"{elapsed:.0f}s (<1800s)")


def test_criterion_8_constant_memory(capsys):
    rng = np.random.default_rng(8)
    spec = ModelSpec((3, 4, 3))
    theta0_model = init_model(spec, seed=8)
    # numpy reports each array buffer to tracemalloc in its own domain,
    # one trace per live buffer; a backbone-size buffer is one float64 per
    # parameter (task vectors, merged vectors, masks, optimizer moments)
    nbytes = theta0_model.backbone.nbytes
    only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def live_buffers():
        traces = tracemalloc.take_snapshot().filter_traces(only_numpy).traces
        return sum(1 for trace in traces if trace.size == nbytes)

    def tasks(T, live):
        # each task is built when it is pulled, after counting what is live
        for tid in task_ids(T):
            live.append(live_buffers())
            yield (tid, 0.2 * rng.normal(size=theta0_model.backbone.shape),
                   init_head(spec, 3, rng),
                   Batch(rng.normal(size=(12, 3)), rng.integers(0, 3, size=12)),
                   rng.normal(size=(16, 3)))

    live = {}
    tracemalloc.start()
    try:
        for T in (5, 10):
            live[T] = []
            continual_merge(theta0_model, tasks(T, live[T]),
                            FusionConfig(ot_epochs=4, batch_size=8), seed=0)
    finally:
        tracemalloc.stop()
    # task t is pulled before step t; from step 3 on every pull sees the
    # same number of buffers, whatever the step and T
    steady = {n for counts in live.values() for n in counts[2:]}
    ok = len(steady) == 1
    report(capsys, 8, ok,
           f"live backbone-size buffers at each pull {live}: "
           f"{sorted(steady)} from step 3 on, independent of step and T")


def test_criterion_9_determinism(capsys, tmp_path):
    from otmf.cli import main

    cfg = {
        "stream": {"num_tasks": 3, "input_dim": 4, "classes_per_task": 3,
                   "samples_per_task": 40},
        "model": {"layer_dims": [4, 8, 4]},
        "fusion": {"ot_epochs": 10, "batch_size": 16},
        "sft": {"epochs": 40, "lr": 0.1},
        "seeds": [0],
    }

    def pipeline(out):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(cfg, output_dir=str(out))))
        for args in (["gen"], ["train"], ["merge", "--method", "otmf"],
                     ["merge", "--method", "ties"],
                     ["eval", "--checkpoint", str(out / "seed0/merged/otmf/final.ckpt")]):
            assert main(args + ["--config", str(path)]) == 0
        return {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
            and not p.name.startswith("timings_")  # wall-clock sidecar
        }

    run_a = pipeline(tmp_path / "a")
    run_b = pipeline(tmp_path / "b")
    same = set(run_a) == set(run_b) and all(run_a[k] == run_b[k] for k in run_a)
    ok = same and len(run_a) > 10
    report(capsys, 9, ok,
           f"{len(run_a)} artifacts (reports, checkpoints, datasets, dumps) "
           f"byte-identical across two pipeline runs: {same}")


def test_criterion_10_baseline_oracles(capsys):
    rng = np.random.default_rng(10)

    def rand_vector():
        return rng.normal(size=17)

    # (a) swa equals the batch mean to 1e-12
    vecs = [rand_vector() for _ in range(9)]
    *_, avg = baseline_fold("swa", BaselineConfig(), vecs)
    swa_err = float(np.abs(avg - np.stack(vecs).mean(axis=0)).max())

    # (b) streaming ties equals an independent reimplementation exactly
    import math as _math

    def reference_ties(a, b, frac):
        def trim(v):
            keep = _math.ceil(frac * v.size)
            out = np.zeros_like(v)
            if keep >= v.size:
                return v.copy()
            idx = np.argsort(np.abs(v), kind="stable")[v.size - keep:]
            out[idx] = v[idx]
            return out

        a, b = trim(a), trim(b)
        out = np.zeros_like(a)
        for i in range(a.size):
            pos = max(a[i], 0.0) + max(b[i], 0.0)
            neg = max(-a[i], 0.0) + max(-b[i], 0.0)
            sign = 1.0 if pos >= neg else -1.0
            vals = [v for v in (a[i], b[i]) if v != 0.0 and np.sign(v) == sign]
            out[i] = sum(vals) / len(vals) if vals else 0.0
        return out

    ties_exact = True
    for _ in range(100):
        a, b = rand_vector(), rand_vector()
        ties_exact &= np.array_equal(ties_merge_pair(a, b, 0.2), reference_ties(a, b, 0.2))

    # (c) head_finetune with lr=0 is an exact no-op
    spec = ModelSpec((3, 4, 3))
    model = ToyModel(spec=spec, backbone=init_model(spec, seed=10).backbone,
                     heads={"t": init_head(spec, 3, rng)})
    batch = Batch(rng.normal(size=(10, 3)), rng.integers(0, 3, size=10))
    tuned = head_finetune(model, "t", batch, epochs=25, lr=0.0)
    noop = all(np.array_equal(tuned[n], model.heads["t"][n]) for n in ("weight", "bias"))

    ok = swa_err <= 1e-12 and ties_exact and noop
    report(capsys, 10, ok,
           f"swa vs batch mean max err {swa_err:.2e} (tol 1e-12), "
           f"ties matches reference on 100 pairs: {ties_exact}, "
           f"zero-lr head finetune no-op: {noop}")
