"""The benchmark tracer's targets are defined by the package.

perfbench/tracing.py wraps the functions named in its TARGETS table
wherever the package binds them. A name the package no longer defines is
skipped without failing the traced run, so its per-layer metrics would
silently read 0, and a count reader that no longer fits its call's result
is skipped the same way. These tests read that file (it is executed from
its source, never written), check every name against the package, run
the count readers on real results and check that the benchmark's stages
call every name.
"""

import importlib
import json
import types
from pathlib import Path

import numpy as np

import otmf
import otmf.cli
from otmf.fusion import FusionConfig, continual_merge
from otmf.models import Batch, ModelSpec, init_head, init_model
from otmf.sinkhorn import SinkhornConfig, pairwise_cost, sinkhorn_plan
from otmf.taskgen import task_ids

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_tracer_target_is_a_callable_of_its_layer():
    targets = _tracing_module().TARGETS
    missing = [
        f"{layer}.{name}"
        for layer, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"otmf.{layer}"), name, None))
    ]
    assert missing == []
    # the solver's entry point is looked up by name in each module that
    # solves, so the tracer sees every solve
    solve = importlib.import_module("otmf.sinkhorn").sinkhorn_distance
    for layer in ("fusion", "metrics"):
        assert importlib.import_module(f"otmf.{layer}").sinkhorn_distance is solve
    assert otmf.sinkhorn_distance is solve


def test_count_readers_read_real_results():
    # the tracer drops a reader's AttributeError, IndexError and TypeError,
    # so a result of another shape would zero the sinkhorn.* counts and
    # fusion.pair_loss_ratio without failing the traced run
    info = _tracing_module().INFO
    rng = np.random.default_rng(0)
    args = (pairwise_cost(rng.normal(size=(5, 3)), rng.normal(size=(4, 3))), SinkhornConfig())
    counts = info["sinkhorn.sinkhorn_plan"](sinkhorn_plan(*args), args)
    assert counts["n"] == 5 and counts["m"] == 4
    assert counts["iters"] >= 1 and counts["converged"] is True

    spec, T = ModelSpec((3, 4, 3)), 3
    theta0_model = init_model(spec, seed=0)
    tasks = [(tid, 0.3 * rng.normal(size=theta0_model.backbone.shape), init_head(spec, 3, rng),
              Batch(rng.normal(size=(12, 3)), rng.integers(0, 3, size=12)),
              rng.normal(size=(16, 3))) for tid in task_ids(T)]
    args = (theta0_model, tasks, FusionConfig(ot_epochs=2, head_epochs=2))
    result = continual_merge(*args)
    # one [initial, final] pair loss per step from step 2 on
    counts = info["fusion.continual_merge"](result, args)
    assert counts["pair_loss"] == [[lg.initial_pair_loss, lg.final_pair_loss] for lg in result[2]]
    assert [lg.step for lg in result[2]] == list(range(2, T + 1))
    assert all(isinstance(loss, float) for pair in counts["pair_loss"] for loss in pair)


def test_every_tracer_target_runs_on_the_benchmark_stages(tmp_path):
    # a rewiring that moves work off a traced name would zero its per-layer
    # metrics without failing the traced run; the stages are stream-default's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "stream": {"num_tasks": 2, "input_dim": 4, "classes_per_task": 3,
                   "samples_per_task": 40},
        "model": {"layer_dims": [4, 8, 4]},
        "fusion": {"ot_epochs": 6, "batch_size": 16},
        "sft": {"epochs": 30, "lr": 0.1},
        "output_dir": str(tmp_path / "run"),
    }))
    final = tmp_path / "run" / "seed0" / "merged" / "otmf" / "final.ckpt"
    stages = [["gen"], ["train"], ["merge", "--method", "otmf"], ["merge", "--method", "ties"],
              ["eval", "--checkpoint", str(final)]]
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    patched, missing = tracing.install(tracer)
    try:
        codes = [otmf.cli.main([*stage, "--config", str(cfg)]) for stage in stages]
    finally:
        restored = tracing.restore(patched)
    assert codes == [0] * len(stages)
    assert missing == [] and restored
    called = {span[0] for span in tracer.spans}
    uncalled = [f"{layer}.{name}" for layer, names in tracing.TARGETS.items()
                for name in names if f"{layer}.{name}" not in called]
    assert uncalled == []
    # merge otmf's continual_merge span carries its pair losses, one
    # [initial, final] pair per step: T=2 has one step
    [merge] = [span for span in tracer.spans if span[0] == "fusion.continual_merge"]
    [pair] = merge[4]["pair_loss"]
    assert len(pair) == 2 and all(isinstance(loss, float) and loss > 0 for loss in pair)
