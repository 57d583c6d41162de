"""Tests of the benchmark harness itself, on the smoke config.

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs end to end, traced and untraced, in a few seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "stream-default", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import otmf
        import otmf.fusion
        import otmf.metrics
        import otmf.sinkhorn
        import tracing

        original = otmf.sinkhorn.sinkhorn_distance
        tracer = tracing.Tracer()
        patched, missing = tracing.install(tracer)
        assert missing == []
        try:
            for module in (otmf, otmf.sinkhorn, otmf.fusion, otmf.metrics):
                assert module.sinkhorn_distance.__perfbench_wrapped__ is original
            x = np.random.default_rng(0).normal(size=(5, 2))
            otmf.sinkhorn.sinkhorn_distance(x, x + 0.1, otmf.SinkhornConfig())
        finally:
            assert tracing.restore(patched)
        for module in (otmf, otmf.sinkhorn, otmf.fusion, otmf.metrics):
            assert module.sinkhorn_distance is original
        names = [s[0] for s in tracer.spans]
        assert names == ["sinkhorn.sinkhorn_distance", "sinkhorn.pairwise_cost",
                         "sinkhorn.sinkhorn_plan"]
        assert [s[3] for s in tracer.spans] == [-1, 0, 0]
        assert tracer.spans[2][4]["n"] == 5 and tracer.spans[2][4]["iters"] >= 1
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_tracer_skips_a_target_the_program_no_longer_defines(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tracing

        monkeypatch.setitem(tracing.TARGETS, "sinkhorn",
                            tracing.TARGETS["sinkhorn"] + ("no_such_solver",))
        patched, missing = tracing.install(tracing.Tracer())
        assert tracing.restore(patched)
        assert missing == ["sinkhorn.no_such_solver"]
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_a_result_the_tracer_cannot_read_keeps_the_span_without_counts():
    import layers
    import tracing

    tracer = tracing.Tracer()
    plan = tracer.wrap("sinkhorn.sinkhorn_plan", lambda *args: "not a TransportPlan")
    assert plan(1, 2, 3) == "not a TransportPlan"
    assert tracer.spans[0][4] is None
    stage = layers.StageSpans("merge", tracer.spans)
    assert layers.solve_records([stage]) == []
    assert layers.compute([stage])["sinkhorn.solves"] == 0


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    mapped = [m for row in layer_map["rows"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for row in layer_map["rows"]:
        for workload, metrics in row["moves"].items():
            assert workload in WORKLOADS and set(metrics) <= e2e


def test_sub_seeds_start_with_the_run_seed_and_are_distinct():
    from workloads import sub_seeds

    for workload in WORKLOADS.values():
        seeds = sub_seeds(workload, 7, smoke=False)
        assert seeds[0] == 7 and len(set(seeds)) == workload.sub_seeds


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
