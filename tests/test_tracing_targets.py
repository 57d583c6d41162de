"""The benchmark tracer's targets are defined by the package.

perfbench/tracing.py wraps the functions named in its TARGETS table
wherever the package binds them. A name the package no longer defines is
skipped without failing the traced run, so its per-layer metrics would
silently read 0. This test reads that table (the file is executed from its
source, never written) and checks every name against the package.
"""

import importlib
import types
from pathlib import Path

import otmf

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
