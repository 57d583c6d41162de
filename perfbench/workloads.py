"""The benchmark's workloads: which `otmf` CLI stages run, on which config.

A workload is a config plus an ordered list of stages, run for a fixed
number of seeds derived from the run's seed (`sub_seeds`). Every stage is
one fresh `python -m otmf.cli` process, started only after the previous one
exits (a closed loop with one client). `gen` and `train` are set-up; the
rest are the measured stages. Why each workload exists is recorded in
BENCHMARK.json next to its name.

The Sinkhorn work of a stage depends on the data: how many solves converge
before max_iters changes a stage's wall time by up to 2x from one seed to
the next (a coefficient of variation of about 20% on stream-default). A
run therefore measures several seeds and reports their mean, which is what
keeps the end-to-end times steady across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

# Tiny config for the harness's own tests: the whole pipeline, traced and
# untraced, in seconds. It is merged over the workload's config.
SMOKE_CONFIG = {
    "stream": {"num_tasks": 2, "samples_per_task": 60},
    "fusion": {"ot_epochs": 6, "head_epochs": 5},
    "sft": {"epochs": 30},
}


@dataclass(frozen=True)
class Stage:
    """One CLI invocation. `kind` groups stages into the reported times."""

    label: str
    kind: str  # "setup" | "merge" | "eval"
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    stages: tuple[Stage, ...]
    # the report holding the final average accuracy the workload reports
    accuracy_from: str
    # seeds measured per end-to-end run; the traced run measures the first
    sub_seeds: int


SUB_SEED_STRIDE = 1_000_000


def sub_seeds(workload: Workload, seed: int, smoke: bool) -> list[int]:
    """The seeds one run measures: the run's own seed first."""
    count = min(workload.sub_seeds, 2) if smoke else workload.sub_seeds
    return [seed + k * SUB_SEED_STRIDE for k in range(count)]


def _merge(method: str) -> Stage:
    return Stage(f"merge_{method}", "merge", ("merge", "--method", method))


def _eval(method: str) -> Stage:
    # the path is relative to the seed directory; the runner completes it
    return Stage("eval", "eval", ("eval", "--checkpoint", f"merged/{method}/final.ckpt"))


SETUP = (Stage("gen", "setup", ("gen",)), Stage("train", "setup", ("train",)))

WORKLOADS = {
    w.name: w
    for w in (
        # One baseline merge (ties) stands for the three: each is the same
        # eval-side shift work, and swa and task_arithmetic would add a
        # fifth of the run's time without exercising anything new.
        Workload(
            "stream-default",
            {},
            SETUP + (_merge("otmf"), _merge("ties"), _eval("otmf")),
            "report_otmf.json",
            4,
        ),
        # A tolerance no solve reaches fixes every solve at max_iters (500)
        # final-stage iterations, so the solver work here depends on the
        # config alone. At the default tolerance most of these solves stop
        # at max_iters anyway, but the few that converge early swing a
        # seed's time by 2x. Changes that cut iterations are measured on
        # stream-default; the prediction here is no change.
        Workload(
            "stream-long",
            {"stream": {"num_tasks": 6}, "fusion": {"sinkhorn": {"tolerance": 1e-300}}},
            SETUP + (_merge("ties"), _eval("ties")),
            "report_ties.json",
            1,
        ),
    )
}


def merged_config(workload: Workload, smoke: bool) -> dict:
    """The workload's config, with the smoke overrides folded in."""
    cfg = {k: dict(v) for k, v in workload.config.items()}
    if smoke:
        for section, values in SMOKE_CONFIG.items():
            cfg.setdefault(section, {}).update(values)
    return cfg
