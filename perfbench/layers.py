"""Per-layer metrics from the span dumps of one traced workload pass.

A layer is a module of src/otmf; its spans are named "<module>.<function>".
Times are summed span durations in seconds unless the name says ms or us.
A layer absent from a workload reports 0 (there is nothing to time), and so
does a count whose call returned something the tracer could not read.
"""

from __future__ import annotations

import math
import statistics


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


class StageSpans:
    """The spans one traced CLI process recorded, with parent links."""

    def __init__(self, label: str, spans: list[list]):
        self.label = label
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def under(self, i: int, name: str) -> bool:
        """True when an ancestor of span i has the given name."""
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def outermost(self, names: tuple[str, ...]) -> list[int]:
        """Spans with one of the names and no ancestor with one of them."""
        return [i for i, s in enumerate(self.spans)
                if s[0] in names and not any(self.under(i, n) for n in names)]

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def subtree(self, i: int) -> list[int]:
        out, todo = [], [i]
        while todo:
            j = todo.pop()
            out.append(j)
            todo.extend(self.children[j])
        return out


_IO_LOADS = ("io.load_checkpoint", "io.load_batch", "io.load_matrix")
_IO_SAVES = ("io.save_checkpoint", "io.save_batch", "io.save_matrix",
             "io.save_features", "io.save_report")


def solve_records(stages: list[StageSpans]) -> list[dict]:
    """Every Sinkhorn solve: its counts plus its wall time in seconds."""
    out = []
    for st in stages:
        for i in st.named("sinkhorn.sinkhorn_plan"):
            if st.spans[i][4] is not None:
                out.append({**st.spans[i][4], "s": st.dur(i)})
    return out


def sinkhorn_counts(st: StageSpans) -> dict:
    """Exact solve counts of one stage, for the per-stage table."""
    solves = solve_records([st])
    return {
        "solves": len(solves),
        "n64": sum(1 for s in solves if s["n"] == s["m"] == 64),
        "unconverged": sum(1 for s in solves if not s["converged"]),
        "iters": sum(s["iters"] for s in solves),
    }


def compute(stages: list[StageSpans]) -> dict[str, float]:
    def total(name, keep=lambda st, i: True):
        return sum(st.dur(i) for st in stages for i in st.named(name) if keep(st, i))

    def durations(name):
        return [st.dur(i) for st in stages for i in st.named(name)]

    m: dict[str, float] = {}
    m["taskgen.generate_stream_s"] = total("taskgen.generate_stream")
    m["models.train_sft_s"] = total("models.train_sft")
    m["models.forward_features_s"] = total("models.forward_features")
    m["models.backward_s"] = total(
        "models.backward", lambda st, i: not st.under(i, "models.train_sft"))

    solves = solve_records(stages)
    iters = sum(s["iters"] for s in solves)
    unconverged = sum(1 for s in solves if not s["converged"])
    solve_ms = [1e3 * s["s"] for s in solves]
    m["sinkhorn.solves"] = len(solves)
    m["sinkhorn.iters"] = iters
    m["sinkhorn.iters_mean"] = iters / len(solves) if solves else 0.0
    m["sinkhorn.unconverged"] = unconverged
    m["sinkhorn.unconverged_frac"] = unconverged / len(solves) if solves else 0.0
    m["sinkhorn.plan_s"] = sum(s["s"] for s in solves)
    m["sinkhorn.pairwise_cost_s"] = total("sinkhorn.pairwise_cost")
    m["sinkhorn.solve_ms_p50"] = statistics.median(solve_ms) if solves else 0.0
    m["sinkhorn.solve_ms_tail"] = (
        percentile(solve_ms, tail_percentile(len(solve_ms))) if solves else 0.0)
    n64 = [s for s in solves if s["n"] == s["m"] == 64]
    m["sinkhorn.solve_ms_p50.n64"] = statistics.median(1e3 * s["s"] for s in n64) if n64 else 0.0
    m["sinkhorn.us_per_iter.n64"] = _us_per_iter(n64)
    m["sinkhorn.solve_ms_max"] = max(solve_ms, default=0.0)
    max_n = max((max(s["n"], s["m"]) for s in solves), default=0)
    m["sinkhorn.max_n"] = max_n
    m["sinkhorn.us_per_iter.nmax"] = _us_per_iter(
        [s for s in solves if max(s["n"], s["m"]) == max_n])

    epochs = durations("fusion.ot_mask_epoch")
    m["fusion.mask_epochs"] = len(epochs)
    m["fusion.mask_epoch_ms_p50"] = 1e3 * statistics.median(epochs) if epochs else 0.0
    # fusion's own work inside mask epochs: sinkhorn and models children excluded
    m["fusion.mask_epoch_self_s"] = sum(
        st.self_time(j)
        for st in stages for i in st.named("fusion.ot_mask_epoch")
        for j in st.subtree(i) if st.spans[j][0].startswith("fusion.")
    )
    m["fusion.pair_loss_s"] = total(
        "fusion.ot_alignment_loss_and_grad",
        lambda st, i: not st.under(i, "fusion.ot_mask_epoch"))
    m["fusion.head_finetune_s"] = total("fusion.head_finetune")
    m["fusion.continual_merge_s"] = total("fusion.continual_merge")
    ratios = [final / initial for initial, final in pair_losses(stages)]
    m["fusion.pair_loss_ratio"] = statistics.fmean(ratios) if ratios else 0.0

    shifts = [(st, i) for st in stages for i in st.named("metrics.sinkhorn_shift")]
    m["metrics.sinkhorn_shift_calls"] = len(shifts)
    m["metrics.sinkhorn_shift_s"] = sum(st.dur(i) for st, i in shifts)
    m["metrics.shift_max_n"] = max(
        (st.spans[j][4]["n"] for st, i in shifts for j in st.subtree(i)
         if st.spans[j][0] == "sinkhorn.sinkhorn_plan" and st.spans[j][4]), default=0)
    m["metrics.l1_shift_s"] = total("metrics.l1_shift")
    m["metrics.accuracy_s"] = total("metrics.accuracy")

    m["baselines.ties_merge_pair_s"] = total("baselines.ties_merge_pair")

    loads = [(st, i) for st in stages for i in st.named("io.load_checkpoint")]
    files = sum(len({st.spans[i][4]["path"] for i in st.named("io.load_checkpoint")
                     if st.spans[i][4]}) for st in stages)
    m["io.ckpt_loads"] = len(loads)
    m["io.ckpt_loads_per_file"] = len(loads) / files if files else 0.0
    m["io.load_s"] = sum(st.dur(i) for st in stages for i in st.outermost(_IO_LOADS))
    saves = [(st, i) for st in stages for i in st.outermost(_IO_SAVES)]
    m["io.save_s"] = sum(st.dur(i) for st, i in saves)
    m["io.bytes_written"] = sum(st.spans[i][4]["bytes"] for st, i in saves if st.spans[i][4])
    return m


def _us_per_iter(solves: list[dict]) -> float:
    """Solve wall time per final-stage iteration (burn-in time included)."""
    iters = sum(s["iters"] for s in solves)
    return 1e6 * sum(s["s"] for s in solves) / iters if iters else 0.0


def pair_losses(stages: list[StageSpans]) -> list[list[float]]:
    """[initial, final] pair loss of every continual merge step."""
    return [pl for st in stages for i in st.named("fusion.continual_merge")
            for pl in (st.spans[i][4] or {}).get("pair_loss", [])]
