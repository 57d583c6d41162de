"""Spans and counts recorded around calls into each `otmf` module.

The program is not modified. Only the traced run (`--trace 1`) uses this
file; a traced stage runs it instead of `python -m otmf.cli`:

    python3 perfbench/tracing.py <dump.json> <otmf CLI arguments...>

Every function in TARGETS is replaced with its wrapper everywhere the name
is looked up (the defining module, modules that imported it by name, and the
package namespace). A target the program no longer defines is skipped and
listed under "missing" in the dump, so a renamed function zeroes its
per-layer metrics instead of failing the stage. Then `otmf.cli.main` runs,
every original is put back, the shim checks that nothing wrapped is left,
and it writes the spans to <dump.json>.

A span is [name, start, end, parent, info]: start and end are
`time.perf_counter()` seconds, parent is the index of the enclosing span or
-1, and info holds the exact counts read from the call (solve sizes,
iterations, file paths, bytes written) or null. Spans stay in memory until
the stage ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# layer (a module of src/otmf) -> public functions wrapped in that layer
TARGETS = {
    "cli": ("cmd_gen", "cmd_train", "cmd_merge", "cmd_eval"),
    "taskgen": ("generate_stream", "subsample_labeled"),
    "models": ("init_model", "train_sft", "forward_features", "forward_logits", "backward"),
    "sinkhorn": ("pairwise_cost", "sinkhorn_plan", "sinkhorn_distance",
                 "sinkhorn_grad_features"),
    "fusion": ("continual_merge", "ot_mask_epoch", "ot_alignment_loss_and_grad",
               "head_finetune", "masked_fuse"),
    "metrics": ("sinkhorn_shift", "l1_shift", "accuracy", "bwt"),
    "baselines": ("ties_merge_pair",),
    "io": ("load_checkpoint", "save_checkpoint", "load_batch", "save_batch",
           "load_matrix", "save_matrix", "save_features", "save_report"),
}


def _plan_info(result, args):
    return {"n": int(result.plan.shape[0]), "m": int(result.plan.shape[1]),
            "iters": int(result.iterations_used), "converged": bool(result.converged)}


def _merge_info(result, args):
    logs = result[2]
    return {"pair_loss": [[lg.initial_pair_loss, lg.final_pair_loss] for lg in logs]}


def _path_info(result, args):
    return {"path": os.path.abspath(args[0])}


def _written_info(result, args):
    return {"path": os.path.abspath(args[0]), "bytes": os.path.getsize(args[0])}


# counts read from a call's result or arguments, attached to its span
INFO = {
    "sinkhorn.sinkhorn_plan": _plan_info,
    "fusion.continual_merge": _merge_info,
    "io.load_checkpoint": _path_info,
    **{f"io.{name}": _written_info for name in TARGETS["io"] if name.startswith("save_")},
}


class Tracer:
    """Collects spans in memory; wrappers push and pop the parent stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                try:
                    span[4] = info(result, args)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass  # the call's result changed shape: the span keeps no counts
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper


def _otmf_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "otmf" or n.startswith("otmf."))]


def install(tracer: Tracer) -> tuple[list[tuple], list[str]]:
    """Wrap every target wherever its name is bound.

    Returns what to undo and the targets that were not found.
    """
    patched, missing = [], []
    for layer, names in TARGETS.items():
        try:
            home = importlib.import_module(f"otmf.{layer}")
        except ImportError:
            missing.extend(f"{layer}.{name}" for name in names)
            continue
        for name in names:
            original = getattr(home, name, None)
            if not callable(original):
                missing.append(f"{layer}.{name}")
                continue
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for module in _otmf_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
    return patched, missing


def restore(patched: list[tuple]) -> bool:
    """Put every original back; True when no wrapper is left anywhere."""
    for module, attr, original in patched:
        setattr(module, attr, original)
    ok = all(getattr(module, attr) is original for module, attr, original in patched)
    return ok and not any(
        hasattr(value, "__perfbench_wrapped__")
        for module in _otmf_modules() for value in vars(module).values()
    )


def main(argv: list[str]) -> int:
    dump_path, cli_args = argv[0], argv[1:]
    import otmf.cli

    tracer = Tracer()
    patched, missing = install(tracer)
    try:
        code = otmf.cli.main(cli_args)
    finally:
        restored = restore(patched)
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "wrapped": len(patched),
                       "missing": missing, "restored": restored}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
