"""Output checks on the artifacts a workload pass leaves behind.

Each check returns (ok, description); the runner counts every check as one
attempted operation and every failed one into `failed`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def _in_unit(v) -> bool:
    return isinstance(v, (int, float)) and 0.0 <= v <= 1.0


def check_merge_report(path: Path) -> list[tuple[bool, str]]:
    """Accuracy matrix complete on its lower triangle and inside [0, 1]."""
    if not path.is_file():
        return [(False, f"{path.name}: missing")]
    report = json.loads(path.read_text(encoding="utf-8"))
    mat = report.get("accuracy_matrix") or []
    lower = [row[: i + 1] for i, row in enumerate(mat)]
    complete = bool(mat) and all(len(row) == len(mat) for row in mat)
    return [
        (complete and all(_in_unit(v) for row in lower for v in row),
         f"{path.name}: accuracy matrix complete and in [0,1]"),
        (_in_unit(report.get("average_accuracy")), f"{path.name}: average accuracy in [0,1]"),
    ]


def pair_loss_rises(steps: list[list[float]]) -> int:
    """Merge steps whose mask training did not lower the pair loss.

    Reported, not failed: the program does not promise a decrease, and some
    default-config seeds end a step higher (seed 5, step 2: 0.4625 -> 0.4940).
    """
    return sum(1 for initial, final in steps if not final < initial)


def check_eval_report(path: Path, num_tasks: int) -> list[tuple[bool, str]]:
    if not path.is_file():
        return [(False, f"{path.name}: missing")]
    per_task = json.loads(path.read_text(encoding="utf-8")).get("per_task", [])
    ok = len(per_task) == num_tasks and all(_in_unit(t.get("accuracy")) for t in per_task)
    return [(ok, "eval_report.json: one accuracy per task, in [0,1]")]


def digests(seed_dir: Path, patterns: tuple[str, ...]) -> dict[str, str]:
    """sha256 of every file matching the patterns, keyed by relative path."""
    files = sorted({p for pat in patterns for p in seed_dir.glob(pat) if p.is_file()})
    return {p.relative_to(seed_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


# artifacts that must be byte-identical for the same config and seed
SETUP_ARTIFACTS = ("data/*.csv", "checkpoints/*.ckpt")
REPORT_ARTIFACTS = ("report_*.json", "eval/eval_report.json")
