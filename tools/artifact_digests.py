"""sha256 of every artifact a fixed set of `otmf` CLI runs writes.

    python3 tools/artifact_digests.py <tree> <out.json>

Runs `python -m otmf.cli` from <tree>/src in a temporary directory, on the
stream-default and stream-long configs of this repository's
perfbench/workloads.py, for seeds 0 and 7: gen, train, merge with each of
otmf, swa, task_arithmetic and ties, eval of the otmf final checkpoint and
then of the ties final (the first evaluation is moved to eval-otmf/ before
the second), and ablate-alpha --grid 0.2,0.8. Writes a sorted JSON object
mapping each file's path under the run directory to its sha256, leaving out
the wall-clock sidecars (timings_*.json).

Two trees whose outputs are equal wrote byte-identical reports,
checkpoints, datasets and feature dumps. Run both on one machine with one
BLAS thread setting: the n = 128 shift solves' last bits depend on it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("stream-default", "stream-long")
SEEDS = (0, 7)
STAGES = (
    ["gen"], ["train"],
    *(["merge", "--method", m] for m in ("otmf", "swa", "task_arithmetic", "ties")),
    ["eval", "--checkpoint", "merged/otmf/final.ckpt"],
    ["eval", "--checkpoint", "merged/ties/final.ckpt"],
    ["ablate-alpha", "--grid", "0.2,0.8"],
)


def _workload_configs() -> dict[str, dict]:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return {name: module.WORKLOADS[name].config for name in WORKLOADS}


def _cli(src: Path, cwd: Path, args: list[str]) -> None:
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "otmf.cli", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"otmf {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")


def digests(tree: Path) -> dict[str, str]:
    src = tree.resolve() / "src"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, config in _workload_configs().items():
            cfg = root / f"{name}.json"
            cfg.write_text(json.dumps({**config, "output_dir": str(root / name)}))
            for seed in SEEDS:
                seed_dir = root / name / f"seed{seed}"
                for stage in STAGES:
                    if stage[0] == "eval":
                        if (seed_dir / "eval").exists():
                            (seed_dir / "eval").rename(seed_dir / "eval-otmf")
                        stage = [*stage[:-1], str(seed_dir / stage[-1])]
                    _cli(src, root, [*stage, "--config", str(cfg), "--seed", str(seed)])
        return {
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for name in WORKLOADS for p in sorted((root / name).rglob("*"))
            if p.is_file() and not p.name.startswith("timings_")
        }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    tree, out = Path(argv[0]), Path(argv[1])
    result = digests(tree)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(result)} files hashed from {tree} into {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
