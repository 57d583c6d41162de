"""Alternating same-seed benchmark runs of two trees, and their summary.

    python3 tools/bench_pairs.py --parent <tree> --change <tree> \\
        --workload <name> --seeds <first>-<last> --out <file.json>

For each seed s from first to last, runs BENCHMARK.json's command
(`python3 perfbench/run.py --workload <name> --seed s --seconds <run_seconds>
--trace 0`) in each tree, one tree right after the other. The parent runs
first in even pairs (counting from 0) and the change in odd ones, so the
order of the runs favours neither side. A run's result is the JSON object on
its last stdout line.

Adds one set to the "sets" list of the output file, which is created if it
is missing; the file's other keys are kept. A set holds the workload, each
tree's source_digest() (a tree made by `git archive` names no commit, so this
names the sources it measured), every run's exit code and result line, and
summarize()'s output: each side's median and quartiles of every end-to-end
metric in BENCHMARK.json, the number of pairs in which the change read lower,
and the total `failed` of each side.

A tree whose src/ holds a __pycache__ would run from bytecode where the other
compiles its sources, which moves every metric, so the tool then exits 2,
naming the tree, before any run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[str]) -> dict:
    """Per metric, each side's quartiles over the pairs in which both runs
    report it, the change's median minus the parent's, the parent's
    interquartile range and the count of pairs where the change is lower;
    and each side's total `failed`, a run with no result line counting one.

    A pair maps "parent" and "change" to a run's result line (None when the
    run printed none)."""
    summary = {}
    for name in metrics:
        both = [{side: pair[side]["metrics"][name]["value"] for side in SIDES}
                for pair in pairs
                if all(pair[side] and name in pair[side]["metrics"] for side in SIDES)]
        if not both:
            continue
        sides = {side: _quartiles([b[side] for b in both]) for side in SIDES}
        summary[name] = {
            **sides,
            "change_minus_parent_median": sides["change"]["median"] - sides["parent"]["median"],
            "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
            "change_lower_pairs": sum(b["change"] < b["parent"] for b in both),
            "pairs": len(both),
        }
    summary["failed"] = {side: sum(pair[side]["failed"] if pair[side] else 1 for pair in pairs)
                         for side in SIDES}
    return summary


def source_digest(tree: Path) -> str:
    """sha256 of tree's src/**/*.py: each file's path relative to tree, its
    length and its bytes, in sorted path order."""
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(tree).as_posix() for p in (tree / "src").rglob("*.py")):
        data = (tree / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _run(tree: Path, command: list[str]) -> dict:
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"exit_code": proc.returncode, "result": result}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="the tree measured as before")
    p.add_argument("--change", type=Path, required=True, help="the tree measured as after")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="an inclusive range, e.g. 9300-9309")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in spec["end_to_end"]]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        cached = sorted((tree / "src").rglob("__pycache__"))
        if cached:
            print(f"the {side} tree {tree} holds {cached[0]}: measure trees without bytecode",
                  file=sys.stderr)
            return 2
    sources = {side: source_digest(tree) for side, tree in trees.items()}

    def command(seed: str) -> list[str]:
        return [*spec["command"], "--workload", args.workload, "--seed", seed,
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]

    runs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            run[side] = _run(trees[side], command(str(seed)))
        runs.append(run)
        print(f"pair {i} seed {seed}: " + "; ".join(
            f"{side} " + (" ".join(f"{k}={v['value']:.4f}"
                                   for k, v in run[side]["result"]["metrics"].items())
                          if run[side]["result"] else f"no result (exit {run[side]['exit_code']})")
            for side in SIDES), file=sys.stderr)

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("sets", []).append({
        "workload": args.workload,
        "seeds": args.seeds,
        "command": " ".join(command("<seed>")),
        "trees": {side: tree.name for side, tree in trees.items()},
        "src_sha256": sources,
        "first": "parent in even pairs, change in odd ones",
        "summary": summarize([{side: run[side]["result"] for side in SIDES} for run in runs],
                             metrics),
        "runs": runs,
    })
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
