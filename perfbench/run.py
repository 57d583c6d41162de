"""otmf benchmark: runs the real `otmf` CLI on one workload and reports metrics.

    python3 perfbench/run.py --workload stream-default --seed 0 --seconds 10 --trace 0

It works on the checkout that holds this file, reading `src/otmf` and
writing only under `.bench_runs/`. Every stage is a fresh process started
after the previous one exits, with the seed passed as `--seed`.

--trace 0  end-to-end metrics from plain `python -m otmf.cli` processes.
           Each of the workload's seeds (workloads.sub_seeds, derived from
           --seed) runs every stage once; then the stages after set-up are
           re-run, all seeds per round, until --seconds of them have been
           measured (at least one round).
--trace 1  per-layer metrics for --seed alone: the workload run once as
           plain CLI processes and once under perfbench/tracing.py, which
           must leave byte-identical artifacts, plus `otmf --version`
           start-up probes.
--smoke    shrink the config (workloads.SMOKE_CONFIG) for the harness tests.

Every stage exit code and output check counts as one attempted operation.
The last stdout line is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json. The exit code is 0 only when every check
passed; 2 when the otmf sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, Stage, Workload, merged_config, sub_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_runs"
STARTUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass
class StageResult:
    stage: Stage
    wall_s: float
    maxrss_mb: float
    code: int
    spans: list[list]


class Runner:
    """Runs CLI processes for one benchmark run and tallies every check."""

    def __init__(self, workload: Workload, smoke: bool, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.missing: set[str] = set()  # trace targets the program no longer defines
        self.config_path = run_dir / "config.json"
        self.config = merged_config(workload, smoke)
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.num_tasks = self.config.get("stream", {}).get("num_tasks", 3)
        nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        for var in THREAD_VARS:
            current = os.environ.get(var, "")
            threads = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
            self.env[var] = str(threads)
        self.threads = {var: self.env[var] for var in THREAD_VARS}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def process(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Run one process to completion: (wall s, max RSS MB, exit code)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.run_dir)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no stage running
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def cli_version(self) -> float:
        wall, _, code = self.process([sys.executable, "-m", "otmf.cli", "--version"],
                                     self.run_dir / "version.log")
        self.check(code == 0, "otmf --version exits 0")
        return wall

    def stages(self, out: Path, stages: tuple[Stage, ...], seed: int,
               traced: bool = False) -> list[StageResult]:
        """Run stages in order, as plain CLI processes or under tracing.py;
        stop at the first failure (later stages need its output)."""
        out.mkdir(parents=True, exist_ok=True)
        seed_dir = out / f"seed{seed}"
        results = []
        for stage in stages:
            args = list(stage.args)
            if stage.kind == "eval":
                args[-1] = str(seed_dir / args[-1])
            args += ["--config", str(self.config_path), "--seed", str(seed), "--out", str(out)]
            dump_path = out / f"trace_{stage.label}.json"
            prefix = ([str(HERE / "tracing.py"), str(dump_path)] if traced
                      else ["-m", "otmf.cli"])
            wall, rss, code = self.process([sys.executable, *prefix, *args],
                                           out / f"{stage.label}.log")
            if not self.check(code == 0, f"{out.name}/{stage.label} exits 0 (got {code})"):
                break
            spans = []
            if traced:
                dump = json.loads(dump_path.read_text(encoding="utf-8"))
                self.check(dump["restored"], f"{stage.label}: every wrapped function restored")
                for name in dump["missing"]:
                    self.missing.add(name)
                spans = dump["spans"]
            results.append(StageResult(stage, wall, rss, code, spans))
        return results

    def output_checks(self, seed_dir: Path) -> None:
        for stage in self.workload.stages:
            if stage.args[0] == "merge":
                for ok, what in checks.check_merge_report(seed_dir / f"report_{stage.args[2]}.json"):
                    self.check(ok, what)
            elif stage.args[0] == "eval":
                for ok, what in checks.check_eval_report(seed_dir / "eval" / "eval_report.json",
                                                         self.num_tasks):
                    self.check(ok, what)

    def same_bytes(self, a: dict, b: dict, what: str) -> None:
        self.check(bool(a) and a == b, f"{what}: byte-identical ({len(a)} files)")


def _complete(results: list[StageResult], stages: tuple[Stage, ...]) -> bool:
    return len(results) == len(stages) and all(r.code == 0 for r in results)


def _wall(results: list[StageResult], kinds: tuple[str, ...]) -> float:
    return sum(r.wall_s for r in results if r.stage.kind in kinds)


_STAGES = ("merge", "eval")  # everything after set-up


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "otmf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(runner: Runner, args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": runner.threads,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
    }


def _sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def digest_key(runner: Runner, env: dict) -> str:
    """What fixes a seed's report bytes besides the seed: workload, config,
    sources and the numeric environment."""
    numeric_env = {k: v for k, v in env.items() if k not in ("git_commit", "seed")}
    return (f"{env['workload']}|src:{env['src_sha256']}|config:{_sha256_json(runner.config)}"
            f"|env:{_sha256_json(numeric_env)}")


def compare_with_earlier_runs(runner: Runner, key: str, reports: dict) -> None:
    """Each seed's reports must match earlier runs of that seed, with the same
    config, sources and environment, in this checkout byte for byte.

    `reports` maps "seed<N>/<file>" to its sha256.
    """
    path = WORK / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    by_seed: dict[str, dict] = {}
    for name, digest in reports.items():
        seed, rel = name.split("/", 1)
        by_seed.setdefault(f"{key}|{seed}", {})[rel] = digest
    for seed_key, files in sorted(by_seed.items()):
        if seed_key in known:
            runner.same_bytes(files, known[seed_key],
                              f"{seed_key.rsplit('|', 1)[1]} reports vs an earlier run")
        else:
            known[seed_key] = files
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def run_end_to_end(runner: Runner, seeds: list[int], seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics over the workload's seeds.

    Round 0 runs every stage for every seed; later rounds re-run the stages
    after set-up, on the same set-ups, until --seconds of them have been
    measured. A seed's post-set-up time is its median over rounds, and
    post_setup_s is the mean over seeds.
    """
    wl = runner.workload
    after_setup = tuple(st for st in wl.stages if st.kind != "setup")
    runner.cli_version()  # compiles the bytecode once; not timed
    setup_walls, rss = [], []
    post: dict[int, list[float]] = {s: [] for s in seeds}
    reports: dict[str, str] = {}
    rounds = 0
    while True:
        for seed in seeds:
            out = runner.run_dir / f"seed{seed}"
            seed_dir = out / f"seed{seed}"
            todo = wl.stages if rounds == 0 else after_setup
            res = runner.stages(out, todo, seed)
            if not _complete(res, todo):
                return {}, {}
            if rounds == 0:
                setup_walls.append(_wall(res, ("setup",)))
            post[seed].append(_wall(res, _STAGES))
            rss.append(max(r.maxrss_mb for r in res if r.stage.kind == "merge"))
            runner.output_checks(seed_dir)
            files = {f"seed{seed}/{k}": v
                     for k, v in checks.digests(seed_dir, checks.REPORT_ARTIFACTS).items()}
            if rounds == 0:
                reports.update(files)
            else:
                runner.same_bytes(files, {k: v for k, v in reports.items()
                                          if k.startswith(f"seed{seed}/")},
                                  f"seed {seed} reports across rounds")
            _warn_pair_loss_rises(seed_dir / "report_otmf.json")
        rounds += 1
        measured = sum(sum(v) for v in post.values())
        if measured >= seconds or measured / rounds > runner.deadline - time.monotonic():
            break
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "post_setup_s": statistics.fmean(statistics.median(v) for v in post.values()),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"setup_s": f"median of {len(setup_walls)} set-ups",
               "post_setup_s": f"mean of {len(seeds)} seeds x {rounds} round(s)",
               "peak_rss_mb": f"median of {len(rss)} stage runs"}
    return metrics, {"samples": samples, "seeds": seeds, "reports": reports,
                     "post_setup_s_by_seed": {str(s): v for s, v in post.items()}}


def _warn_pair_loss_rises(otmf_report: Path) -> None:
    if otmf_report.is_file():
        steps = json.loads(otmf_report.read_text(encoding="utf-8"))["pair_loss"]
        rises = checks.pair_loss_rises([[st["initial"], st["final"]] for st in steps])
        if rises:
            print(f"WARNING: {rises} merge step(s) of {otmf_report.parent.name}/"
                  f"{otmf_report.name} did not lower the pair loss")


def run_traced(runner: Runner, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass of the workload, checked
    against the same pass run as plain CLI processes."""
    wl = runner.workload
    runner.cli_version()
    startup = [runner.cli_version() for _ in range(STARTUP_PROBES)]
    plain = runner.stages(runner.run_dir / "plain", wl.stages, seed)
    traced = runner.stages(runner.run_dir / "traced", wl.stages, seed, traced=True)
    if not (_complete(plain, wl.stages) and _complete(traced, wl.stages)):
        return {}, {}
    plain_dir = runner.run_dir / "plain" / f"seed{seed}"
    traced_dir = runner.run_dir / "traced" / f"seed{seed}"
    runner.output_checks(plain_dir)
    runner.output_checks(traced_dir)
    reports = checks.digests(plain_dir, checks.REPORT_ARTIFACTS)
    runner.same_bytes(checks.digests(traced_dir, checks.REPORT_ARTIFACTS), reports,
                      "reports traced vs untraced")
    runner.same_bytes(checks.digests(traced_dir, checks.SETUP_ARTIFACTS),
                      checks.digests(plain_dir, checks.SETUP_ARTIFACTS),
                      "set-up data and checkpoints traced vs untraced")
    for name in sorted(runner.missing):
        print(f"WARNING: trace target {name} not found; its per-layer metrics read 0")

    stage_spans = [layers.StageSpans(r.stage.label, r.spans) for r in traced]
    metrics = {
        "cli.startup_s": statistics.median(startup),
        "metrics.final_accuracy": json.loads(
            (plain_dir / wl.accuracy_from).read_text(encoding="utf-8"))["average_accuracy"],
        "fusion.pair_loss_rises": checks.pair_loss_rises(layers.pair_losses(stage_spans)),
    }
    by_label = {r.stage.label: r.wall_s for r in plain}
    metrics["cli.merge_otmf_s"] = by_label.get("merge_otmf", 0.0)
    metrics["cli.merge_baselines_s"] = sum(
        by_label.get(f"merge_{m}", 0.0) for m in ("swa", "task_arithmetic", "ties"))
    metrics["cli.eval_s"] = by_label.get("eval", 0.0)
    metrics.update(layers.compute(stage_spans))
    # one traced pass against one untraced pass of the same seed
    metrics["trace.overhead_frac"] = (
        sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1.0)
    detail = {
        "samples": {"cli.startup_s": len(startup),
                    "sinkhorn.solve_ms_tail": f"p{layers.tail_percentile(int(metrics['sinkhorn.solves']))}"
                                              f" of n={int(metrics['sinkhorn.solves'])}",
                    "trace.overhead_frac": "one traced vs one untraced pass"},
        "stage_sinkhorn": {st.label: layers.sinkhorn_counts(st) for st in stage_spans},
        "missing_trace_targets": sorted(runner.missing),
        "reports": {f"seed{seed}/{k}": v for k, v in reports.items()},
    }
    return metrics, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny config for the harness tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds like an exception, so the running stage is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "otmf" / "cli.py").is_file():
        print(f"perfbench: no otmf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    mode = "smoke" if args.smoke else "full"
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{mode}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.smoke, run_dir)
    env = environment(runner, args)
    print("environment: " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics, detail = run_traced(runner, args.seed)
    else:
        metrics, detail = run_end_to_end(runner, sub_seeds(workload, args.seed, args.smoke),
                                         args.seconds)
    if detail:
        compare_with_earlier_runs(runner, digest_key(runner, env), detail["reports"])
    for m in wanted:
        runner.check(m["name"] in metrics, f"metric {m['name']} measured")

    samples = detail.get("samples", {})
    for name, info in detail.get("stage_sinkhorn", {}).items():
        print(f"stage {name}: sinkhorn " + " ".join(f"{k}={v}" for k, v in info.items()))
    for m in wanted:
        if m["name"] in metrics:
            note = f"  [{samples[m['name']]}]" if m["name"] in samples else ""
            print(f"{m['name']:32s} {metrics[m['name']]:>14.6g} {m['unit']}{note}")
    for problem in runner.problems:
        print(f"FAILED: {problem}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{run_dir.name}.json").write_text(
        json.dumps({"environment": env, **result, "detail": detail}, indent=1, sort_keys=True),
        encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
