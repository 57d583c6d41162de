"""Command-line pipeline: generate data, fine-tune, merge, evaluate.

Subcommands:
    gen           write the synthetic task stream to disk
    train         fine-tune the pretrained backbone and the per-task models
    merge         run a merging method over the task-vector stream
    eval          score a checkpoint and dump feature clouds
    ablate-alpha  full merge per grid point, table of accuracies

All artifacts land under <out>/seed<k>/ so seed sweeps never collide.
Outputs are byte-deterministic for a fixed config + seed; wall-clock
timings go to a separate sidecar so reports stay diffable.

Exit codes: 0 success, 2 config error, 3 data/shape error, 4 numerical
failure. Set OTMF_LOG_LEVEL (DEBUG/INFO/WARNING/ERROR) to control logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import reprlib
import resource
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BaselineConfig, baseline_fold
from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    OtmfError,
    ShapeMismatchError,
)
from .fusion import FusionConfig, continual_merge
from .io import (
    load_batch,
    load_checkpoint,
    load_matrix,
    save_batch,
    save_checkpoint,
    save_features,
    save_matrix,
    save_report,
)
from .metrics import AccuracyMatrix, accuracy, bwt, l1_shift, sinkhorn_shift
from .models import ModelSpec, ToyModel, forward_features, init_model, task_vector, train_sft
from .taskgen import TaskStreamSpec, generate_stream, task_ids

log = logging.getLogger("otmf")

_MERGE_METHODS = ("otmf", "swa", "task_arithmetic", "ties")


@dataclasses.dataclass(frozen=True)
class SftConfig:
    """Supervised fine-tuning settings shared by the pretrain and task runs."""

    epochs: int = 300
    lr: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("sft epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("sft lr must be > 0")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    stream: TaskStreamSpec = dataclasses.field(default_factory=TaskStreamSpec)
    model: ModelSpec = dataclasses.field(default_factory=lambda: ModelSpec((8, 16, 8)))
    fusion: FusionConfig = dataclasses.field(default_factory=FusionConfig)
    baseline: BaselineConfig = dataclasses.field(default_factory=BaselineConfig)
    sft: SftConfig = dataclasses.field(default_factory=SftConfig)
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "runs/default"

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must be a non-empty list of integers >= 0, "
                              f"got {reprlib.repr(list(self.seeds))}")
        if self.model.input_dim != self.stream.input_dim:
            raise ConfigError(
                f"model input dim {self.model.input_dim} != "
                f"stream input dim {self.stream.input_dim}"
            )


_TYPE_NAMES = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    tuple[int, ...]: "a list of integers",
}


def _typed(val, hint, name: str):
    """val checked against a config field's annotated type (JSON values).

    A float field takes any JSON number that converts to a finite float
    (Python's json also reads NaN and Infinity, which range checks would
    let through, and integers beyond float64 range, which overflow where
    they are used), kept as given; an int field only an integer, and a
    tuple[int, ...] field a list of integers (returned as a tuple); bool
    is never taken for a number.
    """
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    if hint is int:
        ok = number and isinstance(val, int)
    elif hint is float:
        try:
            ok = number and math.isfinite(val)
        except OverflowError:  # an integer beyond float64 range
            ok = False
    elif hint is str:
        ok = isinstance(val, str)
    else:  # tuple[int, ...]
        ok = isinstance(val, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in val
        )
        val = tuple(val) if ok else val
    if not ok:
        raise ConfigError(
            f"config value '{name}' must be {_TYPE_NAMES[hint]}, got {reprlib.repr(val)}")
    return val


def _build_section(cls, data: dict, name: str = ""):
    """cls built from a JSON object, its field types and defaults driving
    the build; name is the object's dotted key, "" for the config root."""
    where = f"config section '{name}'" if name else "config root"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    kwargs = {}
    for key, val in data.items():
        dotted = f"{name}.{key}" if name else key
        if dataclasses.is_dataclass(hints[key]):
            kwargs[key] = _build_section(hints[key], val, dotted)
        else:
            kwargs[key] = _typed(val, hints[key], dotted)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def load_config(path: str | None, seed: int | None, out: str | None) -> RunConfig:
    """Parse the config file, apply full defaulting, fold in CLI overrides."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    cfg = _build_section(RunConfig, data)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(seed,))
    if out is not None:
        cfg = dataclasses.replace(cfg, output_dir=out)
    if cfg.fusion.sinkhorn.tolerance < sys.float_info.epsilon:
        log.warning("fusion.sinkhorn.tolerance %g is below float64 epsilon: no plan can meet it; "
                    "Sinkhorn solves stop at the rounding floor of their marginals and are "
                    "counted as unconverged", cfg.fusion.sinkhorn.tolerance)
    return cfg


def resolved_config(cfg: RunConfig) -> dict:
    """Every effective value, defaults included, for embedding in reports.

    The output directory is omitted: it locates the artifacts but is not part
    of the experiment definition, and reports must be byte-identical no matter
    where they are written.
    """
    d = dataclasses.asdict(cfg)
    d.pop("output_dir")
    return json.loads(json.dumps(d))


# ---------------------------------------------------------------------------
# per-seed pipeline pieces


def _seed_dir(cfg: RunConfig, seed: int) -> Path:
    d = Path(cfg.output_dir) / f"seed{seed}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_gen(cfg: RunConfig, seed: int) -> None:
    t0 = time.perf_counter()
    out = _seed_dir(cfg, seed) / "data"
    out.mkdir(exist_ok=True)
    pretrain, tasks = generate_stream(cfg.stream, seed)
    save_batch(out / "pretrain.csv", pretrain)
    for td in tasks:
        save_batch(out / f"{td.task_id}_train.csv", td.train)
        save_batch(out / f"{td.task_id}_test.csv", td.test)
        cols = [f"x{i}" for i in range(td.unlabeled.shape[1])]
        save_matrix(out / f"{td.task_id}_unlabeled.csv", td.unlabeled, cols)
    timings = {"gen_seconds": time.perf_counter() - t0, "peak_rss_mb": _peak_rss_mb()}
    save_report(_seed_dir(cfg, seed) / "timings_gen.json", timings)
    log.info("seed %d: wrote %d task datasets to %s in %.2f s, peak RSS %.1f MB",
             seed, len(tasks), out, timings["gen_seconds"], timings["peak_rss_mb"])


def _data_dir(cfg: RunConfig, seed: int) -> Path:
    data = _seed_dir(cfg, seed) / "data"
    if not data.is_dir():
        raise DataError(f"dataset missing under {data}; run `otmf gen` first")
    return data


def _load_labeled(cfg: RunConfig, path: Path):
    batch = load_batch(path)
    if batch.labels.max() >= cfg.stream.classes_per_task:
        raise DataError(
            f"{path}: label {batch.labels.max()} is not below "
            f"classes_per_task {cfg.stream.classes_per_task}"
        )
    return batch


def _load_tasks(cfg: RunConfig, seed: int):
    """Each task's (id, train batch, test batch, unlabeled set), for the
    stages after `train`, which reads only the pretraining and train sets."""
    data = _data_dir(cfg, seed)
    tasks = []
    for tid in task_ids(cfg.stream.num_tasks):
        train = _load_labeled(cfg, data / f"{tid}_train.csv")
        test = _load_labeled(cfg, data / f"{tid}_test.csv")
        unlabeled, _ = load_matrix(data / f"{tid}_unlabeled.csv")
        tasks.append((tid, train, test, unlabeled))
    return tasks


def cmd_train(cfg: RunConfig, seed: int) -> None:
    """Fine-tune the pretrained model, then every task model; tasks whose
    train sets have one size are fine-tuned together as one stack."""
    t0 = time.perf_counter()
    data = _data_dir(cfg, seed)
    pretrain = _load_labeled(cfg, data / "pretrain.csv")
    groups: dict[int, list] = {}
    for i, tid in enumerate(task_ids(cfg.stream.num_tasks)):
        train = _load_labeled(cfg, data / f"{tid}_train.csv")
        groups.setdefault(train.size, []).append((tid, train, seed + 100 + i))
    ckpt = _seed_dir(cfg, seed) / "checkpoints"
    ckpt.mkdir(exist_ok=True)
    sft_seconds = {}

    def sft(init: ToyModel, runs) -> list[ToyModel]:
        t = time.perf_counter()
        models = train_sft(init, runs, cfg.stream.classes_per_task, cfg.sft.epochs, cfg.sft.lr)
        sft_seconds[",".join(task for task, _, _ in runs)] = time.perf_counter() - t
        return models

    [pre] = sft(init_model(cfg.model, seed=seed), [("pretrain", pretrain, seed)])
    save_checkpoint(ckpt / "pretrained.ckpt", pre)
    theta0 = ToyModel(spec=cfg.model, backbone=pre.backbone, heads={})

    for runs in groups.values():
        for (tid, _, _), model in zip(runs, sft(theta0, runs)):
            save_checkpoint(ckpt / f"{tid}.ckpt", model)
            log.info("seed %d: trained %s", seed, tid)
    timings = {"train_seconds": time.perf_counter() - t0, "sft_seconds": sft_seconds,
               "peak_rss_mb": _peak_rss_mb()}
    save_report(_seed_dir(cfg, seed) / "timings_train.json", timings)
    log.info("seed %d: trained %d models in %d run(s) in %.2f s, peak RSS %.1f MB",
             seed, 1 + cfg.stream.num_tasks, len(sft_seconds), timings["train_seconds"],
             timings["peak_rss_mb"])


def _load_theta0(cfg: RunConfig, seed: int) -> ToyModel:
    path = _seed_dir(cfg, seed) / "checkpoints" / "pretrained.ckpt"
    if not path.exists():
        raise DataError(f"checkpoint missing: {path}; run `otmf train` first")
    pre = load_checkpoint(path)
    return ToyModel(spec=pre.spec, backbone=pre.backbone, heads={})


def _sft_path(cfg: RunConfig, seed: int, tid: str) -> Path:
    path = _seed_dir(cfg, seed) / "checkpoints" / f"{tid}.ckpt"
    if not path.exists():
        raise DataError(f"checkpoint missing: {path}; run `otmf train` first")
    return path


def _task_stream(cfg: RunConfig, seed: int, theta0: ToyModel, tasks, on_read=None):
    """Yield each task's (id, task vector, head, train batch, unlabeled
    set), reading its fine-tuned checkpoint when the task is pulled;
    on_read(i, model), if given, sees the model read."""
    for i, (tid, train, _, unlabeled) in enumerate(tasks):
        sft = load_checkpoint(_sft_path(cfg, seed, tid))
        if on_read is not None:
            on_read(i, sft)
        yield tid, task_vector(sft, theta0), sft.heads[tid], train, unlabeled


class _Reservoir:
    """A seeded uniform sample of the rows added so far, without replacement
    (Vitter 1985, Algorithm R), holding as many rows as the first block.

    The first block is copied in whole; each later row, the n-th added
    (0-based), replaces a uniform slot j in [0, n] when j is a slot.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        self.rows: np.ndarray | None = None
        self.added = 0

    def add(self, block: np.ndarray) -> None:
        if self.rows is None:
            self.rows = np.array(block, dtype=np.float64)
        else:
            slots = self.rng.integers(0, self.added + np.arange(1, len(block) + 1))
            for row, j in zip(block, slots):
                if j < len(self.rows):
                    self.rows[j] = row
        self.added += len(block)


def cmd_merge(cfg: RunConfig, seed: int, method: str) -> dict:
    """Stream the task checkpoints through one merge method, reading each
    once, and score every step as soon as it is merged.

    A step's pre-side shift is measured on a seeded reservoir sample of the
    seen tasks' unlabeled sets, one task's set in size, so its OT problem
    does not grow with the stream; at step 2 the sample is task01's set.
    """
    if method not in _MERGE_METHODS:
        raise ConfigError(f"unknown merge method '{method}'")
    tasks = _load_tasks(cfg, seed)
    theta0 = _load_theta0(cfg, seed)
    tids = [t[0] for t in tasks]
    step_dir = _seed_dir(cfg, seed) / "merged" / method
    step_dir.mkdir(parents=True, exist_ok=True)
    mat = AccuracyMatrix(len(tasks))
    shifts = []
    # the fine-tuned model read last, the incoming side of the step's shift,
    # and the model the step's pre-side shift compares against: task01's
    # fine-tuned model at step 2, then the previous step's merged model
    models = {}
    # the pre-side shift's inputs: a sample of the tasks before the incoming one
    seen = _Reservoir(seed)
    max_shift_n = 0

    def on_read(i: int, sft: ToyModel) -> None:
        models["incoming"] = sft
        if i == 0:
            models["prev"] = sft
            # accuracy row 1 is the first fine-tuned model alone
            mat.set(1, 1, accuracy(sft, tids[0], tasks[0][2]))
        else:
            seen.add(tasks[i - 1][3])

    def on_step(step: int, theta: np.ndarray, heads: dict) -> None:
        nonlocal max_shift_n
        model = ToyModel(spec=cfg.model, backbone=theta, heads=heads)
        save_checkpoint(step_dir / f"step{step:02d}.ckpt", model)
        for i in range(1, step + 1):
            mat.set(step, i, accuracy(model, tids[i - 1], tasks[i - 1][2]))
        # shift of the merged model against the two models it fused
        prev, incoming = models["prev"], models["incoming"]
        pre_pool = seen.rows
        post_pool = tasks[step - 1][3]
        max_shift_n = max(max_shift_n, len(pre_pool), len(post_pool))
        shifts.append(
            {
                "step": step,
                "delta_pre": l1_shift(model, prev, pre_pool),
                "delta_post": l1_shift(model, incoming, post_pool),
                "sinkhorn_pre": sinkhorn_shift(model, prev, pre_pool, cfg.fusion.sinkhorn),
                "sinkhorn_post": sinkhorn_shift(model, incoming, post_pool, cfg.fusion.sinkhorn),
            }
        )
        models["prev"] = model

    stream = _task_stream(cfg, seed, theta0, tasks, on_read)
    t0 = time.perf_counter()
    if method == "otmf":
        final_theta, heads, logs = continual_merge(
            theta0, stream, cfg.fusion, seed=seed, on_step=on_step
        )
        extra = {
            "pair_loss": [
                {"step": lg.step, "incoming_task": lg.incoming_task,
                 "initial": lg.initial_pair_loss, "final": lg.final_pair_loss}
                for lg in logs
            ],
            # per step and side: mask-loop solves, marginal checks, Newton
            # directions, fallbacks to scaling updates, unconverged solves
            "mask_loop_solver": [
                {"step": lg.step, **lg.solver_counts} for lg in logs
            ],
            "ot_loss_history": [
                [lg.step, e, side, loss]
                for lg in logs
                for e, side, loss in lg.ot_loss_history
            ],
        }
    else:
        heads, extra = {}, {}

        def task_vectors():
            for tid, delta, head, _, _ in stream:
                heads[tid] = head
                yield delta

        fold = baseline_fold(method, cfg.baseline, task_vectors())
        for step, delta_m in enumerate(fold, start=1):
            if step >= 2:
                final_theta = theta0.backbone + delta_m
                on_step(step, final_theta, dict(heads))
    # the merge together with the per-step checkpoints and evaluation
    peak_rss_mb = _peak_rss_mb()
    timings = {"merge_seconds": time.perf_counter() - t0, "peak_rss_mb": peak_rss_mb}
    log.info(
        "seed %d: %s peak RSS %.1f MB, largest shift problem %d points",
        seed, method, peak_rss_mb, max_shift_n,
    )
    final = ToyModel(spec=cfg.model, backbone=final_theta, heads=heads)
    save_checkpoint(step_dir / "final.ckpt", final)

    report = {
        "tool_version": __version__,
        "seed": seed,
        "method": method,
        "config": resolved_config(cfg),
        "accuracy_matrix": [
            [None if np.isnan(v) else v for v in row] for row in mat.as_array()
        ],
        "average_accuracy": mat.final_average(),
        "bwt": bwt(mat),
        "shifts": shifts,
        **extra,
    }
    save_report(_seed_dir(cfg, seed) / f"report_{method}.json", report)
    save_report(_seed_dir(cfg, seed) / f"timings_{method}.json", timings)
    log.info(
        "seed %d: %s avg accuracy %.4f bwt %+.4f",
        seed, method, report["average_accuracy"], report["bwt"],
    )
    return report


def cmd_eval(cfg: RunConfig, seed: int, checkpoint: str) -> dict:
    model = load_checkpoint(checkpoint)
    if model.spec != cfg.model:
        raise ShapeMismatchError(
            f"checkpoint spec {model.spec} does not match configured {cfg.model}"
        )
    tasks = _load_tasks(cfg, seed)
    out = _seed_dir(cfg, seed) / "eval"
    out.mkdir(exist_ok=True)

    per_task = []
    for tid, _, test, unlabeled in tasks:
        sft = load_checkpoint(_sft_path(cfg, seed, tid))
        entry = {"task": tid}
        if tid in model.heads:
            entry["accuracy"] = accuracy(model, tid, test)
        entry["delta_l1"] = l1_shift(model, sft, unlabeled)
        entry["delta_sinkhorn"] = sinkhorn_shift(model, sft, unlabeled, cfg.fusion.sinkhorn)
        per_task.append(entry)
        save_features(out / f"features_{tid}_merged.csv",
                      forward_features(model, unlabeled), "merged")
        save_features(out / f"features_{tid}_sft.csv",
                      forward_features(sft, unlabeled), tid)

    # Record the checkpoint relative to the output directory when it lives
    # inside it, so the report does not depend on where the run was written.
    ckpt_path = Path(checkpoint).resolve()
    try:
        ckpt_label = ckpt_path.relative_to(Path(cfg.output_dir).resolve()).as_posix()
    except ValueError:
        ckpt_label = ckpt_path.name
    report = {
        "tool_version": __version__,
        "seed": seed,
        "checkpoint": ckpt_label,
        "config": resolved_config(cfg),
        "per_task": per_task,
    }
    save_report(out / "eval_report.json", report)
    return report


def cmd_ablate_alpha(cfg: RunConfig, seed: int, grid: list[float]) -> dict:
    if not grid:
        raise ConfigError("alpha grid is empty")
    if any(not 0.0 <= a <= 1.0 for a in grid):
        raise ConfigError(f"alpha grid values must lie in [0, 1]: {grid}")
    tasks = _load_tasks(cfg, seed)
    theta0 = _load_theta0(cfg, seed)
    tids = [t[0] for t in tasks]

    rows = []
    for alpha in grid:
        fcfg = dataclasses.replace(cfg.fusion, alpha=float(alpha))
        final_theta, heads, _ = continual_merge(
            theta0, _task_stream(cfg, seed, theta0, tasks), fcfg, seed=seed
        )
        model = ToyModel(spec=cfg.model, backbone=final_theta, heads=heads)
        accs = [accuracy(model, tid, tasks[i][2]) for i, tid in enumerate(tids)]
        rows.append([float(alpha), *accs, float(np.mean(accs))])
        log.info("seed %d: alpha %.2f avg accuracy %.4f", seed, alpha, rows[-1][-1])

    table = np.array(rows)
    best = int(np.argmax(table[:, -1]))
    out = _seed_dir(cfg, seed)
    save_matrix(out / "alpha_table.csv", table, ["alpha", *tids, "average"])
    report = {
        "tool_version": __version__,
        "seed": seed,
        "config": resolved_config(cfg),
        "grid": [float(a) for a in grid],
        "table": [list(map(float, r)) for r in rows],
        "best_alpha": float(table[best, 0]),
        "best_average_accuracy": float(table[best, -1]),
    }
    save_report(out / "report_ablate.json", report)
    return report


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otmf",
        description="Continual model merging with mask-trained optimal-transport fusion.",
    )
    parser.add_argument("--version", action="version", version=f"otmf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override the config's seed list")
        p.add_argument("--out", help="override the config's output directory")

    common(sub.add_parser("gen", help="write the synthetic task stream"))
    common(sub.add_parser("train", help="fine-tune pretrained + per-task models"))
    p = sub.add_parser("merge", help="merge the task-vector stream")
    common(p)
    p.add_argument("--method", required=True, choices=_MERGE_METHODS)
    p = sub.add_parser("eval", help="score a checkpoint, dump feature clouds")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p = sub.add_parser("ablate-alpha", help="accuracy table over an alpha grid")
    common(p)
    p.add_argument("--grid", required=True,
                   help="comma-separated alpha values, e.g. 0,0.1,0.2")
    return parser


def _run(args: argparse.Namespace) -> None:
    cfg = load_config(args.config, args.seed, args.out)
    for seed in cfg.seeds:
        if args.command == "gen":
            cmd_gen(cfg, seed)
        elif args.command == "train":
            cmd_train(cfg, seed)
        elif args.command == "merge":
            cmd_merge(cfg, seed, args.method)
        elif args.command == "eval":
            cmd_eval(cfg, seed, args.checkpoint)
        elif args.command == "ablate-alpha":
            try:
                grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
            except ValueError as exc:
                raise ConfigError(f"bad --grid value: {args.grid}") from exc
            cmd_ablate_alpha(cfg, seed, grid)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("OTMF_LOG_LEVEL", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except (DataError, ShapeMismatchError, OSError) as exc:
        log.error("data error: %s", exc)
        return 3
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return 4
    except OtmfError as exc:  # any other toolkit failure counts as data/shape
        log.error("%s", exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
