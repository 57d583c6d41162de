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
failure. Set OTMF_LOG_LEVEL (DEBUG/INFO/WARNING/ERROR) to control logging;
any other level name is a config error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import logging
import math
import os
import random
import reprlib
import resource
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import METHODS, BaselineConfig
from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    OtmfError,
    ShapeMismatchError,
)
from .fusion import FusionConfig, merge_stream
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
from .metrics import accuracy, bwt, score_shift
from .models import ModelSpec, ToyModel, task_vector, train_world
from .sinkhorn import SolverState, log_solves
from .taskgen import TaskStreamSpec, generate_stream, task_ids

log = logging.getLogger("otmf")

_MERGE_METHODS = ("otmf", *METHODS)


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
    model: ModelSpec = dataclasses.field(default_factory=ModelSpec)
    fusion: FusionConfig = dataclasses.field(default_factory=FusionConfig)
    baseline: BaselineConfig = dataclasses.field(default_factory=BaselineConfig)
    sft: SftConfig = dataclasses.field(default_factory=SftConfig)
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "runs/default"

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError("seeds must be a non-empty list of distinct integers >= 0, "
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
    return cls(**kwargs)


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


def _report(cfg: RunConfig, seed: int, **fields) -> dict:
    """A stage's report: the tool version, the seed, the resolved config and fields."""
    return {"tool_version": __version__, "seed": seed, "config": resolved_config(cfg), **fields}


# ---------------------------------------------------------------------------
# per-seed pipeline pieces


def _seed_dir(cfg: RunConfig, seed: int) -> Path:
    """The seed's artifact directory. Reading it creates nothing: each
    stage makes the directory it writes, once its inputs have been found."""
    return Path(cfg.output_dir) / f"seed{seed}"


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MB (ru_maxrss counts KiB on
    Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _close_stage(cfg: RunConfig, seed: int, stage: str, t0: float, detail: str = "",
                 tallies: dict[str, SolverState] | None = None, sidecar: str = "", key: str = "",
                 **fields) -> None:
    """End one seed's stage, begun at perf_counter() t0: write its wall time
    (<key>_seconds), fields, the peak RSS and the Python version, numpy build and
    BLAS thread settings the artifacts' bits depend on to timings_<sidecar>.json
    (key defaults to sidecar, sidecar to stage); log time, RSS and detail, and
    the tallies' totals."""
    seconds, sidecar = time.perf_counter() - t0, sidecar or stage
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = {}
    timings = {f"{key or sidecar}_seconds": seconds, **fields,
               "peak_rss_mb": _peak_rss_mb(),
               "python_version": ".".join(map(str, sys.version_info[:3])),
               "numpy_version": np.__version__, "blas_name": blas.get("name"),
               "blas_version": blas.get("version"),
               **{var: os.environ.get(var)
                  for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    save_report(_seed_dir(cfg, seed) / f"timings_{sidecar}.json", timings)
    log.info("seed %d: %s in %.2f s, peak RSS %.1f MB%s", seed, stage, seconds,
             timings["peak_rss_mb"], f", {detail}" if detail else "")
    if tallies:
        log_solves(f"seed {seed}: {stage}", tallies, warn=("shift",))


def cmd_gen(cfg: RunConfig, seed: int) -> None:
    t0 = time.perf_counter()
    out = _seed_dir(cfg, seed) / "data"
    out.mkdir(parents=True, exist_ok=True)
    pretrain, tasks = generate_stream(cfg.stream, seed)
    save_batch(out / "pretrain.csv", pretrain)
    for td in tasks:
        save_batch(out / f"{td.task_id}_train.csv", td.train)
        save_batch(out / f"{td.task_id}_test.csv", td.test)
        cols = [f"x{i}" for i in range(td.unlabeled.shape[1])]
        save_matrix(out / f"{td.task_id}_unlabeled.csv", td.unlabeled, cols)
    _close_stage(cfg, seed, "gen", t0, f"wrote {len(tasks)} task datasets to {out}")


def _data_dir(cfg: RunConfig, seed: int) -> Path:
    data = _seed_dir(cfg, seed) / "data"
    if not data.is_dir():
        raise DataError(f"dataset missing under {data}; run `otmf gen` first")
    return data


def _load_set(cfg: RunConfig, path: Path, labeled: bool = True):
    """The labeled batch, or the unlabeled inputs, in a dataset file: at
    least one row of stream.input_dim inputs, labels below classes_per_task."""
    data = load_batch(path) if labeled else load_matrix(path)[0]
    inputs = data.inputs if labeled else data
    if len(inputs) == 0 or inputs.shape[1] != cfg.stream.input_dim:
        raise DataError(f"{path}: expected at least one row of {cfg.stream.input_dim} "
                        f"inputs, got {len(inputs)} rows of {inputs.shape[1]}")
    if labeled and data.labels.max() >= cfg.stream.classes_per_task:
        raise DataError(f"{path}: label {data.labels.max()} is not below "
                        f"classes_per_task {cfg.stream.classes_per_task}")
    return data


def cmd_train(cfg: RunConfig, seed: int) -> None:
    """Fine-tune the seed's world (models.train_world) and save its checkpoints."""
    t0 = time.perf_counter()
    data = _data_dir(cfg, seed)
    pretrain = _load_set(cfg, data / "pretrain.csv")
    trains = [(tid, _load_set(cfg, data / f"{tid}_train.csv"))
              for tid in task_ids(cfg.stream.num_tasks)]
    pre, models, sft_seconds = train_world(
        cfg.model, pretrain, trains, cfg.stream.classes_per_task, cfg.sft.epochs, cfg.sft.lr, seed)
    ckpt = _seed_dir(cfg, seed) / "checkpoints"
    ckpt.mkdir(exist_ok=True)
    save_checkpoint(ckpt / "pretrained.ckpt", pre)
    for (tid, _), model in zip(trains, models):
        save_checkpoint(ckpt / f"{tid}.ckpt", model)
        log.info("seed %d: trained %s", seed, tid)
    _close_stage(cfg, seed, "train", t0, f"trained {1 + len(models)} models in "
                 f"{len(sft_seconds)} run(s)", sft_seconds=sft_seconds)


def _load_model(cfg: RunConfig, path: str | Path) -> ToyModel:
    """The checkpoint at path, whose spec must be the configured model's."""
    model = load_checkpoint(path)
    if model.spec != cfg.model:
        raise ShapeMismatchError(
            f"{path}: checkpoint spec {model.spec} does not match configured {cfg.model}")
    return model


def _load_trained(cfg: RunConfig, seed: int, name: str) -> ToyModel:
    """The checkpoint `train` wrote under name: "pretrained" or a task id."""
    path = _seed_dir(cfg, seed) / "checkpoints" / f"{name}.ckpt"
    if not path.exists():
        raise DataError(f"checkpoint missing: {path}; run `otmf train` first")
    return _load_model(cfg, path)


def _load_theta0(cfg: RunConfig, seed: int) -> ToyModel:
    pre = _load_trained(cfg, seed, "pretrained")
    return ToyModel(spec=pre.spec, backbone=pre.backbone, heads={})


def _read_tasks(cfg: RunConfig, seed: int, theta0: ToyModel):
    """Yield each task, read when it is pulled, as a fusion.Task (id, task
    vector from theta0, fine-tuned head, train batch, unlabeled set) with
    its fine-tuned model and test batch."""
    data = _data_dir(cfg, seed)
    for tid in task_ids(cfg.stream.num_tasks):
        train = _load_set(cfg, data / f"{tid}_train.csv")
        test = _load_set(cfg, data / f"{tid}_test.csv")
        unlabeled = _load_set(cfg, data / f"{tid}_unlabeled.csv", labeled=False)
        sft = _load_trained(cfg, seed, tid)
        yield (tid, task_vector(sft, theta0), sft.heads[tid], train, unlabeled), sft, test


def _merge_tallies(logs) -> dict[str, SolverState]:
    """The tallies of continual_merge's solves over its step logs, by kind."""
    return {"mask loop": sum((s for lg in logs for s in lg.mask_loop_solver.values()),
                             SolverState()),
            "pair loss": sum((lg.pair_loss_solver for lg in logs), SolverState())}


class _Reservoir:
    """A seeded uniform sample of the rows added so far, without replacement
    (Vitter 1985, Algorithm R), holding as many rows as the first block.

    The first block is copied in whole; each later row, the n-th added
    (0-based), replaces a uniform slot j in [0, n] when j is a slot. The
    slots come from the standard library's random.Random(seed), not numpy's
    Generator, so a merge never imports numpy.random and its RNG
    extensions (about 5.5 MB of resident memory).
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.rows: np.ndarray | None = None
        self.added = 0

    def add(self, block: np.ndarray) -> None:
        if self.rows is None:
            self.rows = np.array(block, dtype=np.float64)
        else:
            for n, row in enumerate(block, self.added):
                j = self.rng.randrange(n + 1)
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
    t0 = time.perf_counter()
    theta0 = _load_theta0(cfg, seed)
    step_dir = _seed_dir(cfg, seed) / "merged" / method
    step_dir.mkdir(parents=True, exist_ok=True)
    # mat[t - 1, i - 1]: the accuracy after merge step t on task i, NaN above the diagonal
    mat = np.full((cfg.stream.num_tasks, cfg.stream.num_tasks), np.nan)
    tests = {}  # the read tasks' test sets
    shifts, shift_solver = [], SolverState()
    # the fine-tuned model and unlabeled set read last, the step's incoming
    # side, and the model its pre side compares against: task01's
    # fine-tuned model at step 2, then the previous step's merged model
    incoming = unlabeled = prev = None
    # the pre-side shift's inputs: a sample of the tasks before the incoming one
    seen = _Reservoir(seed)
    max_shift_n = 0

    def tasks():
        nonlocal incoming, unlabeled, prev
        for task, sft, test in _read_tasks(cfg, seed, theta0):
            tid = task[0]
            if prev is None:
                prev = sft
                # accuracy row 1 is the first fine-tuned model alone
                mat[0, 0] = accuracy(sft, tid, test)
            else:
                seen.add(unlabeled)
            tests[tid] = test
            incoming, unlabeled = sft, task[4]
            yield task

    def on_step(step: int, model: ToyModel) -> None:
        nonlocal max_shift_n, prev
        save_checkpoint(step_dir / f"step{step:02d}.ckpt", model)
        for i, (tid, test) in enumerate(tests.items()):
            mat[step - 1, i] = accuracy(model, tid, test)
        # shift of the merged model against the two models it fused
        pre = score_shift(model, prev, seen.rows, cfg.fusion.sinkhorn, shift_solver)
        post = score_shift(model, incoming, unlabeled, cfg.fusion.sinkhorn, shift_solver)
        max_shift_n = max(max_shift_n, len(pre.merged), len(post.merged))
        shifts.append({"step": step, "delta_pre": pre.l1, "delta_post": post.l1,
                       "sinkhorn_pre": pre.sinkhorn, "sinkhorn_post": post.sinkhorn})
        prev = model

    _, _, logs = merge_stream(method, theta0, tasks(), cfg.fusion, cfg.baseline, seed=seed,
                              on_step=on_step)
    extra, tallies = {}, {}
    if logs:  # otmf's step logs; a baseline has none
        tallies = _merge_tallies(logs)
        extra = {
            "pair_loss": [
                {"step": lg.step, "incoming_task": lg.incoming_task,
                 "initial": lg.initial_pair_loss, "final": lg.final_pair_loss}
                for lg in logs
            ],
            "mask_loop_solver": [
                {"step": lg.step, **{side: s.counts() for side, s in lg.mask_loop_solver.items()}}
                for lg in logs
            ],
            "ot_loss_history": [
                [lg.step, e, side, loss]
                for lg in logs
                for e, side, loss in lg.ot_loss_history
            ],
        }
    # the last step's merged model
    save_checkpoint(step_dir / "final.ckpt", prev)

    report = _report(
        cfg, seed, method=method,
        accuracy_matrix=[[None if np.isnan(v) else v for v in row] for row in mat],
        average_accuracy=float(mat[-1].mean()), bwt=bwt(mat), shifts=shifts, **extra)
    save_report(_seed_dir(cfg, seed) / f"report_{method}.json", report)
    log.info(
        "seed %d: %s avg accuracy %.4f bwt %+.4f",
        seed, method, report["average_accuracy"], report["bwt"],
    )
    _close_stage(cfg, seed, f"merge {method}", t0, f"largest shift problem {max_shift_n} points",
                 {**tallies, "shift": shift_solver}, sidecar=method, key="merge")
    return report


def cmd_eval(cfg: RunConfig, seed: int, checkpoint: str) -> dict:
    t0 = time.perf_counter()
    model = _load_model(cfg, checkpoint)
    data = _data_dir(cfg, seed)
    out = _seed_dir(cfg, seed) / "eval"
    out.mkdir(exist_ok=True)
    # Record the checkpoint relative to the output directory when it lives
    # inside it, so the report does not depend on where the run was written.
    ckpt_path = Path(checkpoint).resolve()
    try:
        ckpt_label = ckpt_path.relative_to(Path(cfg.output_dir).resolve()).as_posix()
    except ValueError:
        ckpt_label = ckpt_path.name
    # eval/ holds one evaluation per seed: say whose this one replaces
    report_path = out / "eval_report.json"
    if report_path.exists():
        try:
            replaced = json.loads(report_path.read_text(encoding="utf-8"))["checkpoint"]
        except (OSError, ValueError, KeyError, TypeError):  # unreadable, not JSON, no field
            replaced = "a checkpoint that cannot be read"
        if replaced != ckpt_label:
            log.warning("seed %d: eval: replacing %s, the evaluation of %s",
                        seed, report_path, replaced)

    per_task, shift_solver = [], SolverState()
    for tid in task_ids(cfg.stream.num_tasks):
        test = _load_set(cfg, data / f"{tid}_test.csv")
        unlabeled = _load_set(cfg, data / f"{tid}_unlabeled.csv", labeled=False)
        sft = _load_trained(cfg, seed, tid)
        shift = score_shift(model, sft, unlabeled, cfg.fusion.sinkhorn, shift_solver)
        entry = {"task": tid, "delta_l1": shift.l1, "delta_sinkhorn": shift.sinkhorn}
        if tid in model.heads:
            entry["accuracy"] = accuracy(model, tid, test)
        per_task.append(entry)
        save_features(out / f"features_{tid}_merged.csv", shift.merged, "merged")
        save_features(out / f"features_{tid}_sft.csv", shift.reference, tid)

    report = _report(cfg, seed, checkpoint=ckpt_label, per_task=per_task)
    save_report(report_path, report)
    _close_stage(cfg, seed, "eval", t0, tallies={"shift": shift_solver})
    return report


def cmd_ablate_alpha(cfg: RunConfig, seed: int, grid: list[float]) -> dict:
    """One otmf merge per alpha in grid, scored on the tasks' test sets; best_alpha and
    best_average_accuracy are the argmax over those same test sets, not a held-out choice."""
    if not grid:
        raise ConfigError("alpha grid is empty")
    # every grid point's config, each alpha checked by FusionConfig, before the first merge
    fusions = [dataclasses.replace(cfg.fusion, alpha=float(alpha)) for alpha in grid]
    t0 = time.perf_counter()
    theta0 = _load_theta0(cfg, seed)
    # the stream, parsed once for every grid point: the T tasks, and their
    # test sets by task id for the accuracy table
    tasks, tests = [], {}
    for task, _, test in _read_tasks(cfg, seed, theta0):
        tasks.append(task)
        tests[task[0]] = test
    rows, logs = [], []
    for fcfg in fusions:
        theta, heads, alpha_logs = merge_stream("otmf", theta0, tasks, fcfg, cfg.baseline,
                                                seed=seed)
        logs += alpha_logs
        model = ToyModel(spec=cfg.model, backbone=theta, heads=heads)
        accs = [accuracy(model, tid, test) for tid, test in tests.items()]
        rows.append([fcfg.alpha, *accs, float(np.mean(accs))])
        log.info("seed %d: alpha %.2f avg accuracy %.4f", seed, fcfg.alpha, rows[-1][-1])

    table = np.array(rows)
    best = int(np.argmax(table[:, -1]))
    out = _seed_dir(cfg, seed)
    save_matrix(out / "alpha_table.csv", table, ["alpha", *tests, "average"])
    report = _report(cfg, seed, grid=[float(a) for a in grid],
                     table=[list(map(float, r)) for r in rows],
                     best_alpha=float(table[best, 0]),
                     best_average_accuracy=float(table[best, -1]))
    save_report(out / "report_ablate.json", report)
    _close_stage(cfg, seed, "ablate-alpha", t0, tallies=_merge_tallies(logs), sidecar="ablate")
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
    if args.command == "ablate-alpha":
        try:
            grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --grid value: {args.grid}") from exc
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
            cmd_ablate_alpha(cfg, seed, grid)


def _release_freed_heap() -> None:
    """Give the C heap's free pages back to the OS (glibc's malloc_trim(0)).

    A process that compiles otmf from source (PYTHONDONTWRITEBYTECODE set, or
    no writable __pycache__) has freed about 1 MB of compiler memory by the
    time the stage starts, but glibc keeps those pages mapped between live
    heap blocks, so they would count toward every stage's peak resident
    memory. Returning them changes no result. Without glibc (another
    platform, or a C library with no malloc_trim) this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def main(argv: list[str] | None = None) -> int:
    _release_freed_heap()
    level = os.environ.get("OTMF_LOG_LEVEL", "INFO")
    # basicConfig checks a level name only when the root logger has no handler
    known = isinstance(logging.getLevelName(level.upper()), int)
    logging.basicConfig(level=level.upper() if known else "INFO",
                        format="%(levelname)s %(name)s: %(message)s")
    if not known:
        log.error("config error: OTMF_LOG_LEVEL=%r is not a logging level", level)
        return 2
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
