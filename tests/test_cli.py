import json
import logging
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import otmf
import otmf.cli
import otmf.metrics
from otmf import sinkhorn as sinkhorn_module
from otmf.cli import _Reservoir, cmd_merge, load_config, main, resolved_config
from otmf.errors import ConfigError, DataError
from otmf.io import load_batch, load_checkpoint, load_matrix, save_checkpoint, save_features
from otmf.metrics import l1_shift, score_shift, sinkhorn_shift
from otmf.models import ModelSpec, ToyModel, forward_features, init_model, train_sft


TINY = {
    "stream": {"num_tasks": 2, "input_dim": 4, "classes_per_task": 3,
               "samples_per_task": 40},
    "model": {"layer_dims": [4, 8, 4]},
    "fusion": {"ot_epochs": 6, "batch_size": 16},
    "sft": {"epochs": 30, "lr": 0.1},
    "seeds": [0],
}


@pytest.fixture
def tiny_cfg(tmp_path):
    cfg = dict(TINY, output_dir=str(tmp_path / "run"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def run(*args):
    return main([str(a) for a in args])


def _cli_env():
    """The environment for an `otmf` subprocess that imports this otmf."""
    src = str(Path(otmf.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def pipeline(tiny_cfg, tmp_path):
    assert run("gen", "--config", tiny_cfg) == 0
    assert run("train", "--config", tiny_cfg) == 0
    return tiny_cfg, tmp_path / "run" / "seed0"


# ---------------------------------------------------------------------------
# config handling


def test_defaults_without_config_file():
    cfg = load_config(None, None, None)
    assert cfg.seeds == (0,)
    assert cfg.fusion.alpha == 0.8
    assert cfg.model.layer_dims == (8, 16, 8)
    resolved = resolved_config(cfg)
    assert resolved["stream"]["num_tasks"] == 3
    assert resolved["fusion"]["sinkhorn"]["epsilon"] == 0.05


def test_partial_model_section_keeps_default_layer_dims(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"activation": "relu"}}))
    cfg = load_config(str(path), None, None)
    assert cfg.model == ModelSpec((8, 16, 8), activation="relu")


def test_unknown_log_level_exits_2(tiny_cfg):
    out = subprocess.run(
        [sys.executable, "-m", "otmf.cli", "gen", "--config", str(tiny_cfg)],
        env=dict(_cli_env(), OTMF_LOG_LEVEL="bogus"), capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 2
    [line] = out.stderr.splitlines()
    assert "config error" in line and "OTMF_LOG_LEVEL" in line and "bogus" in line
    assert not (tiny_cfg.parent / "run").exists()


def test_config_overrides(tiny_cfg):
    cfg = load_config(str(tiny_cfg), seed=7, out="elsewhere")
    assert cfg.seeds == (7,)
    assert cfg.output_dir == "elsewhere"
    assert cfg.stream.num_tasks == 2
    # numpy would reject a negative seed only once the stage runs
    with pytest.raises(ConfigError, match="integers >= 0"):
        load_config(str(tiny_cfg), seed=-1, out=None)
    assert run("gen", "--config", tiny_cfg, "--seed", -1) == 2


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"streem": {}}))
    with pytest.raises(ConfigError):
        load_config(str(p), None, None)
    p.write_text(json.dumps({"fusion": {"alfa": 0.5}}))
    with pytest.raises(ConfigError):
        load_config(str(p), None, None)


def test_config_rejects_model_stream_mismatch(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"stream": {"input_dim": 5},
                             "model": {"layer_dims": [4, 4]}}))
    with pytest.raises(ConfigError):
        load_config(str(p), None, None)


def test_tolerance_below_float64_epsilon_warns_once(tmp_path, caplog):
    p = tmp_path / "cfg.json"
    for tolerance, warnings in ((1e-300, 1), (1e-16, 1), (2.3e-16, 0), (1e-6, 0)):
        p.write_text(json.dumps({"fusion": {"sinkhorn": {"tolerance": tolerance}}}))
        caplog.clear()
        with caplog.at_level("WARNING", logger="otmf"):
            cfg = load_config(str(p), None, None)
        assert cfg.fusion.sinkhorn.tolerance == tolerance
        records = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(records) == warnings, tolerance
        for record in records:
            message = record.getMessage()
            assert "fusion.sinkhorn.tolerance" in message
            assert "no plan can meet it" in message
            assert "rounding floor" in message and "unconverged" in message


@pytest.mark.parametrize(
    "bad",
    [
        {"seeds": 5},
        {"seeds": ["a"]},
        {"seeds": [True]},
        {"model": {"layer_dims": 8}},
        {"model": {"layer_dims": [8, 16.5, 8]}},
        {"fusion": {"sinkhorn": {"max_iters": 2.5}}},
        {"fusion": {"alpha": "0.5"}},
        {"fusion": {"pre_batch_mixture": 1}},
        {"output_dir": 3},
        {"baseline": {"method": "ties"}},
        {"fusion": {"sinkhorn": {"log_domain": True}}},
        {"fusion": {"optimizer": "adam"}},
        {"stream": {"seed": 1}},
        {"fusion": {"head_epochs": -5}},
        {"fusion": {"head_lr": -1}},
        {"fusion": {"head_lr": 0}},
        {"fusion": {"head_fraction": 0}},
        {"fusion": {"head_fraction": 1.5}},
        {"seeds": [-1]},
        # one sample leaves the train split empty
        {"stream": {"samples_per_task": 1}},
    ],
    ids=lambda bad: json.dumps(bad),
)
def test_malformed_config_value_exits_2(tmp_path, bad):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ConfigError):
        load_config(str(p), None, None)
    assert run("gen", "--config", p, "--out", tmp_path / "out") == 2


FLOAT_KEYS = [
    "baseline.scaling", "baseline.trim_fraction", "sft.lr", "fusion.alpha",
    "fusion.mask_lr", "fusion.head_lr", "fusion.head_fraction",
    "fusion.sinkhorn.epsilon", "fusion.sinkhorn.tolerance", "stream.heterogeneity",
]


def test_float_keys_are_every_float_config_field():
    def floats(section, prefix):
        for key, val in section.items():
            if isinstance(val, dict):
                yield from floats(val, f"{prefix}{key}.")
            elif isinstance(val, float):
                yield prefix + key

    resolved = resolved_config(load_config(None, None, None))
    assert sorted(floats(resolved, "")) == sorted(FLOAT_KEYS)


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_config_value_exits_2(tmp_path, key):
    # Python's json reads NaN and Infinity, and range checks such as
    # lr <= 0 let both through; an integer beyond float64 range passes
    # them too, and overflows where it is used
    *sections, leaf = key.split(".")
    p = tmp_path / "bad.json"
    for value in (math.nan, math.inf, -math.inf, 10**400):
        bad = {leaf: value}
        for section in reversed(sections):
            bad = {section: bad}
        p.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="finite") as exc:
            load_config(str(p), None, None)
        # the rejected value is echoed shortened, not as 400 digits
        assert len(str(exc.value)) < 200
        assert run("gen", "--config", p, "--out", tmp_path / "out") == 2


def test_tiny_finite_tolerance_is_valid(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"fusion": {"sinkhorn": {"tolerance": 1e-300}}}))
    assert load_config(str(p), None, None).fusion.sinkhorn.tolerance == 1e-300


def test_repeated_seed_exits_2(tmp_path):
    # a repeated seed would run every stage twice and rewrite its own artifacts
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seeds": [3, 0, 3]}))
    with pytest.raises(ConfigError, match=r"distinct .*\[3, 0, 3\]"):
        load_config(str(p), None, None)
    assert run("gen", "--config", p, "--out", tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_config_error(tmp_path):
    assert run("gen", "--config", "does-not-exist.json") == 2
    # a config file that is not UTF-8 text
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    assert run("gen", "--config", p) == 2


def test_exit_code_missing_data(tiny_cfg, tmp_path):
    assert run("train", "--config", tiny_cfg, "--out", tmp_path / "empty") == 3
    # files that cannot be read or written where the run looks for them
    assert run("eval", "--config", tiny_cfg, "--out", tmp_path / "empty",
               "--checkpoint", tmp_path) == 3
    assert run("gen", "--config", tiny_cfg, "--out", tiny_cfg / "x") == 3


def test_only_train_reads_the_pretraining_set(pipeline):
    tiny_cfg, seed_dir = pipeline
    final = seed_dir / "merged" / "otmf" / "final.ckpt"
    (seed_dir / "data" / "pretrain.csv").unlink()
    assert run("merge", "--config", tiny_cfg, "--method", "otmf") == 0
    assert run("eval", "--config", tiny_cfg, "--checkpoint", final) == 0
    assert run("ablate-alpha", "--config", tiny_cfg, "--grid", "0.5") == 0
    assert run("train", "--config", tiny_cfg) == 3
    # a missing dataset is still a data error for every command that reads it
    shutil.rmtree(seed_dir / "data")
    assert run("merge", "--config", tiny_cfg, "--method", "otmf") == 3
    assert run("eval", "--config", tiny_cfg, "--checkpoint", final) == 3
    assert run("ablate-alpha", "--config", tiny_cfg, "--grid", "0.5") == 3


def test_train_reads_only_the_pretraining_and_train_sets(tiny_cfg, tmp_path):
    assert run("gen", "--config", tiny_cfg) == 0
    data = tmp_path / "run" / "seed0" / "data"
    for path in [*data.glob("*_test.csv"), *data.glob("*_unlabeled.csv")]:
        path.unlink()
    assert run("train", "--config", tiny_cfg) == 0
    (data / "task02_train.csv").unlink()
    assert run("train", "--config", tiny_cfg) == 3


def test_ragged_train_sets_train_in_groups_as_each_alone(tmp_path):
    # task02's train set loses two rows, so task01 and task03 train as one
    # stack and task02 alone; each checkpoint is its solo run, byte for byte
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY, stream=dict(TINY["stream"], num_tasks=3),
                                        output_dir=str(tmp_path / "run"))))
    assert run("gen", "--config", cfg_path) == 0
    seed_dir = tmp_path / "run" / "seed0"
    short = seed_dir / "data" / "task02_train.csv"
    short.write_bytes(b"\n".join(short.read_bytes().split(b"\n")[:-3]) + b"\n")
    assert run("train", "--config", cfg_path) == 0
    timings = json.loads((seed_dir / "timings_train.json").read_text())
    assert list(timings["sft_seconds"]) == ["pretrain", "task01,task03", "task02"]

    cfg = load_config(str(cfg_path), None, None)
    pre = load_checkpoint(seed_dir / "checkpoints" / "pretrained.ckpt")
    theta0 = ToyModel(spec=cfg.model, backbone=pre.backbone, heads={})
    batches = [load_batch(seed_dir / "data" / f"task0{i}_train.csv") for i in (1, 2, 3)]
    assert batches[0].size == batches[1].size + 2 == batches[2].size
    for i, (tid, batch) in enumerate(zip(["task01", "task02", "task03"], batches)):
        [alone] = train_sft(theta0, [(tid, batch, 100 + i)],
                            cfg.stream.classes_per_task, cfg.sft.epochs, cfg.sft.lr)
        solo = tmp_path / f"{tid}.ckpt"
        save_checkpoint(solo, alone)
        assert solo.read_bytes() == (seed_dir / "checkpoints" / f"{tid}.ckpt").read_bytes()


def test_exit_code_bad_grid(pipeline):
    tiny_cfg, _ = pipeline
    assert run("ablate-alpha", "--config", tiny_cfg, "--grid", "0,2") == 2
    assert run("ablate-alpha", "--config", tiny_cfg, "--grid", "zero") == 2


@pytest.mark.parametrize(
    "line, bad",
    [
        ("layer_dims 4 8 4", "layer_dims 4 8x 4"),
        ("array backbone/layer0.weight 8 4", "array backbone/layer0.weight 8x 4"),
        ("layer_dims 4 8 4", "layer_dims"),
        ("activation tanh", "activation"),
        ("array backbone/layer0.weight 8 4", "array"),
        ("array backbone/layer0.weight 8 4", "array layer0.weight 8 4"),
    ],
    ids=["dim-not-integer", "array-dim-not-integer", "short-layer_dims",
         "short-activation", "short-array", "name-without-group"],
)
def test_exit_code_malformed_checkpoint_header(tmp_path, line, bad):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, init_model(ModelSpec((4, 8, 4)), seed=0))
    raw = path.read_bytes()
    assert raw.count(line.encode() + b"\n") == 1
    path.write_bytes(raw.replace(line.encode() + b"\n", bad.encode() + b"\n"))
    assert run("eval", "--checkpoint", path, "--out", tmp_path / "out") == 3


@pytest.mark.parametrize(
    "line, bad",
    [
        ("array backbone/layer0.weight 8 4", "array backbone/layer0.weight 4 8"),
        ("array backbone/layer1.bias 4", "array backbone/layer9.bias 4"),
        ("array head/task01/bias 3", "array head/task01/offset 3"),
    ],
    ids=["transposed-weight", "renamed-layer", "renamed-head-bias"],
)
def test_exit_code_checkpoint_arrays_contradict_its_spec(pipeline, tmp_path, line, bad):
    # the payload keeps its size, so only the layout check catches these;
    # without it, eval fails with an uncaught error in the forward pass or
    # in scoring task01
    tiny_cfg, _ = pipeline
    path = tmp_path / "bad.ckpt"
    spec = ModelSpec((4, 8, 4))
    head = {"weight": np.ones((3, 4)), "bias": np.zeros(3)}
    save_checkpoint(path, ToyModel(spec, init_model(spec, seed=0).backbone, {"task01": head}))
    raw = path.read_bytes()
    assert raw.count(line.encode() + b"\n") == 1
    path.write_bytes(raw.replace(line.encode() + b"\n", bad.encode() + b"\n"))
    with pytest.raises(DataError, match="layout"):
        load_checkpoint(path)
    assert run("eval", "--config", tiny_cfg, "--checkpoint", path) == 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny run through gen and train, for tests to copy and corrupt."""
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY, output_dir=str(root / "run"))))
    assert run("gen", "--config", cfg) == 0
    assert run("train", "--config", cfg) == 0
    return cfg, root / "run"


def _edit_row(raw: bytes, row: int, edit) -> bytes:
    lines = raw.split(b"\n")
    lines[row] = edit(lines[row])
    return b"\n".join(lines)


def _first_payload_entry(value: float):
    def corrupt(raw: bytes) -> bytes:
        start = raw.index(b"\ndata\n") + 6
        return raw[:start] + np.float64(value).tobytes() + raw[start + 8:]
    return corrupt


def _label(value: bytes):
    """Set the label of a dataset's first row."""
    return lambda raw: _edit_row(raw, 1, lambda r: r.rsplit(b",", 1)[0] + b"," + value)


def _head_row(value: float):
    """Set the first row of task02's head weight. The head is the last
    array group of task02.ckpt: a k x d weight, then k biases."""
    k, d = TINY["stream"]["classes_per_task"], TINY["model"]["layer_dims"][-1]

    def corrupt(raw: bytes) -> bytes:
        start = len(raw) - (k * d + k) * 8
        return raw[:start] + np.full(d, value).tobytes() + raw[start + d * 8:]
    return corrupt


_WEIGHT = b"array backbone/layer0.weight "

# file under the seed directory, its corruption, and the exit code of a merge
FAULTS = {
    "truncated-payload": ("checkpoints/task02.ckpt", lambda raw: raw[:-8], 3),
    "empty-checkpoint": ("checkpoints/task02.ckpt", lambda raw: b"", 3),
    "transposed-shape": (
        "checkpoints/task02.ckpt",
        lambda raw: raw.replace(_WEIGHT + b"8 4\n", _WEIGHT + b"4 8\n"), 3),
    "missing-label-column": (
        "data/task02_test.csv", lambda raw: raw.replace(b",label\n", b",y\n", 1), 3),
    "nan-payload": ("checkpoints/task02.ckpt", _first_payload_entry(np.nan), 4),
    # finite, but the merged model's first pre-activation overflows
    "overflow-payload": ("checkpoints/task02.ckpt", _first_payload_entry(1e308), 4),
    # finite, but task02's logits overflow (some feature sums pass 1 in size)
    "overflow-head": ("checkpoints/task02.ckpt", _head_row(np.finfo(np.float64).max), 4),
    "ragged-row-long": (
        "data/task02_test.csv", lambda raw: _edit_row(raw, 2, lambda r: r + b",0"), 3),
    "ragged-row-short": (
        "data/task02_test.csv",
        lambda raw: _edit_row(raw, 2, lambda r: r.rsplit(b",", 1)[0]), 3),
    "non-numeric-cell": (
        "data/task02_test.csv", lambda raw: _edit_row(raw, 1, lambda r: b"x" + r), 3),
    "non-utf8-cell": (
        "data/task02_test.csv", lambda raw: _edit_row(raw, 1, lambda r: b"\xff" + r), 3),
    "nan-cell": (
        "data/task02_test.csv",
        lambda raw: _edit_row(raw, 1, lambda r: b"nan" + r[r.index(b","):]), 3),
    "fractional-label": ("data/task02_test.csv", _label(b"1.5"), 3),
    # the tiny stream has 3 classes per task
    "label-out-of-range": ("data/task02_test.csv", _label(b"7"), 3),
    "train-label-out-of-range": ("data/task01_train.csv", _label(b"7"), 3),
}


@pytest.mark.parametrize("target, corrupt, code", FAULTS.values(), ids=FAULTS.keys())
def test_exit_code_corrupted_input(trained, tmp_path, target, corrupt, code):
    cfg, trained_run = trained
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    path = out / "seed0" / target
    raw = path.read_bytes()
    bad = corrupt(raw)
    assert bad != raw
    path.write_bytes(bad)
    assert run("merge", "--config", cfg, "--out", out, "--method", "ties") == code


def _without_first_column(raw: bytes) -> bytes:
    return b"\n".join(line.split(b",", 1)[-1] for line in raw.split(b"\n"))


@pytest.mark.parametrize(
    "name, corrupt",
    [("task02_unlabeled.csv", lambda raw: raw.split(b"\n", 1)[0] + b"\n"),
     ("task02_test.csv", lambda raw: raw.split(b"\n", 1)[0] + b"\n"),
     ("task02_unlabeled.csv", _without_first_column),
     ("task02_test.csv", _without_first_column)],
    ids=["unlabeled-header-only", "test-header-only", "unlabeled-3-columns",
         "test-3-columns"],
)
@pytest.mark.parametrize(
    "args", [("merge", "--method", "otmf"), ("merge", "--method", "ties"),
             ("eval", "--checkpoint", "checkpoints/task01.ckpt")],
    ids=["merge-otmf", "merge-ties", "eval"])
def test_task_set_of_wrong_shape_exits_3_naming_it(trained, tmp_path, caplog, name, corrupt,
                                                     args):
    # each set needs a row of stream.input_dim (4) inputs; a header-only
    # unlabeled set used to reach the feature scaling and warn there
    cfg, trained_run = trained
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    path = out / "seed0" / "data" / name
    path.write_bytes(corrupt(path.read_bytes()))
    args = [a.replace("checkpoints/", f"{out}/seed0/checkpoints/") for a in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*args, "--config", cfg, "--out", out) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert str(path) in error


def test_unknown_method_rejected_by_parser(tiny_cfg):
    with pytest.raises(SystemExit) as exc:
        run("merge", "--config", tiny_cfg, "--method", "magic")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# gen / train


def test_gen_writes_deterministic_datasets(tiny_cfg, tmp_path):
    assert run("gen", "--config", tiny_cfg) == 0
    data = tmp_path / "run" / "seed0" / "data"
    files = sorted(p.name for p in data.iterdir())
    assert files == [
        "pretrain.csv",
        "task01_test.csv", "task01_train.csv", "task01_unlabeled.csv",
        "task02_test.csv", "task02_train.csv", "task02_unlabeled.csv",
    ]
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    assert run("gen", "--config", tiny_cfg) == 0
    after = {p.name: p.read_bytes() for p in data.iterdir()}
    assert before == after


def test_sft_overflow_exits_4_without_warnings(tmp_path):
    # a step size near the float maximum overflows logits and parameters
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sft": {"lr": 1.7e308, "epochs": 20},
                               "stream": {"samples_per_task": 40}}))
    assert run("gen", "--config", cfg, "--out", tmp_path / "run") == 0
    out = subprocess.run(
        [sys.executable, "-m", "otmf.cli", "train", "--config", str(cfg),
         "--out", str(tmp_path / "run")],
        env=_cli_env(), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 4, out.stderr
    assert "numerical failure" in out.stderr
    assert "RuntimeWarning" not in out.stderr


# the numpy build and BLAS thread settings every timings sidecar records
BUILD_KEYS = {"numpy_version", "blas_name", "blas_version",
              "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


def test_gen_and_train_write_timings(pipeline):
    _, seed_dir = pipeline
    gen = json.loads((seed_dir / "timings_gen.json").read_text())
    assert set(gen) == {"gen_seconds", "peak_rss_mb"} | BUILD_KEYS
    train = json.loads((seed_dir / "timings_train.json").read_text())
    assert set(train) == {"train_seconds", "sft_seconds", "peak_rss_mb"} | BUILD_KEYS
    # one entry per fine-tuning run: the two equal-size tasks train as one stack
    assert list(train["sft_seconds"]) == ["pretrain", "task01,task02"]
    assert sum(train["sft_seconds"].values()) <= train["train_seconds"]
    assert min(gen["peak_rss_mb"], train["peak_rss_mb"]) > 0


def test_timings_sidecars_record_blas_build_and_threads(tiny_cfg, tmp_path, monkeypatch):
    # the artifacts' bits depend on the BLAS build and thread count, so
    # every sidecar records what the process saw, and no report does
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    seed_dir = tmp_path / "run" / "seed0"
    for args in (["gen"], ["train"], ["merge", "--method", "otmf"], ["merge", "--method", "ties"],
                 ["eval", "--checkpoint", seed_dir / "merged" / "otmf" / "final.ckpt"]):
        assert run(*args, "--config", tiny_cfg) == 0
    sidecars = sorted(p.name for p in seed_dir.glob("timings_*.json"))
    assert sidecars == [f"timings_{s}.json" for s in ("eval", "gen", "otmf", "ties", "train")]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    for name in sidecars:
        timings = json.loads((seed_dir / name).read_text())
        assert {k: timings[k] for k in BUILD_KEYS} == {
            "numpy_version": np.__version__, "blas_name": blas["name"],
            "blas_version": blas["version"], "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}, name
        assert timings["peak_rss_mb"] > 0, name
    eval_timings = json.loads((seed_dir / "timings_eval.json").read_text())
    assert set(eval_timings) == {"eval_seconds", "peak_rss_mb"} | BUILD_KEYS
    assert eval_timings["eval_seconds"] > 0
    reports = [*seed_dir.glob("report_*.json"), seed_dir / "eval" / "eval_report.json"]
    assert len(reports) == 3
    for path in reports:
        text = path.read_text()
        assert not [k for k in BUILD_KEYS | {"peak_rss_mb"} if f'"{k}"' in text], path


def test_merge_and_eval_log_solve_totals_per_seed(pipeline, caplog):
    # T=2 with 6 OT epochs: one step of 6 mask-loop solves, 4 pair-loss
    # solves (initial and final, pre and post) and 2 shift solves; a
    # baseline merge runs only the shift solves, and eval one per task
    tiny_cfg, seed_dir = pipeline
    final = seed_dir / "merged" / "otmf" / "final.ckpt"
    for args, line in (
        (["merge", "--method", "otmf"],
         "seed 0: merge otmf: 12 Sinkhorn solves (mask loop 6, pair loss 4, shift 2), "
         "0 unconverged, 0 fell back"),
        (["merge", "--method", "ties"],
         "seed 0: merge ties: 2 Sinkhorn solves (shift 2), 0 unconverged, 0 fell back"),
        (["eval", "--checkpoint", final],
         "seed 0: eval: 2 Sinkhorn solves (shift 2), 0 unconverged, 0 fell back"),
    ):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="otmf"):
            assert run(*args, "--config", tiny_cfg) == 0
        totals = [r.getMessage() for r in caplog.records if "Sinkhorn solves (" in r.getMessage()]
        assert totals == [line], args


def test_train_writes_checkpoints(pipeline):
    _, seed_dir = pipeline
    ckpts = sorted(p.name for p in (seed_dir / "checkpoints").iterdir())
    assert ckpts == ["pretrained.ckpt", "task01.ckpt", "task02.ckpt"]
    model = load_checkpoint(seed_dir / "checkpoints" / "task01.ckpt")
    assert "task01" in model.heads


# ---------------------------------------------------------------------------
# merge / eval / ablate


@pytest.mark.parametrize("method", ["otmf", "swa", "task_arithmetic", "ties"])
def test_merge_each_method(pipeline, method):
    tiny_cfg, seed_dir = pipeline
    assert run("merge", "--config", tiny_cfg, "--method", method) == 0
    report = json.loads((seed_dir / f"report_{method}.json").read_text())
    assert report["method"] == method
    assert 0.0 <= report["average_accuracy"] <= 1.0
    assert report["config"]["sft"]["epochs"] == 30
    mat = report["accuracy_matrix"]
    assert len(mat) == 2 and mat[0][1] is None and mat[1][1] is not None
    # row t holds step t + 1's accuracies on the tasks merged so far
    for t, row in enumerate(mat):
        assert all(0.0 <= v <= 1.0 for v in row[: t + 1])
        assert all(v is None for v in row[t + 1 :])
    assert (seed_dir / "merged" / method / "final.ckpt").exists()
    assert (seed_dir / "merged" / method / "step02.ckpt").exists()
    # the final checkpoint is the last step's merged model
    assert ((seed_dir / "merged" / method / "final.ckpt").read_bytes()
            == (seed_dir / "merged" / method / "step02.ckpt").read_bytes())
    assert (seed_dir / f"timings_{method}.json").exists()
    if method == "otmf":
        assert len(report["ot_loss_history"]) == 6
        assert report["pair_loss"][0]["step"] == 2
        [solver] = report["mask_loop_solver"]
        assert solver["step"] == 2
        assert solver["pre"]["solves"] == solver["post"]["solves"] == 3
        assert set(solver["pre"]) == {"solves", "iters", "directions", "fallbacks", "unconverged"}


def test_merge_reads_each_task_checkpoint_once(pipeline, monkeypatch):
    tiny_cfg, _ = pipeline
    reads = []

    def counting_load(path):
        reads.append(Path(path).name)
        return load_checkpoint(path)

    monkeypatch.setattr(otmf.cli, "load_checkpoint", counting_load)
    for method in ("otmf", "swa", "task_arithmetic", "ties"):
        reads.clear()
        assert run("merge", "--config", tiny_cfg, "--method", method) == 0
        assert sorted(r for r in reads if r.startswith("task")) == [
            "task01.ckpt", "task02.ckpt"], method


def test_merge_report_byte_deterministic(pipeline):
    tiny_cfg, seed_dir = pipeline
    assert run("merge", "--config", tiny_cfg, "--method", "otmf") == 0
    report1 = (seed_dir / "report_otmf.json").read_bytes()
    ckpt1 = (seed_dir / "merged" / "otmf" / "final.ckpt").read_bytes()
    assert run("merge", "--config", tiny_cfg, "--method", "otmf") == 0
    assert (seed_dir / "report_otmf.json").read_bytes() == report1
    assert (seed_dir / "merged" / "otmf" / "final.ckpt").read_bytes() == ckpt1


def test_merge_step2_shift_is_on_task01_set(pipeline):
    # step 2's pre-side shift is measured on task01's whole set
    tiny_cfg, seed_dir = pipeline
    assert run("merge", "--config", tiny_cfg, "--method", "ties") == 0
    [shift] = json.loads((seed_dir / "report_ties.json").read_text())["shifts"]
    merged = load_checkpoint(seed_dir / "merged" / "ties" / "step02.ckpt")
    task01 = load_checkpoint(seed_dir / "checkpoints" / "task01.ckpt")
    pool, _ = load_matrix(seed_dir / "data" / "task01_unlabeled.csv")
    sinkhorn = load_config(str(tiny_cfg), None, None).fusion.sinkhorn
    fm, fr = forward_features(merged, pool), forward_features(task01, pool)
    assert shift["delta_pre"] == l1_shift(fm, fr)
    assert shift["sinkhorn_pre"] == sinkhorn_shift(fm, fr, sinkhorn)[0]


# ---------------------------------------------------------------------------
# the seen-task reservoir behind merge's pre-side shift


def _blocks(num_blocks, rows=32):
    """Blocks of rows whose first column is the block's index."""
    rng = np.random.default_rng(0)
    return [np.column_stack([np.full(rows, float(b)), rng.normal(size=(rows, 2))])
            for b in range(num_blocks)]


def test_reservoir_holds_first_block_size():
    res = _Reservoir(seed=0)
    for rows in (32, 5, 32, 100):
        res.add(np.ones((rows, 3)))
        assert res.rows.shape == (32, 3)
    assert res.added == 169


def test_reservoir_first_fill_is_a_copy():
    first, *rest = _blocks(4)
    kept = first.copy()
    res = _Reservoir(seed=0)
    res.add(first)
    assert not np.shares_memory(res.rows, first)
    np.testing.assert_array_equal(res.rows, first)
    for block in rest:
        res.add(block)
    assert not np.array_equal(res.rows, kept)
    np.testing.assert_array_equal(first, kept)


def test_reservoir_is_seeded():
    def sample(seed):
        res = _Reservoir(seed)
        for block in _blocks(5):
            res.add(block)
        return res.rows.tobytes()

    assert sample(3) == sample(3)
    assert sample(3) != sample(4)


def test_reservoir_is_uniform_over_blocks():
    # Algorithm R: every row added so far is kept with the same chance, so
    # each of t - 1 equal blocks holds 1/(t - 1) of the sample on average
    blocks = _blocks(4)
    shares = []
    for seed in range(300):
        res = _Reservoir(seed)
        for block in blocks:
            res.add(block)
        shares.append(np.bincount(res.rows[:, 0].astype(int), minlength=4) / 32)
    np.testing.assert_allclose(np.mean(shares, axis=0), 0.25, atol=0.02)


def _stream_cfg(root: Path, num_tasks: int) -> Path:
    path = root / f"cfg{num_tasks}.json"
    path.write_text(json.dumps(dict(
        TINY,
        stream=dict(TINY["stream"], num_tasks=num_tasks, samples_per_task=60),
        fusion=dict(TINY["fusion"], ot_epochs=4),
        sft={"epochs": 5, "lr": 0.1},
        output_dir=str(root / "run"),
    )))
    return path


@pytest.fixture(scope="module")
def long_stream(tmp_path_factory):
    """A 12-task tiny run through gen and train, and configs for the stream
    of its first 4 tasks and of all 12."""
    root = tmp_path_factory.mktemp("long")
    cfgs = {t: _stream_cfg(root, t) for t in (4, 12)}
    assert run("gen", "--config", cfgs[12]) == 0
    assert run("train", "--config", cfgs[12]) == 0
    return cfgs, root / "run" / "seed0"


def test_merge_pre_shift_samples_earlier_tasks(long_stream, monkeypatch):
    cfgs, seed_dir = long_stream
    pools = []

    def recording_score_shift(merged, reference, inputs, cfg):
        pools.append(inputs.copy())
        return score_shift(merged, reference, inputs, cfg)

    monkeypatch.setattr(otmf.cli, "score_shift", recording_score_shift)
    assert run("merge", "--config", cfgs[12], "--method", "ties") == 0
    sets = [load_matrix(seed_dir / "data" / f"task{t:02d}_unlabeled.csv")[0]
            for t in range(1, 13)]
    # each step shifts its pre side first, then its post side
    for step, pre_pool in enumerate(pools[::2], start=2):
        assert pre_pool.shape == sets[0].shape, step
        earlier = {row.tobytes() for s in sets[: step - 1] for row in s}
        assert all(row.tobytes() in earlier for row in pre_pool), step


def test_scoring_runs_one_feature_pass_per_model_and_cloud(long_stream, monkeypatch):
    cfgs, seed_dir = long_stream
    unlabeled = {row.tobytes()
                 for t in range(1, 5)
                 for row in load_matrix(seed_dir / "data" / f"task{t:02d}_unlabeled.csv")[0]}
    passes, measured, saved = [], [], {}
    features = otmf.models.forward_features

    def counting_features(model, inputs):
        if all(row.tobytes() in unlabeled for row in inputs):
            passes.append(len(inputs))
        return features(model, inputs)

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "otmf"]:
        for attr, value in list(vars(module).items()):
            if value is features:
                monkeypatch.setattr(module, attr, counting_features)
    monkeypatch.setattr(otmf.metrics, "l1_shift",
                        lambda fm, fr: measured.append((fm, fr)) or l1_shift(fm, fr))
    monkeypatch.setattr(otmf.cli, "save_features",
                        lambda path, f, source: saved.__setitem__(Path(path).name, f)
                        or save_features(path, f, source))
    # a 4-task ties merge: 3 steps, each scored pre and post, each side one
    # pass of the merged model and one of the model it is measured against
    assert run("merge", "--config", cfgs[4], "--method", "ties") == 0
    assert len(passes) == 4 * 3 and len(measured) == 2 * 3
    passes.clear()
    measured.clear()
    final = seed_dir / "merged" / "ties" / "final.ckpt"
    assert run("eval", "--config", cfgs[4], "--checkpoint", final) == 0
    assert len(passes) == 2 * 4
    # the dumped clouds are the very arrays the task's shifts measured
    for t, (fm, fr) in enumerate(measured, start=1):
        assert saved[f"features_task{t:02d}_merged.csv"] is fm
        assert saved[f"features_task{t:02d}_sft.csv"] is fr


def test_unconverged_shift_solves_warn_once_per_run(tmp_path, caplog):
    # below float64 epsilon no solve meets the tolerance: merge scores one
    # step pre and post, and eval two tasks
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        TINY, fusion=dict(TINY["fusion"], sinkhorn={"tolerance": 1e-300}),
        output_dir=str(tmp_path / "run"))))
    final = tmp_path / "run" / "seed0" / "merged" / "ties" / "final.ckpt"
    for args, stage in ((["gen"], None), (["train"], None),
                        (["merge", "--method", "ties"], "merge ties"),
                        (["eval", "--checkpoint", final], "eval")):
        caplog.clear()
        assert run(*args, "--config", cfg) == 0
        warned = [r.getMessage() for r in caplog.records
                  if r.levelname == "WARNING" and r.name == "otmf.sinkhorn"]
        assert warned == ([f"seed 0: {stage}: Sinkhorn solves unconverged, above tolerance: "
                           "shift 2 of 2"] if stage else []), args


@pytest.mark.parametrize("method", ["ties", "otmf"])
def test_merge_memory_does_not_grow_with_stream(long_stream, method):
    """Traced peak memory of the merge path is flat from 4 to 12 tasks,
    and the 12-task merge stays within a wall bound."""
    cfgs, _ = long_stream
    peaks, walls = {}, {}
    for t, path in cfgs.items():
        cfg = load_config(str(path), None, None)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            cmd_merge(cfg, 0, method)
            walls[t] = time.perf_counter() - t0
            peaks[t] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[12] <= 1.5 * peaks[4], peaks
    assert walls[12] < 10.0, walls


def test_eval_self_shift_is_zero(pipeline):
    tiny_cfg, seed_dir = pipeline
    ckpt = seed_dir / "checkpoints" / "task01.ckpt"
    assert run("eval", "--config", tiny_cfg, "--checkpoint", ckpt) == 0
    report = json.loads((seed_dir / "eval" / "eval_report.json").read_text())
    entry = next(e for e in report["per_task"] if e["task"] == "task01")
    assert entry["delta_l1"] == 0.0
    # entropic self-distance is blurred away from zero at the default epsilon
    assert entry["delta_sinkhorn"] <= 0.2
    assert entry["accuracy"] >= 0.5
    assert (seed_dir / "eval" / "features_task01_merged.csv").exists()


def test_eval_feature_dumps(pipeline):
    tiny_cfg, seed_dir = pipeline
    assert run("merge", "--config", tiny_cfg, "--method", "swa") == 0
    ckpt = seed_dir / "merged" / "swa" / "final.ckpt"
    assert run("eval", "--config", tiny_cfg, "--checkpoint", ckpt) == 0
    dump = seed_dir / "eval" / "features_task02_merged.csv"
    lines = dump.read_text().splitlines()
    assert lines[0].endswith(",source")
    assert lines[1].endswith(",merged")


def test_eval_warns_when_it_replaces_another_checkpoints_evaluation(pipeline, caplog):
    # eval/ holds one evaluation per seed directory
    tiny_cfg, seed_dir = pipeline
    for method in ("otmf", "ties"):
        assert run("merge", "--config", tiny_cfg, "--method", method) == 0
    warned = []
    for method in ("otmf", "otmf", "ties"):
        caplog.clear()
        assert run("eval", "--config", tiny_cfg, "--checkpoint",
                   seed_dir / "merged" / method / "final.ckpt") == 0
        warned.append([r.getMessage() for r in caplog.records if r.levelno == logging.WARNING])
    assert warned[:2] == [[], []]
    [warning] = warned[2]
    assert "merged/otmf/final.ckpt" in warning
    report = json.loads((seed_dir / "eval" / "eval_report.json").read_text())
    assert report["checkpoint"] == "seed0/merged/ties/final.ckpt"


@pytest.mark.parametrize("stage", ["merge-otmf", "merge-ties", "ablate-alpha", "eval"])
def test_checkpoints_of_another_activation_exit_3_naming_the_file(pipeline, tmp_path, caplog,
                                                                   stage):
    # trained under tanh, read under a config that differs only in activation
    tiny_cfg, seed_dir = pipeline
    relu = tmp_path / "relu.json"
    relu.write_text(json.dumps(dict(TINY, model={"layer_dims": [4, 8, 4], "activation": "relu"},
                                    output_dir=str(seed_dir.parent))))
    ckpt = seed_dir / "checkpoints" / "pretrained.ckpt"
    if stage == "merge-otmf":
        args = ["merge", "--method", "otmf"]
    elif stage == "merge-ties":
        args = ["merge", "--method", "ties"]
    elif stage == "ablate-alpha":
        args = ["ablate-alpha", "--grid", "0.5"]
    else:
        # a relu checkpoint matches the config, so the failing read is a task's
        assert run("merge", "--config", tiny_cfg, "--method", "otmf") == 0
        final = load_checkpoint(seed_dir / "merged" / "otmf" / "final.ckpt")
        save_checkpoint(tmp_path / "relu.ckpt", ToyModel(
            ModelSpec((4, 8, 4), activation="relu"), final.backbone, final.heads))
        args = ["eval", "--checkpoint", tmp_path / "relu.ckpt"]
        ckpt = seed_dir / "checkpoints" / "task01.ckpt"
    caplog.clear()
    assert run(*args, "--config", relu) == 3
    [error] = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert str(ckpt) in error and "relu" in error
    if stage.startswith("merge"):
        assert not (seed_dir / "merged").exists()


def test_eval_shape_mismatch_exit_code(pipeline, tmp_path):
    tiny_cfg, seed_dir = pipeline
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(
        TINY, model={"layer_dims": [4, 6, 4]}, output_dir=str(seed_dir.parent))))
    ckpt = seed_dir / "checkpoints" / "task01.ckpt"
    assert run("eval", "--config", other, "--checkpoint", ckpt) == 3


def test_ablate_alpha_table(pipeline):
    tiny_cfg, seed_dir = pipeline
    assert run("ablate-alpha", "--config", tiny_cfg, "--grid", "0,0.5,1") == 0
    table, cols = load_matrix(seed_dir / "alpha_table.csv")
    assert cols == ["alpha", "task01", "task02", "average"]
    np.testing.assert_array_equal(table[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(table[:, 1:3].mean(axis=1), table[:, 3], atol=1e-12)
    report = json.loads((seed_dir / "report_ablate.json").read_text())
    best = int(np.argmax(table[:, 3]))
    assert report["best_alpha"] == table[best, 0]
    assert report["best_average_accuracy"] == table[best, 3]


def test_ablate_alpha_reads_each_task_file_once(pipeline, monkeypatch):
    # the stream is parsed once per run, not once per grid point
    tiny_cfg, _ = pipeline
    reads = []

    def counting(load):
        def wrapper(path):
            reads.append(Path(path).name)
            return load(path)
        return wrapper

    for name in ("load_checkpoint", "load_batch", "load_matrix"):
        monkeypatch.setattr(otmf.cli, name, counting(getattr(otmf.cli, name)))
    assert run("ablate-alpha", "--config", tiny_cfg, "--grid", "0.2,0.8") == 0
    assert sorted(r for r in reads if r.startswith("task")) == sorted(
        f"{tid}{suffix}" for tid in ("task01", "task02")
        for suffix in (".ckpt", "_train.csv", "_test.csv", "_unlabeled.csv"))


def test_ablate_alpha_writes_timings_and_logs_solve_totals(pipeline, caplog):
    tiny_cfg, seed_dir = pipeline
    with caplog.at_level(logging.INFO, logger="otmf"):
        assert run("ablate-alpha", "--config", tiny_cfg, "--grid", "0.5") == 0
    timings = json.loads((seed_dir / "timings_ablate.json").read_text())
    assert set(timings) == {"ablate_seconds", "peak_rss_mb"} | BUILD_KEYS
    assert timings["ablate_seconds"] > 0 and timings["peak_rss_mb"] > 0
    # one T=2 merge: 6 mask-loop solves and 4 pair-loss solves
    totals = [r.getMessage() for r in caplog.records if "Sinkhorn solves (" in r.getMessage()]
    assert totals == ["seed 0: ablate-alpha: 10 Sinkhorn solves (mask loop 6, pair loss 4), "
                      "0 unconverged, 0 fell back"]


def test_seed_override_writes_new_subdir(pipeline, tmp_path):
    tiny_cfg, _ = pipeline
    assert run("gen", "--config", tiny_cfg, "--seed", "5") == 0
    assert (tmp_path / "run" / "seed5" / "data" / "pretrain.csv").exists()


def test_cli_import_leaves_scipy_unloaded(tiny_cfg):
    # scipy is a test-only dependency: no command may load it
    probe = (
        "import sys\n"
        "from otmf.cli import main\n"
        "cfg = sys.argv[1]\n"
        "for args in (['gen'], ['train'], ['merge', '--method', 'otmf'],\n"
        "             ['merge', '--method', 'ties'], ['ablate-alpha', '--grid', '0.5'],\n"
        "             ['eval', '--checkpoint', sys.argv[2]]):\n"
        "    if main([*args, '--config', cfg]) != 0:\n"
        "        sys.exit(f'{args} failed')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    final = tiny_cfg.parent / "run" / "seed0" / "merged" / "otmf" / "final.ckpt"
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tiny_cfg), str(final)], env=_cli_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_merge_otmf_leaves_numpy_ma_unloaded(pipeline):
    # np.unique imports numpy.ma, about 12 ms per process; the head
    # subsample finds its classes with np.bincount instead
    cfg, _ = pipeline
    probe = (
        "import sys\n"
        "from otmf.cli import main\n"
        "if main(['merge', '--method', 'otmf', '--config', sys.argv[1]]) != 0:\n"
        "    sys.exit('merge failed')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(cfg)], env=_cli_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_default_config_solves_all_converge(tmp_path, monkeypatch, caplog):
    # every OT solve of merge (otmf and ties) and eval on the default
    # config: the mask loop's warm solves and the cold pair-loss and shift
    # solves alike end in a converged Newton finish. On seed 3 the pre
    # side's plan at step 2 splits into two blocks, which left the dense
    # Newton system exactly singular in LU before its diagonal shift
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "run")}))
    plans = []
    solve = sinkhorn_module.sinkhorn_plan
    for seed in (0, 3):
        assert run("gen", "--config", cfg, "--seed", seed) == 0
        assert run("train", "--config", cfg, "--seed", seed) == 0
        with monkeypatch.context() as m:
            m.setattr(
                sinkhorn_module, "sinkhorn_plan",
                lambda *a, **k: plans.append(solve(*a, **k)) or plans[-1],
            )
            final = tmp_path / "run" / f"seed{seed}" / "merged" / "otmf" / "final.ckpt"
            for args in (["merge", "--method", "otmf"], ["merge", "--method", "ties"],
                         ["eval", "--checkpoint", final]):
                plans.clear()
                assert run(*args, "--config", cfg, "--seed", seed) == 0
                assert plans, args
                assert all(p.converged and not p.newton[1] for p in plans), (seed, args)
                assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
