import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otmf
import otmf.cli
from otmf.cli import load_config, main, resolved_config
from otmf.errors import ConfigError
from otmf.io import load_checkpoint, load_matrix, save_checkpoint
from otmf.models import ModelSpec, init_model


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


def test_config_overrides(tiny_cfg):
    cfg = load_config(str(tiny_cfg), seed=7, out="elsewhere")
    assert cfg.seeds == (7,)
    assert cfg.output_dir == "elsewhere"
    assert cfg.stream.num_tasks == 2


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
    ],
    ids=lambda bad: json.dumps(bad),
)
def test_malformed_config_value_exits_2(tmp_path, bad):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ConfigError):
        load_config(str(p), None, None)
    assert run("gen", "--config", p, "--out", tmp_path / "out") == 2


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_config_error():
    assert run("gen", "--config", "does-not-exist.json") == 2


def test_exit_code_missing_data(tiny_cfg, tmp_path):
    assert run("train", "--config", tiny_cfg, "--out", tmp_path / "empty") == 3


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
    "ragged-row-long": (
        "data/task02_test.csv", lambda raw: _edit_row(raw, 2, lambda r: r + b",0"), 3),
    "ragged-row-short": (
        "data/task02_test.csv",
        lambda raw: _edit_row(raw, 2, lambda r: r.rsplit(b",", 1)[0]), 3),
    "non-numeric-cell": (
        "data/task02_test.csv", lambda raw: _edit_row(raw, 1, lambda r: b"x" + r), 3),
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
    assert (seed_dir / "merged" / method / "final.ckpt").exists()
    assert (seed_dir / "merged" / method / "step02.ckpt").exists()
    assert (seed_dir / f"timings_{method}.json").exists()
    if method == "otmf":
        assert len(report["ot_loss_history"]) == 6
        assert report["pair_loss"][0]["step"] == 2
        [solver] = report["mask_loop_solver"]
        assert solver["step"] == 2
        assert solver["pre"]["solves"] == solver["post"]["solves"] == 3
        assert set(solver["pre"]) == {"solves", "iters", "matvecs", "fallbacks", "unconverged"}


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


def test_seed_override_writes_new_subdir(pipeline, tmp_path):
    tiny_cfg, _ = pipeline
    assert run("gen", "--config", tiny_cfg, "--seed", "5") == 0
    assert (tmp_path / "run" / "seed5" / "data" / "pretrain.csv").exists()


def test_cli_import_leaves_scipy_unloaded():
    # only stream generation needs scipy, and it imports it when it runs
    src = str(Path(otmf.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = ("import sys, otmf.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
