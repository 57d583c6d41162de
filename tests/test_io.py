import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import small_model
from otmf.errors import DataError, ShapeMismatchError
from otmf.io import (
    load_batch,
    load_checkpoint,
    load_matrix,
    save_batch,
    save_checkpoint,
    save_features,
    save_matrix,
    save_report,
)
from otmf.models import Batch, ModelSpec, init_model


def test_checkpoint_roundtrip(rng, tmp_path):
    model = small_model(rng, num_heads=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.spec == model.spec
    assert loaded.backbone.tobytes() == model.backbone.tobytes()
    assert list(loaded.heads) == sorted(model.heads)
    for t in model.heads:
        assert list(loaded.heads[t]) == ["weight", "bias"]
        for name, arr in model.heads[t].items():
            assert loaded.heads[t][name].shape == arr.shape
            assert loaded.heads[t][name].tobytes() == arr.tobytes()


def test_checkpoint_save_load_save_bit_exact(rng, tmp_path):
    model = small_model(rng, num_heads=1)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_header_is_text(rng, tmp_path):
    model = small_model(rng, num_heads=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    head = path.read_bytes().split(b"\ndata\n")[0].decode("utf-8")
    assert head.startswith("otmf-checkpoint v1")
    assert "layer_dims 3 4 3" in head
    assert "activation tanh" in head
    # the whole header, which the reader requires byte for byte
    assert head == "\n".join([
        "otmf-checkpoint v1",
        "layer_dims 3 4 3",
        "activation tanh",
        "array backbone/layer0.weight 4 3",
        "array backbone/layer0.bias 4",
        "array backbone/layer1.weight 3 4",
        "array backbone/layer1.bias 3",
        "array head/task01/weight 3 3",
        "array head/task01/bias 3",
    ])


def test_checkpoint_rejects_header_differing_in_whitespace(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_model(ModelSpec((4, 8, 4)), seed=0))
    raw = path.read_bytes()
    assert raw.count(b"\nlayer_dims 4 8 4\n") == 1
    path.write_bytes(raw.replace(b"\nlayer_dims 4 8 4\n", b"\nlayer_dims 4  8 4\n"))
    with pytest.raises(DataError, match="'layer_dims 4  8 4'"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError):
        load_checkpoint(path)


@pytest.mark.parametrize("order", [("task02", "task02"), ("task02", "task01")])
def test_checkpoint_rejects_repeated_or_unsorted_heads(rng, tmp_path, order):
    # a repeated head would silently replace the first; save writes them sorted
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, small_model(rng, num_heads=2))
    raw = path.read_bytes()
    for i, task in enumerate(order):
        raw = raw.replace(f"head/task0{i + 1}/".encode(), f"head/new{i}/".encode())
    for i, task in enumerate(order):
        raw = raw.replace(f"head/new{i}/".encode(), f"head/{task}/".encode())
    assert [line.split()[1] for line in raw.split(b"\n") if line.startswith(b"array head/")] == [
        f"head/{task}/{name}".encode() for task in order for name in ("weight", "bias")]
    path.write_bytes(raw)
    with pytest.raises(DataError, match="sorted order"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_payload(rng, tmp_path):
    model = small_model(rng)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        load_checkpoint(path)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
@settings(deadline=None, max_examples=50)
def test_matrix_roundtrip_exact(matrix):
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/m.csv"
        cols = [f"c{i}" for i in range(matrix.shape[1])]
        save_matrix(path, matrix, cols)
        loaded, loaded_cols = load_matrix(path)
        assert loaded_cols == cols
        np.testing.assert_array_equal(loaded, matrix)


def test_matrix_validation(tmp_path, rng):
    with pytest.raises(ShapeMismatchError):
        save_matrix(tmp_path / "m.csv", rng.normal(size=3), ["a", "b", "c"])
    with pytest.raises(ShapeMismatchError):
        save_matrix(tmp_path / "m.csv", rng.normal(size=(2, 3)), ["a"])
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(DataError):
        load_matrix(tmp_path / "empty.csv")
    for body in ("1.0,2.0,3.0\n", "1.0,2.0\n1.0\n", "1.0,2.0\n1.0,2.0,3.0\n", "1.0,x2.0\n"):
        (tmp_path / "ragged.csv").write_text("a,b\n" + body)
        with pytest.raises(DataError):
            load_matrix(tmp_path / "ragged.csv")


def test_batch_roundtrip(tmp_path, rng):
    batch = Batch(rng.normal(size=(9, 4)), rng.integers(0, 3, size=9))
    save_batch(tmp_path / "b.csv", batch)
    loaded = load_batch(tmp_path / "b.csv")
    np.testing.assert_array_equal(loaded.inputs, batch.inputs)
    np.testing.assert_array_equal(loaded.labels, batch.labels)
    header = (tmp_path / "b.csv").read_text().splitlines()[0]
    assert header == "x0,x1,x2,x3,label"


def test_batch_requires_label_column(tmp_path, rng):
    save_matrix(tmp_path / "m.csv", rng.normal(size=(2, 2)), ["x0", "x1"])
    with pytest.raises(DataError):
        load_batch(tmp_path / "m.csv")


def test_features_dump_format(tmp_path, rng):
    feats = rng.normal(size=(3, 2))
    save_features(tmp_path / "f.csv", feats, "merged")
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[0] == "f0,f1,source"
    assert all(line.endswith(",merged") for line in lines[1:])
    assert len(lines) == 4
    parsed = np.array([[float(v) for v in line.split(",")[:2]] for line in lines[1:]])
    np.testing.assert_array_equal(parsed, feats)


def test_report_roundtrip_and_determinism(tmp_path):
    report = {"b": 1, "a": [1.5, None], "nested": {"z": "x", "y": 2}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_report(p1, report)
    save_report(p2, {"nested": {"y": 2, "z": "x"}, "a": [1.5, None], "b": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == report


def test_report_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        save_report(tmp_path / "r.json", {"x": float("nan")})
