"""Deterministic on-disk formats for checkpoints, datasets, and reports.

Checkpoints are a self-describing container: a UTF-8 text header carrying
the format version, the model spec, and the name and shape of every array,
followed by the raw little-endian float64 payload of every declared array
in order. The backbone's arrays come first, in backbone_layout order, so
its payload is the flat backbone; each head follows as its weight, then
its bias.
Datasets and feature clouds are delimited numeric matrices with a one-line
header. Reports are sorted-key JSON. Every writer is byte-deterministic:
identical inputs produce identical files.
"""

from __future__ import annotations

import json
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeMismatchError
from .models import Batch, ModelSpec, ToyModel, backbone_layout

_CKPT_MAGIC = "otmf-checkpoint"
_CKPT_VERSION = 1
_FLOAT_FMT = "%.17g"  # shortest round-trip decimal for float64


# ---------------------------------------------------------------------------
# checkpoints


def _declared_arrays(spec: ModelSpec, heads: list[tuple[str, int]]):
    """Name and shape of each array a checkpoint of spec declares, given
    its heads' (task, class count) pairs in file order."""
    arrays = [("backbone/" + name, shape) for name, shape in backbone_layout(spec)]
    for task, k in heads:
        arrays += [(f"head/{task}/weight", (k, spec.feature_dim)), (f"head/{task}/bias", (k,))]
    return arrays


def save_checkpoint(path: str | Path, model: ToyModel) -> None:
    path = Path(path)
    tasks = sorted(model.heads)
    lines = [
        f"{_CKPT_MAGIC} v{_CKPT_VERSION}",
        "layer_dims " + " ".join(str(d) for d in model.spec.layer_dims),
        f"activation {model.spec.activation}",
    ]
    for name, shape in _declared_arrays(
            model.spec, [(t, model.heads[t]["bias"].size) for t in tasks]):
        lines.append(f"array {name} " + " ".join(str(s) for s in shape))
    lines.append("data")
    payload = bytearray(model.backbone.astype("<f8").tobytes())
    for task in tasks:
        for name in ("weight", "bias"):
            payload += model.heads[task][name].astype("<f8").tobytes()
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + bytes(payload))


def load_checkpoint(path: str | Path) -> ToyModel:
    raw = Path(path).read_bytes()
    sep = raw.find(b"\ndata\n")
    if not raw.startswith(_CKPT_MAGIC.encode()) or sep < 0:
        raise DataError(f"{path}: not a checkpoint file")
    payload = raw[sep + 6 :]
    # a header line that does not parse (text, number, array name or model
    # spec) fails in here with one of the caught errors
    try:
        header = raw[: sep + 5].decode("utf-8").splitlines()
        version = header[0].split()[-1]
        if version != f"v{_CKPT_VERSION}":
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        layer_dims = tuple(int(t) for t in header[1].split()[1:])
        spec = ModelSpec(layer_dims=layer_dims, activation=header[2].split()[1])

        arrays: list[tuple[str, tuple[int, ...]]] = []
        for line in header[3:]:
            if line == "data":
                break
            _, name, *dims = line.split()
            arrays.append((name, tuple(int(d) for d in dims)))

        expected = sum(int(np.prod(s)) for _, s in arrays) * 8
        if len(payload) != expected:
            raise DataError(
                f"{path}: payload has {len(payload)} bytes, header declares {expected}"
            )

        # the arrays must be the spec's layout: the backbone's, then a
        # weight and a bias per head, named, ordered and shaped as it says
        n_back = len(backbone_layout(spec))
        heads = [(name.split("/")[1], shape[0] if shape else 0)
                 for name, shape in arrays[n_back::2] if name.startswith("head/")]
        for got, want in zip_longest(arrays, _declared_arrays(spec, heads)):
            if got != want:
                raise DataError(f"{path}: declares array {got}, its spec's layout has {want}")
        tasks = [task for task, _ in heads]
        if tasks != sorted(set(tasks)):
            raise DataError(f"{path}: heads {tasks} are not in sorted order, each once")
        values = np.frombuffer(payload, dtype="<f8")
        ofs = sum(int(np.prod(s)) for _, s in arrays[:n_back])
        backbone, model_heads = values[:ofs], {}
        for task, k in heads:
            weight = values[ofs : ofs + k * spec.feature_dim].reshape(k, spec.feature_dim)
            ofs += k * spec.feature_dim
            model_heads[task] = {"weight": weight, "bias": values[ofs : ofs + k]}
            ofs += k
    except (ValueError, IndexError, ConfigError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc}") from exc
    return ToyModel(spec=spec, backbone=backbone, heads=model_heads)


# ---------------------------------------------------------------------------
# delimited numeric matrices


def save_matrix(path: str | Path, matrix: np.ndarray, columns: list[str]) -> None:
    """Comma-delimited numeric matrix with a one-line column header."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"matrix must be 2-D, got shape {m.shape}")
    if len(columns) != m.shape[1]:
        raise ShapeMismatchError(
            f"{len(columns)} column names for {m.shape[1]} columns"
        )
    np.savetxt(path, m, fmt=_FLOAT_FMT, delimiter=",", header=",".join(columns), comments="",
               encoding="utf-8")


def load_matrix(path: str | Path) -> tuple[np.ndarray, list[str]]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty matrix file")
    columns, rows = lines[0].split(","), [line for line in lines[1:] if line]
    if not rows:
        return np.empty((0, len(columns))), columns
    # a cell that is not a number, or rows of unequal width, fail in here
    try:
        m = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: malformed matrix row: {exc}") from exc
    if m.shape[1] != len(columns):
        raise DataError(f"{path}: row width does not match header")
    if not np.isfinite(m).all():
        raise DataError(f"{path}: a cell is nan or infinite")
    return m, columns


def save_batch(path: str | Path, batch: Batch) -> None:
    """Labeled batch as one matrix: feature columns then an integer label."""
    d = batch.inputs.shape[1]
    matrix = np.column_stack([batch.inputs, batch.labels.astype(np.float64)])
    save_matrix(path, matrix, [f"x{i}" for i in range(d)] + ["label"])


def load_batch(path: str | Path) -> Batch:
    m, columns = load_matrix(path)
    if not columns or columns[-1] != "label":
        raise DataError(f"{path}: expected a trailing 'label' column")
    labels = m[:, -1]
    # the cells are finite (load_matrix); 2**53 keeps the cast exact
    if not np.all((labels == np.trunc(labels)) & (np.abs(labels) <= 2.0**53)):
        raise DataError(f"{path}: a label is not an integer")
    try:
        return Batch(m[:, :-1], labels.astype(np.int64))
    except DataError as exc:  # no rows, or a negative label
        raise DataError(f"{path}: {exc}") from exc


def save_features(path: str | Path, features: np.ndarray, source: str) -> None:
    """Feature cloud dump: one row per sample, dims plus a source-model tag."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ShapeMismatchError(f"features must be 2-D, got shape {f.shape}")
    # the tag, % escaped, ends the last column's format: a one-string format
    # would fail savetxt's count of % signs on a tag that holds one
    fmt = [_FLOAT_FMT] * f.shape[1]
    fmt[-1] += "," + source.replace("%", "%%")
    header = ",".join([f"f{i}" for i in range(f.shape[1])] + ["source"])
    np.savetxt(path, f, fmt=fmt, delimiter=",", header=header, comments="", encoding="utf-8")


# ---------------------------------------------------------------------------
# reports


def save_report(path: str | Path, report: dict) -> None:
    """Structured key-value report; sorted keys keep the bytes reproducible."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")
