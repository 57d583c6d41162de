"""Deterministic on-disk formats for checkpoints, datasets, and reports.

Checkpoints are a self-describing container: a UTF-8 text header carrying
the format version, the model spec, and the name and shape of every array,
followed by the raw little-endian float64 payload of every declared array
in order. The backbone's arrays come first, in backbone_layout order, so
its payload is the flat backbone; each head follows as its weight, then
its bias. One function writes the header, and the reader takes a header
only when it is byte for byte what that function writes for the spec and
heads it names.
Datasets and feature clouds are delimited numeric matrices with a one-line
header. Reports are sorted-key JSON. Every writer is byte-deterministic:
identical inputs produce identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeMismatchError
from .models import Batch, ModelSpec, ToyModel, backbone_layout, layer_views

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


def _header(spec: ModelSpec, heads: list[tuple[str, int]]) -> bytes:
    """The header of a checkpoint of spec, given its heads' (task, class
    count) pairs in file order: every line up to and including "data"."""
    lines = [f"{_CKPT_MAGIC} v{_CKPT_VERSION}",
             "layer_dims " + " ".join(map(str, spec.layer_dims)),
             f"activation {spec.activation}",
             *(f"array {name} " + " ".join(map(str, shape))
               for name, shape in _declared_arrays(spec, heads)),
             "data"]
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_checkpoint(path: str | Path, model: ToyModel) -> None:
    tasks = sorted(model.heads)
    arrays = [model.backbone, *(model.heads[t][name] for t in tasks for name in ("weight", "bias"))]
    Path(path).write_bytes(_header(model.spec, [(t, model.heads[t]["bias"].size) for t in tasks])
                           + b"".join(a.astype("<f8").tobytes() for a in arrays))


def load_checkpoint(path: str | Path) -> ToyModel:
    """The model in a checkpoint whose header is the one save_checkpoint
    writes for its spec and heads, byte for byte."""
    raw = Path(path).read_bytes()
    sep = raw.find(b"\ndata\n")
    if not raw.startswith(_CKPT_MAGIC.encode()) or sep < 0:
        raise DataError(f"{path}: not a checkpoint file")
    header, payload = raw[: sep + 6], raw[sep + 6 :]
    # a header line that does not parse (text, number or model spec) fails
    # in here with one of the caught errors
    try:
        lines = header.decode("utf-8").split("\n")
        version = lines[0].split()[-1]
        if version != f"v{_CKPT_VERSION}":
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        spec = ModelSpec(layer_dims=tuple(int(t) for t in lines[1].split()[1:]),
                         activation=lines[2].split()[1])
        # each head's class count is its bias line's one dim
        heads = [(words[1][len("head/") : -len("/bias")], int(words[-1]))
                 for words in map(str.split, lines[3:])
                 if words[1:] and words[1].startswith("head/") and words[1].endswith("/bias")]
        want = _header(spec, sorted(dict(heads).items()))
        if header != want:
            # both end in the one "data" line, so they differ before it
            got, line = next((g, w) for g, w in zip(lines, want.decode("utf-8").split("\n"))
                             if g != w)
            raise DataError(f"{path}: header line {got!r} should read {line!r}: a header is "
                            "its spec's layout, its heads in sorted order, each once")
        arrays = _declared_arrays(spec, heads)
        expected = sum(math.prod(shape) for _, shape in arrays) * 8
        if len(payload) != expected:
            raise DataError(
                f"{path}: payload has {len(payload)} bytes, header declares {expected}"
            )
        views = layer_views(np.frombuffer(payload, dtype="<f8"), arrays)
    except (ValueError, IndexError, ConfigError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc}") from exc
    backbone = np.concatenate([v.ravel() for name, v in views.items()
                               if name.startswith("backbone/")])
    return ToyModel(spec=spec, backbone=backbone, heads={
        task: {"weight": views[f"head/{task}/weight"], "bias": views[f"head/{task}/bias"]}
        for task, _ in heads})


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
