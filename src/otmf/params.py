"""Flat, layer-keyed parameter algebra.

A ParamVector is an ordered map from layer name to a dense float64 array.
It is the common currency for model weights and task vectors (deviations
from the shared backbone); flatten() and with_flat() convert to and from
one flat array in layer order, the form the fusion masks take. All
arithmetic is elementwise, allocates fresh output, and requires identical
shape signatures.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import NumericalError, ShapeMismatchError


class ParamVector:
    """Immutable ordered map layer-name -> float64 array."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, np.ndarray]):
        store: dict[str, np.ndarray] = {}
        for name, arr in entries.items():
            a = np.array(arr, dtype=np.float64, copy=True)
            if a.size == 0:
                raise ShapeMismatchError(f"layer '{name}' has zero length")
            if not np.all(np.isfinite(a)):
                raise NumericalError(f"layer '{name}' contains non-finite values")
            a.setflags(write=False)
            store[name] = a
        if not store:
            raise ShapeMismatchError("parameter vector has no layers")
        object.__setattr__(self, "_entries", store)

    def __setattr__(self, name, value):
        raise AttributeError("ParamVector is immutable")

    @property
    def entries(self) -> dict[str, np.ndarray]:
        return self._entries

    def signature(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((name, arr.shape) for name, arr in self._entries.items())

    def layers(self) -> Iterable[str]:
        return self._entries.keys()

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamVector):
            return NotImplemented
        if self.signature() != other.signature():
            return False
        return all(
            np.array_equal(self._entries[k], other._entries[k]) for k in self._entries
        )

    def __hash__(self):
        return hash(self.signature())

    def num_params(self) -> int:
        return sum(a.size for a in self._entries.values())

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self._entries.values()])

    def with_flat(self, flat: np.ndarray) -> "ParamVector":
        """Rebuild a vector with this layout from a flat array."""
        if flat.size != self.num_params():
            raise ShapeMismatchError(
                f"flat array has {flat.size} entries, expected {self.num_params()}"
            )
        out = {}
        ofs = 0
        for name, a in self._entries.items():
            out[name] = flat[ofs : ofs + a.size].reshape(a.shape)
            ofs += a.size
        return ParamVector(out)

    def __repr__(self):
        sig = ", ".join(f"{n}{list(s)}" for n, s in self.signature())
        return f"ParamVector({sig})"


def _check_shapes(a: ParamVector, b: ParamVector) -> None:
    sa, sb = dict(a.signature()), dict(b.signature())
    if list(sa) != list(sb) or sa != sb:
        for name in list(sa) + [n for n in sb if n not in sa]:
            if sa.get(name) != sb.get(name):
                raise ShapeMismatchError(
                    f"shape mismatch at layer '{name}': "
                    f"{sa.get(name)} vs {sb.get(name)}"
                )
        raise ShapeMismatchError("layer order differs between vectors")


def pv_add(a: ParamVector, b: ParamVector) -> ParamVector:
    _check_shapes(a, b)
    return ParamVector({n: a[n] + b[n] for n in a.layers()})


def pv_sub(a: ParamVector, b: ParamVector) -> ParamVector:
    _check_shapes(a, b)
    return ParamVector({n: a[n] - b[n] for n in a.layers()})


def pv_scale(s: float, v: ParamVector) -> ParamVector:
    if not np.isfinite(s):
        raise NumericalError(f"scale factor is not finite: {s}")
    return ParamVector({n: s * v[n] for n in v.layers()})

