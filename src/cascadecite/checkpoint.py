"""Versioned JSON checkpoints: named, shape-annotated flat float arrays.

Floats round-trip exactly (json uses repr). The file is written compactly,
with no whitespace, and atomically; any valid JSON layout of the same
document loads. Loading takes values only as finite JSON numbers and
shapes only as lists of integers >= 0, and refuses another format or
version instead of guessing. Which arrays a model needs, and their shapes,
is checked by the model that takes them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import CheckpointError

FORMAT = "cascadecite-arrays"
VERSION = 1


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], extra: dict | None = None) -> None:
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "arrays": {
            name: {"shape": list(a.shape), "values": np.asarray(a, dtype=np.float64).ravel().tolist()}
            for name, a in arrays.items()
        },
        **(extra or {}),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))


def parse_arrays(doc: dict) -> dict[str, np.ndarray]:
    if doc.get("format") != FORMAT:
        raise CheckpointError(f"not a parameter checkpoint (format={doc.get('format')!r})")
    if doc.get("version") != VERSION:
        raise CheckpointError(
            f"checkpoint version {doc.get('version')!r} not supported (expected {VERSION})"
        )
    if not isinstance(doc.get("arrays"), dict):
        raise CheckpointError('checkpoint has no "arrays" map')
    arrays = {}
    for name, rec in doc["arrays"].items():
        try:
            shape, values = rec["shape"], rec["values"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"array {name!r} is malformed: {exc!r}") from None
        if type(shape) is not list or not {*map(type, shape)} <= {int} or min(shape, default=0) < 0:
            raise CheckpointError(f"array {name!r}: shape must be a list of integers >= 0, got {shape!r}")
        if type(values) is not list:
            raise CheckpointError(f"array {name!r}: values must be a list of numbers, got {values!r}")
        if not {*map(type, values)} <= {int, float}:  # whole column; a bool is no number
            bad = next(v for v in values if type(v) not in (int, float))
            raise CheckpointError(f"array {name!r}: values must be JSON numbers, got {bad!r}")
        if len(values) != math.prod(shape):
            raise CheckpointError(f"array {name!r}: {len(values)} values do not fill shape {tuple(shape)}")
        try:
            arrays[name] = np.array(values, dtype=np.float64).reshape(shape)
        except OverflowError:  # an integer beyond the float range
            raise CheckpointError(f"array {name!r}: a value does not fit a float") from None
        if not np.isfinite(arrays[name]).all():  # NaN, Infinity, or a literal such as 1e400
            bad = next(v for v in values if not math.isfinite(v))
            raise CheckpointError(f"array {name!r}: values must be finite, got {bad!r}")
    return arrays
