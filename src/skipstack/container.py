"""Binary on-disk container for the dataset and the encodings.

Layout: one JSON header line (sorted keys, no whitespace), then the
payload as little-endian 32-bit floats in row-major order, one block per
sample; the header's ``labels`` give the sample count n. ``read`` raises
ValueError on a non-object header, a missing or mistyped key, a payload
of the wrong length, a train/test split that does not partition [0, n),
or ``speeds`` or ``zero_flags`` without one entry per label.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

COUNT, INTS, NUMBERS = "a positive integer", "a list of integers", "a nested list of numbers"

# header keys and their JSON types, per file
DATASET = {
    "channels": COUNT,
    "coeffs": NUMBERS,
    "frames": COUNT,
    "labels": INTS,
    "speeds": INTS,
    "test_idx": INTS,
    "train_idx": INTS,
}
ENCODINGS = {
    "cols": COUNT,
    "labels": INTS,
    "test_idx": INTS,
    "train_idx": INTS,
    "zero_flags": INTS,
}


def write(path, header: dict, payload: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(payload, dtype="<f4").tobytes())


def number(value) -> float:
    """A parsed JSON number as a float: ValueError unless it is an int or a
    float (not a bool, nor a string) and finite."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError("expected a finite number")
    return float(value)


def numbers(value) -> np.ndarray:
    """A regular nested list of parsed JSON numbers as a float array, each
    leaf checked by ``number``."""
    array = np.asarray(value, dtype=float)
    leaves = [value]
    for _ in range(array.ndim):
        leaves = [leaf for item in leaves for leaf in item]
    for leaf in leaves:
        number(leaf)
    return array


def _typed(where: str, kind: str, value):
    """The header value as its format declares it; ValueError otherwise."""
    try:
        if kind == COUNT and type(value) is int and value > 0:
            return value
        if kind == INTS and isinstance(value, list) and all(type(v) is int for v in value):
            return np.asarray(value, dtype=np.int64)
        if kind == NUMBERS and isinstance(value, list):
            return numbers(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{where} must be {kind}")


def read(path, keys: dict[str, str], row: tuple[str, ...]) -> tuple[dict, np.ndarray]:
    """Checked header (lists as integer or float arrays) and the payload
    as an (n, *row) float32 array."""
    name = Path(path).name
    with open(path, "rb") as fh:
        line = fh.readline()
        raw = fh.read()
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{name}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{name}: header must be a JSON object")
    fields = {}
    for key, kind in keys.items():
        if key not in header:
            raise ValueError(f"{name}: header lacks {key!r}")
        fields[key] = _typed(f"{name}: header key {key!r}", kind, header[key])
    n = fields["labels"].size
    shape = (n, *(fields[key] for key in row))
    expected = 4 * math.prod(shape)
    if len(raw) != expected:
        raise ValueError(f"{name}: payload is {len(raw)} bytes, expected {expected}")
    split = np.concatenate([fields["train_idx"], fields["test_idx"]])
    if not np.array_equal(np.sort(split), np.arange(n)):
        raise ValueError(
            f"{name}: train_idx must lie in [0, {n}) and test_idx must lie in the rest, each index once"
        )
    for key in ("speeds", "zero_flags"):
        if key in fields and fields[key].size != n:
            raise ValueError(f"{name}: {key} must have {n} entries, one per label")
    return fields, np.frombuffer(raw, dtype="<f4").reshape(shape)
