"""Tests for the deterministic stream derivation."""

import numpy as np
import pytest

from skipstack.streams import stream


def draws(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2**62, size=4)


def test_same_key_same_stream():
    assert np.array_equal(draws(stream(3, 1, 4)), draws(stream(3, 1, 4)))
    assert np.array_equal(draws(stream((3, 1), 4)), draws(stream(3, 1, 4)))


def test_distinct_keys_differ():
    keys = [(0,), (1,), (0, 1), (0, 2), (0, 2, 1), (0, 1, 2)]
    seen = {tuple(draws(stream(*key))) for key in keys}
    assert len(seen) == len(keys)


def test_trailing_zeros_collide():
    """Current behaviour, kept because every output depends on it:
    SeedSequence pads its entropy with zeros, so a trailing 0 names the
    same stream (the grid's salt-0 codec stream is the encode verb's)."""
    assert np.array_equal(draws(stream(0, 2)), draws(stream(0, 2, 0)))
    assert np.array_equal(draws(stream(0, 2)), draws(stream(0, 2, 0, 0)))
    assert np.array_equal(draws(stream(0)), draws(stream(0, 0)))


def test_negative_key_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        stream(0, -1)

