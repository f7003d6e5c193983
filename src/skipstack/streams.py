"""Deterministic RNG stream derivation.

Every stochastic routine in this package draws from a numpy Generator that is
either passed in directly or derived from an integer seed plus a structured
key (level index, trial index, ...). Streams derived from distinct keys are
independent, so a result depends only on its own key, not on what else was
drawn before it.
"""
from __future__ import annotations

import numpy as np

def stream(seed: int | tuple[int, ...], *key: int) -> np.random.Generator:
    """Generator for (seed, *key); same arguments always give the same stream."""
    if isinstance(seed, (int, np.integer)):
        parts = [int(seed)]
    else:
        parts = [int(s) for s in seed]
    parts.extend(int(k) for k in key)
    if any(p < 0 for p in parts):
        raise ValueError("stream keys must be non-negative integers")
    return np.random.default_rng(np.random.SeedSequence(parts))


def as_generator(rng: "int | tuple[int, ...] | np.random.Generator") -> np.random.Generator:
    """Accept a ready Generator or anything `stream` accepts."""
    if isinstance(rng, np.random.Generator):
        return rng
    return stream(rng)
