"""Generative model of multi-speed temporal action content.

A signal is a linear mixture of ``k`` unit-norm latent directions whose
mixing coefficients are bounded, zero-mean and decorrelated across
components. Each coefficient carries a dynamics index ``gamma``: the
correlation between the coefficient now and one skip ``tau`` later decays
like ``1 - Theta(exp(-gamma/tau))``, so large gamma means a slow (nearly
static) component and small gamma a fast one.

Coefficients are simulated as Rademacher pairs: ``alpha`` is a fair +/-1
draw and the value one skip later flips sign with probability ``q`` drawn
uniformly from ``[exp(-gamma/tau)/2, (1+c) * exp(-gamma/tau)/2]``. That
reproduces the second-moment band ``E[(alpha' - alpha)^2] in
[2 exp(-gamma/tau), 2 (1+c) exp(-gamma/tau)]`` that the conditioning
analysis relies on, with no extra free parameters. Pairs at distinct sample
times are independent draws.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .streams import stream


@dataclass
class LatentModel:
    """Mixture of ``k`` latent directions in ``d`` dimensions.

    ``gammas`` are positive and sorted non-decreasing (slowest component
    last), ``c`` in [0, 1) is the slack of the dynamics band, ``sigma`` the
    additive noise level. ``xbar`` holds the latent directions as
    orthonormal columns (d x k). ``ExperimentConfig`` checks these facts.
    """

    k: int
    d: int
    gammas: np.ndarray
    c: float
    sigma: float
    seed: int
    xbar: np.ndarray


def new_model(k: int, d: int, gammas, c: float, sigma: float, seed: int) -> LatentModel:
    """Build a model with a seeded random orthonormal direction matrix."""
    gammas = np.asarray(gammas, dtype=float)
    raw = stream(seed, 0).standard_normal((d, k))
    q, r = np.linalg.qr(raw)
    # fix the QR sign ambiguity so the matrix is a pure function of the seed
    xbar = q * np.sign(np.diag(r))
    return LatentModel(k=k, d=d, gammas=gammas, c=c, sigma=sigma, seed=seed, xbar=xbar)


def flip_band(gamma: float, tau: float, c: float) -> tuple[float, float]:
    """Valid flip-probability interval for one component at skip ``tau``.

    Raises when the upper endpoint would exceed 1/2, i.e. when the component
    is too fast for this skip to keep the correlation band meaningful.
    """
    decay = np.exp(-gamma / tau)
    lo = 0.5 * decay
    hi = 0.5 * (1.0 + c) * decay
    if hi > 0.5:
        raise ValueError(
            f"gamma too small for tau: flip band upper endpoint "
            f"(1+c)*exp(-gamma/tau)/2 = {hi:.6g} exceeds 1/2 "
            f"(gamma={gamma}, tau={tau}, c={c})"
        )
    return lo, hi


@functools.lru_cache(maxsize=64)
def _bands(gammas: tuple, tau: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Flip bands of all components as arrays (lo, hi - lo), kept per skip."""
    lo, hi = np.array([flip_band(g, tau, c) for g in gammas]).T
    return lo, hi - lo


def sample_difference_matrix(
    model: LatentModel,
    tau: float,
    n_cols: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k x n matrix of coefficient differences ``alpha(t+tau) - alpha(t)``.

    Columns are i.i.d.; entries live in {-2, 0, +2}. Row i carries second
    moment ``4 E[q_i]`` inside the dynamics band of component i.

    Stream contract, row by row: ``rng.random(n, dtype=float32) >= 0.5``
    gives a, the signs alpha = 2a - 1; then one ``rng.random(2n)`` gives
    (v, u). The flip probabilities q = lo + (hi - lo) v are what
    ``rng.uniform(lo, hi, n)`` returns, and column j flips when u[j] < q[j].
    The sign draw is ``rng.integers(0, 2, n)`` bit for bit and leaves the
    stream where it does: each takes one buffered 32-bit word per value;
    ``integers`` returns the word's top bit, and the float32 uniform
    ``(word >> 8) / 2**24`` is >= 0.5 exactly when that bit is set.
    """
    lo, width = _bands(tuple(model.gammas), tau, model.c)
    p = np.empty((model.k, n_cols))
    # rows whose uniforms are held at once: all k at harness sizes, one at 10^6 columns
    rows = max(1, min(model.k, (1 << 16) // n_cols))
    draws, signs = np.empty((rows, 2 * n_cols)), np.empty((rows, n_cols), dtype=np.float32)
    for first in range(0, model.k, rows):
        block, uniforms, bits = p[first : first + rows], draws[: model.k - first], signs[: model.k - first]
        for sign, out in zip(bits, uniforms):
            rng.random(dtype=np.float32, out=sign)
            rng.random(out=out)
        np.multiply(bits >= 0.5, -4.0, out=block)
        q, u = uniforms[:, :n_cols], uniforms[:, n_cols:]
        q *= width[first : first + rows, None]
        q += lo[first : first + rows, None]
        block += 2.0  # -2 alpha, what a flip leaves
        np.putmask(block, u >= q, 0.0)
    return p


def save_model(model: LatentModel, path) -> None:
    """Persist as JSON with a row-major direction matrix."""
    doc = {
        "k": model.k,
        "d": model.d,
        "gammas": [float(g) for g in model.gammas],
        "c": model.c,
        "sigma": model.sigma,
        "seed": model.seed,
        "xbar": [float(v) for v in model.xbar.reshape(-1)],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
