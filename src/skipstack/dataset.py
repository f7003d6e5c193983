"""Synthetic multi-speed action dataset.

Each class is a band-limited multichannel waveform template; a sample
replays its class template time-compressed by a speed factor, scaled by
a random amplitude, plus white noise. Speed is the nuisance the stacked
features must absorb: reading every s-th frame of a speed-1 sample
visits the same template phases as reading a speed-s sample frame by
frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from .config import ExperimentConfig
from .streams import stream

MAX_TEMPLATE_ATTEMPTS = 500
MAX_TEMPLATE_CORRELATION = 0.5


def render_template(coeffs: np.ndarray, frames: int, speed: int = 1) -> np.ndarray:
    """Evaluate one class template on a speed-compressed frame grid.

    ``coeffs`` has shape (channels, harmonics, 2) holding cosine and sine
    weights; frame j reads phase speed * j / frames of the unit-period
    waveform. Returns (frames, channels).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    phase = 2.0 * np.pi * speed * np.arange(frames)[:, None] / frames
    orders = np.arange(1, coeffs.shape[1] + 1)[None, :]
    return np.cos(phase * orders) @ coeffs[:, :, 0].T + np.sin(phase * orders) @ coeffs[:, :, 1].T


def template_correlation_matrix(coeffs: np.ndarray, frames: int) -> np.ndarray:
    """Pairwise correlation of the speed-1 class waveforms, channels flattened."""
    waves = np.stack([render_template(c, frames).ravel() for c in coeffs])
    return np.corrcoef(waves)


def _draw_templates(config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample class templates until all pairs decorrelate."""
    for _ in range(MAX_TEMPLATE_ATTEMPTS):
        coeffs = rng.standard_normal(
            (config.n_classes, config.channels, config.harmonics, 2)
        )
        power = np.sum(coeffs**2, axis=(2, 3)) / 2.0
        coeffs /= np.sqrt(power)[:, :, None, None]  # unit-RMS waveform per channel
        corr = template_correlation_matrix(coeffs, config.frames)
        off_diagonal = corr[~np.eye(config.n_classes, dtype=bool)]
        if np.all(np.abs(off_diagonal) < MAX_TEMPLATE_CORRELATION):
            return coeffs
    raise ValueError(
        f"no template set with pairwise correlation below "
        f"{MAX_TEMPLATE_CORRELATION} in {MAX_TEMPLATE_ATTEMPTS} attempts"
    )


@dataclass
class SyntheticActionDataset:
    """Samples plus a stratified train/test split.

    ``series`` is (n, frames, channels) float32; every class appears at
    every speed on both sides of the split.
    """

    series: np.ndarray
    labels: np.ndarray
    speeds: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    template_coeffs: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.series).all():
            raise ValueError("series must be finite")
        for side, idx in (("train", self.train_idx), ("test", self.test_idx)):
            cells = set(zip(self.labels[idx].tolist(), self.speeds[idx].tolist()))
            expected = {
                (c, s)
                for c in np.unique(self.labels).tolist()
                for s in np.unique(self.speeds).tolist()
            }
            if cells != expected:
                raise ValueError(f"{side} split is missing a class/speed cell")

    @property
    def frames(self) -> int:
        return int(self.series.shape[1])


def _split_counts(n_cells: int, cell_size: int, fraction: float) -> np.ndarray:
    """Per-cell training counts: floors plus a remainder pass, each cell
    keeping at least one sample on both sides."""
    target = int(round(n_cells * cell_size * fraction))
    base = int(np.clip(np.floor(cell_size * fraction), 1, cell_size - 1))
    counts = np.full(n_cells, base, dtype=int)
    for i in range(n_cells):
        if counts.sum() >= target:
            break
        if counts[i] < cell_size - 1:
            counts[i] += 1
    return counts


def generate_dataset(config: ExperimentConfig) -> SyntheticActionDataset:
    """Deterministic dataset from the config seed.

    Samples are laid out class-major, then by speed in config order, then
    by draw index; the split takes the leading draws of every cell.
    """
    coeffs = _draw_templates(config, stream(config.seed, 0))
    spc = config.samples_per_cell
    n_cells = config.n_classes * len(config.speeds)
    n = n_cells * spc
    series = np.empty((n, config.frames, config.channels))
    labels = np.empty(n, dtype=int)
    speeds = np.empty(n, dtype=int)
    row = 0
    for cls in range(config.n_classes):
        for s in config.speeds:
            rng = stream(config.seed, 1, cls, s)
            base = render_template(coeffs[cls], config.frames, s)
            amplitude = rng.uniform(1.0 - config.jitter, 1.0 + config.jitter, size=spc)
            noise = config.noise_sigma * rng.standard_normal(
                (spc, config.frames, config.channels)
            )
            series[row : row + spc] = amplitude[:, None, None] * base[None] + noise
            labels[row : row + spc] = cls
            speeds[row : row + spc] = s
            row += spc
    counts = _split_counts(n_cells, spc, config.train_fraction)
    starts = np.arange(n_cells) * spc
    train_idx = np.concatenate(
        [start + np.arange(count) for start, count in zip(starts, counts)]
    )
    test_idx = np.setdiff1d(np.arange(n), train_idx)
    return SyntheticActionDataset(
        series=series.astype("<f4"),
        labels=labels,
        speeds=speeds,
        train_idx=train_idx,
        test_idx=test_idx,
        template_coeffs=coeffs,
    )


def save_dataset(path, ds: SyntheticActionDataset) -> None:
    """The series as the container payload, everything else in its header."""
    header = {
        "channels": int(ds.series.shape[2]),
        "coeffs": ds.template_coeffs.tolist(),
        "frames": int(ds.series.shape[1]),
        "labels": ds.labels.tolist(),
        "speeds": ds.speeds.tolist(),
        "test_idx": ds.test_idx.tolist(),
        "train_idx": ds.train_idx.tolist(),
    }
    container.write(path, header, ds.series)


def load_dataset(path) -> SyntheticActionDataset:
    header, series = container.read(path, container.DATASET, ("frames", "channels"))
    return SyntheticActionDataset(
        series=series.copy(),
        labels=header["labels"],
        speeds=header["speeds"],
        train_idx=header["train_idx"],
        test_idx=header["test_idx"],
        template_coeffs=header["coeffs"],
    )
