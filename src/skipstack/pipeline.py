"""End-to-end recognition runs: extract, encode, train, evaluate.

``encode`` is the one encode stage, shared by the ``encode`` verb and the
grid runner. The grid reproduces the level-comparison experiment shape:
each single level on its own versus the stacked schedules, all sharing
one dataset and seed so the comparison is paired. It encodes each
schedule, trains the one-vs-all classifiers of every schedule in one
``svm_train_many`` call (one matrix per schedule, the same labels and
C), then evaluates each schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import EvalReport, evaluate, svm_train_many
from .config import ExperimentConfig, schedule_of
from .dataset import SyntheticActionDataset
from .encoder import FisherCodec, augment, encode_sample, fit_codec
from .features import SkipSchedule, descriptor_locations, extract_series_descriptors, level_cost_report
from .streams import stream


@dataclass
class RecognitionRun:
    label: str
    report: EvalReport
    cost_total: float


def encode(
    dataset: SyntheticActionDataset,
    schedule: SkipSchedule,
    config: ExperimentConfig,
    rng,
) -> tuple[FisherCodec, np.ndarray]:
    """The codec fit on the training split, then each sample's encoding as
    one row of an N x dim matrix; a sample's row does not depend on the
    other samples.

    ``fit_codec`` extracts each training sample twice: first to pool its
    descriptors as they are made (the PCA fit consumes that pool), then to
    augment it into the reduced pool. The training descriptor sets are
    never held together, not even briefly, since the allocator keeps freed
    per-sample buffers resident under the fit's peak. The training rows
    are encoded from the blocks of the reduced pool, which is released
    before the test split is touched. Each test sample is then extracted,
    augmented and encoded on its own, so only its encoding row outlives it.
    """
    def extract(i):
        return extract_series_descriptors(dataset.series[i], schedule, config.window)

    locations = descriptor_locations(dataset.frames, schedule, config.window)
    codec, reduced = fit_codec(extract, dataset.train_idx, locations, config, rng=rng)
    encodings = np.empty((len(dataset.series), codec.encoding_dim))
    for i, rows in zip(dataset.train_idx, np.split(reduced, len(dataset.train_idx))):
        encodings[i] = encode_sample(codec, rows)
    # the last block is a view that keeps the whole pool alive
    del reduced, rows
    for i in dataset.test_idx:
        encodings[i] = encode_sample(codec, augment(codec.pca, extract(i), locations))
    return codec, encodings


def grid_schedules(base_tau: float, max_level: int) -> list[SkipSchedule]:
    """Single levels 0..max_level followed by stacks L=1..max_level."""
    singles = [SkipSchedule(base_tau, n, tuple(l == n for l in range(n + 1))) for n in range(max_level + 1)]
    return singles + [SkipSchedule(base_tau, levels) for levels in range(1, max_level + 1)]


def recognition_grid(
    dataset: SyntheticActionDataset, config: ExperimentConfig
) -> dict[str, RecognitionRun]:
    """One run per grid schedule up to ``config.levels`` plus the config's
    masked schedule if new, keyed by label. Schedule i runs with salt i, so
    a schedule's result does not depend on which schedules follow it."""
    masked = schedule_of(config, dataset.frames)
    schedules = grid_schedules(masked.base_tau, config.levels)
    if masked.label not in {schedule.label for schedule in schedules}:
        schedules.append(masked)
    encoded = [encode(dataset, s, config, stream(config.seed, 2, salt))[1] for salt, s in enumerate(schedules)]
    classifiers = svm_train_many(
        [x[dataset.train_idx] for x in encoded],
        dataset.labels[dataset.train_idx],
        config.svm_c,
        [(config.seed, 3, salt) for salt in range(len(schedules))],
    )
    y_test = dataset.labels[dataset.test_idx]
    return {
        schedule.label: RecognitionRun(
            label=schedule.label,
            report=evaluate(classifier, x[dataset.test_idx], y_test),
            cost_total=level_cost_report(schedule).total_relative,
        )
        for schedule, classifier, x in zip(schedules, classifiers, encoded)
    }
