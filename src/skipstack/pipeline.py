"""End-to-end recognition runs: extract, encode, train, evaluate.

The grid runner reproduces the level-comparison experiment shape: each
single level on its own versus the stacked schedules, all sharing one
dataset and seed so the comparison is paired. A run has three stages:
extract and encode each schedule, train the one-vs-all classifiers of
every schedule in one batched solver call, then evaluate each schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import EvalReport, evaluate, svm_train_many
from .config import ExperimentConfig, schedule_of
from .dataset import SyntheticActionDataset
from .encoder import encode_dataset, fit_codec
from .features import (
    SeriesDescriptorSet,
    SkipSchedule,
    extract_series_descriptors,
    level_cost_report,
)
from .streams import stream


@dataclass
class RecognitionRun:
    label: str
    report: EvalReport
    cost_total: float


def single_level_schedule(frames: int, level: int) -> SkipSchedule:
    """Schedule reading only level ``level`` (mask drops everything below)."""
    include = tuple(l == level for l in range(level + 1))
    return SkipSchedule.from_frames(frames, level, include)


def mifs_schedule(frames: int, levels: int) -> SkipSchedule:
    return SkipSchedule.from_frames(frames, levels)


def extract_all(
    dataset: SyntheticActionDataset, schedule: SkipSchedule, window: int
) -> list[SeriesDescriptorSet]:
    return [
        extract_series_descriptors(sample, schedule, window)
        for sample in dataset.series
    ]


def _encode(
    dataset: SyntheticActionDataset,
    schedule: SkipSchedule,
    config: ExperimentConfig,
    salt: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Train and test encodings, the codec fit on the training split only."""
    descriptors = extract_all(dataset, schedule, config.window)
    train_descs = [descriptors[i] for i in dataset.train_idx]
    test_descs = [descriptors[i] for i in dataset.test_idx]
    codec = fit_codec(train_descs, config, rng=stream(config.seed, 2, salt))
    x_train, _ = encode_dataset(codec, train_descs)
    x_test, _ = encode_dataset(codec, test_descs)
    return x_train, x_test


def grid_schedules(frames: int, max_level: int) -> list[SkipSchedule]:
    """Single levels 0..max_level followed by stacks L=1..max_level."""
    return [single_level_schedule(frames, level) for level in range(max_level + 1)] + [
        mifs_schedule(frames, levels) for levels in range(1, max_level + 1)
    ]


def recognition_grid(
    dataset: SyntheticActionDataset, config: ExperimentConfig
) -> dict[str, RecognitionRun]:
    """One run per grid schedule up to ``config.levels`` plus the config's
    masked schedule if new, keyed by label. Schedule i runs with salt i, so
    a schedule's result does not depend on which schedules follow it."""
    schedules = grid_schedules(dataset.frames, config.levels)
    if config.exclude:
        masked = schedule_of(config, dataset.frames)
        if masked.label not in {schedule.label for schedule in schedules}:
            schedules.append(masked)
    encoded = [_encode(dataset, schedule, config, salt) for salt, schedule in enumerate(schedules)]
    y_train = dataset.labels[dataset.train_idx]
    classifiers = svm_train_many(
        [x_train for x_train, _ in encoded],
        [(salt, y_train, config.svm_c, (config.seed, 3, salt)) for salt in range(len(schedules))],
    )
    y_test = dataset.labels[dataset.test_idx]
    return {
        schedule.label: RecognitionRun(
            label=schedule.label,
            report=evaluate(classifier, x_test, y_test),
            cost_total=level_cost_report(schedule).total_relative,
        )
        for schedule, classifier, (_, x_test) in zip(schedules, classifiers, encoded)
    }
