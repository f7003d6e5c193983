"""End-to-end recognition runs: extract, encode, train, evaluate.

The grid runner reproduces the level-comparison experiment shape: each
single level on its own versus the stacked schedules, all sharing one
dataset and seed so the comparison is paired. A run has three stages:
extract and encode each schedule (the only stage an executor's ``map``
spreads), train the one-vs-all classifiers of every schedule in one
batched solver call, then evaluate each schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

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


def _run(
    dataset: SyntheticActionDataset,
    schedules: list[SkipSchedule],
    config: ExperimentConfig,
    salts,
    map=map,
) -> list[RecognitionRun]:
    """Schedule i runs with salt ``salts[i]``, so its result does not
    depend on which other schedules share the call."""
    encoded = list(map(_encode, repeat(dataset), schedules, repeat(config), salts))
    classifiers = svm_train_many(
        [x_train for x_train, _ in encoded],
        [
            (i, dataset.labels[dataset.train_idx], config.svm_c, (config.seed, 3, salt))
            for i, salt in enumerate(salts)
        ],
    )
    return [
        RecognitionRun(
            label=schedule.label,
            report=evaluate(classifier, x_test, dataset.labels[dataset.test_idx]),
            cost_total=level_cost_report(schedule).total_relative,
        )
        for schedule, classifier, (_, x_test) in zip(schedules, classifiers, encoded)
    ]


def run_schedule(
    dataset: SyntheticActionDataset,
    schedule: SkipSchedule,
    config: ExperimentConfig,
    salt: int = 0,
) -> RecognitionRun:
    """One full pass: codec fit on the training split only, report on test."""
    return _run(dataset, [schedule], config, [salt])[0]


def grid_schedules(frames: int, max_level: int) -> list[SkipSchedule]:
    """Single levels 0..max_level followed by stacks L=1..max_level."""
    return [single_level_schedule(frames, level) for level in range(max_level + 1)] + [
        mifs_schedule(frames, levels) for levels in range(1, max_level + 1)
    ]


def recognition_grid(
    dataset: SyntheticActionDataset, config: ExperimentConfig, map=map
) -> dict[str, RecognitionRun]:
    """One run per grid schedule up to ``config.levels`` plus the config's
    masked schedule if new, keyed by label. Schedule i runs with salt i, so
    an executor's ``map`` may extract and encode them concurrently without
    changing a result."""
    schedules = grid_schedules(dataset.frames, config.levels)
    if config.exclude:
        masked = schedule_of(config, dataset.frames)
        if masked.label not in {schedule.label for schedule in schedules}:
            schedules.append(masked)
    runs = _run(dataset, schedules, config, range(len(schedules)), map)
    return {run.label: run for run in runs}
