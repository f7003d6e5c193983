"""Smoke and determinism tests for the end-to-end recognition runner."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from skipstack.config import ExperimentConfig
from skipstack.dataset import generate_dataset
from skipstack.features import parse_schedule_label
from skipstack.pipeline import (
    mifs_schedule,
    recognition_grid,
    run_schedule,
    single_level_schedule,
)


def tiny_config(**overrides):
    fields = dict(
        n_classes=3,
        speeds=(1, 2),
        samples_per_cell=4,
        frames=48,
        channels=2,
        noise_sigma=0.1,
        seed=0,
        gmm_components=4,
        levels=1,
    )
    return ExperimentConfig(**{**fields, **overrides})


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(tiny_config())


class TestSchedules:
    def test_single_level_masks_everything_below(self):
        schedule = single_level_schedule(48, 2)
        assert schedule.included_levels == (2,)
        assert schedule.label == "L=2-0-1"

    def test_mifs_keeps_all_levels(self):
        schedule = mifs_schedule(48, 2)
        assert schedule.included_levels == (0, 1, 2)
        assert schedule.base_tau == pytest.approx(1.0 / 48)


class TestRunSchedule:
    def test_report_shape_and_cost(self, tiny_dataset):
        run = run_schedule(tiny_dataset, mifs_schedule(48, 1), tiny_config())
        assert run.label == "L=1"
        assert 0.0 <= run.report.macc <= 100.0
        assert 0.0 <= run.report.mean_ap <= 100.0
        assert run.cost_total == pytest.approx(1.0 + 24 / 48)

    def test_masked_schedule_runs_and_reports_reduced_cost(self, tiny_dataset):
        schedule = parse_schedule_label("L=1-0", 1.0 / 48)
        run = run_schedule(tiny_dataset, schedule, tiny_config())
        assert run.label == "L=1-0"
        assert run.cost_total == pytest.approx(0.5)

    def test_deterministic_given_seed(self, tiny_dataset):
        a = run_schedule(tiny_dataset, mifs_schedule(48, 1), tiny_config(seed=3))
        b = run_schedule(tiny_dataset, mifs_schedule(48, 1), tiny_config(seed=3))
        assert a.report.macc == b.report.macc
        assert a.report.mean_ap == b.report.mean_ap
        assert np.array_equal(a.report.confusion, b.report.confusion)


class TestGrid:
    def test_grid_covers_singles_and_stacks(self, tiny_dataset):
        runs = recognition_grid(tiny_dataset, tiny_config())
        assert list(runs) == ["L=0", "L=1-0", "L=1"]
        for run in runs.values():
            assert 0.0 <= run.report.macc <= 100.0

    def test_easy_dataset_is_learnable(self, tiny_dataset):
        runs = recognition_grid(tiny_dataset, tiny_config())
        assert runs["L=1"].report.macc >= 75.0

    def test_mask_naming_a_grid_schedule_adds_nothing(self, tiny_dataset):
        # levels 1 without level 0 is the grid's own "L=1-0"
        runs = recognition_grid(tiny_dataset, tiny_config(exclude=(0,)))
        assert list(runs) == ["L=0", "L=1-0", "L=1"]

    def test_pool_map_gives_the_serial_results(self, tiny_dataset):
        serial = recognition_grid(tiny_dataset, tiny_config())
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = recognition_grid(tiny_dataset, tiny_config(), pool.map)
        assert list(pooled) == list(serial)
        for label, run in serial.items():
            assert pooled[label].report.macc == run.report.macc
            assert np.array_equal(pooled[label].report.confusion, run.report.confusion)

    def test_a_schedule_alone_matches_its_grid_run(self, tiny_dataset):
        # the grid trains every schedule in one batched solver call
        runs = recognition_grid(tiny_dataset, tiny_config())
        for salt, (label, run) in enumerate(runs.items()):
            schedule = parse_schedule_label(label, 1.0 / 48)
            alone = run_schedule(tiny_dataset, schedule, tiny_config(), salt=salt)
            assert alone.report.macc == run.report.macc
            assert alone.report.mean_ap == run.report.mean_ap
            assert np.array_equal(alone.report.confusion, run.report.confusion)
