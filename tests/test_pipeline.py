"""Smoke and determinism tests for the end-to-end recognition runner."""

import tracemalloc

import numpy as np
import pytest

from skipstack import encoder, pipeline
from skipstack.classify import evaluate, svm_train_many
from skipstack.config import ExperimentConfig, schedule_of
from skipstack.dataset import generate_dataset
from skipstack.encoder import augment, encode_sample, fit_codec
from skipstack.features import SkipSchedule, descriptor_locations, extract_series_descriptors, level_cost_report
from skipstack.pipeline import encode, grid_schedules, recognition_grid
from skipstack.streams import stream


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
        schedule = grid_schedules(1.0 / 48, 2)[2]
        assert schedule.included_levels == (2,)
        assert schedule.label == "L=2-0-1"

    def test_mifs_keeps_all_levels(self):
        schedule = grid_schedules(1.0 / 48, 2)[-1]
        assert schedule.included_levels == (0, 1, 2)
        assert schedule.base_tau == 1.0 / 48


def assert_same_report(a, b):
    assert a.report.macc == b.report.macc
    assert a.report.mean_ap == b.report.mean_ap
    assert a.report.per_class == b.report.per_class
    assert a.cost_total == b.cost_total


def pool_config_and_dataset():
    """A 300-sample, 4-level config and its dataset, whose training pool
    (about 10.8 MB) dwarfs the reduced pool EM fits."""
    config = ExperimentConfig(
        seed=0, samples_per_cell=20, frames=192, levels=3, gmm_components=4, train_budget=2000
    )
    dataset = generate_dataset(config)
    assert dataset.series.shape[0] == 300
    return config, dataset


def pool_config_and_sets():
    """The pool config, its training descriptor sets and their locations."""
    config, dataset = pool_config_and_dataset()
    schedule = schedule_of(config, dataset.frames)
    sets = [extract_series_descriptors(dataset.series[i], schedule, config.window) for i in dataset.train_idx]
    return config, sets, descriptor_locations(dataset.frames, schedule, config.window)


class TestEncodeStage:
    @pytest.mark.parametrize(
        "overrides",
        [dict(levels=1), dict(levels=3), dict(levels=3, exclude=(1,), train_budget=500)],
    )
    def test_equals_fit_on_train_then_encode_each_sample(self, tiny_dataset, overrides):
        """Pooling the training split as it is extracted changes no bit: the
        codec is fit_codec on the training sets, and every row, train and
        test, is encode_sample on that sample's own augmented descriptors."""
        config = tiny_config(**overrides)
        schedule = schedule_of(config, tiny_dataset.frames)
        codec, x = encode(tiny_dataset, schedule, config, stream(config.seed, 2))
        sets = [extract_series_descriptors(s, schedule, config.window) for s in tiny_dataset.series]
        locations = descriptor_locations(tiny_dataset.frames, schedule, config.window)
        want, _ = fit_codec(sets.__getitem__, tiny_dataset.train_idx, locations, config, rng=stream(config.seed, 2))
        for part in ("pca", "gmm"):
            for name, value in vars(getattr(want, part)).items():
                assert np.array_equal(getattr(getattr(codec, part), name), value), (part, name)
        assert x.shape == (len(sets), want.encoding_dim)
        for row, ds in zip(x, sets):
            assert np.array_equal(row, encode_sample(want, augment(want.pca, ds, locations)))

    def test_encode_stage_never_holds_the_training_sets_beside_the_pool(self):
        """The stage's traced peak stays under 2.5 training pools. With the
        training split pooled as it is extracted and factored in place, and
        the test split encoded one sample at a time, it is about 1.0, set
        by the fit's pool; with the test split extracted whole it was about
        1.4, and with the QR's copy of the pool about 2.1. Extracting
        the training sets first and pooling them after puts a second copy
        of the split beside the pool (about 3.2).

        The training sets must never be held together, not merely dropped
        before the QR: the allocator (glibc) keeps the freed per-sample
        chunks resident, so the QR's copies take fresh pages on top of them
        and the RSS peak stays where it was. tracemalloc counts only live
        blocks and cannot see that, so this bound alone does not tell sets
        dropped early from sets never held together."""
        config, dataset = pool_config_and_dataset()
        schedule = schedule_of(config, dataset.frames)
        first = extract_series_descriptors(dataset.series[dataset.train_idx[0]], schedule, config.window)
        pool_bytes = len(dataset.train_idx) * first.nbytes
        del first
        tracemalloc.start()
        try:
            encode(dataset, schedule, config, stream(config.seed, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * pool_bytes

    def test_test_split_goes_one_sample_at_a_time(self, monkeypatch):
        """From the codec fit's return to the stage's return, the traced
        peak above the live level at the fit's return stays below the test
        split's descriptor sets together. Each test sample is extracted,
        augmented and encoded on its own, so only its encoding row outlives
        it (about 0.05 of the sets; keeping each sample's augmented rows
        until all are encoded gave about 0.66); extracting the split first
        and augmenting it after holds every set beside those rows (about
        1.70)."""
        config, dataset = pool_config_and_dataset()
        schedule = schedule_of(config, dataset.frames)
        first = extract_series_descriptors(dataset.series[dataset.test_idx[0]], schedule, config.window)
        test_bytes = len(dataset.test_idx) * first.nbytes
        del first
        marks = {}
        fit = pipeline.fit_codec

        def fit_then_mark(*args, **kwargs):
            result = fit(*args, **kwargs)
            marks["live"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(pipeline, "fit_codec", fit_then_mark)
        tracemalloc.start()
        try:
            encode(dataset, schedule, config, stream(config.seed, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - marks["live"] < test_bytes

    def test_reduced_pool_is_released_before_the_test_split(self, monkeypatch):
        """When the first test sample is extracted, less than half the
        reduced pool's bytes are live: the training rows are encoded from
        its blocks and then it is dropped, views included. About 0.04 of
        it is live there (the encodings matrix and the codec); holding its
        blocks until every sample is encoded kept about 1.01."""
        config, dataset = pool_config_and_dataset()
        schedule = schedule_of(config, dataset.frames)
        fit, extract = pipeline.fit_codec, pipeline.extract_series_descriptors
        reduced_bytes, live = [], []

        def fit_and_measure(*args, **kwargs):
            codec, reduced = fit(*args, **kwargs)
            reduced_bytes.append(reduced.nbytes)
            return codec, reduced

        def extract_and_mark(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            return extract(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_codec", fit_and_measure)
        monkeypatch.setattr(pipeline, "extract_series_descriptors", extract_and_mark)
        tracemalloc.start()
        try:
            encode(dataset, schedule, config, stream(config.seed, 2))
        finally:
            tracemalloc.stop()
        # the fit extracts each training sample twice
        assert len(live) == 2 * len(dataset.train_idx) + len(dataset.test_idx)
        assert live[2 * len(dataset.train_idx)] < 0.5 * reduced_bytes[0]

    def test_codec_fit_holds_one_copy_of_the_pool(self):
        """The fit's traced peak stays near one pool (about 1.0, since the
        QR runs in place): a second centered copy adds a whole pool (3.06x
        before the fit centered in place). A returning left factor is
        guarded by the PCA route's SVD-shape test too."""
        config, sets, locations = pool_config_and_sets()
        pool_bytes = sum(ds.nbytes for ds in sets)
        tracemalloc.start()
        try:
            fit_codec(sets.__getitem__, range(len(sets)), locations, config, rng=stream(config.seed, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * pool_bytes

    def test_codec_fit_releases_the_pool_before_em(self, monkeypatch):
        """No N x D array is live when EM starts: the factored pool is gone
        before the reduced pool is built, and only the augmented reduced
        pool, which the training samples are encoded from afterwards
        (about 0.56 pool), is live."""
        config, sets, locations = pool_config_and_sets()
        pool_bytes = sum(ds.nbytes for ds in sets)
        live_at_em = []
        original = encoder.gmm_fit

        def spy(*args, **kwargs):
            live_at_em.append(tracemalloc.get_traced_memory()[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(encoder, "gmm_fit", spy)
        tracemalloc.start()
        try:
            _, reduced = fit_codec(sets.__getitem__, range(len(sets)), locations, config, rng=stream(config.seed, 2))
        finally:
            tracemalloc.stop()
        assert len(live_at_em) == 1
        assert live_at_em[0] <= reduced.nbytes + 0.1 * pool_bytes


class TestRunSchedule:
    """One schedule's run inside the grid."""

    def test_report_shape_and_cost(self, tiny_dataset):
        run = recognition_grid(tiny_dataset, tiny_config())["L=1"]
        assert run.label == "L=1"
        assert 0.0 <= run.report.macc <= 100.0
        assert 0.0 <= run.report.mean_ap <= 100.0
        assert run.cost_total == pytest.approx(1.0 + 24 / 48)

    def test_masked_schedule_runs_and_reports_reduced_cost(self, tiny_dataset):
        schedule = SkipSchedule(base_tau=1.0 / 48, levels=1, include=(False, True))
        run = recognition_grid(tiny_dataset, tiny_config())[schedule.label]
        assert run.label == "L=1-0"
        assert run.cost_total == level_cost_report(schedule).total_relative
        assert run.cost_total == pytest.approx(0.5)

    def test_deterministic_given_seed(self, tiny_dataset):
        a = recognition_grid(tiny_dataset, tiny_config(seed=3))
        b = recognition_grid(tiny_dataset, tiny_config(seed=3))
        assert list(a) == list(b)
        for label, run in a.items():
            assert_same_report(run, b[label])


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

    def test_an_appended_masked_schedule_leaves_the_grid_runs_alone(self, tiny_dataset):
        # the grid trains every schedule in one batched solver call
        grid = recognition_grid(tiny_dataset, tiny_config(levels=2))
        masked = SkipSchedule(base_tau=1.0 / 48, levels=2, include=(True, False, True))
        runs = recognition_grid(tiny_dataset, tiny_config(levels=2, exclude=(1,)))
        assert list(runs) == [*grid, masked.label]
        for label, run in grid.items():
            assert_same_report(runs[label], run)

    def test_grid_is_its_stages(self, tiny_dataset):
        """Schedule i of the grid is encode with salt i, a one-vs-all train
        seeded (seed, 3, i) on the training rows, then evaluate on the test
        rows; the batched solver changes nothing."""
        config = tiny_config(levels=2, exclude=(0,))
        grid = recognition_grid(tiny_dataset, config)
        schedules = grid_schedules(1.0 / 48, 2) + [schedule_of(config, tiny_dataset.frames)]
        assert list(grid) == [schedule.label for schedule in schedules]
        train, test, y = tiny_dataset.train_idx, tiny_dataset.test_idx, tiny_dataset.labels
        for i, schedule in enumerate(schedules):
            _, x = encode(tiny_dataset, schedule, config, stream(config.seed, 2, i))
            [clf] = svm_train_many([x[train]], y[train], config.svm_c, [(config.seed, 3, i)])
            report = evaluate(clf, x[test], y[test])
            want = grid[schedule.label].report
            assert report.macc == want.macc
            assert report.mean_ap == want.mean_ap
            assert report.per_class == want.per_class
