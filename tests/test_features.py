"""Tests for skip schedules, feature stacking and series descriptors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipstack import container
from skipstack.features import (
    SkipSchedule,
    budget,
    descriptor_locations,
    extract_series_descriptors,
    level_cost_report,
    mifs_stack,
)
from skipstack.latent import new_model, sample_difference_matrix
from skipstack.streams import stream


def make_model(**kw):
    base = dict(k=2, d=4, gammas=[1.0, 4.0], c=0.1, sigma=0.0, seed=5)
    base.update(kw)
    return new_model(**base)


class TestSkipSchedule:
    def test_budgets_follow_floor_arithmetic(self):
        s = SkipSchedule(base_tau=1 / 100, levels=2)
        assert [s.budget(l) for l in range(3)] == [100, 50, 33]
        assert s.tau(1) == pytest.approx(2 / 100)

    def test_floor_guard_on_inexact_division(self):
        # 1 / (0.1 * 2) evaluates to 4.999999999999999 in floats
        s = SkipSchedule(base_tau=0.1, levels=1)
        assert s.budget(1) == 5

    def test_deepest_skip_must_fit_duration(self):
        with pytest.raises(ValueError, match="normalized duration"):
            SkipSchedule(base_tau=0.3, levels=3)

    def test_taus_increase_budgets_decrease(self):
        s = SkipSchedule(base_tau=1 / 64, levels=4)
        taus = [s.tau(l) for l in range(5)]
        budgets = [s.budget(l) for l in range(5)]
        assert all(a < b for a, b in zip(taus, taus[1:]))
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))

    def test_labels_round_trip(self):
        s = SkipSchedule(base_tau=1 / 100, levels=2, include=(False, True, True))
        assert s.label == "L=2-0"

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="at least one level"):
            SkipSchedule(base_tau=1 / 10, levels=1, include=(False, False))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SkipSchedule(0.1, -1), "levels must be >= 0"),
            (lambda: SkipSchedule(0.1, 1, (True,)), "levels\\+1 entries"),
            (lambda: SkipSchedule(0.1, 1).tau(2), "level must lie in \\[0, 1\\], got 2"),
        ],
    )
    def test_bad_schedule_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_non_finite_budget_rejected(self):
        # 1 / 5e-324 overflows to inf, which has no integer floor
        with pytest.raises(ValueError, match="no finite sample budget"):
            budget(5e-324)
        with pytest.raises(ValueError, match="no finite sample budget"):
            SkipSchedule(base_tau=5e-324, levels=1).budget(1)

    def test_skip_of_one_frame(self):
        s = SkipSchedule(1.0 / 64, levels=1)
        assert s.base_tau == pytest.approx(1 / 64)
        assert s.budget(0) == 64


def one_level(tau):
    return SkipSchedule(base_tau=tau, levels=0)


class TestBuildFeatureMatrix:
    """Building one skip's feature matrix: ``mifs_stack`` of a one-level
    schedule."""

    def test_tau_one_gives_single_column(self):
        fm = mifs_stack(make_model(), one_level(1.0), seed=0)
        assert fm.p.shape == (2, 1)

    def test_column_budget_and_entry_set(self):
        model = make_model(k=4, d=8, gammas=[1.0, 2.0, 4.0, 8.0])
        fm = mifs_stack(model, one_level(0.001), seed=1)
        assert fm.p.shape == (4, 1000)
        assert set(np.unique(fm.p)).issubset({-2.0, 0.0, 2.0})

    def test_static_model_gives_zero_matrix(self):
        model = make_model(gammas=[1e9, 1e9])
        fm = mifs_stack(model, one_level(0.01), seed=2)
        assert not fm.p.any()

    def test_noise_applied_when_sigma_positive(self):
        model = make_model(sigma=0.5)
        fm = mifs_stack(model, one_level(0.05), seed=4)
        assert fm.f is not None
        resid = fm.f - model.xbar @ fm.p
        assert np.std(resid) == pytest.approx(0.5 * np.sqrt(2), rel=0.2)


class TestMifsStack:
    def test_degenerate_schedule_matches_single_build(self):
        model = make_model()
        stacked = mifs_stack(model, one_level(1 / 50), seed=7)
        single = sample_difference_matrix(model, 1 / 50, 50, stream(7, 0))
        assert np.array_equal(stacked.p, single)

    def test_stacked_column_count(self):
        s = SkipSchedule(base_tau=1 / 100, levels=2)
        fm = mifs_stack(make_model(), s, seed=8)
        assert fm.p.shape[1] == 100 + 50 + 33

    def test_masked_level_zero(self):
        model = make_model()
        s = SkipSchedule(base_tau=1 / 100, levels=1, include=(False, True))
        fm = mifs_stack(model, s, seed=9)
        assert fm.p.shape[1] == 50
        assert np.array_equal(fm.p, sample_difference_matrix(model, 2 / 100, 50, stream(9, 1)))

    def test_levels_independent_of_mask(self):
        """A level's columns do not change when other levels are masked."""
        model = make_model()
        full = mifs_stack(model, SkipSchedule(base_tau=1 / 60, levels=2), seed=10)
        masked = mifs_stack(
            model,
            SkipSchedule(base_tau=1 / 60, levels=2, include=(False, True, False)),
            seed=10,
        )
        # budgets 60, 30, 20: level 1 is columns 60:90 of the full stack
        assert np.array_equal(full.p[:, 60:90], masked.p)

    def test_stack_equals_union_of_per_level_builds(self):
        model = make_model()
        s = SkipSchedule(base_tau=1 / 40, levels=2)
        stacked = mifs_stack(model, s, seed=11)
        assert stacked.f is None
        start = 0
        for level in range(3):
            part = sample_difference_matrix(model, s.tau(level), s.budget(level), stream(11, level))
            assert np.array_equal(stacked.p[:, start : start + s.budget(level)], part)
            start += s.budget(level)
        assert start == stacked.p.shape[1]

    @pytest.mark.parametrize("include", [(), (False, True, True), (True, False, True)])
    def test_observed_levels_follow_the_stream_contract(self, include):
        """Level l's columns of p and f, bit for bit, from the stream
        (seed, l): the differences, then eps, then eps'."""
        model = make_model(sigma=0.3)
        s = SkipSchedule(base_tau=1 / 40, levels=2, include=include)
        stacked = mifs_stack(model, s, seed=(12, 3))
        start = 0
        for level in s.included_levels:
            t, rng = s.budget(level), stream((12, 3), level)
            p = sample_difference_matrix(model, s.tau(level), t, rng)
            eps = rng.normal(0.0, model.sigma, size=(model.d, t))
            eps_tau = rng.normal(0.0, model.sigma, size=(model.d, t))
            f = model.xbar @ p + (eps_tau - eps)
            assert stacked.p[:, start : start + t].tobytes() == p.tobytes()
            assert stacked.f[:, start : start + t].tobytes() == np.ascontiguousarray(f).tobytes()
            start += t
        assert start == stacked.p.shape[1] == stacked.f.shape[1]

    def test_unobserved_p_equals_observed_p(self):
        """The coverage harness's stacked trials (observe=False) read the
        same p as the observed stack."""
        model = make_model(sigma=0.2)
        s = SkipSchedule(base_tau=1 / 50, levels=3, include=(True, False, True, True))
        observed = mifs_stack(model, s, seed=13)
        bare = mifs_stack(model, s, seed=13, observe=False)
        assert bare.f is None and observed.f is not None
        assert bare.p.tobytes() == observed.p.tobytes()

    def test_noise_statistics(self):
        model = make_model(k=3, d=6, gammas=[0.01, 0.02, 0.04], sigma=0.25)
        fm = mifs_stack(model, SkipSchedule(base_tau=1 / 2000, levels=2), seed=14)
        assert set(np.unique(fm.p)).issubset({-2.0, 0.0, 2.0})
        resid = fm.f - model.xbar @ fm.p
        assert np.std(resid) == pytest.approx(0.25 * np.sqrt(2), rel=0.02)
        assert abs(np.mean(resid)) < 0.01


class TestSeriesDescriptors:
    def test_constant_series_gives_zero_descriptors(self):
        series = np.ones((40, 3))
        ds = extract_series_descriptors(series, SkipSchedule(1.0 / 40, 1), window=4)
        assert not ds.any()

    def test_linear_series_gives_constant_slope(self):
        k = 30
        series = np.linspace(0.0, 1.0, k)
        ds = extract_series_descriptors(series, SkipSchedule(1.0 / k, 0), window=2)
        np.testing.assert_allclose(ds, 1 / (k - 1), atol=1e-12)

    def test_descriptor_dimension_and_locations(self):
        series = np.random.default_rng(0).normal(size=(64, 2))
        schedule = SkipSchedule(1.0 / 64, 2)
        ds = extract_series_descriptors(series, schedule, window=5)
        locations = descriptor_locations(64, schedule, window=5)
        assert ds.shape[1] == 5 * 2
        assert locations.shape == (ds.shape[0],)
        assert locations.min() > 0 and locations.max() < 1

    def test_sine_speed_match_across_levels(self):
        """Level 1 of a period-32 sine equals level 0 of a period-16 sine."""
        k = 64
        slow = np.sin(2 * np.pi * np.arange(k) / 32.0)
        fast = np.sin(2 * np.pi * np.arange(k // 2) / 16.0)
        sched1 = SkipSchedule(1.0 / k, 1, include=(False, True))
        sched0 = SkipSchedule(1.0 / (k // 2), 0)
        a = extract_series_descriptors(slow, sched1, window=4)
        b = extract_series_descriptors(fast, sched0, window=4)
        np.testing.assert_allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_speed_shift_property_exact(self, s):
        """Descriptors at level s-1 equal level-0 descriptors of the s-fold
        compressed series, exactly, when the frame count divides by s."""
        k = 120
        rng = np.random.default_rng(s)
        series = rng.normal(size=(k, 2))
        compressed = series[::s]
        deep_schedule = SkipSchedule(1.0 / k, s - 1, include=tuple(l == s - 1 for l in range(s)))
        flat_schedule = SkipSchedule(1.0 / (k // s), 0)
        deep = extract_series_descriptors(series, deep_schedule, window=6)
        flat = extract_series_descriptors(compressed, flat_schedule, window=6)
        assert np.array_equal(deep, flat)
        assert np.array_equal(
            descriptor_locations(k, deep_schedule, window=6),
            descriptor_locations(k // s, flat_schedule, window=6),
        )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), levels=st.integers(0, 5), window=st.integers(1, 12), channels=st.integers(1, 3))
    def test_every_included_level_yields_windows(self, data, levels, window, channels):
        """Any series the frame check admits gives each included level, in
        schedule order, a block of ceil(frames / (l+1)) - window >= 1 rows,
        of descriptors and of locations alike, equal to that level
        extracted alone, with locations strictly inside (0, 1), at the
        dtype the encoder reads."""
        include = data.draw(st.lists(st.booleans(), min_size=levels + 1, max_size=levels + 1).filter(any))
        frames = (levels + 1) * window + 1 + data.draw(st.integers(0, 40))
        series = np.random.default_rng(frames).normal(size=(frames, channels))
        schedule = SkipSchedule(1.0 / frames, levels, include=tuple(include))
        ds = extract_series_descriptors(series, schedule, window)
        locations = descriptor_locations(frames, schedule, window)
        assert ds.shape == (locations.size, window * channels)
        assert ds.dtype == locations.dtype == np.float64
        assert np.all((0.0 < locations) & (locations < 1.0))
        start = 0
        for level in schedule.included_levels:
            alone = SkipSchedule(1.0 / frames, levels, include=tuple(l == level for l in range(levels + 1)))
            count = -(-frames // (level + 1)) - window
            assert count >= 1
            block = slice(start, start + count)
            assert np.array_equal(ds[block], extract_series_descriptors(series, alone, window))
            assert np.array_equal(locations[block], descriptor_locations(frames, alone, window))
            start += count
        assert start == locations.size

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="shorter than one window"):
            extract_series_descriptors(
                np.zeros((8, 1)), SkipSchedule(1.0 / 8, 3), window=4
            )


class TestCostReport:
    def test_two_level_costs(self):
        report = level_cost_report(SkipSchedule(base_tau=1 / 1000, levels=2))
        assert [r.count for r in report.rows] == [1000, 500, 333]
        np.testing.assert_allclose(
            [r.relative for r in report.rows], [1.0, 0.5, 0.333], atol=1e-12
        )
        assert report.total_relative == pytest.approx(1.833, abs=1e-12)
        assert report.total_relative < 2.0

    def test_single_level_cost_is_one(self):
        report = level_cost_report(SkipSchedule(base_tau=1 / 100, levels=0))
        assert report.total_relative == 1.0

    def test_masked_schedule_cost(self):
        schedule = SkipSchedule(base_tau=1 / 1000, levels=2, include=(False, True, True))
        report = level_cost_report(schedule)
        assert report.total_relative == pytest.approx(0.833, abs=1e-12)


class TestContainer:
    """The binary container that carries the dataset series and the encodings."""

    def test_header_is_single_json_line(self, tmp_path):
        path = tmp_path / "m.bin"
        header = {"cols": 3, "labels": [0, 1], "test_idx": [1], "train_idx": [0], "zero_flags": [0, 0]}
        container.write(path, header, np.zeros((2, 3)))
        first, payload = path.read_bytes().split(b"\n", 1)
        assert first == b'{"cols":3,"labels":[0,1],"test_idx":[1],"train_idx":[0],"zero_flags":[0,0]}'
        assert len(payload) == 2 * 3 * 4
        back, matrix = container.read(path, container.ENCODINGS, ("cols",))
        assert back["labels"].tolist() == [0, 1]
        np.testing.assert_array_equal(matrix, np.zeros((2, 3), dtype=np.float32))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        header = {"cols": 4, "labels": [0] * 4, "test_idx": [], "train_idx": [], "zero_flags": []}
        container.write(path, header, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload is 56 bytes, expected 64"):
            container.read(path, container.ENCODINGS, ("cols",))
