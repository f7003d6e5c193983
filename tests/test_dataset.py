"""Tests for the synthetic multi-speed dataset generator."""

import json

import numpy as np
import pytest

import skipstack.dataset
from skipstack.cli import main
from skipstack.config import ExperimentConfig
from skipstack.dataset import (
    MAX_TEMPLATE_CORRELATION,
    SyntheticActionDataset,
    generate_dataset,
    load_dataset,
    render_template,
    save_dataset,
    template_correlation_matrix,
)


def small_config(**overrides):
    defaults = dict(
        n_classes=3,
        speeds=(1, 2),
        samples_per_cell=4,
        frames=64,
        channels=2,
        noise_sigma=0.05,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ds = generate_dataset(ExperimentConfig(seed=0))
        assert ds.series.shape == (5 * 3 * 10, 96, 3)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n_classes=1), "2 classes"),
            (dict(speeds=()), "subset"),
            (dict(speeds=(1, 5)), "subset"),
            (dict(speeds=(2, 2)), "repeat"),
            (dict(samples_per_cell=1), "at least 2 samples"),
            (dict(harmonics=0), "harmonics"),
            (dict(frames=10, harmonics=3, speeds=(1, 2)), "alias"),
            (dict(jitter=1.0), "jitter"),
            (dict(noise_sigma=-0.1), "noise_sigma"),
            (dict(train_fraction=1.0), "train_fraction"),
        ],
    )
    def test_bad_configs_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)


class TestTemplates:
    def test_unit_rms_per_channel(self):
        ds = generate_dataset(small_config())
        for coeffs in ds.template_coeffs:
            wave = render_template(coeffs, 256)
            rms = np.sqrt(np.mean(wave**2, axis=0))
            assert rms == pytest.approx(np.ones(wave.shape[1]), abs=1e-12)

    def test_pairwise_correlation_below_threshold(self):
        config = ExperimentConfig(seed=7)
        ds = generate_dataset(config)
        corr = template_correlation_matrix(ds.template_coeffs, config.frames)
        off = corr[~np.eye(config.n_classes, dtype=bool)]
        assert np.all(np.abs(off) < MAX_TEMPLATE_CORRELATION)

    def test_impossible_threshold_raises(self, monkeypatch):
        monkeypatch.setattr(skipstack.dataset, "MAX_TEMPLATE_CORRELATION", 0.01)
        with pytest.raises(ValueError, match="correlation"):
            generate_dataset(small_config(n_classes=5))

    def test_speed_grid_matches_subsampled_slow_grid(self):
        # frame j at speed 2 reads the same phase as frame 2j at speed 1
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((2, 3, 2))
        fast = render_template(coeffs, 64, speed=2)
        slow = render_template(coeffs, 64, speed=1)
        assert np.array_equal(fast[:32], slow[::2])


class TestGeneration:
    def test_sample_counts_and_split_sizes(self):
        config = ExperimentConfig(seed=0, samples_per_cell=20)
        ds = generate_dataset(config)
        assert ds.series.shape == (300, config.frames, config.channels)
        assert len(ds.train_idx) == 200
        assert len(ds.test_idx) == 100

    def test_split_partitions_samples(self):
        ds = generate_dataset(small_config())
        merged = np.sort(np.concatenate([ds.train_idx, ds.test_idx]))
        assert np.array_equal(merged, np.arange(ds.series.shape[0]))

    def test_every_cell_on_both_sides(self):
        config = small_config(samples_per_cell=2)
        ds = generate_dataset(config)
        for idx in (ds.train_idx, ds.test_idx):
            cells = set(zip(ds.labels[idx].tolist(), ds.speeds[idx].tolist()))
            assert len(cells) == config.n_classes * len(config.speeds)

    def test_noiseless_single_speed_differs_only_by_amplitude(self):
        config = small_config(noise_sigma=0.0, speeds=(1,), jitter=0.25)
        ds = generate_dataset(config)
        for cls in range(config.n_classes):
            rows = ds.series[ds.labels == cls]
            normalized = rows / np.linalg.norm(rows, axis=(1, 2), keepdims=True)
            assert np.allclose(normalized, normalized[0], atol=1e-6)
            # jitter actually varies the raw samples
            assert not np.allclose(rows[0], rows[1])

    def test_noiseless_unjittered_sample_is_the_template(self):
        config = small_config(noise_sigma=0.0, jitter=0.0)
        ds = generate_dataset(config)
        for i in (0, len(ds.labels) - 1):
            expected = render_template(
                ds.template_coeffs[ds.labels[i]], config.frames, int(ds.speeds[i])
            ).astype(np.float32)
            assert np.array_equal(ds.series[i], expected)

    def test_speed_two_sample_replays_subsampled_speed_one(self):
        config = small_config(noise_sigma=0.0, jitter=0.0, frames=64)
        ds = generate_dataset(config)
        slow = ds.series[(ds.labels == 1) & (ds.speeds == 1)][0]
        fast = ds.series[(ds.labels == 1) & (ds.speeds == 2)][0]
        assert np.array_equal(fast[:32], slow[::2])

    def test_determinism_and_seed_sensitivity(self):
        a = generate_dataset(small_config(seed=5))
        b = generate_dataset(small_config(seed=5))
        c = generate_dataset(small_config(seed=6))
        assert np.array_equal(a.series, b.series)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert not np.array_equal(a.series, c.series)

    def test_series_dtype_is_float32(self):
        ds = generate_dataset(small_config())
        assert ds.series.dtype == np.float32


class TestDatasetInvariants:
    def test_missing_cell_rejected(self):
        ds = generate_dataset(small_config())
        first_cell = (ds.labels[ds.train_idx] == 0) & (ds.speeds[ds.train_idx] == 1)
        bad_train = ds.train_idx[~first_cell]
        bad_test = np.setdiff1d(np.arange(ds.series.shape[0]), bad_train)
        with pytest.raises(ValueError, match="missing"):
            SyntheticActionDataset(
                series=ds.series,
                labels=ds.labels,
                speeds=ds.speeds,
                train_idx=bad_train,
                test_idx=bad_test,
                template_coeffs=ds.template_coeffs,
            )

    def test_overlapping_split_rejected(self, tmp_path):
        """The record trusts its builders; a split read from a file is checked
        by the reader, which rejects a test index that repeats a training
        index, so ``encode --data`` exits 2."""
        path = tmp_path / "dataset.bin"
        save_dataset(path, generate_dataset(small_config()))
        line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["test_idx"].append(header["train_idx"][0])
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="each index once"):
            load_dataset(path)
        argv = ["encode", "--data", str(path), "--seed", "0", "--out", str(tmp_path / "out")]
        assert main(argv) == 2


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = generate_dataset(small_config(seed=9))
        path = tmp_path / "dataset.bin"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert np.array_equal(back.series, ds.series)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.speeds, ds.speeds)
        assert np.array_equal(back.train_idx, ds.train_idx)
        assert np.array_equal(back.test_idx, ds.test_idx)
        assert np.array_equal(back.template_coeffs, ds.template_coeffs)

    def test_truncated_payload_rejected(self, tmp_path):
        ds = generate_dataset(small_config())
        path = tmp_path / "dataset.bin"
        save_dataset(path, ds)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_dataset(path)

    def test_save_is_deterministic(self, tmp_path):
        ds = generate_dataset(small_config(seed=11))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(a, ds)
        save_dataset(b, generate_dataset(small_config(seed=11)))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda h: h.pop("channels"), "lacks 'channels'"),
            (lambda h: h.update(frames="64"), "'frames' must be a positive integer"),
            (lambda h: h.update(labels=[0.5] * len(h["labels"])), "'labels' must be a list"),
            (lambda h: h.update(coeffs="none"), "'coeffs' must be a nested list"),
            (lambda h: h.update(coeffs=[["1.5", True]]), "'coeffs' must be a nested list of numbers"),
            (lambda h: h["test_idx"].append(999), "test_idx must lie in"),
            (lambda h: h["train_idx"].__setitem__(0, -1), "train_idx must lie in"),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, mangle, message):
        path = tmp_path / "dataset.bin"
        save_dataset(path, generate_dataset(small_config()))
        line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        mangle(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=message):
            load_dataset(path)

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "dataset.bin"
        path.write_bytes(b"[1, 2]\n")
        with pytest.raises(ValueError, match="JSON object"):
            load_dataset(path)
