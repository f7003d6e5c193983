"""Tests for experiment configuration loading, overrides and hashing."""

import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from skipstack.config import ExperimentConfig, config_hash, load_config, schedule_of
from skipstack.dataset import generate_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return path


class TestLoad:
    def test_seed_alone_suffices(self, tmp_path):
        config = load_config(write_config(tmp_path, seed=3))
        assert config.seed == 3
        assert config.gammas == (1.0, 1.0, 8.0, 8.0)

    def test_seed_is_mandatory(self, tmp_path):
        with pytest.raises(ValueError, match="seed is mandatory"):
            load_config(write_config(tmp_path, trials=100))

    def test_flag_overrides_beat_file_values(self, tmp_path):
        path = write_config(tmp_path, seed=3, out_dir="from-file")
        config = load_config(path, {"seed": 9, "out_dir": "from-flag"})
        assert config.seed == 9
        assert config.out_dir == "from-flag"

    def test_none_overrides_are_ignored(self, tmp_path):
        config = load_config(write_config(tmp_path, seed=3), {"seed": None})
        assert config.seed == 3

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config fields: gmma"):
            load_config(write_config(tmp_path, seed=0, gmma=4))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)

    def test_json_lists_become_tuples(self, tmp_path):
        config = load_config(write_config(tmp_path, seed=0, gammas=[0.1, 0.2], speeds=[1, 3]))
        assert config.gammas == (0.1, 0.2)
        assert config.speeds == (1, 3)


class TestValidation:
    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(levels=6), "levels"),
            (dict(trials=0), "trials"),
            (dict(delta=1.5), "delta"),
            (dict(delta=0.0), "delta"),
            (dict(base_tau=-0.1), "base_tau"),
            (dict(gmm_components=0), "gmm_components"),
            (dict(gmm_components=4, train_budget=39), "train_budget"),
            (dict(pca_components=-1), "pca_components"),
            (dict(window=0), "window"),
            (dict(svm_c=0.0), "svm_c"),
            (dict(levels=0, exclude=(0,)), "keep at least one level"),
            (dict(seed=-1), "seed"),
            (dict(speeds=(5,)), "speeds"),
            (dict(levels=1, exclude=(7,)), "exclude"),
            (dict(levels=1, exclude=(-1,)), "exclude"),
            (dict(levels=1, exclude=(0, 0)), "exclude"),
            (dict(levels=1, exclude=(0, 1)), "keep at least one level"),
            (dict(base_tau=0.0), "base_tau must be > 0"),
            (dict(k=0), "k must be >= 1"),
        ],
    )
    def test_bad_values(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{"seed": 0, **fields})

    @pytest.mark.parametrize(
        "fields",
        [
            dict(levels="3"),
            dict(levels=3.0),
            dict(levels=True),
            dict(svm_c="100"),
            dict(svm_c=float("nan")),
            dict(svm_c=float("inf")),
            dict(noise_sigma=10**400),
            dict(frames=2**63),
            dict(gammas=[1.0, "2"]),
            dict(gammas=1.0),
            dict(speeds=[1.0, 2.0]),
            dict(out_dir=3),
            dict(seed=None),
        ],
    )
    def test_json_type_of_every_field_is_checked(self, fields):
        with pytest.raises(ValueError, match=f"{next(iter(fields))} must be of type"):
            ExperimentConfig(**{"seed": 0, **fields})

    def test_ints_accepted_where_floats_are_expected(self):
        config = ExperimentConfig(seed=0, svm_c=10, gammas=[1, 1, 8, 8])
        assert config.svm_c == 10
        assert config.gammas == (1, 1, 8, 8)

    def test_explicit_base_tau_wins(self):
        config = ExperimentConfig(seed=0, base_tau=0.02, frames=50)
        assert schedule_of(config).base_tau == 0.02


class TestAdapters:
    def test_schedule_mask(self):
        config = ExperimentConfig(seed=0, levels=2, exclude=(0,))
        schedule = schedule_of(config)
        assert schedule.label == "L=2-0"
        assert schedule.included_levels == (1, 2)

    def test_schedule_reads_skips_off_a_frame_count(self):
        config = ExperimentConfig(seed=0, levels=2, exclude=(0,), base_tau=0.02)
        schedule = schedule_of(config, frames=50)
        assert schedule.label == "L=2-0"
        assert schedule.base_tau == 1.0 / 50
        assert schedule_of(config).base_tau == 0.02

    def test_dataset_config_carries_seed(self):
        config = ExperimentConfig(seed=11, n_classes=3, speeds=(1, 2), samples_per_cell=4)
        ds = generate_dataset(config)
        assert sorted(set(ds.speeds.tolist())) == [1, 2]
        assert np.array_equal(ds.series, generate_dataset(config).series)
        other = generate_dataset(
            ExperimentConfig(seed=12, n_classes=3, speeds=(1, 2), samples_per_cell=4)
        )
        assert not np.array_equal(ds.series, other.series)


class TestHash:
    def test_stable_across_instances(self):
        assert config_hash(ExperimentConfig(seed=0)) == config_hash(ExperimentConfig(seed=0))

    def test_sensitive_to_every_field_change(self):
        base = config_hash(ExperimentConfig(seed=0))
        assert config_hash(ExperimentConfig(seed=1)) != base
        assert config_hash(ExperimentConfig(seed=0, trials=201)) != base
        # the hash names the experiment, not the directory it is written to
        assert config_hash(ExperimentConfig(seed=0, out_dir="elsewhere")) == base


class TestReadme:
    def test_readme_config_bullets_match_the_fields(self):
        """README's Configuration bullets name every field but ``seed``, and
        every snake_case name they backtick is a field."""
        lines = README.read_text().splitlines()
        section = lines[lines.index("## Configuration") + 1 :]
        first = next(i for i, line in enumerate(section) if line.startswith("- "))
        bullets = " ".join(itertools.takewhile(str.strip, section[first:]))
        named = set(re.findall(r"`([a-z][a-z0-9_]*)`", bullets))
        assert named == {f.name for f in dataclasses.fields(ExperimentConfig)} - {"seed"}
