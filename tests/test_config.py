"""Tests for experiment configuration loading, overrides and hashing."""

import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skipstack.classify import SVM_EPOCHS, SVM_TOL
from skipstack.config import ExperimentConfig, config_hash, load_config, schedule_of
from skipstack.dataset import MAX_TEMPLATE_CORRELATION, generate_dataset
from skipstack.encoder import EM_MAX_ITERS, EM_TOL
from skipstack.latent import new_model

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
        config = load_config(write_config(tmp_path, seed=0, k=2, gammas=[0.1, 0.2], speeds=[1, 3]))
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
            (dict(channels=0), "channels must be >= 1, got 0"),
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
            (dict(gammas=(2.0, 1.0, 8.0, 8.0)), "non-decreasing"),
            (dict(c=-0.1), "c must"),
            (dict(c=1.0), "c must"),
            (dict(c=1.5), "c must"),
            (dict(d=3), "d must"),
            (dict(gammas=(0.0, 1.0, 8.0, 8.0)), "positive"),
            (dict(sigma=-1.0), "sigma must be >= 0"),
            (dict(gammas=(1.0, 8.0)), "gammas must have length k=4, got 2"),
            (dict(base_tau=0.3, levels=3), "exceeds the normalized duration"),
            # within 1 + FLOOR_EPS, yet floor(1/tau) is 0: no sample at all
            (dict(base_tau=1.000000001, levels=0), "exceeds the normalized duration"),
            # an integer (L+1)*base_tau too large for a float
            (dict(base_tau=10**308, levels=1), "exceeds the normalized duration"),
            (dict(base_tau=5e-324), "no finite sample budget"),
            (dict(frames=20, speeds=(1,), harmonics=1), "frames must be >= 25"),
            (dict(trials=99), "trials must be >= 100, got 99"),
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


@st.composite
def model_fields(draw):
    """Latent-model and skip fields: all in range, except that one of them
    may be drawn from a wider range (often invalid) instead."""
    k = draw(st.integers(1, 8))
    levels = draw(st.integers(0, 5))
    edge_taus = st.sampled_from([5e-324, 1e-308, 1.0, 1.000000001, 1.000000002]).map(lambda t: t / (levels + 1))
    fields = {
        "d": (st.integers(k, k + 8), st.integers(1, k + 8)),
        "gammas": (
            st.lists(st.floats(1e-6, 50.0), min_size=k, max_size=k).map(sorted),
            st.lists(st.floats(-1.0, 50.0), max_size=9),
        ),
        "c": (st.floats(0.0, 1.0, exclude_max=True), st.floats(-1.0, 2.0)),
        "sigma": (st.floats(0.0, 10.0), st.floats(-1.0, 10.0)),
        "base_tau": (st.floats(1e-6, 1.0 / (levels + 1)), st.floats(0.0, 1.2 / (levels + 1)) | edge_taus),
    }
    wild = draw(st.sampled_from([None, *fields]))
    drawn = {name: draw(wide if name == wild else valid) for name, (valid, wide) in fields.items()}
    return dict(seed=draw(st.integers(0, 2**32)), k=k, levels=levels, **drawn)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(fields=model_fields())
@example(fields=dict(seed=0, k=2, d=1, gammas=[1.0, 2.0], c=0.0, sigma=0.0, base_tau=0.01, levels=0))
@example(fields=dict(seed=0, k=1, d=1, gammas=[1.0], c=0.0, sigma=0.0, base_tau=1.000000001, levels=0))
def test_every_accepted_config_builds_its_model_and_schedule(fields):
    """The config is the one gate: past it, the model and every level of
    the theory schedule build without a check of their own."""
    try:
        config = ExperimentConfig(**fields)
    except ValueError:
        assume(False)
    model = new_model(config.k, config.d, config.gammas, config.c, config.sigma, config.seed)
    assert model.xbar.shape == (config.d, config.k)
    np.testing.assert_allclose(model.xbar.T @ model.xbar, np.eye(config.k), atol=1e-10)
    schedule = schedule_of(config)
    assert all(schedule.budget(level) >= 1 for level in range(config.levels + 1))


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

    def test_readme_module_constants_match_the_code(self):
        """README's sentence on the limits that are module constants, not
        config fields, gives their values."""
        text = " ".join(README.read_text().split())
        found = re.search(
            r"EM \((\S+) iterations, tolerance (\S+)\), the SVM \((\S+) epochs, tolerance (\S+)\)"
            r" and the template decorrelation threshold \((\S+)\) are module constants",
            text,
        )
        assert found is not None
        em_iters, em_tol, svm_epochs, svm_tol, threshold = map(float, found.groups())
        assert (em_iters, em_tol) == (EM_MAX_ITERS, EM_TOL)
        assert (svm_epochs, svm_tol) == (SVM_EPOCHS, SVM_TOL)
        assert threshold == MAX_TEMPLATE_CORRELATION
