"""End-to-end tests for the command-line harness.

Every test drives ``main`` in-process with a throwaway config file, so
exit codes, output files and manifests are checked exactly as a shell
user would see them.
"""

import argparse
import csv
import hashlib
import itertools
import json
import re
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from skipstack.classify import save_classifier, svm_train_many
from skipstack.cli import COMMANDS, _build_parser, _write_json, main
from skipstack.conditioning import spectrum_curve, theorem1_bounds, theorem2_bounds
from skipstack.config import config_hash, load_config, schedule_of
from skipstack.dataset import load_dataset
from skipstack.encoder import ConvergenceError
from skipstack.features import SkipSchedule, budget, mifs_stack
from skipstack.latent import new_model, save_model
from skipstack.pipeline import encode
from skipstack.streams import stream

# small enough that the full verb chain stays in the seconds range
BASE_CONFIG = {
    "seed": 0,
    "k": 4,
    "d": 8,
    "gammas": [0.005, 0.01, 0.04, 0.08],
    "levels": 1,
    "trials": 100,
    "n_classes": 3,
    "speeds": [1, 2],
    "samples_per_cell": 4,
    "frames": 48,
    "channels": 2,
    "noise_sigma": 0.1,
    "gmm_components": 4,
}

ALLOWED_SVG_TAGS = {"svg", "path", "line", "text"}
README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(directory: Path, **overrides) -> Path:
    merged = {**BASE_CONFIG, **overrides}
    merged = {key: value for key, value in merged.items() if value is not None}
    path = directory / "config.json"
    path.write_text(json.dumps(merged))
    return path


def run(cfg: Path, out: Path, *argv: str) -> int:
    command, *rest = argv
    return main([command, "--config", str(cfg), "--out", str(out), *rest])


def run_for_stderr(capsys, cfg: Path, out: Path, *argv: str) -> tuple[int, list[str]]:
    """run() plus the lines a shell user would see on stderr, the
    Python warnings that pytest would otherwise capture included."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(cfg, out, *argv)
    shown = [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, shown + capsys.readouterr().err.splitlines()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def svg_tags(path: Path) -> set[str]:
    root = ET.fromstring(path.read_text())
    return {element.tag.rsplit("}", 1)[-1] for element in root.iter()}


class TestModelGen:
    def test_writes_model_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run(cfg, out, "model-gen") == 0
        doc = json.loads((out / "model.json").read_text())
        assert (doc["d"], doc["k"], len(doc["xbar"])) == (8, 4, 32)
        manifest = json.loads((out / "model-gen-manifest.json").read_text())
        assert set(manifest) == {"command", "config_sha256", "numpy", "outputs", "version"}
        assert manifest["command"] == "model-gen"
        assert manifest["numpy"] == np.__version__
        expected = load_config(cfg, {"out_dir": str(out)})
        assert manifest["config_sha256"] == config_hash(expected)
        digest = hashlib.sha256((out / "model.json").read_bytes()).hexdigest()
        assert manifest["outputs"] == {"model.json": digest}

    def test_matches_direct_construction(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run(cfg, out, "model-gen")
        save_model(new_model(4, 8, (0.005, 0.01, 0.04, 0.08), 0.1, 0.0, 0), tmp_path / "direct.json")
        assert (out / "model.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run(cfg, out, "model-gen") == 0
        assert (tmp_path / "a" / "model.json").read_bytes() == (
            tmp_path / "b" / "model.json"
        ).read_bytes()

    def test_seed_flag_beats_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run(cfg, out, "model-gen", "--seed", "7")
        save_model(new_model(4, 8, (0.005, 0.01, 0.04, 0.08), 0.1, 0.0, 7), tmp_path / "direct.json")
        assert (out / "model.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    def test_unsorted_gammas_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gammas=[0.08, 0.005, 0.01, 0.04])
        assert run(cfg, tmp_path / "out", "model-gen") == 2
        assert "gammas" in capsys.readouterr().err

    def test_missing_seed_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=None)
        assert run(cfg, tmp_path / "out", "model-gen") == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_alone_suffices(self, tmp_path):
        out = tmp_path / "out"
        assert main(["model-gen", "--seed", "0", "--out", str(out)]) == 0
        assert (out / "model.json").exists()


class TestSimulationVerbs:
    def test_sim_condition_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run(cfg, out, "sim-condition") == 0
        rows = read_rows(out / "coverage.csv")
        assert len(rows) == 2 * BASE_CONFIG["trials"]
        assert {row["case"] for row in rows} == {"fixed", "stacked"}
        summary = json.loads((out / "coverage-summary.json").read_text())
        for case in ("fixed", "stacked"):
            assert set(summary[case]) == {
                "bound_lower",
                "bound_upper",
                "coverage",
                "delta_tau",
                "mean_beta",
                "var_beta",
            }
            assert 0.0 <= summary[case]["coverage"] <= 1.0

    def test_sim_bounds_covers_levels_and_stack(self, tmp_path):
        cfg = write_config(tmp_path, levels=2)
        out = tmp_path / "out"
        assert run(cfg, out, "sim-bounds") == 0
        rows = read_rows(out / "bounds.csv")
        assert [row["case"] for row in rows] == ["level 0", "level 1", "level 2", "stacked"]
        for row in rows:
            assert float(row["lower"]) <= float(row["upper"])

    def test_sim_bounds_rows_are_the_library_bounds(self, tmp_path):
        """On README's quick-start config every row holds exactly what
        theorem1_bounds (per level) and theorem2_bounds (stacked) return."""
        text = README.read_text()
        quick_start = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(quick_start))
        out = tmp_path / "out"
        assert run(cfg, out, "sim-bounds") == 0
        config = load_config(cfg)
        schedule = schedule_of(config)
        g1, gk = config.gammas[0], config.gammas[-1]
        expected = [
            theorem1_bounds(
                g1, gk, config.c, schedule.tau(l), config.k, schedule.budget(l), config.delta
            )
            for l in schedule.included_levels
        ] + [theorem2_bounds(config.gammas, config.c, schedule, config.delta)]
        rows = read_rows(out / "bounds.csv")
        assert [row["case"] for row in rows] == ["level 0", "level 1", "level 2", "stacked"]
        for row, report in zip(rows, expected):
            assert float(row["lower"]) == report.bound_lower
            assert float(row["upper"]) == report.bound_upper
            assert float(row["delta_tau"]) == report.delta_tau

    @pytest.mark.parametrize(
        "verb, overrides, message",
        [
            ("sim-bounds", dict(gammas=[]), "gammas must have length k=4"),
            ("sim-bounds", dict(gammas=[1, 1, 8], k=4), "gammas must have length k=4"),
            ("sim-bounds", dict(gammas=[-10] * 4, base_tau=1e-4), "gammas must be positive"),
            ("sim-bounds", dict(c=3.0), "c must lie in [0, 1)"),
            # each level's budget is finite, but their float sum overflows
            ("sim-bounds", dict(base_tau=1.1125369292536007e-308, levels=3), "not finite"),
            ("cost-report", dict(base_tau=5e-324), "no finite sample budget"),
            ("sim-bounds", dict(base_tau=5e-324), "no finite sample budget"),
            ("bernstein-check", dict(base_tau=5e-324), "no finite sample budget"),
            # the noise overflows to inf and NaN; LAPACK's eigensolver used to
            # fail on it with "Eigenvalues did not converge"
            ("spectrum", dict(sigma=1e308), "matrix has non-finite entries"),
            # the Gram overflows; LAPACK failed on it after a matmul warning
            ("spectrum", dict(gammas=[0.00125, 0.00125, 0.005, 0.005], base_tau=0.0025, levels=3, sigma=1e160),
             "matrix has non-finite entries"),
            # the Gram underflows to zero; the curve came out NaN after a divide warning
            ("spectrum", dict(gammas=None, levels=None, sigma=1e-170), "or is all-zero"),
            # bernstein-check reads k without building a model; k 0 divided by zero
            ("bernstein-check", dict(k=0), "k must be >= 1"),
            # 8 EB for the per-trial values: beyond any address space
            ("sim-condition", dict(trials=10**18), "Unable to allocate"),
            ("bernstein-check", dict(trials=10**18), "Unable to allocate"),
        ],
    )
    def test_bad_theory_input_exit_2(self, tmp_path, capsys, verb, overrides, message):
        code, err = run_for_stderr(capsys, write_config(tmp_path, **overrides), tmp_path / "out", verb)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]

    def test_tiny_skip_bounds_are_written_quietly(self, tmp_path, capsys):
        # gamma_k / tau = 8 / 2e-308 overflows to inf; exp(-inf) = 0, so the
        # upper bound is inf and nothing is worth a warning
        out = tmp_path / "out"
        cfg = write_config(tmp_path, gammas=None, base_tau=2e-308, levels=0)
        assert run_for_stderr(capsys, cfg, out, "sim-bounds") == (0, [])
        row = f"2e-308,{budget(2e-308)},1.0,inf,1.241963516132904e-153\n"
        header = "case,tau,t,lower,upper,delta_tau\n"
        assert (out / "bounds.csv").read_text() == header + "level 0," + row + "stacked," + row

    def test_bernstein_check_reports_exceedance(self, tmp_path):
        cfg = write_config(tmp_path, trials=200)
        out = tmp_path / "out"
        assert run(cfg, out, "bernstein-check") == 0
        payload = json.loads((out / "bernstein.json").read_text())
        assert payload["trials"] == 200
        assert payload["within_delta"] == (payload["exceedance"] <= payload["delta"])

    def test_spectrum_matches_library(self, tmp_path):
        cfg = write_config(tmp_path, levels=2)
        out = tmp_path / "out"
        assert run(cfg, out, "spectrum") == 0
        rows = read_rows(out / "spectrum.csv")
        assert {row["level"] for row in rows} == {"0", "1", "2"}
        model = new_model(4, 8, (0.005, 0.01, 0.04, 0.08), 0.1, 0.0, 0)
        stacked = mifs_stack(model, SkipSchedule(base_tau=0.01, levels=0), 0)
        expected = spectrum_curve(stacked.p)
        got = [float(row["sigma_normalized"]) for row in rows if row["level"] == "0"]
        assert got == pytest.approx(expected)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """dataset-gen, encode, train and evaluate run once into one directory."""
    root = tmp_path_factory.mktemp("chain")
    cfg = write_config(root)
    out = root / "out"
    for verb in ("dataset-gen", "encode", "train", "evaluate"):
        assert run(cfg, out, verb) == 0
    return out


class TestDataVerbs:
    def test_dataset_round_trips(self, chain):
        ds = load_dataset(chain / "dataset.bin")
        assert ds.series.shape == (24, 48, 2)
        assert len(ds.train_idx) + len(ds.test_idx) == 24

    def test_encodings_header_and_payload(self, chain):
        with open(chain / "encodings.bin", "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        assert len(header["labels"]) == 24
        # matrix payload convention: little-endian 32-bit floats
        assert len(payload) == 24 * header["cols"] * 4

    def test_encodings_are_the_encode_stage(self, chain):
        config = load_config(chain.parent / "config.json")
        ds = load_dataset(chain / "dataset.bin")
        _, x = encode(ds, schedule_of(config, ds.frames), config, stream(config.seed, 2))
        line, payload = (chain / "encodings.bin").read_bytes().split(b"\n", 1)
        assert payload == x.astype("<f4").tobytes()
        # a flag marks an all-zero row, and no row is one
        assert json.loads(line)["zero_flags"] == [int(not row.any()) for row in x] == [0] * len(x)

    def test_eval_keys_are_exactly_the_contract(self, chain):
        report = json.loads((chain / "eval.json").read_text())
        assert set(report) == {"macc", "map", "per_class"}
        assert 0.0 <= report["macc"] <= 100.0
        assert len(report["per_class"]) == 3

    def test_every_verb_leaves_a_manifest(self, chain):
        for verb in ("dataset-gen", "encode", "train", "evaluate"):
            manifest = json.loads((chain / f"{verb}-manifest.json").read_text())
            for name, digest in manifest["outputs"].items():
                recomputed = hashlib.sha256((chain / name).read_bytes()).hexdigest()
                assert recomputed == digest

    def test_constant_descriptor_column_encodes(self, tmp_path):
        # one window per sample: every descriptor's location coordinate is 0.5
        cfg = tmp_path / "config.json"
        config = {"seed": 0, "levels": 0, "frames": 81, "window": 80, "channels": 1}
        cfg.write_text(json.dumps(config))
        for verb in ("dataset-gen", "encode"):
            assert run(cfg, tmp_path / "out", verb) == 0

    def test_missing_dataset_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run(cfg, tmp_path / "out", "encode", "--data", str(tmp_path / "no.bin"))
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_codec_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run(cfg, out, "dataset-gen") == 0

        def explode(*args, **kwargs):
            raise ConvergenceError("mixture fit did not converge")

        monkeypatch.setattr("skipstack.pipeline.fit_codec", explode)
        assert run(cfg, out, "encode") == 3
        assert "converge" in capsys.readouterr().err

    def test_truncated_encodings_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        bad = out / "encodings.bin"
        header = {"cols": 4, "labels": [0, 1], "test_idx": [1], "train_idx": [0], "zero_flags": [0, 0]}
        bad.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 8)
        assert run(cfg, out, "train") == 2
        assert "expected" in capsys.readouterr().err

    def test_non_finite_encodings_exit_2_on_evaluate(self, chain, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "classifier.json").write_bytes((chain / "classifier.json").read_bytes())
        line, payload = (chain / "encodings.bin").read_bytes().split(b"\n", 1)
        nans = np.full(len(payload) // 4, np.nan, dtype="<f4").tobytes()
        (out / "encodings.bin").write_bytes(line + b"\n" + nans)
        assert run(write_config(tmp_path), out, "evaluate") == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "eval.json").exists()

    def test_test_labels_without_a_model_exit_2_on_evaluate(self, chain, tmp_path, capsys):
        """A 3-class classifier scored on a 4-class split names class 3
        instead of dropping its samples from both means."""
        cfg = write_config(tmp_path, n_classes=4)
        wider = tmp_path / "wider"
        for verb in ("dataset-gen", "encode"):
            assert run(cfg, wider, verb) == 0
        out = tmp_path / "out"
        code = run(
            cfg, out, "evaluate",
            "--encodings", str(wider / "encodings.bin"), "--classifier", str(chain / "classifier.json"),
        )
        assert code == 2
        assert "no model for test labels [3]" in capsys.readouterr().err
        assert not (out / "eval.json").exists()

    @pytest.mark.parametrize(
        "verb, name, mangle",
        [
            ("train", "encodings.bin", lambda h: h.pop("labels")),
            ("evaluate", "encodings.bin", lambda h: h.update(test_idx=[999])),
            ("train", "encodings.bin", lambda h: h.update(cols=[h["cols"]])),
            ("encode", "dataset.bin", lambda h: h.pop("channels")),
            ("encode", "dataset.bin", lambda h: h.update(train_idx=[-1])),
            # scored on the training rows, these exited 0 with MAcc 100
            pytest.param("evaluate", "encodings.bin", lambda h: h.update(test_idx=h["train_idx"]), id="split-overlaps"),
            pytest.param("evaluate", "encodings.bin", lambda h: h.update(zero_flags=[1]), id="short-zero-flags"),
        ],
    )
    def test_malformed_header_exit_2(self, chain, tmp_path, capsys, verb, name, mangle):
        out = tmp_path / "out"
        out.mkdir()
        for source in ("dataset.bin", "encodings.bin", "classifier.json"):
            (out / source).write_bytes((chain / source).read_bytes())
        line, payload = (out / name).read_bytes().split(b"\n", 1)
        header = json.loads(line)
        mangle(header)
        (out / name).write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert run(write_config(tmp_path), out, verb) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and name in err

    @pytest.mark.parametrize("target", ["config.json", "encodings.bin", "classifier.json"])
    def test_deeply_nested_json_exit_2(self, chain, tmp_path, capsys, target):
        out = tmp_path / "out"
        out.mkdir()
        for source in ("encodings.bin", "classifier.json"):
            (out / source).write_bytes((chain / source).read_bytes())
        cfg = write_config(tmp_path)
        deep = b"[" * 100000 + b"]" * 100000
        (cfg if target == "config.json" else out / target).write_bytes(deep + b"\n")
        assert run(cfg, out, "evaluate") == 2
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize("verb, name", [("train", "encodings.bin"), ("encode", "dataset.bin")])
    def test_header_that_is_not_an_object_exit_2(self, tmp_path, capsys, verb, name):
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_bytes(b'["cols", "labels"]\n')
        assert run(write_config(tmp_path), out, verb) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"models": []}, "not a classifier"),
            ({"classes": [0, 1, 2], "models": []}, "3 classes but 0 models"),
            ([], "not a classifier"),
            ({"classes": [0], "models": [{"w": [1.0], "b": 0.0}]}, "not a classifier"),
            ({"classes": [0, 1], "models": [{"w": [1.0], "b": 0, "c": 1}] * 3}, "2 classes but 3"),
            ({"classes": ["a"], "models": [{"w": [1.0], "b": 0, "c": 1}]}, "integer labels"),
            ({"classes": [0, 1], "models": [{"w": [1.0], "b": 0, "c": 1}, {"w": [1.0, 2.0], "b": 0, "c": 1}]}, "one length"),
            ({"classes": [0, 0, 1], "models": [{"w": [1.0], "b": 0, "c": 1}] * 3}, "must not repeat"),
        ],
    )
    def test_malformed_classifier_exit_2(self, chain, tmp_path, capsys, document, message):
        bad = tmp_path / "classifier.json"
        bad.write_text(json.dumps(document))
        code = run(
            write_config(tmp_path), tmp_path / "out", "evaluate",
            "--encodings", str(chain / "encodings.bin"), "--classifier", str(bad),
        )
        assert code == 2
        assert message in capsys.readouterr().err


class TestTrainVerb:
    def test_classifier_is_svm_train_at_the_config_c(self, chain, tmp_path):
        cfg = write_config(tmp_path, svm_c=2.5)
        enc_path = chain / "encodings.bin"
        assert run(cfg, tmp_path / "out", "train", "--encodings", str(enc_path)) == 0
        line, payload = enc_path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        x = np.frombuffer(payload, dtype="<f4").reshape(-1, header["cols"]).astype(float)
        labels, train_idx = np.asarray(header["labels"]), np.asarray(header["train_idx"])
        config = load_config(cfg)
        expected = tmp_path / "expected.json"
        [clf] = svm_train_many([x[train_idx]], labels[train_idx], config.svm_c, [(config.seed, 3)])
        save_classifier(clf, expected)
        assert (tmp_path / "out" / "classifier.json").read_bytes() == expected.read_bytes()

    def test_cv_folds_is_an_unknown_field(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(write_config(tmp_path, cv_folds=3), out, "train") == 2
        assert "unknown config fields: cv_folds" in capsys.readouterr().err
        assert not out.exists()


# each latent-model fact with its message; the config checks them at load
MODEL_FACTS = [
    (dict(d=3), "d must be >= k, got d=3, k=4"),
    (dict(gammas=[0.005, 0.01]), "gammas must have length k=4, got 2"),
    (dict(gammas=[0.0, 0.01, 0.04, 0.08]), "gammas must be positive"),
    (dict(gammas=[0.01, 0.005, 0.04, 0.08]), "gammas must be sorted non-decreasing"),
    (dict(c=1.5), "c must lie in [0, 1), got 1.5"),
    (dict(sigma=-1.0), "sigma must be >= 0, got -1.0"),
]


class TestConfigErrors:
    @pytest.mark.parametrize(
        "verb, overrides, message",
        [
            ("run-recognition", dict(gmm_components=0), "gmm_components"),
            ("encode", dict(gmm_components=0), "gmm_components"),
            ("model-gen", dict(levels="3"), "levels must be of type int"),
            ("dataset-gen", dict(speeds=[5]), "speeds"),
            ("run-recognition", dict(window=0), "window"),
            ("train", dict(svm_c=-1.0), "svm_c"),
            ("sim-bounds", dict(base_tau=0), "base_tau must be > 0"),
        ]
        + [
            (verb, overrides, message)
            for verb in ("dataset-gen", "cost-report", "bernstein-check", "run-recognition")
            for overrides, message in MODEL_FACTS
        ]
        + [
            ("model-gen", dict(base_tau=0.3, levels=3), "exceeds the normalized duration"),
            ("model-gen", dict(frames=20, levels=3, speeds=[1], harmonics=1), "frames must be >= 25"),
        ]
        + [
            (verb, dict(trials=20), "trials must be >= 100, got 20")
            for verb in ("model-gen", "sim-bounds", "spectrum", "dataset-gen", "sim-condition", "bernstein-check")
        ],
    )
    def test_bad_field_exit_2_before_any_work(self, tmp_path, capsys, verb, overrides, message):
        out = tmp_path / "out"
        assert run(write_config(tmp_path, **overrides), out, verb) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("out_dir", 5), ("out_dir", None), ("seed", "x")])
    def test_flags_do_not_hide_a_mistyped_file_value(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, field: value}))
        out = tmp_path / "out"
        assert main(["model-gen", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 2
        assert f"{field} must be of type" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_hash_ignores_the_output_directory(self, tmp_path):
        cfg = write_config(tmp_path)
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run(cfg, out, "cost-report") == 0
        manifests = [json.loads((tmp_path / d / "cost-report-manifest.json").read_text()) for d in "ab"]
        assert manifests[0] == manifests[1]


class TestRunRecognition:
    def test_grid_labels_and_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run(cfg, out, "run-recognition") == 0
        rows = read_rows(out / "grid.csv")
        assert [row["label"] for row in rows] == ["L=0", "L=1-0", "L=1"]
        for row in rows:
            report = json.loads((out / f"report-{row['label']}.json").read_text())
            assert report["label"] == row["label"]
            assert report["macc"] == pytest.approx(float(row["macc"]))
            assert report["cost"] == pytest.approx(float(row["cost"]))

    def test_masked_schedule_joins_the_grid(self, tmp_path):
        cfg = write_config(tmp_path, levels=2, exclude=[0])
        out = tmp_path / "out"
        assert run(cfg, out, "run-recognition") == 0
        rows = read_rows(out / "grid.csv")
        assert [row["label"] for row in rows] == [
            "L=0",
            "L=1-0",
            "L=2-0-1",
            "L=1",
            "L=2",
            "L=2-0",
        ]
        masked = json.loads((out / "report-L=2-0.json").read_text())
        # levels 1 and 2 only: 24/48 + 16/48 of the base feature count
        assert masked["cost"] == pytest.approx(24 / 48 + 16 / 48)


class TestCostReport:
    def test_levels_2_counts_and_total(self, tmp_path):
        cfg = write_config(tmp_path, levels=2, base_tau=0.01)
        out = tmp_path / "out"
        assert run(cfg, out, "cost-report") == 0
        rows = read_rows(out / "cost-report.csv")
        assert [row["count"] for row in rows[:-1]] == ["100", "50", "33"]
        assert [float(row["relative"]) for row in rows[:-1]] == [1.0, 0.5, 0.33]
        assert rows[-1]["level"] == "total"
        assert float(rows[-1]["relative"]) == pytest.approx(1.83)


class TestPlot:
    @pytest.fixture()
    def grid_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "label,macc,map,cost\n"
            "L=0,81.25,83.25,1.0\n"
            "L=1,92.5,94.0,1.5\n"
            "L=2,95.0,96.5,1.83\n"
        )
        return path

    def test_spectrum_svg(self, tmp_path):
        cfg = write_config(tmp_path, levels=2)
        out = tmp_path / "out"
        run(cfg, out, "spectrum")
        assert run(cfg, out, "plot", str(out / "spectrum.csv"), "--kind", "spectrum") == 0
        assert svg_tags(out / "spectrum.svg") <= ALLOWED_SVG_TAGS

    def test_coverage_svg(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run(cfg, out, "sim-condition")
        assert run(cfg, out, "plot", str(out / "coverage.csv"), "--kind", "coverage") == 0
        assert svg_tags(out / "coverage.svg") <= ALLOWED_SVG_TAGS

    def test_accuracy_grid_svg_shows_labels(self, tmp_path, grid_csv):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run(cfg, out, "plot", str(grid_csv), "--kind", "accuracy-grid") == 0
        text = (out / "accuracy-grid.svg").read_text()
        assert "L=2" in text and "95.00" in text
        assert svg_tags(out / "accuracy-grid.svg") <= ALLOWED_SVG_TAGS

    def test_identical_input_identical_bytes(self, tmp_path, grid_csv):
        cfg = write_config(tmp_path)
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            assert run(cfg, out, "plot", str(grid_csv), "--kind", "accuracy-grid") == 0
        assert (outs[0] / "accuracy-grid.svg").read_bytes() == (
            outs[1] / "accuracy-grid.svg"
        ).read_bytes()

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("spectrum", "level,index,sigma_normalized\n0,-1e308,0.5\n0,1e308,1\n"),
            ("accuracy-grid", "label,macc,map,cost\nL=0,1.7e308,1,1\n"),
            ("accuracy-grid", "label,macc,map,cost\nL=0,-1.7e308,1,1\n"),
        ],
        ids=["line-x-span", "bar-top", "bar-below-axis"],
    )
    def test_range_overflowing_the_canvas_exit_2(self, tmp_path, capsys, kind, text):
        """A range whose scaled coordinates overflow a float is refused, not
        written as nan or inf."""
        cfg = write_config(tmp_path)
        path = tmp_path / "input.csv"
        path.write_text(text)
        out = tmp_path / "out"
        assert run(cfg, out, "plot", str(path), "--kind", kind) == 2
        assert "cannot scale the data onto the canvas" in capsys.readouterr().err
        assert not (out / f"{kind}.svg").exists()

    def test_empty_csv_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(cfg, tmp_path / "out", "plot", str(empty), "--kind", "spectrum") == 2
        assert "empty" in capsys.readouterr().err

    def test_wrong_schema_exit_2(self, tmp_path, grid_csv, capsys):
        cfg = write_config(tmp_path)
        assert run(cfg, tmp_path / "out", "plot", str(grid_csv), "--kind", "spectrum") == 2
        assert "schema" in capsys.readouterr().err

    def test_short_row_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        short = tmp_path / "coverage.csv"
        short.write_text("case,trial,beta,lower,upper,within\nfixed,0\n")
        assert run(cfg, tmp_path / "out", "plot", str(short), "--kind", "coverage") == 2
        assert "data row 1 has 2 fields, not 6" in capsys.readouterr().err

    def test_oversized_field_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        huge = tmp_path / "grid.csv"
        huge.write_text("label,macc,map,cost\n" + "x" * 200_000 + ",1,1,1\n")
        assert run(cfg, tmp_path / "out", "plot", str(huge), "--kind", "accuracy-grid") == 2
        assert "field larger than field limit" in capsys.readouterr().err


class TestParser:
    @pytest.mark.parametrize(
        "verb, flag",
        [
            ("model-gen", "--threads"),
            ("encode", "--threads"),
            ("model-gen", "--format"),
            ("train", "--format"),
            ("sim-bounds", "--format"),
            ("run-recognition", "--format"),
            ("cost-report", "--format"),
            ("run-recognition", "--threads"),
        ],
    )
    def test_flags_only_where_they_act(self, verb, flag):
        value = "2" if flag == "--threads" else "json"
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args([verb, flag, value])
        assert exc.value.code == 2

    def test_readme_flag_table_matches_the_parser(self):
        """README's per-command table lists every flag beyond the common
        ones on exactly the verbs that take it."""
        lines = README.read_text().splitlines()
        start = lines.index("| flag | commands |") + 2
        documented: dict[str, set[str]] = {}
        for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
            flags, verbs = re.split(r"(?<!\\)\|", line)[1:3]
            for flag in re.findall(r"`(--[a-z-]+)", flags):
                documented[flag] = set(re.findall(r"`([a-z-]+)`", verbs))
        subparsers = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        actual: dict[str, set[str]] = {}
        for verb, sub in subparsers.choices.items():
            for action in sub._actions:
                for flag in action.option_strings:
                    if flag not in ("--config", "--seed", "--out", "-h", "--help"):
                        actual.setdefault(flag, set()).add(verb)
        assert documented == actual

    def test_readme_command_table_matches_the_commands(self):
        """README's Commands table lists every verb, in order, with its help text."""
        lines = README.read_text().splitlines()
        start = lines.index("| command | what it does |") + 2
        documented = []
        for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
            verb, help_text = re.split(r"(?<!\\)\|", line)[1:3]
            documented.append((verb.strip().strip("`"), help_text.strip()))
        assert documented == [(verb, help_text) for verb, (_, help_text) in COMMANDS.items()]

    def test_unknown_config_file_exit_2(self, tmp_path, capsys):
        code = main(
            ["model-gen", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestWriteJson:
    def test_numpy_scalars_become_json(self, tmp_path):
        payload = {"flag": np.bool_(True), "count": np.int64(3), "rate": np.float64(0.5), "inf": np.inf}
        path = _write_json(tmp_path / "out.json", payload)
        assert json.loads(path.read_text()) == {"flag": True, "count": 3, "rate": 0.5, "inf": "inf"}
