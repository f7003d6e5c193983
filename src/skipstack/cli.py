"""Command-line harness for models, simulations and the recognition pipeline.

Every verb reads one JSON config (plus flag overrides), writes its
outputs under the config's output directory and finishes with a manifest
recording the config hash and a checksum per output file, so identical
config + seed reruns are byte-identical end to end.

Exit codes: 0 success, 2 config or validation error or out of memory,
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, container
from .classify import (
    EvalReport,
    evaluate,
    load_classifier,
    save_classifier,
    svm_train_many,
)
from .conditioning import (
    bernstein_coverage_test,
    coverage_experiment,
    spectrum_curve,
    theorem1_bounds,
    theorem2_bounds,
)
from .config import ExperimentConfig, config_hash, load_config, schedule_of
from .dataset import generate_dataset, load_dataset, save_dataset
from .encoder import ConvergenceError, save_codec
from .features import SkipSchedule, level_cost_report, mifs_stack
from .latent import new_model, save_model
from .pipeline import encode, recognition_grid
from .streams import stream
from .svg import Series, bar_chart, line_chart

PLOT_HEADERS = {
    "spectrum": ["level", "index", "sigma_normalized"],
    "coverage": ["case", "trial", "beta", "lower", "upper", "within"],
    "accuracy-grid": ["label", "macc", "map", "cost"],
}


# --- output helpers -------------------------------------------------------


def _jsonable(value):
    """JSON-safe copy: numpy scalars become Python ones, non-finite floats strings."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else str(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
    return path


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, config: ExperimentConfig, outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "config_sha256": config_hash(config),
        "numpy": np.__version__,
        "outputs": {path.name: _sha256(path) for path in sorted(outputs)},
        "version": __version__,
    }
    _write_json(out / f"{command}-manifest.json", manifest)


def _model_of(config: ExperimentConfig):
    return new_model(config.k, config.d, config.gammas, config.c, config.sigma, config.seed)


def _summary_record(summary) -> dict:
    return {
        "bound_lower": summary.bound_lower,
        "bound_upper": summary.bound_upper,
        "coverage": summary.coverage,
        "delta_tau": summary.delta_tau,
        "mean_beta": summary.mean_beta,
        "var_beta": summary.var_beta,
    }


def _report_record(report: EvalReport) -> dict:
    return {
        "macc": report.macc,
        "map": report.mean_ap,
        "per_class": [
            {
                "accuracy": item.accuracy,
                "average_precision": item.average_precision,
                "label": item.label,
                "support": item.support,
            }
            for item in report.per_class
        ],
    }


# --- verbs ----------------------------------------------------------------


def cmd_model_gen(config: ExperimentConfig, out: Path, args) -> list[Path]:
    path = out / "model.json"
    save_model(_model_of(config), path)
    return [path]


def cmd_sim_condition(config: ExperimentConfig, out: Path, args) -> list[Path]:
    model = _model_of(config)
    schedule = schedule_of(config)
    cases = {
        "fixed": coverage_experiment(
            model, schedule.base_tau, config.delta, config.trials, config.seed
        ),
        "stacked": coverage_experiment(
            model, schedule, config.delta, config.trials, config.seed
        ),
    }
    rows = (
        (case, trial, beta, summary.bound_lower, summary.bound_upper, int(within))
        for case, summary in cases.items()
        for trial, (beta, within) in enumerate(zip(summary.betas, summary.within))
    )
    table = _write_csv(out / "coverage.csv", PLOT_HEADERS["coverage"], rows)
    summary = _write_json(
        out / "coverage-summary.json",
        {case: _summary_record(item) for case, item in cases.items()},
    )
    return [table, summary]


def cmd_sim_bounds(config: ExperimentConfig, out: Path, args) -> list[Path]:
    model = _model_of(config)
    schedule = schedule_of(config)
    rows = []
    for level in schedule.included_levels:
        tau, t = schedule.tau(level), schedule.budget(level)
        report = theorem1_bounds(
            model.gammas[0], model.gammas[-1], model.c, tau, model.k, t, config.delta
        )
        rows.append(
            (f"level {level}", tau, t, report.bound_lower, report.bound_upper, report.delta_tau)
        )
    stacked = theorem2_bounds(model.gammas, model.c, schedule, config.delta)
    rows.append(
        (
            "stacked",
            schedule.base_tau,
            sum(row[2] for row in rows),
            stacked.bound_lower,
            stacked.bound_upper,
            stacked.delta_tau,
        )
    )
    header = ["case", "tau", "t", "lower", "upper", "delta_tau"]
    return [_write_csv(out / "bounds.csv", header, rows)]


def cmd_bernstein_check(config: ExperimentConfig, out: Path, args) -> list[Path]:
    budget = schedule_of(config).budget(0)
    b = 4.0
    exceedance = bernstein_coverage_test(
        config.k, budget, b, config.delta, config.trials, config.seed
    )
    payload = {
        "b": b,
        "delta": config.delta,
        "exceedance": exceedance,
        "n": budget,
        "p_dim": config.k,
        "trials": config.trials,
        "within_delta": exceedance <= config.delta,
    }
    return [_write_json(out / "bernstein.json", payload)]


def cmd_spectrum(config: ExperimentConfig, out: Path, args) -> list[Path]:
    model = _model_of(config)
    base_tau = schedule_of(config).base_tau
    rows = []
    for levels in range(config.levels + 1):
        schedule = SkipSchedule(base_tau=base_tau, levels=levels)
        stacked = mifs_stack(model, schedule, config.seed)
        sigmas = spectrum_curve(stacked.f if stacked.f is not None else stacked.p)
        rows.extend(
            (levels, index + 1, sigma) for index, sigma in enumerate(sigmas)
        )
    return [_write_csv(out / "spectrum.csv", PLOT_HEADERS["spectrum"], rows)]


def cmd_dataset_gen(config: ExperimentConfig, out: Path, args) -> list[Path]:
    path = out / "dataset.bin"
    save_dataset(path, generate_dataset(config))
    return [path]


def cmd_encode(config: ExperimentConfig, out: Path, args) -> list[Path]:
    data_path = Path(args.data) if args.data else out / "dataset.bin"
    ds = load_dataset(data_path)
    codec, encodings = encode(ds, schedule_of(config, ds.frames), config, stream(config.seed, 2))
    codec_path = out / "codec.json"
    save_codec(codec, codec_path)
    header = {
        "cols": int(encodings.shape[1]),
        "labels": ds.labels.tolist(),
        "test_idx": ds.test_idx.tolist(),
        "train_idx": ds.train_idx.tolist(),
        "zero_flags": [int(not row.any()) for row in encodings],
    }
    enc_path = out / "encodings.bin"
    container.write(enc_path, header, encodings)
    return [codec_path, enc_path]


def _read_encodings(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    header, matrix = container.read(path, container.ENCODINGS, ("cols",))
    return matrix.astype(float), header["labels"], header["train_idx"], header["test_idx"]


def cmd_train(config: ExperimentConfig, out: Path, args) -> list[Path]:
    enc_path = Path(args.encodings) if args.encodings else out / "encodings.bin"
    matrix, labels, train_idx, _ = _read_encodings(enc_path)
    [classifier] = svm_train_many([matrix[train_idx]], labels[train_idx], config.svm_c, [(config.seed, 3)])
    path = out / "classifier.json"
    save_classifier(classifier, path)
    return [path]


def cmd_evaluate(config: ExperimentConfig, out: Path, args) -> list[Path]:
    enc_path = Path(args.encodings) if args.encodings else out / "encodings.bin"
    clf_path = Path(args.classifier) if args.classifier else out / "classifier.json"
    matrix, labels, _, test_idx = _read_encodings(enc_path)
    classifier = load_classifier(clf_path)
    report = evaluate(classifier, matrix[test_idx], labels[test_idx])
    return [_write_json(out / "eval.json", _report_record(report))]


def cmd_run_recognition(config: ExperimentConfig, out: Path, args) -> list[Path]:
    runs = recognition_grid(generate_dataset(config), config)
    outputs = []
    for run in runs.values():
        record = {**_report_record(run.report), "cost": run.cost_total, "label": run.label}
        outputs.append(_write_json(out / f"report-{run.label}.json", record))
    rows = [(run.label, run.report.macc, run.report.mean_ap, run.cost_total) for run in runs.values()]
    outputs.append(_write_csv(out / "grid.csv", PLOT_HEADERS["accuracy-grid"], rows))
    return outputs


def cmd_cost_report(config: ExperimentConfig, out: Path, args) -> list[Path]:
    report = level_cost_report(schedule_of(config))
    rows = [(row.level, row.tau, row.count, row.relative) for row in report.rows]
    rows.append(("total", "", "", report.total_relative))
    header = ["level", "tau", "count", "relative"]
    return [_write_csv(out / "cost-report.csv", header, rows)]


def _read_plot_rows(path: Path, kind: str) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except csv.Error as exc:
        raise ValueError(f"{path} is not a readable CSV: {exc}") from None
    if not table:
        raise ValueError(f"{path} is empty")
    header, rows = table[0], table[1:]
    if header != PLOT_HEADERS[kind]:
        raise ValueError(
            f"{path} header {header} does not match {kind} schema {PLOT_HEADERS[kind]}"
        )
    if not rows:
        raise ValueError(f"{path} has no data rows")
    for number, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ValueError(f"{path} data row {number} has {len(row)} fields, not {len(header)}")
    return [dict(zip(header, row)) for row in rows]


def cmd_plot(config: ExperimentConfig, out: Path, args) -> list[Path]:
    rows = _read_plot_rows(Path(args.csv_path), args.kind)
    if args.kind == "spectrum":
        by_level: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            by_level.setdefault(row["level"], []).append(
                (float(row["index"]), float(row["sigma_normalized"]))
            )
        series = [
            Series(name=f"L={level}", points=tuple(points))
            for level, points in by_level.items()
        ]
        document = line_chart(
            series, title="normalized singular spectrum", x_label="index", y_label="sigma_i / sigma_1"
        )
    elif args.kind == "coverage":
        series = []
        for case in dict.fromkeys(row["case"] for row in rows):
            case_rows = [row for row in rows if row["case"] == case]
            betas = tuple(
                (float(row["trial"]), float(row["beta"])) for row in case_rows
            )
            series.append(Series(name=case, points=betas))
            for bound in ("lower", "upper"):
                value = float(case_rows[0][bound])
                if math.isfinite(value):
                    xs = [float(row["trial"]) for row in case_rows]
                    series.append(
                        Series(
                            name=f"{case} {bound}",
                            points=((min(xs), value), (max(xs), value)),
                        )
                    )
        document = line_chart(series, title="condition number per trial", x_label="trial", y_label="beta")
    else:
        bars = [(row["label"], float(row["macc"])) for row in rows]
        document = bar_chart(bars, title="mean accuracy by schedule", y_label="MAcc")
    path = out / f"{args.kind}.svg"
    path.write_text(document)
    return [path]


# --- argument parsing -----------------------------------------------------

COMMANDS = {
    "model-gen": (cmd_model_gen, "write the latent model as JSON"),
    "sim-condition": (cmd_sim_condition, "Monte-Carlo sandwich coverage, fixed skip vs stacked"),
    "sim-bounds": (cmd_sim_bounds, "per-level and stacked condition-number bounds"),
    "bernstein-check": (cmd_bernstein_check, "concentration exceedance check"),
    "spectrum": (cmd_spectrum, "normalized singular spectra per stack depth"),
    "dataset-gen": (cmd_dataset_gen, "generate the synthetic multi-speed dataset"),
    "encode": (cmd_encode, "fit the codec on the training split and encode all samples"),
    "train": (cmd_train, "train the one-vs-all classifier on the encodings"),
    "evaluate": (cmd_evaluate, "score the classifier on the test split"),
    "run-recognition": (cmd_run_recognition, "full grid: singles and stacks, one report each"),
    "cost-report": (cmd_cost_report, "feature-count cost per level"),
    "plot": (cmd_plot, "render a CSV as a deterministic SVG"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="override the output directory")
    parser = argparse.ArgumentParser(prog="skipstack", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (handler, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(name, parents=[common], help=help_text)
        sub.set_defaults(handler=handler)
        if name == "encode":
            sub.add_argument("--data", help="dataset file (default: <out>/dataset.bin)")
        if name in ("train", "evaluate"):
            sub.add_argument("--encodings", help="encodings file (default: <out>/encodings.bin)")
        if name == "evaluate":
            sub.add_argument("--classifier", help="classifier file (default: <out>/classifier.json)")
        if name == "plot":
            sub.add_argument("csv_path", help="CSV file to render")
            sub.add_argument(
                "--kind", required=True, choices=tuple(PLOT_HEADERS), help="CSV schema"
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        outputs = args.handler(config, out, args)
        _write_manifest(out, args.command, config, outputs)
    except (ConvergenceError, ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceError) else 4 if isinstance(exc, OSError) else 2
    for path in outputs:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
