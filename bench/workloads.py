"""Workload definitions and the checks on their outputs.

Each workload is a list of CLI verbs run in one fresh process per pass.
``grid-2w`` is not declared in ``BENCHMARK.json``: it runs only when named
(or with ``--workload all``), because the run budget of the declared set
cannot give two 12-16 s grid workloads enough passes each.
Every verb has a check that reads what it wrote and returns a list of
problems (empty when the output is right), and a corruption that breaks
one of those outputs while keeping its manifest consistent, so the check
itself is tested on every run: a corrupted copy must fail it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID_LABELS = ["L=0", "L=1-0", "L=2-0-1", "L=3-0-1-2", "L=1", "L=2", "L=3"]
ENCODE_SAMPLES = 5 * 3 * 60  # n_classes x speeds x samples_per_cell
NORM_TOLERANCE = 1e-4  # float32 rows of unit norm


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    verbs: tuple[str, ...]
    # None: the config seed is the run's --seed; an int pins it
    fixed_seed: int | None = None
    threads: int = 1
    # untraced passes a run takes even when they end past --seconds
    min_passes: int = 1

    @property
    def is_grid(self) -> bool:
        return "run-recognition" in self.verbs

    def config_seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed

    def argv(self, config_path: Path, out: Path) -> list[list[str]]:
        common = ["--config", str(config_path), "--out", str(out)]
        if self.threads != 1:
            # one worker is the CLI's default; naming --threads only where it
            # differs keeps the other workloads independent of the flag
            common += ["--threads", str(self.threads)]
        return [[verb, *common] for verb in self.verbs]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid",
            config={},
            verbs=("run-recognition",),
            fixed_seed=0,
            min_passes=3,
        ),
        Workload(
            name="grid-2w",
            config={},
            verbs=("run-recognition",),
            fixed_seed=0,
            threads=2,
            min_passes=3,
        ),
        Workload(
            name="encode",
            config={
                "levels": 3,
                "samples_per_cell": 60,
                "frames": 192,
                "gmm_components": 16,
                "train_budget": 40000,
            },
            verbs=("dataset-gen", "encode"),
        ),
        Workload(
            name="theory",
            config={
                "gammas": [0.00125, 0.00125, 0.005, 0.005],
                "base_tau": 0.0025,
                "levels": 3,
                "trials": 3000,
                "delta": 0.1,
            },
            verbs=("sim-condition", "bernstein-check", "spectrum"),
        ),
    )
}


# --- manifests ----------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_outputs(out: Path, verb: str) -> dict[str, str]:
    return json.loads((out / f"{verb}-manifest.json").read_text())["outputs"]


def _check_manifest(out: Path, verb: str) -> list[str]:
    try:
        outputs = manifest_outputs(out, verb)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{verb}: unreadable manifest ({exc})"]
    return [
        f"{verb}: {name} does not match its manifest SHA-256"
        for name, digest in outputs.items()
        if not (out / name).is_file() or _sha256(out / name) != digest
    ]


def _rehash(out: Path, verb: str, name: str) -> None:
    """Make the manifest agree with a deliberately edited output."""
    path = out / f"{verb}-manifest.json"
    manifest = json.loads(path.read_text())
    manifest["outputs"][name] = _sha256(out / name)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _write_table(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_binary(path: Path) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        return header, fh.read()


# --- content checks -----------------------------------------------------------


def grid_macc(out: Path) -> list[float]:
    _, rows = _read_table(out / "grid.csv")
    return [float(row[1]) for row in rows]


def _check_grid(out: Path) -> list[str]:
    header, rows = _read_table(out / "grid.csv")
    problems = []
    if header != ["label", "macc", "map", "cost"]:
        problems.append(f"grid.csv header is {header}")
    labels = [row[0] for row in rows]
    if labels != GRID_LABELS:
        problems.append(f"grid.csv labels are {labels}, expected {GRID_LABELS}")
    for row in rows:
        for value in row[1:3]:
            if not 0.0 <= float(value) <= 100.0:
                problems.append(f"grid.csv {row[0]}: {value} outside [0, 100]")
    return problems


def _check_dataset(out: Path) -> list[str]:
    header, payload = _read_binary(out / "dataset.bin")
    n = len(header["labels"])
    values = n * header["frames"] * header["channels"]
    if n != ENCODE_SAMPLES:
        return [f"dataset.bin holds {n} samples, expected {ENCODE_SAMPLES}"]
    if len(payload) != 4 * values:
        return [f"dataset.bin payload is {len(payload)} bytes, expected {4 * values}"]
    if not np.isfinite(np.frombuffer(payload, dtype="<f4")).all():
        return ["dataset.bin holds non-finite values"]
    return []


def _check_encodings(out: Path) -> list[str]:
    header, payload = _read_binary(out / "encodings.bin")
    n, cols = len(header["labels"]), header["cols"]
    if n != ENCODE_SAMPLES:
        return [f"encodings.bin has {n} rows, expected one per sample ({ENCODE_SAMPLES})"]
    if len(payload) != 4 * n * cols:
        return [f"encodings.bin payload is {len(payload)} bytes, expected {4 * n * cols}"]
    matrix = np.frombuffer(payload, dtype="<f4").reshape(n, cols).astype(float)
    if not np.isfinite(matrix).all():
        return ["encodings.bin holds non-finite values"]
    norms = np.linalg.norm(matrix, axis=1)
    flags = np.asarray(header["zero_flags"], dtype=bool)
    bad = np.flatnonzero(np.where(flags, norms != 0.0, np.abs(norms - 1.0) > NORM_TOLERANCE))
    if bad.size:
        return [f"encodings.bin rows {bad[:5].tolist()} are neither unit-norm nor zero-flagged"]
    return []


def _check_coverage(out: Path) -> list[str]:
    summary = json.loads((out / "coverage-summary.json").read_text())
    fixed, stacked = summary["fixed"], summary["stacked"]
    beta_fixed, beta_stacked = float(fixed["mean_beta"]), float(stacked["mean_beta"])
    problems = []
    if not math.isfinite(beta_stacked) or not beta_stacked < beta_fixed:
        problems.append(f"stacked mean_beta {beta_stacked} is not finite and below fixed {beta_fixed}")
    delta = WORKLOADS["theory"].config["delta"]
    if not float(stacked["coverage"]) >= 1.0 - delta:
        problems.append(f"stacked coverage {stacked['coverage']} below 1 - delta = {1.0 - delta}")
    return problems


def _check_bernstein(out: Path) -> list[str]:
    report = json.loads((out / "bernstein.json").read_text())
    if report["within_delta"] is not True:
        return [f"bernstein.json: within_delta is {report['within_delta']} (exceedance {report['exceedance']})"]
    return []


def _check_spectrum(out: Path) -> list[str]:
    header, rows = _read_table(out / "spectrum.csv")
    curves: dict[str, list[float]] = {}
    for level, _index, sigma in rows:
        curves.setdefault(level, []).append(float(sigma))
    problems = [] if header == ["level", "index", "sigma_normalized"] else [f"spectrum.csv header is {header}"]
    if sorted(curves) != [str(level) for level in range(4)]:
        problems.append(f"spectrum.csv levels are {sorted(curves)}")
    for level, sigmas in curves.items():
        if sigmas[0] != 1.0 or any(b > a for a, b in zip(sigmas, sigmas[1:])):
            problems.append(f"spectrum level {level} is not a non-increasing curve from 1")
    return problems


# --- corruptions: each must make its verb's check fail --------------------------


def _corrupt_grid(out: Path) -> None:
    header, rows = _read_table(out / "grid.csv")
    rows[0][1] = "101.0"
    _write_table(out / "grid.csv", header, rows)
    _rehash(out, "run-recognition", "grid.csv")


def _corrupt_dataset(out: Path) -> None:
    path = out / "dataset.bin"
    path.write_bytes(path.read_bytes()[:-4])
    _rehash(out, "dataset-gen", "dataset.bin")


def _corrupt_encodings(out: Path) -> None:
    path = out / "encodings.bin"
    header, payload = _read_binary(path)
    cols = header["cols"]
    row = np.frombuffer(payload[: 4 * cols], dtype="<f4") * np.float32(2.0)
    path.write_bytes(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
                     + row.astype("<f4").tobytes() + payload[4 * cols:])
    _rehash(out, "encode", "encodings.bin")


def _corrupt_coverage(out: Path) -> None:
    path = out / "coverage-summary.json"
    summary = json.loads(path.read_text())
    summary["stacked"]["coverage"] = 0.5
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    _rehash(out, "sim-condition", "coverage-summary.json")


def _corrupt_bernstein(out: Path) -> None:
    path = out / "bernstein.json"
    report = json.loads(path.read_text())
    report["within_delta"] = False
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    _rehash(out, "bernstein-check", "bernstein.json")


def _corrupt_spectrum(out: Path) -> None:
    header, rows = _read_table(out / "spectrum.csv")
    rows[1][2], rows[2][2] = rows[2][2], rows[1][2]
    _write_table(out / "spectrum.csv", header, rows)
    _rehash(out, "spectrum", "spectrum.csv")


def _corrupt_manifest(out: Path, verb: str) -> None:
    """Change an output's bytes without telling the manifest."""
    name = sorted(manifest_outputs(out, verb))[0]
    with open(out / name, "ab") as fh:
        fh.write(b"\n")


CHECKS = {
    "run-recognition": (_check_grid, _corrupt_grid),
    "dataset-gen": (_check_dataset, _corrupt_dataset),
    "encode": (_check_encodings, _corrupt_encodings),
    "sim-condition": (_check_coverage, _corrupt_coverage),
    "bernstein-check": (_check_bernstein, _corrupt_bernstein),
    "spectrum": (_check_spectrum, _corrupt_spectrum),
}


def check(out: Path, verb: str) -> list[str]:
    """Problems with what ``verb`` wrote to ``out``; empty when correct."""
    problems = _check_manifest(out, verb)
    if problems:
        return problems
    try:
        return CHECKS[verb][0](out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{verb}: unreadable output ({exc!r})"]


def corruptions(verb: str):
    """Ways to break ``verb``'s output that ``check`` must catch."""
    return [("content", CHECKS[verb][1]), ("bytes", lambda out: _corrupt_manifest(out, verb))]
