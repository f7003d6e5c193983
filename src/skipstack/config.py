"""Experiment configuration: one flat record driving every CLI verb.

A config comes from a JSON file plus flag overrides (flags win) and is
validated once, when it is built, the latent model's and the skip
schedule's facts included; every layer reads this one record and trusts
them. Its canonical SHA-256 goes into every run manifest so outputs are
traceable to the exact settings that produced them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .features import SkipSchedule

ALLOWED_SPEEDS = (1, 2, 3, 4)


# JSON value checks per annotation: ints fit 64 bits (a bool is none), numbers are finite
_IS = {
    "int": lambda v: type(v) is int and -(2**63) <= v < 2**63,
    "float": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "str": lambda v: isinstance(v, str),
}


def _check_type(f, value) -> None:
    """Raise unless ``value`` has the JSON type of field ``f``'s annotation."""
    if f.type.startswith("tuple["):  # "tuple[int, ...]" checks each item as "int"
        ok = isinstance(value, (list, tuple)) and all(map(_IS[f.type[6:-6]], value))
    else:
        ok = _IS[f.type](value)
    if not ok:
        raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for the model, schedule, codec, classifier and harness."""

    seed: int
    # latent model
    k: int = 4
    d: int = 8
    gammas: tuple[float, ...] = (1.0, 1.0, 8.0, 8.0)
    c: float = 0.1
    sigma: float = 0.0
    # skip schedule
    base_tau: float = 0.01
    frames: int = 96
    levels: int = 3
    exclude: tuple[int, ...] = ()
    # descriptor/codec parameters
    window: int = 6
    gmm_components: int = 8
    train_budget: int = 20000
    # classifier
    svm_c: float = 100.0
    # experiment harness
    trials: int = 200
    delta: float = 0.1
    out_dir: str = "out"
    # synthetic dataset
    n_classes: int = 5
    speeds: tuple[int, ...] = (1, 2, 4)
    samples_per_cell: int = 10
    channels: int = 3
    harmonics: int = 3
    jitter: float = 0.25
    noise_sigma: float = 0.33
    train_fraction: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_type(f, getattr(self, f.name))
        for name in ("gammas", "speeds", "exclude"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        speed = max(self.speeds, default=0)
        # one window of differences at the deepest level
        min_frames = (self.levels + 1) * self.window + 1
        checks = (
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.k >= 1, f"k must be >= 1, got {self.k}"),
            (self.d >= self.k, f"d must be >= k, got d={self.d}, k={self.k}"),
            (len(self.gammas) == self.k, f"gammas must have length k={self.k}, got {len(self.gammas)}"),
            (all(g > 0 for g in self.gammas), "gammas must be positive"),
            (self.gammas == tuple(sorted(self.gammas)), "gammas must be sorted non-decreasing"),
            (0.0 <= self.c < 1.0, f"c must lie in [0, 1), got {self.c}"),
            (self.sigma >= 0, f"sigma must be >= 0, got {self.sigma}"),
            (0 <= self.levels <= 5, f"levels must lie in [0, 5], got {self.levels}"),
            (
                all(0 <= level <= self.levels for level in self.exclude),
                f"exclude entries must lie in [0, levels={self.levels}], got {list(self.exclude)}",
            ),
            (len(set(self.exclude)) == len(self.exclude), "exclude entries must not repeat"),
            (self.window >= 1, f"window must be >= 1, got {self.window}"),
            (self.gmm_components >= 1, f"gmm_components must be >= 1, got {self.gmm_components}"),
            (self.train_budget >= 10 * self.gmm_components, "train_budget must be >= 10 * gmm_components"),
            (self.svm_c > 0, f"svm_c must be > 0, got {self.svm_c}"),
            (self.trials >= 100, f"trials must be >= 100, got {self.trials}"),
            (0.0 < self.delta < 1.0, f"delta must lie in (0, 1), got {self.delta}"),
            (self.n_classes >= 2, f"need at least 2 classes, got {self.n_classes}"),
            (
                self.speeds and set(self.speeds) <= set(ALLOWED_SPEEDS),
                f"speeds must be a non-empty subset of {ALLOWED_SPEEDS}",
            ),
            (len(set(self.speeds)) == len(self.speeds), "speeds must not repeat"),
            (self.samples_per_cell >= 2, "every class/speed cell needs at least 2 samples"),
            (self.channels >= 1, f"channels must be >= 1, got {self.channels}"),
            (self.harmonics >= 1, f"harmonics must be >= 1, got {self.harmonics}"),
            # the fastest replay must stay below Nyquist, else compression
            # aliases; this also keeps frames >= 3, so 1/frames is a valid skip
            (2 * self.harmonics * speed < self.frames, f"{self.harmonics} harmonics at speed {speed} alias"),
            (self.frames >= min_frames, f"frames must be >= {min_frames}, got {self.frames}"),
            (0.0 <= self.jitter < 1.0, f"jitter must lie in [0, 1), got {self.jitter}"),
            (self.noise_sigma >= 0.0, f"noise_sigma must be >= 0, got {self.noise_sigma}"),
            (0.0 < self.train_fraction < 1.0, f"train_fraction must lie in (0, 1), got {self.train_fraction}"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
        # the schedule checks its skips (positive, the deepest within 1, one
        # level kept); level 0 has the largest budget, so every budget is finite
        schedule_of(self).budget(0)


def schedule_of(config: ExperimentConfig, frames: int | None = None) -> SkipSchedule:
    """The config's masked schedule and the one skip rule: base_tau = 1/frames
    given ``frames``, else the config's base_tau."""
    include = tuple(l not in config.exclude for l in range(config.levels + 1))
    base_tau = 1.0 / frames if frames else config.base_tau
    return SkipSchedule(base_tau=base_tau, levels=config.levels, include=include)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional JSON file plus flag overrides."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must hold a JSON object")
    known = {f.name: f for f in fields(ExperimentConfig)}
    unknown = data.keys() - known.keys()
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(sorted(unknown))}")
    # a flag must not hide a mistyped file value, so file values are checked first
    for key, value in data.items():
        _check_type(known[key], value)
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    if "seed" not in data:
        raise ValueError("seed is mandatory: set it in the config file or pass --seed")
    return ExperimentConfig(**data)


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 of the canonical JSON form (sorted keys, no whitespace).

    ``out_dir`` is left out: the hash names the experiment, not where its
    outputs were written.
    """
    record = asdict(config)
    del record["out_dir"]
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
