"""Differential feature extraction at one skip and stacking across skips.

The extractor reads a signal at a time skip tau and emits one feature per
sample pair: the coefficient difference matrix P (synthetic route) or a
windowed frame-difference descriptor (real-series route). Stacking repeats
the extraction at skips tau, 2*tau, ..., (L+1)*tau and concatenates, so the
representation contains each action content at several effective speeds.
Levels can be masked out to study reduced schedules, e.g. keeping only the
every-2nd-frame features.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latent import LatentModel, sample_difference_matrix
from .streams import as_generator, stream

# guards float-division noise in floor(1/tau); 1/(0.1*2) is 4.999...
FLOOR_EPS = 1e-9


def budget(tau: float) -> int:
    """Feature count floor(1 / tau) at skip tau."""
    count = 1.0 / tau + FLOOR_EPS
    if not math.isfinite(count):
        raise ValueError(f"skip tau={tau} gives no finite sample budget")
    return math.floor(count)


@dataclass(frozen=True)
class SkipSchedule:
    """Skips tau_l = (l+1) * base_tau for levels l = 0..levels.

    ``include`` masks levels out of the stack (True keeps the level); the
    default keeps every level. A schedule keeping levels {1} out of 0..1 is
    labelled "L=1-0", matching the reduced configurations in the result
    tables.
    """

    base_tau: float
    levels: int
    include: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if self.base_tau <= 0:
            raise ValueError(f"base_tau must be positive, got {self.base_tau}")
        if self.levels < 0:
            raise ValueError(f"levels must be >= 0, got {self.levels}")
        if (self.levels + 1) * self.base_tau > 1.0 + FLOOR_EPS:
            raise ValueError(
                f"deepest skip (L+1)*base_tau = {(self.levels + 1) * self.base_tau:.6g} "
                f"exceeds the normalized duration 1"
            )
        if not self.include:
            object.__setattr__(self, "include", (True,) * (self.levels + 1))
        if len(self.include) != self.levels + 1:
            raise ValueError("include mask must have levels+1 entries")
        if not any(self.include):
            raise ValueError("schedule must keep at least one level")

    def tau(self, level: int) -> float:
        if not 0 <= level <= self.levels:
            raise ValueError(f"level must lie in [0, {self.levels}], got {level}")
        return (level + 1) * self.base_tau

    def budget(self, level: int) -> int:
        """Feature count floor(1 / tau_l) at one level."""
        return budget(self.tau(level))

    @property
    def included_levels(self) -> tuple[int, ...]:
        return tuple(l for l in range(self.levels + 1) if self.include[l])

    @property
    def label(self) -> str:
        text = f"L={self.levels}"
        for l in range(self.levels + 1):
            if not self.include[l]:
                text += f"-{l}"
        return text


@dataclass
class FeatureMatrix:
    """Coefficient differences ``p`` (k x T) and, optionally, the observed
    features ``f`` (d x T). A stack holds its levels' columns in schedule
    order, each level's budget in turn."""

    p: np.ndarray
    f: np.ndarray | None

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=float)
        t = self.p.shape[1]
        if np.abs(self.p).max(initial=0.0) > 2.0:
            raise ValueError("coefficient differences must lie in [-2, 2]")
        if self.f is not None:
            self.f = np.asarray(self.f, dtype=float)
            if self.f.shape[1] != t:
                raise ValueError("f must have the same column count as p")


@dataclass
class SeriesDescriptorSet:
    """Windowed difference descriptors of a real series (N x D) with the
    window centers as normalized temporal locations."""

    descriptors: np.ndarray
    locations: np.ndarray
    level_of_row: np.ndarray

    def __post_init__(self) -> None:
        self.descriptors = np.asarray(self.descriptors, dtype=float)
        self.locations = np.asarray(self.locations, dtype=float)
        self.level_of_row = np.asarray(self.level_of_row, dtype=int)
        n = self.descriptors.shape[0]
        if self.locations.shape != (n,) or self.level_of_row.shape != (n,):
            raise ValueError("per-row tags must match the descriptor count")
        if n and (self.locations.min() < 0.0 or self.locations.max() > 1.0):
            raise ValueError("locations must lie in [0, 1]")


def build_feature_matrix(
    model: LatentModel,
    tau: float,
    rng: np.random.Generator,
    *,
    observe: bool | None = None,
) -> FeatureMatrix:
    """Extract T = floor(1/tau) differential features at a single skip.

    ``observe`` forces or suppresses the noisy d-dimensional feature matrix
    f = xbar @ p + (eps' - eps); by default f is produced exactly when the
    model carries noise (sigma > 0).
    """
    rng = as_generator(rng)
    t = budget(tau)
    if t < 1:
        raise ValueError(f"sample budget T must be >= 1, got {t} (tau={tau})")
    p = sample_difference_matrix(model, tau, t, rng)
    if observe is None:
        observe = model.sigma > 0
    f = None
    if observe:
        f = model.xbar @ p
        if model.sigma > 0:
            eps = rng.normal(0.0, model.sigma, size=(model.d, t))
            eps_tau = rng.normal(0.0, model.sigma, size=(model.d, t))
            # a huge sigma overflows here; spectrum_curve rejects the result
            with np.errstate(over="ignore", invalid="ignore"):
                f = f + (eps_tau - eps)
    return FeatureMatrix(p=p, f=f)


def mifs_stack(
    model: LatentModel,
    schedule: SkipSchedule,
    seed,
    *,
    observe: bool | None = None,
) -> FeatureMatrix:
    """Concatenate single-skip extractions over the schedule's levels.

    Each level draws from the sub-stream (seed, level), so the output for a
    given level never depends on which other levels are present and levels
    may be extracted concurrently.
    """
    blocks = [
        build_feature_matrix(model, schedule.tau(level), stream(seed, level), observe=observe)
        for level in schedule.included_levels
    ]
    return FeatureMatrix(
        p=np.concatenate([b.p for b in blocks], axis=1),
        f=None
        if blocks[0].f is None
        else np.concatenate([b.f for b in blocks], axis=1),
    )


def extract_series_descriptors(
    series: np.ndarray,
    schedule: SkipSchedule,
    window: int,
) -> SeriesDescriptorSet:
    """Windowed frame-difference descriptors at every included level.

    Level l reads every (l+1)-th frame of the series, takes consecutive
    differences and slides a length-``window`` window over them; each
    descriptor is the concatenation of the differences in its window
    (dimension window * channels) located at the window center, normalized
    within the subsampled sequence.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    frames, channels = series.shape
    if channels < 1:
        raise ValueError("series must have at least one channel")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if frames < (schedule.levels + 1) * window + 1:
        raise ValueError(
            f"series of {frames} frames is shorter than one window at the "
            f"deepest level (needs {(schedule.levels + 1) * window + 1})"
        )
    desc_blocks, loc_blocks, level_blocks = [], [], []
    for level in schedule.included_levels:
        sub = series[:: level + 1]
        diffs = np.diff(sub, axis=0)
        n_windows = diffs.shape[0] - window + 1
        if n_windows < 1:
            raise ValueError(
                f"series too short for level {level}: {diffs.shape[0]} differences "
                f"< window {window}"
            )
        idx = np.arange(n_windows)[:, None] + np.arange(window)[None, :]
        desc_blocks.append(diffs[idx].reshape(n_windows, window * channels))
        loc_blocks.append((np.arange(n_windows) + window / 2.0) / diffs.shape[0])
        level_blocks.append(np.full(n_windows, level))
    return SeriesDescriptorSet(
        descriptors=np.concatenate(desc_blocks, axis=0),
        locations=np.concatenate(loc_blocks),
        level_of_row=np.concatenate(level_blocks),
    )


@dataclass(frozen=True)
class LevelCost:
    level: int
    tau: float
    count: int
    relative: float


@dataclass(frozen=True)
class CostReport:
    """Per-level feature counts and cost relative to a full level-0 pass."""

    rows: tuple[LevelCost, ...]
    total_relative: float


def level_cost_report(schedule: SkipSchedule) -> CostReport:
    """Feature-count cost of each included level relative to level 0.

    The reference count is the full level-0 budget floor(1/base_tau) even
    when level 0 itself is masked out, so reduced schedules report their
    saving against the standard single-skip pass.
    """
    base = budget(schedule.base_tau)
    rows = tuple(
        LevelCost(
            level=level,
            tau=schedule.tau(level),
            count=schedule.budget(level),
            relative=schedule.budget(level) / base,
        )
        for level in schedule.included_levels
    )
    return CostReport(rows=rows, total_relative=sum(r.relative for r in rows))

