"""Differential feature extraction at one skip and stacking across skips.

The extractor reads a signal at a time skip tau and emits one feature per
sample pair: the coefficient difference matrix P (synthetic route) or a
windowed frame-difference descriptor (real-series route). Stacking repeats
the extraction at skips tau, 2*tau, ..., (L+1)*tau and concatenates, so the
representation contains each action content at several effective speeds.
Levels can be masked out to study reduced schedules, e.g. keeping only the
every-2nd-frame features. On the synthetic route ``mifs_stack`` draws every
stack, one level or several, for the theory verbs and the coverage harness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .latent import LatentModel, sample_difference_matrix
from .streams import stream

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
        # a float, so a huge integer base_tau gives inf, not an unprintable int
        deepest = (self.levels + 1) * float(self.base_tau)
        # the second test is budget's own, so every level keeps at least one sample
        if deepest > 1.0 + FLOOR_EPS or 1.0 / deepest + FLOOR_EPS < 1.0:
            raise ValueError(f"deepest skip (L+1)*base_tau = {deepest:.10g} exceeds the normalized duration 1")
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
    """Coefficient differences ``p`` (k x T), entries in {-2, 0, 2}, and,
    optionally, the observed features ``f`` (d x T), as ``mifs_stack``
    draws them. A stack holds its levels' columns in schedule order, each
    level's budget in turn."""

    p: np.ndarray
    f: np.ndarray | None


@dataclass
class SeriesDescriptorSet:
    """Windowed difference descriptors of a real series (N x D) with the
    window centers as normalized temporal locations."""

    descriptors: np.ndarray
    locations: np.ndarray
    level_of_row: np.ndarray


def mifs_stack(
    model: LatentModel,
    schedule: SkipSchedule,
    seed,
    *,
    observe: bool = True,
) -> FeatureMatrix:
    """The synthetic route's one sampler: the stacked feature matrix of
    (model, schedule, seed).

    Each included level fills its budget of columns, in schedule order,
    from the sub-stream (seed, level): first its coefficient differences
    (``sample_difference_matrix``), then, for f = xbar @ p + (eps' - eps),
    the noise eps and then eps'. So a level's columns never depend on which
    other levels are present. f is produced when the model carries noise
    (sigma > 0), unless ``observe`` is False; p is the same either way.
    """
    # a list, not included_levels: each tuple(genexpr) leaves one more tuple
    # on CPython's free list (up to 2,000), and the harness draws thousands
    levels = [l for l, keep in enumerate(schedule.include) if keep]
    edges = list(accumulate((schedule.budget(l) for l in levels), initial=0))
    p = np.empty((model.k, edges[-1]))
    f = np.empty((model.d, edges[-1])) if observe and model.sigma > 0 else None
    for level, start, stop in zip(levels, edges, edges[1:]):
        rng = stream(seed, level)
        t = stop - start
        block = sample_difference_matrix(model, schedule.tau(level), t, rng)
        p[:, start:stop] = block
        if f is not None:
            eps = rng.normal(0.0, model.sigma, size=(model.d, t))
            eps_tau = rng.normal(0.0, model.sigma, size=(model.d, t))
            # a huge sigma overflows here; spectrum_curve rejects the result
            with np.errstate(over="ignore", invalid="ignore"):
                np.add(model.xbar @ block, eps_tau - eps, out=f[:, start:stop])
    return FeatureMatrix(p=p, f=f)


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

