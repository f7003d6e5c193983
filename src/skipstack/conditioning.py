"""Condition-number bounds, concentration checks and singular spectra.

Validates the conditioning theory numerically: the empirical condition
number beta of the coefficient Gram matrix against its probabilistic
sandwich at a fixed skip and for stacked schedules, the exponential
lower-bound regime for widely spread dynamics, the matrix concentration
inequality the sandwich rests on, and the decay of normalized singular
values that motivates stacking in the first place.

Bound conventions. The fixed-skip sandwich is

    ((1+c) e^(-g1/tau) - D) / (e^(-gk/tau) + D)
        <= beta <= ((1+c) e^(-g1/tau) + D) / (e^(-gk/tau) - D),

with concentration radius D = 2 sqrt(k (1/T)(1+c) log(2k/delta)). The
stacked version replaces each exp term by its budget-weighted average over
levels, sum_l (T_l/T) e^(-g/tau_l), and evaluates D at the total budget.
Both theorems run through one routine, so a one-level schedule gives the
fixed-skip bound bit for bit. The per-column second moments carry a factor
2 (difference of two signs); it divides out of the beta ratio and is
dropped. The lower bound is clipped at 1; the upper bound is +inf
(vacuous) unless the gk exp term exceeds D. Both need a total budget of at
least T_min = ceil(k log(2k/delta) / (9 (1+c))).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .features import SkipSchedule, budget, mifs_stack
from .latent import LatentModel, sample_difference_matrix
from .streams import stream

# lambda_min below this fraction of lambda_max means numerically singular
RANK_DEFICIENT_RATIO = 1e-12
# bytes of per-trial k x k matrices reduced in one stacked call (256 at k = 4)
BLOCK_BYTES = 1 << 15


@dataclass(frozen=True)
class ConditionReport:
    """Empirical beta = lambda_max / lambda_min of a normalized Gram matrix.

    An infinite ``beta_empirical`` flags a numerically singular matrix.
    """

    beta_empirical: float
    lambda_max: float
    lambda_min: float


@dataclass(frozen=True)
class BoundReport:
    """Probabilistic sandwich for beta and its concentration radius.

    An infinite ``bound_upper`` flags the vacuous regime, where the slowest
    exp term does not clear the radius.
    """

    bound_lower: float
    bound_upper: float
    delta_tau: float


def condition_number(p) -> ConditionReport:
    """Empirical beta of the normalized Gram (1/T) P Pᵀ of a k x T array.

    Requires T >= k; a smallest eigenvalue below 1e-12 of the largest
    reports beta as +inf.
    """
    return ConditionReport(*map(float, _betas(_normalized_gram(np.asarray(p, dtype=float)))))


def _normalized_gram(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    k, t = p.shape
    if t < k:
        raise ValueError(f"need at least k={k} columns, got {t} (rank-deficient by construction)")
    gram = np.matmul(p, p.T, out=out)
    gram /= t
    return gram


def _betas(grams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """beta, lambda_max and lambda_min of a Gram matrix or a stack of them;
    an extreme eigenvalue below 0 counts as 0."""
    eigs = np.linalg.eigvalsh(grams)
    lam_min, lam_max = (np.where(e < 0.0, 0.0, e) for e in (eigs[..., 0], eigs[..., -1]))
    singular = (lam_min <= RANK_DEFICIENT_RATIO * lam_max) | (lam_max == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(singular, np.inf, lam_max / lam_min), lam_max, lam_min


def _blocked(trials: int, shape: tuple[int, ...], fill, reduce) -> list[np.ndarray]:
    """One array of per-trial values for each k x k matrix of a trial's
    ``shape``: ``fill(trial, out)`` writes a trial's matrices into a block of
    at most BLOCK_BYTES, which ``reduce`` takes in one call."""
    # one array per matrix: a huge trial count then fails to allocate
    # (MemoryError) rather than overflowing the largest array size
    values = [np.empty(trials) for _ in range(math.prod(shape[:-2]))]
    size = max(1, min(trials, BLOCK_BYTES // (8 * math.prod(shape))))
    block = np.empty((size, *shape))
    for start in range(0, trials, size):
        stack = block[: trials - start]
        for offset, out in enumerate(stack):
            fill(start + offset, out)
        reduced = reduce(stack).reshape(len(stack), -1)
        for column, array in enumerate(values):
            array[start : start + len(stack)] = reduced[:, column]
    return values


def _bounds(gamma1, gammak, k: int, c: float, taus, budgets, delta: float) -> BoundReport:
    """The sandwich with each exp term averaged over the skips ``taus``,
    weighted by their sample ``budgets``, and D at the total budget.

    Both theorems end here: one skip is Theorem 1, several are Theorem 2.
    """
    budgets = np.asarray(budgets, dtype=float)
    # overflow is harmless: an infinite T is rejected, exp(-inf) = 0 the limit
    with np.errstate(over="ignore"):
        total = float(budgets.sum())
        t_min = math.ceil(k * math.log(2.0 * k / delta) / (9.0 * (1.0 + c)))
        if not t_min <= total < math.inf:
            raise ValueError(f"sample budget T={total:.0f} not finite or below the required minimum {t_min}")
        weights = budgets / total
        taus = np.asarray(taus, dtype=float)
        w1 = float(np.sum(weights * np.exp(-gamma1 / taus)))
        wk = float(np.sum(weights * np.exp(-gammak / taus)))
    d = 2.0 * math.sqrt(k * (1.0 / total) * (1.0 + c) * math.log(2.0 * k / delta))
    upper = math.inf if wk - d <= 0 else ((1.0 + c) * w1 + d) / (wk - d)
    lower = max(((1.0 + c) * w1 - d) / (wk + d), 1.0)
    return BoundReport(bound_lower=lower, bound_upper=upper, delta_tau=d)


def theorem1_bounds(
    gamma1: float, gammak: float, c: float, tau: float, k: int, t: int, delta: float
) -> BoundReport:
    """Probabilistic sandwich for beta at a fixed skip, confidence 1 - delta."""
    return _bounds(gamma1, gammak, k, c, [tau], [t], delta)


@dataclass(frozen=True)
class CorollaryBound:
    exponential: float
    polynomial: float


def corollary1_lower(m: int, gamma1: float, tau: float, c: float) -> CorollaryBound:
    """Lower bounds on E[beta] when gamma_k >= (m+1) gamma_1.

    Returns the exponential form (1+c) exp(gamma1/tau)^m and the weaker
    polynomial form (1+c)(1 + gamma1/tau)^m.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    x = gamma1 / tau
    return CorollaryBound(exponential=(1.0 + c) * math.exp(x) ** m, polynomial=(1.0 + c) * (1.0 + x) ** m)


def theorem2_bounds(gammas, c: float, schedule: SkipSchedule, delta: float) -> BoundReport:
    """Sandwich for beta of the stacked matrix over a skip schedule.

    The exp terms become budget-weighted averages over the schedule's
    levels and the concentration radius shrinks with the total budget.
    A one-level schedule reproduces theorem1_bounds bit for bit.
    """
    gammas = np.asarray(gammas, dtype=float)
    taus = [schedule.tau(l) for l in schedule.included_levels]
    budgets = [schedule.budget(l) for l in schedule.included_levels]
    return _bounds(gammas[0], gammas[-1], gammas.size, c, taus, budgets, delta)


def bernstein_bound(b: float, norm_es: float, p_dim: int, delta: float) -> float:
    """Matrix concentration radius sqrt(2 B |ES| log(2p/d)) + (B/3) log(2p/d).

    ``b`` bounds each summand's norm and ``norm_es`` is the norm of the
    expected sum, so the sum length enters only through ``norm_es``.
    """
    log_term = math.log(2.0 * p_dim / delta)
    return math.sqrt(2.0 * b * norm_es * log_term) + (b / 3.0) * log_term


def bernstein_coverage_test(p_dim: int, n: int, b: float, delta: float, trials: int, seed) -> float:
    """Fraction of trials where |S - ES| exceeds the concentration radius.

    Each trial sums n outer products of sign vectors scaled to squared
    norm exactly b, so ES = n (b/p) I. The returned exceedance rate must
    stay at or below delta; the bound is loose enough that it is usually
    zero.
    """
    scale = math.sqrt(b / p_dim)
    norm_es = n * b / p_dim
    radius = bernstein_bound(b, norm_es, p_dim, delta)
    mean = norm_es * np.eye(p_dim)

    def deviation(trial: int, out: np.ndarray) -> None:
        x = ((stream(seed, trial).random((n, p_dim), dtype=np.float32) >= 0.5) * 2.0 - 1.0) * scale
        np.matmul(x.T, x, out=out)
        out -= mean

    [norms] = _blocked(trials, (p_dim, p_dim), deviation, lambda s: np.linalg.norm(s, ord=2, axis=(1, 2)))
    return int(np.count_nonzero(norms > radius)) / trials


def spectrum_curve(matrix) -> np.ndarray:
    """Top-10 singular values of a 2-D matrix (features as columns),
    normalized by the largest.

    Needs >= 10 feature columns; a matrix whose Gram matrix is all zero or
    not finite, in its entries or its largest eigenvalue, has no spectrum
    and is rejected. Any other gives a curve that starts at exactly 1,
    never increases and lies in [0, 1]. Shorter curves come out when the
    matrix has fewer than 10 rows.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {matrix.shape}")
    rows, cols = matrix.shape
    if cols < 10:
        raise ValueError(f"need at least 10 feature columns, got {cols}")
    # eigen-decompose the smaller Gram matrix; its eigenvalues are the
    # squared singular values
    with np.errstate(over="ignore", invalid="ignore"):
        gram = matrix @ matrix.T if rows <= cols else matrix.T @ matrix
    # eigvalsh returns garbage for a NaN Gram, and the largest eigenvalue of
    # a finite one can still overflow
    eigs = np.linalg.eigvalsh(gram)[::-1] if np.isfinite(gram).all() else (math.nan,)
    if not 0.0 < eigs[0] < math.inf:
        raise ValueError("Gram matrix has non-finite entries or eigenvalues, or is all-zero, so no spectrum")
    keep = min(10, eigs.size)
    sigmas = np.sqrt(np.clip(eigs[:keep], 0.0, None))
    return sigmas / sigmas[0]


@dataclass
class CoverageSummary:
    """Per-trial betas and the sandwich they are checked against.

    ``within``, ``coverage``, ``mean_beta`` and ``var_beta`` are read off
    the two. A stacked summary carries the fixed-skip summary of the same
    draws in ``fixed``; a fixed-skip one has None there.
    """

    betas: np.ndarray
    bounds: BoundReport
    fixed: CoverageSummary | None = None

    @property
    def within(self) -> np.ndarray:
        # an infinite beta (singular Gram) is covered only by a vacuous upper bound
        return (self.bounds.bound_lower <= self.betas) & (self.betas <= self.bounds.bound_upper)

    @property
    def coverage(self) -> float:
        return float(np.mean(self.within))

    @property
    def mean_beta(self) -> float:
        return float(np.mean(self.betas))

    @property
    def var_beta(self) -> float:
        return float(np.var(self.betas)) if np.isfinite(self.betas).all() else math.inf


def coverage_experiment(
    model: LatentModel, skip, delta: float, trials: int, seed, *, t_samples: int | None = None
) -> CoverageSummary:
    """Monte-Carlo sandwich coverage for a fixed skip or a full schedule.

    ``skip`` is a single tau (fixed-skip route, optionally with an explicit
    per-trial budget ``t_samples``) or a SkipSchedule (stacked route).
    Trial i draws from the sub-stream (seed, i): a fixed-skip trial is one
    ``sample_difference_matrix``, a stacked trial is the p of
    ``mifs_stack(model, skip, (seed, i), observe=False)``, the sampler
    every stack comes from. Trials are independent of each other and of
    their order.

    The stacked route draws level 0 even when the schedule masks it out,
    and returns, in ``fixed``, the fixed-skip summary at ``base_tau`` of
    those level-0 columns, so both routes see the same draws.
    """
    if isinstance(skip, SkipSchedule):
        tau, t = skip.base_tau, skip.budget(0)
        drawn = replace(skip, include=(True, *skip.include[1:]))
        # level 0's columns come first; the stack starts after them if masked
        spans = (slice(0, t), slice(0 if skip.include[0] else t, None))

        def draw(trial: int) -> np.ndarray:
            return mifs_stack(model, drawn, (seed, trial), observe=False).p

    else:
        tau = float(skip)
        t = t_samples if t_samples is not None else budget(tau)
        spans = (slice(None),)

        def draw(trial: int) -> np.ndarray:
            return sample_difference_matrix(model, tau, t, stream(seed, trial))

    fixed = theorem1_bounds(model.gammas[0], model.gammas[-1], model.c, tau, model.k, t, delta)

    def grams(trial: int, out: np.ndarray) -> None:
        p = draw(trial)
        for span, gram in zip(spans, out):
            _normalized_gram(p[:, span], gram)

    betas = _blocked(trials, (len(spans), model.k, model.k), grams, lambda grams: _betas(grams)[0])
    if len(betas) == 1:
        return CoverageSummary(betas[0], fixed)
    # the stacked bounds come after the draws, as when each route drew its own
    return CoverageSummary(
        betas[1], theorem2_bounds(model.gammas, model.c, skip, delta), CoverageSummary(betas[0], fixed)
    )


def binomial_tail_probability(successes: int, trials: int, rate: float) -> float:
    """P(X <= successes) for X ~ Binomial(trials, rate).

    Used to test observed coverage against a target rate: a tiny tail
    probability means the observed success count is implausibly low. The
    terms are summed in log space, scaled by the largest, so thousands of
    trials overflow no binomial coefficient; rates 0 and 1 are exact.
    """
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if rate == 0.0 or successes == trials:
        return 1.0
    if rate == 1.0:
        return 0.0
    log_rate, log_miss = math.log(rate), math.log1p(-rate)
    log_n = math.lgamma(trials + 1)
    logs = [
        log_n - math.lgamma(i + 1) - math.lgamma(trials - i + 1) + i * log_rate + (trials - i) * log_miss
        for i in range(successes + 1)
    ]
    top = max(logs)
    return min(math.exp(top) * math.fsum(math.exp(term - top) for term in logs), 1.0)
