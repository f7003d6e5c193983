"""Acceptance suite: one test per shipped guarantee.

Each test freezes one end-to-end property of the library with its regime
and tolerances pinned, so ``pytest -v`` reports a single pass/fail line
per guarantee. Everything downstream of a seed is deterministic; the
numbers asserted here were reproduced on independent reruns before being
frozen.
"""

import hashlib
import json
import math
import statistics
import time

import numpy as np
import pytest

from skipstack.cli import main
from skipstack.conditioning import (
    bernstein_coverage_test,
    binomial_tail_probability,
    condition_number,
    corollary1_lower,
    coverage_experiment,
    spectrum_curve,
    theorem1_bounds,
    theorem2_bounds,
)
from skipstack.config import ExperimentConfig
from skipstack.dataset import generate_dataset
from skipstack.encoder import GmmModel, fisher_vector, gmm_fit, mean_log_likelihood
from skipstack.features import SkipSchedule, level_cost_report, mifs_stack
from skipstack.latent import new_model, sample_difference_matrix
from skipstack.pipeline import recognition_grid
from skipstack.streams import stream
from test_encoder import gmm_sample


def test_c01_sandwich_coverage_at_reference_settings():
    """Empirical beta lands inside the two-sided bound in >= 90% of trials."""
    t0 = time.perf_counter()
    model = new_model(k=4, d=4, gammas=[1.0, 1.0, 8.0, 8.0], c=0.1, sigma=0.0, seed=1)
    summary = coverage_experiment(model, 0.01, 0.1, 200, seed=1, t_samples=2000)
    hits = int(summary.within.sum())
    assert summary.coverage >= 0.90
    # the hit count must be plausible under a true 1 - delta success rate
    assert binomial_tail_probability(hits, 200, 0.9) > 0.05
    assert time.perf_counter() - t0 < 30.0


def test_c02_stacked_bounds_consistent_with_single_skip():
    # a one-level schedule must reproduce the fixed-skip bounds bit for bit
    g1, gk = 7.5e-5, 6e-4
    single = theorem1_bounds(g1, gk, 0.1, 1 / 2000, 4, 2000, 0.1)
    reduced = theorem2_bounds(
        [g1, g1, gk, gk], 0.1, SkipSchedule(base_tau=1 / 2000, levels=0), 0.1
    )
    assert reduced.bound_upper == pytest.approx(single.bound_upper, rel=1e-12)
    assert reduced.bound_lower == pytest.approx(single.bound_lower, rel=1e-12)
    assert reduced.delta_tau == pytest.approx(single.delta_tau, rel=1e-12)
    # pooling every level's budget shrinks the radius below any single pass
    schedule = SkipSchedule(base_tau=1 / 1000, levels=3)
    stacked = theorem2_bounds([0.001, 0.001, 0.004, 0.004], 0.1, schedule, 0.1)
    for level in schedule.included_levels:
        single_level = theorem1_bounds(
            0.001, 0.004, 0.1, schedule.tau(level), 4, schedule.budget(level), 0.1
        )
        assert stacked.delta_tau < single_level.delta_tau


def test_c03_stacking_shrinks_mean_and_variance_of_beta():
    """Paired 200-trial runs: the stacked schedule lowers both moments at
    95% confidence under a paired bootstrap."""
    model = new_model(
        k=4, d=4, gammas=[0.00125, 0.00125, 0.005, 0.005], c=0.1, sigma=0.0, seed=0
    )
    fixed = coverage_experiment(model, 1 / 400, 0.1, 200, 42)
    stacked = coverage_experiment(
        model, SkipSchedule(base_tau=1 / 400, levels=3), 0.1, 200, 42
    )
    assert stacked.mean_beta < fixed.mean_beta
    assert stacked.var_beta < fixed.var_beta
    rng = np.random.default_rng(0)
    mean_diffs, var_diffs = [], []
    for _ in range(2000):
        idx = rng.integers(0, 200, 200)
        mean_diffs.append(fixed.betas[idx].mean() - stacked.betas[idx].mean())
        var_diffs.append(fixed.betas[idx].var() - stacked.betas[idx].var())
    assert np.percentile(mean_diffs, 2.5) > 0.0
    assert np.percentile(var_diffs, 2.5) > 0.0


def test_c04_condition_growth_matches_polynomial_floor():
    """Monte-Carlo mean beta clears (1+c)(1+gamma1/tau)^M in >= 95% of
    50-trial batches for spreads M = 1, 2, 3."""
    tau = 1 / 400
    g1 = 0.75 * tau
    for m in (1, 2, 3):
        model = new_model(k=2, d=2, gammas=[g1, (m + 1) * g1], c=0.1, sigma=0.0, seed=0)
        floor = corollary1_lower(m, g1, tau, 0.1).polynomial
        passed = 0
        for batch in range(20):
            betas = [
                condition_number(
                    sample_difference_matrix(model, tau, 400, stream((m, batch), trial))
                ).beta_empirical
                for trial in range(50)
            ]
            passed += float(np.mean(betas)) >= floor
        assert passed >= 19


def test_c05_concentration_exceedance_within_delta():
    t0 = time.perf_counter()
    for index, delta in enumerate((0.05, 0.1, 0.2)):
        exceedance = bernstein_coverage_test(4, 500, 4.0, delta, 1000, seed=(5, index))
        assert exceedance <= delta
    assert time.perf_counter() - t0 < 20.0


def test_c06_stacked_spectrum_dominates_single_skip():
    """Normalized sigma_2..sigma_10 of the depth-3 stack sit above the
    single-skip curve on >= 90% of 50 seeds."""
    ratios = np.r_[1.0, np.logspace(np.log10(2.5), np.log10(20), 11)]
    gammas = np.sort(ratios / 800.0)
    wins = 0
    for seed in range(50):
        model = new_model(k=12, d=24, gammas=gammas, c=0.0, sigma=0.01, seed=1000 + seed)
        flat = spectrum_curve(
            mifs_stack(model, SkipSchedule(base_tau=1 / 800, levels=0), (seed, 0), observe=True).f
        )
        deep = spectrum_curve(
            mifs_stack(model, SkipSchedule(base_tau=1 / 800, levels=3), (seed, 1), observe=True).f
        )
        wins += bool(np.all(deep[1:10] >= flat[1:10]))
    assert wins >= 45


def _random_mixture(k: int, dim: int, seed: int) -> GmmModel:
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, size=k)
    return GmmModel(
        weights=weights / weights.sum(),
        means=rng.normal(scale=2.0, size=(k, dim)),
        variances=rng.uniform(0.5, 2.0, size=(k, dim)),
    )


def test_c07_fisher_vector_matches_finite_differences():
    """Analytic blocks agree with central differences of the mean
    log-likelihood to 1e-5 relative on 20 random instances, and the
    encoding of the mixture's own samples nearly vanishes."""
    h = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(10, 51))
        gmm = _random_mixture(k, dim, seed)
        x = rng.normal(scale=2.0, size=(n, dim))
        fv = fisher_vector(gmm, x)
        g_mu = fv[: k * dim].reshape(k, dim)
        g_var = fv[k * dim :].reshape(k, dim)
        sigma = np.sqrt(gmm.variances)
        fd_mu = np.empty_like(g_mu)
        fd_sigma = np.empty_like(g_var)
        for a in range(k):
            for d in range(dim):
                up = gmm.means.copy()
                up[a, d] += h
                dn = gmm.means.copy()
                dn[a, d] -= h
                fd_mu[a, d] = (
                    mean_log_likelihood(GmmModel(gmm.weights, up, gmm.variances), x)
                    - mean_log_likelihood(GmmModel(gmm.weights, dn, gmm.variances), x)
                ) / (2 * h)
                sp = sigma.copy()
                sp[a, d] += h
                sm = sigma.copy()
                sm[a, d] -= h
                fd_sigma[a, d] = (
                    mean_log_likelihood(GmmModel(gmm.weights, gmm.means, sp**2), x)
                    - mean_log_likelihood(GmmModel(gmm.weights, gmm.means, sm**2), x)
                ) / (2 * h)
        want_mu = fd_mu * sigma / np.sqrt(gmm.weights)[:, None]
        want_var = fd_sigma * sigma / np.sqrt(2.0 * gmm.weights)[:, None]
        assert np.linalg.norm(g_mu - want_mu) <= 1e-5 * max(np.linalg.norm(want_mu), 1e-3)
        assert np.linalg.norm(g_var - want_var) <= 1e-5 * max(np.linalg.norm(want_var), 1e-3)
    gmm = GmmModel(
        weights=[0.4, 0.6],
        means=[[-2.0, 0.0, 1.0], [2.0, 1.0, -1.0]],
        variances=[[1.0, 0.5, 1.5], [0.8, 1.2, 1.0]],
    )
    own = gmm_sample(gmm, 10**5, stream(11))
    assert np.linalg.norm(fisher_vector(gmm, own)) < 0.02


def test_c08_em_log_likelihood_monotone():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        data = np.vstack(
            [rng.normal(loc=center, scale=0.5, size=(80, 3)) for center in (-2.0, 0.0, 2.0)]
        )
        trace = gmm_fit(data, 3, rng=stream(8, seed)).log_likelihood_trace
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))


def test_c09_stacking_beats_single_scale_on_the_grid():
    """10-seed recognition study on the default multi-speed dataset: the
    stack wins at every depth and clears the depth-2 gap by 5 points."""
    t0 = time.perf_counter()
    maccs: dict[str, list[float]] = {}
    for seed in range(10):
        exp = ExperimentConfig(seed=seed)
        ds = generate_dataset(exp)
        runs = recognition_grid(ds, exp)
        for label, run in runs.items():
            maccs.setdefault(label, []).append(run.report.macc)
    mean = {label: statistics.fmean(values) for label, values in maccs.items()}
    singles = {1: "L=1-0", 2: "L=2-0-1", 3: "L=3-0-1-2"}
    for depth, single in singles.items():
        assert mean[f"L={depth}"] >= mean[single]
    assert mean["L=2"] - mean["L=0"] >= 5.0
    # single-scale accuracy peaks at the second skip, then decays
    assert mean["L=1-0"] > mean["L=2-0-1"] > mean["L=3-0-1-2"]
    assert time.perf_counter() - t0 < 300.0


def test_c10_cost_accounting_stays_under_twice_base():
    report = level_cost_report(SkipSchedule(base_tau=0.01, levels=2))
    assert [row.count for row in report.rows] == [100, 50, 33]
    assert [row.relative for row in report.rows] == [1.0, 0.5, 0.33]
    assert report.total_relative == pytest.approx(1.83, abs=1e-12)
    assert report.total_relative < 2.0


def test_c11_cli_outputs_byte_identical_on_rerun(tmp_path):
    """Every verb rerun with the same config and seed rewrites the same
    bytes, SVG plots included."""
    config = {
        "seed": 0,
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
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"

    def run_everything() -> dict[str, str]:
        base = ["--config", str(cfg), "--out", str(out)]
        for verb in (
            "model-gen",
            "sim-condition",
            "sim-bounds",
            "bernstein-check",
            "spectrum",
            "dataset-gen",
            "encode",
            "train",
            "evaluate",
            "run-recognition",
            "cost-report",
        ):
            assert main([verb, *base]) == 0
        for kind, source in (
            ("spectrum", "spectrum.csv"),
            ("coverage", "coverage.csv"),
            ("accuracy-grid", "grid.csv"),
        ):
            assert main(["plot", str(out / source), "--kind", kind, *base]) == 0
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
        }

    first = run_everything()
    second = run_everything()
    assert first == second
    assert {"spectrum.svg", "coverage.svg", "accuracy-grid.svg"} <= set(first)
