"""Tests for condition-number bounds, concentration and spectra."""

import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skipstack.cli import main
from skipstack.conditioning import (
    bernstein_bound,
    bernstein_coverage_test,
    binomial_tail_probability,
    condition_number,
    corollary1_lower,
    coverage_experiment,
    spectrum_curve,
    theorem1_bounds,
    theorem2_bounds,
)
from skipstack.features import SkipSchedule, budget, mifs_stack
from skipstack.latent import new_model, sample_difference_matrix
from skipstack.streams import stream

# a sim-condition config whose masked level-0 draw fails its flip band (exit 2)
FIXED_DRAW_FAULT = {
    "seed": 0, "gammas": [0.00125, 0.00125, 0.005, 0.005], "base_tau": 0.3,
    "levels": 1, "exclude": [0], "trials": 100,
}


class TestConditionNumber:
    def test_isotropic_gram(self):
        report = condition_number(np.eye(2))
        assert report.beta_empirical == 1.0

    def test_diagonal_gram(self):
        report = condition_number(np.diag([2.0, 1.0]))
        assert report.beta_empirical == pytest.approx(4.0, abs=1e-12)
        assert report.lambda_max >= report.lambda_min >= 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(5, 40))
        a = condition_number(p).beta_empirical
        b = condition_number(3.7 * p).beta_empirical
        assert a == pytest.approx(b, rel=1e-10)

    def test_rank_deficient_flags_infinity(self):
        p = np.zeros((3, 10))
        p[0, 0] = 1.0
        assert math.isinf(condition_number(p).beta_empirical)
        assert math.isinf(condition_number(np.zeros((2, 5))).beta_empirical)

    def test_too_few_columns_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient by construction"):
            condition_number(np.ones((4, 3)))

    def test_beta_at_least_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.normal(size=(4, 30))
            assert condition_number(p).beta_empirical >= 1.0


class TestTheorem1Bounds:
    def test_delta_tau_oracle(self):
        # 2 sqrt(2 * 0.001 * ln 80) with k=2, T=1000, c=0, delta=0.05
        r = theorem1_bounds(1.0, 1.0, 0.0, 0.5, 2, 1000, 0.05)
        assert r.delta_tau == pytest.approx(0.18723304483287945, abs=1e-15)
        assert r.delta_tau == pytest.approx(0.18723, abs=1e-5)

    def test_single_frequency_sandwich_collapses(self):
        r = theorem1_bounds(2.0, 2.0, 0.0, 0.5, 2, 10**12, 0.05)
        assert r.bound_upper == pytest.approx(1.0, abs=1e-3)
        assert r.bound_lower == pytest.approx(1.0, abs=1e-3)

    def test_vacuous_regime_flags_infinity(self):
        # exp(-gamma_k / tau) = exp(-800) is far below delta_tau
        r = theorem1_bounds(1.0, 8.0, 0.1, 0.01, 4, 2000, 0.1)
        assert math.isinf(r.bound_upper)
        assert r.bound_lower == 1.0

    def test_lower_at_most_upper_when_finite(self):
        r = theorem1_bounds(7.5e-5, 6e-4, 0.1, 1 / 2000, 4, 2000, 0.1)
        assert 1.0 <= r.bound_lower <= r.bound_upper < math.inf
        assert r.bound_lower == pytest.approx(1.5081562484226083, rel=1e-12)
        assert r.bound_upper == pytest.approx(10.90557881839544, rel=1e-12)

    def test_sample_budget_proviso(self):
        with pytest.raises(ValueError, match="required minimum"):
            theorem1_bounds(1.0, 2.0, 0.0, 0.5, 50, 10, 1e-6)

    def test_delta_tau_monotonicity(self):
        base = theorem1_bounds(1.0, 1.0, 0.0, 0.5, 4, 1000, 0.05).delta_tau
        more_samples = theorem1_bounds(1.0, 1.0, 0.0, 0.5, 4, 4000, 0.05).delta_tau
        more_signals = theorem1_bounds(1.0, 1.0, 0.0, 0.5, 8, 1000, 0.05).delta_tau
        tighter = theorem1_bounds(1.0, 1.0, 0.0, 0.5, 4, 1000, 0.01).delta_tau
        assert more_samples < base
        assert more_signals > base
        assert tighter > base

    def test_bad_confidence_rejected(self, tmp_path, capsys):
        # the bounds trust delta: the config rejects it when it loads, so the
        # verb that feeds config.delta to theorem1_bounds stops before them
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 0, "delta": 0.0}))
        out = tmp_path / "out"
        assert main(["sim-bounds", "--config", str(cfg), "--out", str(out)]) == 2
        assert "delta must lie in (0, 1), got 0.0" in capsys.readouterr().err
        assert not out.exists()


class TestCorollary1:
    def test_zero_exponent(self):
        b = corollary1_lower(0, 1.0, 0.5, 0.3)
        assert b.exponential == b.polynomial == pytest.approx(1.3)

    def test_exponential_oracle(self):
        b = corollary1_lower(3, 1.0, 1.0, 0.0)
        assert b.exponential == pytest.approx(20.085536923187664, rel=1e-12)
        assert b.polynomial == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0, 2.0])
    def test_exponential_dominates_polynomial(self, m, ratio):
        b = corollary1_lower(m, ratio, 1.0, 0.2)
        assert b.exponential >= b.polynomial

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError, match="m must"):
            corollary1_lower(-1, 1.0, 1.0, 0.0)


class TestTheorem2Bounds:
    def test_one_level_reduces_to_fixed_skip(self):
        g1, gk = 7.5e-5, 6e-4
        a = theorem1_bounds(g1, gk, 0.1, 1 / 2000, 4, 2000, 0.1)
        b = theorem2_bounds([g1, g1, gk, gk], 0.1, SkipSchedule(base_tau=1 / 2000, levels=0), 0.1)
        assert b == a

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(1e-5, 1e-2),
        st.floats(1e-5, 1e-2),
        st.floats(0.0, 0.99),
        # at most 3000 frames keeps gamma/tau <= 30, where the bound is informative
        st.integers(3, 3000),
        st.floats(0.01, 0.99),
    )
    # math.exp and np.exp once disagreed here in the last bit of the upper bound
    @example(0.00022063533486158334, 0.0005341133199844568, 0.4867257024440132, 2765, 0.1)
    def test_one_level_schedule_is_the_fixed_skip_bound_exactly(self, a, b, c, frames, delta):
        g1, gk = min(a, b), max(a, b)
        fixed = theorem1_bounds(g1, gk, c, 1 / frames, 4, frames, delta)
        stacked = theorem2_bounds([g1, g1, gk, gk], c, SkipSchedule(1 / frames, 0), delta)
        assert stacked.bound_lower == fixed.bound_lower
        assert stacked.bound_upper == fixed.bound_upper
        assert stacked.delta_tau == fixed.delta_tau

    def test_stacked_radius_beats_every_single_level(self):
        sched = SkipSchedule(base_tau=1 / 1000, levels=1)  # budgets 1000 + 500
        stacked = theorem2_bounds([0.001, 0.004], 0.0, sched, 0.05).delta_tau
        for level in range(2):
            single = theorem1_bounds(
                0.001, 0.004, 0.0, sched.tau(level), 2, sched.budget(level), 0.05
            ).delta_tau
            assert stacked < single

    def test_stacking_definite_where_fixed_skip_vacuous(self):
        gammas = [0.0003, 0.0003, 0.0024, 0.0024]
        fixed = theorem1_bounds(gammas[0], gammas[-1], 0.1, 0.001, 4, 1000, 0.1)
        sched = SkipSchedule(base_tau=0.001, levels=3)
        stacked = theorem2_bounds(gammas, 0.1, sched, 0.1)
        assert math.isinf(fixed.bound_upper)
        assert stacked.bound_upper < math.inf

    def test_budget_proviso_on_total(self):
        sched = SkipSchedule(base_tau=0.5, levels=1)  # budgets 2 + 1
        with pytest.raises(ValueError, match="required minimum"):
            theorem2_bounds([1.0] * 40, 0.0, sched, 1e-9)


class TestBernstein:
    def test_bound_oracle(self):
        # sqrt(2 ln 80) + (ln 80)/3 at B=1, |ES|=1, p=2, delta=0.05
        value = bernstein_bound(1.0, 1.0, 2, 0.05)
        assert value == pytest.approx(4.42108991949289, rel=1e-12)
        assert value == pytest.approx(4.4211, abs=1e-3)

    def test_degenerate_confidence_gives_zero(self):
        assert bernstein_bound(1.0, 1.0, 2, 4.0) == 0.0

    def test_homogeneity_in_b(self):
        log_term = math.log(2 * 2 / 0.05)
        first = math.sqrt(2 * 1.0 * 1.0 * log_term)
        second = (1.0 / 3.0) * log_term
        doubled = bernstein_bound(2.0, 1.0, 2, 0.05)
        assert doubled == pytest.approx(math.sqrt(2) * first + 2 * second, rel=1e-12)

    def test_bound_decreases_with_delta(self):
        bounds = [bernstein_bound(1.0, 5.0, 4, d) for d in (0.01, 0.05, 0.2)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_coverage_deterministic_vectors(self):
        # p=1 makes every summand exactly B, so S = ES in every trial
        rate = bernstein_coverage_test(1, 50, 2.0, 0.1, trials=100, seed=0)
        assert rate == 0.0

    def test_coverage_rademacher(self):
        rate = bernstein_coverage_test(4, 500, 4.0, 0.1, trials=200, seed=5)
        assert rate <= 0.1

    def test_too_few_trials_rejected(self, tmp_path, capsys):
        # the harness trusts trials: the config rejects it when it loads, so
        # the verb that feeds config.trials to bernstein_coverage_test stops
        # before it
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 0, "trials": 50}))
        out = tmp_path / "out"
        assert main(["bernstein-check", "--config", str(cfg), "--out", str(out)]) == 2
        assert "trials must be >= 100, got 50" in capsys.readouterr().err
        assert not out.exists()


class TestSpectrumCurve:
    def test_isotropic_matrix_is_flat(self):
        matrix = np.hstack([np.eye(10), np.zeros((10, 3))])
        curve = spectrum_curve(matrix)
        np.testing.assert_allclose(curve, 1.0, atol=1e-12)

    def test_rank_one_matrix(self):
        u = np.arange(1.0, 7.0)
        v = np.ones(15)
        curve = spectrum_curve(np.outer(u, v))
        assert curve[0] == 1.0
        assert np.all(curve[1:] < 1e-7)

    def test_first_entry_one_and_non_increasing(self):
        rng = np.random.default_rng(2)
        curve = spectrum_curve(rng.normal(size=(12, 60)))
        assert curve[0] == 1.0
        assert np.all(np.diff(curve) <= 1e-12)
        assert curve.size == 10

    def test_feature_matrix_dispatch(self):
        model = new_model(k=4, d=8, gammas=[0.001, 0.002, 0.004, 0.008], c=0.0, sigma=0.01, seed=3)
        fm = mifs_stack(model, SkipSchedule(base_tau=1 / 50, levels=1), seed=4, observe=True)
        assert spectrum_curve(fm.f).size == min(10, model.d)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(10, 30),
        exponent=st.integers(-170, 160),
        seed=st.integers(0, 2**32),
    )
    def test_any_finite_matrix_gives_a_curve_or_a_named_error(self, rows, cols, exponent, seed):
        """Over random finite matrices of any scale, the curve starts at
        exactly 1, never increases and lies in [0, 1], or the Gram matrix
        is rejected by name; no warning either way."""
        matrix = np.random.default_rng(seed).normal(size=(rows, cols)) * 10.0**exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sigmas = spectrum_curve(matrix)
            except ValueError as exc:
                assert "Gram matrix has non-finite entries or eigenvalues" in str(exc)
                return
        assert sigmas[0] == 1.0
        assert np.all(np.diff(sigmas) <= 0.0)
        assert np.all((0.0 <= sigmas) & (sigmas <= 1.0))

    def test_overflowing_top_eigenvalue_rejected(self):
        # each Gram entry is 10 x 2.25e306, finite; the top eigenvalue, 8 times that, is not
        with pytest.raises(ValueError, match="non-finite entries or eigenvalues"):
            spectrum_curve(np.full((8, 10), 1.5e153))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            spectrum_curve(np.zeros((4, 20)))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="need a 2-D matrix"):
            spectrum_curve(np.ones(20))

    def test_too_few_columns_rejected(self):
        with pytest.raises(ValueError, match="10 feature columns"):
            spectrum_curve(np.eye(5))


class TestCoverageExperiment:
    def test_fixed_skip_coverage(self):
        model = new_model(
            k=4, d=4, gammas=[0.0015, 0.0015, 0.012, 0.012], c=0.1, sigma=0.0, seed=0
        )
        summary = coverage_experiment(model, 0.01, 0.1, 100, seed=7, t_samples=2000)
        assert summary.coverage >= 0.9
        assert summary.bounds.bound_lower < summary.mean_beta < summary.bounds.bound_upper
        # observed failures must be plausible under a 90% success rate
        assert binomial_tail_probability(int(summary.within.sum()), 100, 0.9) > 0.01

    def test_singular_trials_need_vacuous_upper(self):
        # flip probabilities underflow here, so every trial is singular and
        # only the infinite upper bound covers it
        model = new_model(k=4, d=4, gammas=[1.0, 1.0, 8.0, 8.0], c=0.1, sigma=0.0, seed=0)
        summary = coverage_experiment(model, 0.01, 0.1, 100, seed=8, t_samples=2000)
        assert math.isinf(summary.bounds.bound_upper)
        assert np.all(np.isinf(summary.betas))
        assert summary.coverage == 1.0

    def test_schedule_route_and_reduction(self):
        g1 = 0.00125
        model = new_model(
            k=4, d=4, gammas=[g1, g1, 4 * g1, 4 * g1], c=0.1, sigma=0.0, seed=0
        )
        fixed = coverage_experiment(model, 1 / 400, 0.1, 100, seed=9)
        sched = SkipSchedule(base_tau=1 / 400, levels=3)
        stacked = coverage_experiment(model, sched, 0.1, 100, seed=9)
        assert stacked.mean_beta < fixed.mean_beta
        assert stacked.var_beta < fixed.var_beta

    def test_determinism(self):
        model = new_model(k=2, d=2, gammas=[0.002, 0.008], c=0.0, sigma=0.0, seed=0)
        a = coverage_experiment(model, 0.01, 0.1, 100, seed=11)
        b = coverage_experiment(model, 0.01, 0.1, 100, seed=11)
        assert np.array_equal(a.betas, b.betas)

    def test_too_few_trials_rejected(self, tmp_path, capsys):
        # the config rejects trials when it loads, so the verb that feeds
        # config.trials to coverage_experiment stops before it
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 0, "trials": 50}))
        out = tmp_path / "out"
        assert main(["sim-condition", "--config", str(cfg), "--out", str(out)]) == 2
        assert "trials must be >= 100, got 50" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_draw_fault_reported_before_the_stacked_budget(self, tmp_path, capsys):
        # level 0 is drawn although masked out, and its flip band fails
        # before the stacked bounds see a one-column budget, as when the
        # fixed route drew on its own
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(FIXED_DRAW_FAULT))
        out = tmp_path / "out"
        assert main(["sim-condition", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma too small for tau") and "tau=0.3," in err
        assert "sample budget" not in err
        assert not out.exists()

    def test_failed_verb_keeps_the_directories_that_were_there(self, tmp_path, capsys):
        # the failed call removes the two directories it made, not the third
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(FIXED_DRAW_FAULT))
        kept = tmp_path / "kept"
        kept.mkdir()
        out = kept / "new" / "out"
        assert main(["sim-condition", "--config", str(cfg), "--out", str(out)]) == 2
        assert "gamma too small for tau" in capsys.readouterr().err
        assert kept.is_dir() and list(kept.iterdir()) == []


class TestBinomialTail:
    def test_all_failures(self):
        assert binomial_tail_probability(0, 10, 0.5) == pytest.approx(2.0**-10, rel=1e-12)

    def test_certain_event(self):
        assert binomial_tail_probability(10, 10, 0.5) == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            binomial_tail_probability(11, 10, 0.5)

    @pytest.mark.parametrize("successes, trials", [(950, 1030), (180, 200), (2700, 3000), (2900, 3000)])
    def test_thousands_of_trials_match_the_exact_sum(self, successes, trials):
        """Summed in log space, the tail matches the exact rational sum at
        1,030 and 3,000 trials, where a float binomial coefficient
        overflows."""
        exact = Fraction(sum(math.comb(trials, i) * 9**i for i in range(successes + 1)), 10**trials)
        assert binomial_tail_probability(successes, trials, 0.9) == pytest.approx(float(exact), rel=1e-10)

    def test_rates_zero_and_one_are_exact(self):
        assert binomial_tail_probability(0, 3000, 0.0) == 1.0
        assert binomial_tail_probability(2999, 3000, 1.0) == 0.0
        assert binomial_tail_probability(3000, 3000, 1.0) == 1.0


def _traced_peak(fn) -> int:
    """Bytes ``fn()`` allocates above what was live when it started."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def _covered(beta: float, lower: float, upper: float) -> bool:
    """The per-trial coverage rule: a singular trial (infinite beta) is
    covered only by a vacuous (infinite) upper bound."""
    if math.isinf(beta):
        return math.isinf(upper)
    return lower <= beta <= upper


class TestOneTrialPath:
    """Batched coverage trials are, bit for bit, condition_number of the
    trial matrix built from the public functions, one trial at a time."""

    G1 = 0.00125

    def model(self, gammas=None, sigma=0.0):
        g1 = self.G1
        gammas = [g1, g1, 4 * g1, 4 * g1] if gammas is None else gammas
        return new_model(k=4, d=4, gammas=gammas, c=0.1, sigma=sigma, seed=0)

    def check(self, summary, draw):
        want = np.array([condition_number(draw(trial)).beta_empirical for trial in range(summary.betas.size)])
        assert summary.betas.tobytes() == want.tobytes()
        covered = [_covered(b, summary.bounds.bound_lower, summary.bounds.bound_upper) for b in want]
        assert summary.within.tolist() == covered

    def test_fixed_route(self):
        model, tau = self.model(), 1 / 400
        # 300 trials: one full block of 256 and a partial one
        summary = coverage_experiment(model, tau, 0.1, 300, seed=9)
        self.check(summary, lambda t: sample_difference_matrix(model, tau, budget(tau), stream(9, t)))
        assert summary.fixed is None

    @pytest.mark.parametrize("t_samples", [4, 9, 2000])
    def test_fixed_route_with_explicit_budget(self, t_samples):
        model = self.model()
        summary = coverage_experiment(model, 0.01, 0.1, 100, seed=4, t_samples=t_samples)
        self.check(summary, lambda t: sample_difference_matrix(model, 0.01, t_samples, stream(4, t)))

    def test_singular_trials(self):
        model = self.model(gammas=[1.0, 1.0, 8.0, 8.0])
        summary = coverage_experiment(model, 0.01, 0.1, 100, seed=8, t_samples=2000)
        assert np.all(np.isinf(summary.betas))
        self.check(summary, lambda t: sample_difference_matrix(model, 0.01, 2000, stream(8, t)))

    @pytest.mark.parametrize(
        "include", [(), (False, True, False, True), (True, False, False, False), (False, False, True, True)]
    )
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_stacked_route(self, include, sigma):
        model = self.model(sigma=sigma)
        schedule = SkipSchedule(base_tau=1 / 400, levels=3, include=include)
        summary = coverage_experiment(model, schedule, 0.1, 260, seed=3)
        self.check(summary, lambda t: mifs_stack(model, schedule, (3, t), observe=False).p)

    @pytest.mark.parametrize(
        "levels, include", [(3, ()), (3, (False, True, False, True)), (3, (False, False, True, True)), (0, ())]
    )
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_stacked_route_carries_the_fixed_route(self, levels, include, sigma):
        """The fixed-skip summary of a stacked run is the fixed route's
        trial at base_tau, drawn once, whether or not level 0 is kept."""
        model, tau = self.model(sigma=sigma), 1 / 400
        schedule = SkipSchedule(base_tau=tau, levels=levels, include=include)
        summary = coverage_experiment(model, schedule, 0.1, 260, seed=3)
        self.check(summary.fixed, lambda t: sample_difference_matrix(model, tau, budget(tau), stream(3, t)))
        fixed = theorem1_bounds(model.gammas[0], model.gammas[-1], model.c, tau, model.k, budget(tau), 0.1)
        assert (summary.fixed.bounds.bound_lower, summary.fixed.bounds.bound_upper) == (fixed.bound_lower, fixed.bound_upper)
        assert summary.fixed.fixed is None


def _bernstein_reference(p_dim, n, b, delta, trials, seed) -> float:
    """bernstein_coverage_test one trial at a time."""
    scale = math.sqrt(b / p_dim)
    norm_es = n * b / p_dim
    radius = bernstein_bound(b, norm_es, p_dim, delta)
    exceed = 0
    for trial in range(trials):
        x = (stream(seed, trial).integers(0, 2, size=(n, p_dim)) * 2.0 - 1.0) * scale
        exceed += float(np.linalg.norm(x.T @ x - norm_es * np.eye(p_dim), ord=2)) > radius
    return exceed / trials


class TestBernsteinOneTrialPath:
    @pytest.mark.parametrize("delta", [1.0, 4.0, 6.0, 8.0])
    def test_blocked_rate_is_the_per_trial_rate(self, delta):
        # these deltas give rates of about 0.01, 0.45, 0.87 and 1
        got = bernstein_coverage_test(4, 50, 4.0, delta, trials=300, seed=5)
        assert got == _bernstein_reference(4, 50, 4.0, delta, 300, 5)
        assert 0.0 < got

    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("delta", [2.0, 4.0, 6.0])
    def test_float32_signs_are_the_integer_signs(self, delta, seed):
        """The reference draws its signs with integers(0, 2). At delta < 1
        the radius clears every deviation norm and the rate is 0 whatever
        the signs, so these deltas, which put the radius inside the spread
        of the norms (rates of about 0.05, 0.4 and 0.87), are the ones
        where a changed sign draw moves the rate."""
        got = bernstein_coverage_test(4, 16, 4.0, delta, trials=300, seed=seed)
        assert got == _bernstein_reference(4, 16, 4.0, delta, 300, seed)
        assert 0.0 < got < 1.0


class TestHarnessMemory:
    """Trials are reduced in fixed-size blocks, so the harness holds a few
    scalars per trial and never a matrix per trial."""

    def test_coverage_peak_grows_by_scalars_per_trial(self):
        gammas = np.geomspace(0.002, 0.02, 8)
        model = new_model(k=8, d=8, gammas=gammas, c=0.1, sigma=0.0, seed=0)

        def peak(trials: int) -> int:
            return _traced_peak(lambda: coverage_experiment(model, 0.01, 0.1, trials, 1, t_samples=16))

        # eight doubles per trial; one 8 x 8 Gram per trial would be 64
        assert peak(3000) - peak(300) <= 8 * 8 * 2700

    def test_stacked_coverage_peak_grows_by_scalars_per_trial(self):
        gammas = np.geomspace(0.002, 0.02, 8)
        model = new_model(k=8, d=8, gammas=gammas, c=0.1, sigma=0.0, seed=0)
        schedule = SkipSchedule(base_tau=0.005, levels=3)

        def peak(trials: int) -> int:
            kept = []
            used = _traced_peak(lambda: kept.append(coverage_experiment(model, schedule, 0.1, trials, 1)))
            # the peak covers the fixed-skip summary the stacked route carries
            assert kept[0].fixed.betas.size == trials
            return used

        assert peak(3000) - peak(300) <= 8 * 8 * 2700

    def test_bernstein_peak_grows_by_scalars_per_trial(self):
        def peak(trials: int) -> int:
            return _traced_peak(lambda: bernstein_coverage_test(8, 16, 4.0, 0.1, trials, 2))

        assert peak(3000) - peak(300) <= 4 * 8 * 2700


class TestNumpyBehaviourPinned:
    """The batched harness gives the per-trial outputs bit for bit because
    of these numpy behaviours; an upgrade that changes one fails here by
    name. (The encoder's pinned behaviours are in test_encoder.py.)"""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 1500),
        lo=st.floats(0.0, 0.5),
        width=st.floats(0.0, 0.5),
    )
    def test_uniform_then_random_is_one_random_call(self, seed, n, lo, width):
        hi = lo + width
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        q, u = one.uniform(lo, hi, n), one.random(n)
        v = two.random(2 * n)
        assert q.tobytes() == (lo + (hi - lo) * v[:n]).tobytes()
        in_place = v[:n].copy()
        in_place *= hi - lo
        in_place += lo
        assert q.tobytes() == in_place.tobytes()
        assert u.tobytes() == v[n:].tobytes()
        assert one.random() == two.random()

    @settings(max_examples=200, deadline=None)
    @given(
        gammas=st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=12),
        tau=st.floats(1e-4, 1.0),
    )
    def test_exp_of_an_array_is_exp_of_each_element(self, gammas, tau):
        each = [np.exp(-np.float64(g) / tau) for g in gammas]
        assert np.exp(-np.asarray(gammas) / tau).tobytes() == np.array(each).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_stacked_eigvalsh_is_per_matrix(self, k):
        rng = np.random.default_rng(k)
        p = rng.integers(-1, 2, size=(300, k, 3 * k)) * 2.0
        p[::7, 0] = 0.0  # singular Grams too
        grams = p @ p.transpose(0, 2, 1) / (3 * k)
        grams[::11] = rng.normal(size=(k, 3 * k)) @ rng.normal(size=(3 * k, k))
        grams[::11] += grams[::11].transpose(0, 2, 1)
        per_matrix = np.array([np.linalg.eigvalsh(g) for g in grams])
        assert np.linalg.eigvalsh(grams).tobytes() == per_matrix.tobytes()

    @pytest.mark.parametrize("shape", [(4, 400), (4, 1000), (9, 37), (50, 4), (400, 8)])
    def test_matmul_into_a_block_is_the_plain_product(self, shape):
        rng = np.random.default_rng(shape[0])
        for p in (rng.normal(size=shape), (rng.integers(0, 2, size=shape) * 2.0 - 1.0) * 0.7):
            block = np.empty((3, shape[0], shape[0]))
            np.matmul(p, p.T, out=block[1])
            assert block[1].tobytes() == (p @ p.T).tobytes()
            block = np.empty((3, shape[1], shape[1]))
            np.matmul(p.T, p, out=block[2])
            assert block[2].tobytes() == (p.T @ p).tobytes()

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_stacked_spectral_norm_is_per_matrix(self, k):
        rng = np.random.default_rng(k)
        s = rng.normal(size=(300, k, k)) * 10.0 ** rng.integers(-3, 4, size=(300, 1, 1))
        s += s.transpose(0, 2, 1)
        per_matrix = np.array([np.linalg.norm(m, ord=2) for m in s])
        assert np.linalg.norm(s, ord=2, axis=(1, 2)).tobytes() == per_matrix.tobytes()
