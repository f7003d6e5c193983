"""Tests for the latent signal model.

Closed-form oracle values (flip probabilities, second moments) are frozen
into the assertions; Monte Carlo checks run with fixed seeds so they are
deterministic.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skipstack.latent import (
    LatentModel,
    flip_band,
    new_model,
    sample_difference_matrix,
    save_model,
)
from skipstack.streams import stream


class TestModelConstruction:
    def test_one_dimensional_direction_is_unit(self):
        model = new_model(k=1, d=1, gammas=[1.0], c=0.0, sigma=0.0, seed=7)
        assert model.xbar.shape == (1, 1)
        assert abs(abs(model.xbar[0, 0]) - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(1, 8), extra=st.integers(0, 8), seed=st.integers(0, 2**32))
    @example(k=2, extra=2, seed=42)
    def test_directions_are_orthonormal(self, k, extra, seed):
        """new_model is the only constructor, and its sign-fixed QR alone
        makes xbar a d x k matrix with orthonormal columns."""
        model = new_model(k=k, d=k + extra, gammas=[1.0] * k, c=0.2, sigma=0.01, seed=seed)
        assert model.xbar.shape == (k + extra, k)
        np.testing.assert_allclose(model.xbar.T @ model.xbar, np.eye(k), atol=1e-10)

    def test_same_seed_same_directions(self):
        a = new_model(k=3, d=8, gammas=[1.0, 2.0, 3.0], c=0.1, sigma=0.0, seed=5)
        b = new_model(k=3, d=8, gammas=[1.0, 2.0, 3.0], c=0.1, sigma=0.0, seed=5)
        assert np.array_equal(a.xbar, b.xbar)


class TestFlipBand:
    def test_band_endpoints_no_slack(self):
        # with c = 0 the band collapses to the single point exp(-gamma/tau)/2
        lo, hi = flip_band(gamma=1.0, tau=1.0, c=0.0)
        assert lo == hi == pytest.approx(math.exp(-1.0) / 2, abs=1e-15)
        assert lo == pytest.approx(0.18394, abs=1e-5)

    def test_band_scales_with_slack(self):
        lo, hi = flip_band(gamma=2.0, tau=0.5, c=0.3)
        assert lo == pytest.approx(math.exp(-4.0) / 2)
        assert hi == pytest.approx(1.3 * math.exp(-4.0) / 2)

    def test_fast_component_rejected(self):
        # (1 + 0.5) * exp(-0.1) / 2 = 0.6786 > 1/2: no valid flip probability
        with pytest.raises(ValueError, match="gamma too small for tau"):
            flip_band(gamma=0.1, tau=1.0, c=0.5)


class TestAlphaPath:
    def test_flip_rate_oracle(self):
        # flip probability exp(-2)/2 = 0.06767 at gamma=1, tau=0.5, c=0
        model = new_model(k=1, d=1, gammas=[1.0], c=0.0, sigma=0.0, seed=9)
        p = sample_difference_matrix(model, tau=0.5, n_cols=5000, rng=stream(9, 4))
        assert np.mean(p != 0) == pytest.approx(math.exp(-2.0) / 2, abs=0.01)

    def test_static_path_never_flips(self):
        model = new_model(k=1, d=1, gammas=[1e9], c=0.0, sigma=0.0, seed=4)
        p = sample_difference_matrix(model, tau=0.1, n_cols=100, rng=stream(4))
        assert not p.any()


class TestDifferenceMatrix:
    def test_entries_in_allowed_set(self):
        model = new_model(k=4, d=8, gammas=[1.0, 2.0, 4.0, 8.0], c=0.1, sigma=0.0, seed=6)
        p = sample_difference_matrix(model, tau=0.001, n_cols=1000, rng=stream(6, 0))
        assert p.shape == (4, 1000)
        assert set(np.unique(p)).issubset({-2.0, 0.0, 2.0})

    @pytest.mark.parametrize(
        "gamma,tau,c",
        [
            (1.0, 1.0, 0.0),
            (2.0, 1.0, 0.2),
            (0.5, 0.25, 0.1),
            (3.0, 0.5, 0.5),
            (1.2, 0.3, 0.0),
        ],
    )
    def test_moment_band(self, gamma, tau, c):
        """Empirical E[(alpha' - alpha)^2] stays inside the dynamics band.

        The band is [2 exp(-g/t), 2 (1+c) exp(-g/t)] widened by five
        standard errors of the Monte Carlo mean.
        """
        n = 20000
        model = new_model(k=1, d=1, gammas=[gamma], c=c, sigma=0.0, seed=17)
        p = sample_difference_matrix(model, tau=tau, n_cols=n, rng=stream(17, 1))
        m = np.mean(p**2)
        lo, hi = flip_band(gamma, tau, c)
        eps = 5 * math.sqrt(16 * hi * (1 - hi) / n)
        assert 4 * lo - eps <= m <= 4 * hi + eps

    def test_alpha_mean_vanishes(self):
        n = 50000
        model = new_model(k=1, d=1, gammas=[1.0], c=0.0, sigma=0.0, seed=23)
        rng = stream(23, 0)
        alpha = rng.integers(0, 2, size=n) * 2.0 - 1.0
        assert abs(np.mean(alpha)) < 4 / math.sqrt(n)

    def test_cross_signal_rows_uncorrelated(self):
        n = 20000
        model = new_model(k=3, d=4, gammas=[1.0, 2.0, 4.0], c=0.2, sigma=0.0, seed=29)
        p = sample_difference_matrix(model, tau=0.5, n_cols=n, rng=stream(29, 0))
        # difference rows inherit independence from the alpha draws
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.mean(p[i] * p[j])) < 4 * 4 / math.sqrt(n)

    def test_second_moment_oracle(self):
        # E[(alpha' - alpha)^2] = 2 exp(-1) = 0.7357588823428847 when
        # gamma = tau = 1 and c = 0; 10^6 pairs, tolerance ~2 sigma
        model = new_model(k=1, d=1, gammas=[1.0], c=0.0, sigma=0.0, seed=11)
        p = sample_difference_matrix(model, tau=1.0, n_cols=10**6, rng=stream(11, 0))
        assert np.mean(p**2) == pytest.approx(0.7357588823428847, abs=0.003)

    def test_determinism(self):
        model = new_model(k=2, d=4, gammas=[1.0, 3.0], c=0.1, sigma=0.0, seed=31)
        a = sample_difference_matrix(model, tau=0.2, n_cols=500, rng=stream(31, 0))
        b = sample_difference_matrix(model, tau=0.2, n_cols=500, rng=stream(31, 0))
        assert np.array_equal(a, b)


def _reference_difference_matrix(model, tau, n_cols, rng):
    """The sampler as first written, three generator calls per row: the
    stream contract that sample_difference_matrix must keep bit for bit."""
    p = np.empty((model.k, n_cols))
    for i, gamma in enumerate(model.gammas):
        lo, hi = flip_band(gamma, tau, model.c)
        alpha = rng.integers(0, 2, size=n_cols) * 2.0 - 1.0
        q = rng.uniform(lo, hi, size=n_cols)
        flipped = rng.random(n_cols) < q
        p[i] = np.where(flipped, -2.0 * alpha, 0.0)
    return p


class TestStreamContract:
    @settings(max_examples=150, deadline=None)
    @given(
        gammas=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=6),
        c=st.floats(0.0, 0.9),
        tau=st.floats(0.05, 1.0),
        n_cols=st.integers(1, 700),
        seed=st.integers(0, 2**32 - 1),
    )
    # the bench theory shapes, k = 4 at the four budgets
    @example(gammas=[0.2, 0.4, 0.8, 1.6], c=0.1, tau=0.25, n_cols=400, seed=0)
    @example(gammas=[0.2, 0.4, 0.8, 1.6], c=0.1, tau=0.5, n_cols=200, seed=1)
    @example(gammas=[0.2, 0.4, 0.8, 1.6], c=0.1, tau=0.75, n_cols=133, seed=2)
    @example(gammas=[0.2, 0.4, 0.8, 1.6], c=0.1, tau=1.0, n_cols=100, seed=3)
    # odd n: a row's signs leave a spare half word that the next row's signs
    # read; odd k * n leaves one after the last row
    @example(gammas=[0.5, 1.0, 2.0], c=0.2, tau=0.5, n_cols=133, seed=7)
    @example(gammas=[1.0], c=0.0, tau=0.5, n_cols=1, seed=8)
    @example(gammas=[0.3, 0.6, 0.9, 1.2, 1.5], c=0.5, tau=0.3, n_cols=699, seed=9)
    def test_draws_match_the_reference_sampler(self, gammas, c, tau, n_cols, seed):
        gammas = sorted(gammas)
        model = new_model(k=len(gammas), d=len(gammas), gammas=gammas, c=c, sigma=0.0, seed=0)
        ours, ref = stream(seed, 1), stream(seed, 1)
        try:
            want = _reference_difference_matrix(model, tau, n_cols, ref)
        except ValueError as exc:
            with pytest.raises(ValueError, match="gamma too small") as caught:
                sample_difference_matrix(model, tau, n_cols, ours)
            assert str(caught.value) == str(exc)
            return
        assert sample_difference_matrix(model, tau, n_cols, ours).tobytes() == want.tobytes()
        # and the stream is left where the reference leaves it
        assert ours.random() == ref.random()

    def test_peak_memory_at_most_the_reference(self):
        model = new_model(k=2, d=2, gammas=[1.0, 3.0], c=0.1, sigma=0.0, seed=2)

        def peak(sampler) -> int:
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                sampler(model, 0.5, 10**6, stream(2, 0))
                return tracemalloc.get_traced_memory()[1] - entry
            finally:
                tracemalloc.stop()

        ours = peak(sample_difference_matrix)
        assert ours <= peak(_reference_difference_matrix)
        # the matrix, one row's 2n uniforms, n float32 signs and their n-byte
        # mask, and a little slack
        assert ours <= 8 * 2 * 10**6 + 16 * 10**6 + 5 * 10**6 + 2**17


class TestNumpyBehaviourPinned:
    """sample_difference_matrix keeps the reference's bits because of this
    numpy behaviour; an upgrade that changes it fails here by name."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(1, 800), min_size=1, max_size=6),
    )
    @example(seed=0, counts=[1, 3, 5, 7, 133, 400])
    @example(seed=1, counts=[1])
    def test_float32_top_half_is_integers_0_2(self, seed, counts):
        """random(n, float32) >= 0.5 is integers(0, 2, n), and both leave
        the stream in the same place, spare half word included."""
        floats, ints = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in counts:
            signs = floats.random(n, dtype=np.float32) >= 0.5
            assert np.array_equal(signs, ints.integers(0, 2, n) == 1)
            assert floats.random() == ints.random()
            # after an odd total this reads the half word the signs left spare
            assert np.array_equal(floats.integers(0, 2, 3), ints.integers(0, 2, 3))


class TestPersistence:
    def test_saved_values_are_bit_exact(self, tmp_path):
        model = new_model(k=3, d=6, gammas=[0.7, 1.3, 9.0], c=0.25, sigma=0.05, seed=101)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert (doc["k"], doc["d"], doc["c"], doc["sigma"], doc["seed"]) == (3, 6, 0.25, 0.05, 101)
        assert np.asarray(doc["gammas"]).tobytes() == model.gammas.tobytes()
        # row-major d x k
        assert np.asarray(doc["xbar"]).reshape(6, 3).tobytes() == model.xbar.tobytes()

    def test_field_names_are_stable(self, tmp_path):
        model = new_model(k=1, d=2, gammas=[1.0], c=0.0, sigma=0.0, seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"k", "d", "gammas", "c", "sigma", "seed", "xbar"}
        assert len(doc["xbar"]) == model.d * model.k
