"""Tests for PCA, GMM fitting, Fisher vectors and normalization."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import skipstack.encoder as enc
from skipstack.config import ExperimentConfig
from skipstack.encoder import (
    ConvergenceError,
    FisherCodec,
    GmmModel,
    augment,
    encode_sample,
    fisher_vector,
    fit_codec,
    gmm_fit,
    gmm_sample,
    l2_normalize,
    mean_log_likelihood,
    pca_apply,
    pca_fit,
    power_normalize,
    save_codec,
)
from skipstack.features import SeriesDescriptorSet, SkipSchedule, extract_series_descriptors
from skipstack.streams import stream


CODEC_CONFIG = ExperimentConfig(seed=0, gmm_components=4, train_budget=500)


# --- reference: the point-major E-step that the shared kernel replaced -------
# Kept verbatim (module constants and the seeding helper are looked up on the
# module, so monkeypatches reach both) as the oracle: EM and Fisher encoding
# must reproduce its bits.


def _log_densities(gmm: GmmModel, data: np.ndarray) -> np.ndarray:
    """N x K matrix of log(w_k N(x | mu_k, diag var_k))."""
    inv = 1.0 / gmm.variances
    # expand ||(x - mu)/sigma||^2 through matmul to avoid an N x K x D array
    quad = (
        (data**2) @ inv.T
        - 2.0 * data @ (gmm.means * inv).T
        + np.sum(gmm.means**2 * inv, axis=1)
    )
    log_norm = -0.5 * (
        data.shape[1] * math.log(2.0 * math.pi) + np.sum(np.log(gmm.variances), axis=1)
    )
    return np.log(gmm.weights) + log_norm - 0.5 * quad


def _posteriors(gmm: GmmModel, data: np.ndarray) -> tuple[np.ndarray, float]:
    """Soft assignments (rows sum to 1) and mean per-point log-likelihood."""
    logd = _log_densities(gmm, data)
    top = logd.max(axis=1, keepdims=True)
    stable = np.exp(logd - top)
    total = stable.sum(axis=1, keepdims=True)
    mean_ll = float(np.mean(np.log(total) + top))
    return stable / total, mean_ll


def reference_gmm_fit(data: np.ndarray, k_components: int, rng: np.random.Generator) -> GmmModel:
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    if n < 10 * k_components:
        raise ValueError(f"need at least {10 * k_components} points for K={k_components}, got {n}")
    data_var = np.maximum(data.var(axis=0), np.finfo(float).tiny)
    floor = enc.VARIANCE_FLOOR_RATIO * data_var
    gmm = GmmModel(
        weights=np.full(k_components, 1.0 / k_components),
        means=enc._seed_means(data, k_components, rng),
        variances=np.tile(data_var, (k_components, 1)),
    )
    trace = []
    reseeds = np.zeros(k_components, dtype=int)
    for _ in range(enc.EM_MAX_ITERS):
        post, ll = _posteriors(gmm, data)
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= enc.EM_TOL * abs(trace[-2]):
            break
        mass = post.sum(axis=0)
        collapsed = np.flatnonzero(mass / n < enc.WEIGHT_COLLAPSE)
        if collapsed.size:
            for comp in collapsed:
                reseeds[comp] += 1
                if reseeds[comp] > enc.MAX_RESEEDS:
                    raise ConvergenceError(
                        f"component {comp} collapsed {reseeds[comp]} times; "
                        f"reduce K or provide more data"
                    )
                gmm.means[comp] = data[rng.integers(n)]
                gmm.variances[comp] = data_var
            gmm.weights = np.full(k_components, 1.0 / k_components)
            continue
        weights = mass / n
        means = (post.T @ data) / mass[:, None]
        second = (post.T @ (data**2)) / mass[:, None]
        variances = np.maximum(second - means**2, floor)
        gmm = GmmModel(weights=weights, means=means, variances=variances)
    gmm.log_likelihood_trace = np.asarray(trace)
    return gmm


def reference_fisher_vector(gmm: GmmModel, descriptors: np.ndarray) -> np.ndarray:
    descriptors = np.asarray(descriptors, dtype=float)
    n = descriptors.shape[0]
    post, _ = _posteriors(gmm, descriptors)
    sigma = np.sqrt(gmm.variances)
    mass = post.sum(axis=0)
    sum_x = post.T @ descriptors
    sum_x2 = post.T @ (descriptors**2)
    # sum_n gamma (x - mu)/sigma, expanded through the accumulated moments
    g_mu = (sum_x - mass[:, None] * gmm.means) / sigma
    g_mu /= n * np.sqrt(gmm.weights)[:, None]
    g_var = (
        sum_x2 - 2.0 * gmm.means * sum_x + mass[:, None] * gmm.means**2
    ) / gmm.variances - mass[:, None]
    g_var /= n * np.sqrt(2.0 * gmm.weights)[:, None]
    return np.concatenate([g_mu.ravel(), g_var.ravel()])


def clustered(n, dim, seed, centers=6):
    """Points around a few random centers, so EM runs many iterations."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=3.0, size=(centers, dim))
    scales = rng.uniform(0.3, 1.5, size=(centers, dim))
    pick = rng.integers(centers, size=n)
    return means[pick] + rng.normal(size=(n, dim)) * scales[pick]


def assert_same_gmm(got: GmmModel, want: GmmModel) -> None:
    for name in ("weights", "means", "variances", "log_likelihood_trace"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def toy_descriptor_sets(n_sets=6, frames=64, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    sched = SkipSchedule(1.0 / frames, 1)
    return [
        extract_series_descriptors(rng.normal(size=(frames, channels)), sched, window=4)
        for _ in range(n_sets)
    ]


class TestPca:
    def test_low_rank_data_reconstructs_exactly(self):
        rng = np.random.default_rng(0)
        basis = rng.normal(size=(3, 6))
        data = rng.normal(size=(50, 3)) @ basis
        t = pca_fit(np.asfortranarray(data))
        reduced = pca_apply(t, data)
        reconstructed = reduced @ t.projection.T + t.mean
        np.testing.assert_allclose(reconstructed, data, atol=1e-10)

    def test_projection_orthonormal(self):
        data = np.random.default_rng(1).normal(size=(100, 9))
        t = pca_fit(np.asfortranarray(data))
        assert t.projection.shape == (9, 5)  # ceil(9/2)
        np.testing.assert_allclose(t.projection.T @ t.projection, np.eye(5), atol=1e-8)

    def test_isotropic_explained_ratio(self):
        data = np.random.default_rng(2).normal(size=(20000, 6))
        t = pca_fit(np.asfortranarray(data))
        np.testing.assert_allclose(t.explained_ratio, 1 / 6, atol=0.01)

    def test_apply_is_deterministic_given_transform(self):
        data = np.random.default_rng(3).normal(size=(40, 4))
        t = pca_fit(np.asfortranarray(data))
        assert np.array_equal(pca_apply(t, data), pca_apply(t, data))

    def test_explicit_component_count(self):
        data = np.asfortranarray(np.random.default_rng(6).normal(size=(80, 9)))
        t = pca_fit(data, n_components=3)
        assert t.projection.shape == (9, 3)
        with pytest.raises(ValueError, match="n_components"):
            pca_fit(data, n_components=10)

    def test_fit_requires_more_samples_than_dims(self):
        with pytest.raises(ValueError, match="more samples"):
            pca_fit(np.zeros((5, 5), order="F"))

    def test_apply_rejects_mismatched_dim(self):
        t = pca_fit(np.asfortranarray(np.random.default_rng(4).normal(size=(30, 4))))
        with pytest.raises(ValueError, match="does not match"):
            pca_apply(t, np.zeros((3, 7)))


def _correlated(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d) * 5.0


def _direct_pca(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projection and explained ratio from the SVD of the centered data
    itself, with the largest-magnitude-entry-positive sign rule."""
    _, svals, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
    keep = (data.shape[1] + 1) // 2
    components = vt[:keep]
    signs = np.sign(components[np.arange(keep), np.argmax(np.abs(components), axis=1)])
    variances = svals**2
    return (components * signs[:, None]).T, variances[:keep] / variances.sum()


def _read_only(data: np.ndarray) -> np.ndarray:
    data.flags.writeable = False
    return data


class TestPcaRoute:
    """The fit takes the SVD of the QR factor R, not of the N x D data."""

    @pytest.mark.parametrize("shape", [(40, 4), (500, 18), (17_600, 18)])
    def test_tall_data_matches_the_direct_svd_bit_for_bit(self, shape):
        # LAPACK's dgesdd runs the same QR first once N >= 11D/6
        data = _correlated(*shape, seed=shape[0])
        t = pca_fit(np.asfortranarray(data))
        projection, ratio = _direct_pca(data)
        assert np.array_equal(t.mean, data.mean(axis=0))
        assert np.array_equal(t.projection, projection)
        assert np.array_equal(t.explained_ratio, ratio)

    @pytest.mark.parametrize("n", [19, 25, 32])
    def test_barely_tall_data_is_close_to_the_direct_svd(self, n):
        # below 11D/6 rows (33 at D = 18) dgesdd skips the QR, so the last
        # bits may differ
        data = _correlated(n, 18, seed=n)
        t = pca_fit(np.asfortranarray(data))
        projection, ratio = _direct_pca(data)
        np.testing.assert_allclose(t.projection.T @ t.projection, np.eye(9), atol=1e-12)
        np.testing.assert_allclose(t.projection, projection, atol=1e-9)
        np.testing.assert_allclose(t.explained_ratio, ratio, rtol=1e-10)

    def test_svd_sees_only_the_triangular_factor(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        pca_fit(np.asfortranarray(_correlated(500, 18, seed=3)))
        assert shapes == [(18, 18)]

    def test_fit_factors_its_data_in_place(self):
        """The fit consumes its column-major pool: the pool is centered and
        QR-factored where it lies, so its top rows hold numpy's R."""
        data = _correlated(300, 9, seed=7)
        pool = np.asfortranarray(data)
        t = pca_fit(pool)
        assert np.array_equal(t.mean, data.mean(axis=0))
        assert np.array_equal(np.triu(pool[:9]), np.linalg.qr(data - t.mean, mode="r"))

    @pytest.mark.parametrize(
        "data",
        [
            np.ones((30, 4)),
            np.ones((30, 4), dtype=np.float32, order="F"),
            np.ones((30, 4), dtype=np.int64, order="F"),
            np.ones((30, 4)).tolist(),
            _read_only(np.ones((30, 4), order="F")),
        ],
        ids=["row-major", "float32", "int64", "list", "read-only"],
    )
    def test_fit_rejects_data_it_cannot_center_in_place(self, data):
        # a private column-major float64 copy would be factored instead, a
        # second pool beside the caller's
        with pytest.raises(TypeError, match="writable column-major float64"):
            pca_fit(data)

    def test_fit_allocates_no_copy_of_its_data(self):
        data = np.asfortranarray(_correlated(17_600, 18, seed=9))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pca_fit(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= 0.05 * data.nbytes


class TestNumpyBehaviourPinned:
    """The in-place PCA route keeps the old outputs because of two numpy
    behaviours; an upgrade that changes either fails here by name."""

    @pytest.mark.parametrize("shape", [(33, 18), (17_600, 18), (225_600, 18)])
    def test_in_place_dgeqrf_gives_numpys_qr_r(self, shape):
        data = _correlated(*shape, seed=shape[0] + 1)
        want = np.linalg.qr(data, mode="r")
        data = np.asfortranarray(data)
        assert np.array_equal(enc._householder_r(data), want)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 700), min_size=1, max_size=6),
        d=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(0, 200),
        zero_column=st.booleans(),
    )
    def test_row_order_mean_is_numpys_row_major_mean(self, rows, d, seed, exponent, zero_column):
        """Sets of any sizes pooled column-major have, summed in row order,
        the mean numpy gives their row-major concatenation."""
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-exponent, exponent, size=d)
        sets = [rng.standard_cauchy(size=(r, d)) * scales for r in rows]
        pooled = np.concatenate(sets)
        if zero_column:
            pooled[:, rng.integers(d)] = -0.0
        assume(pooled.shape[0] > 0)
        want = pooled.mean(axis=0)
        got = enc._row_order_mean(np.asfortranarray(pooled))
        assert got.tobytes() == want.tobytes()


class TestGmmFit:
    def test_two_clusters_recovered(self):
        rng = np.random.default_rng(5)
        a = rng.normal(loc=[-3.0, 0.0], scale=0.3, size=(400, 2))
        b = rng.normal(loc=[3.0, 1.0], scale=0.3, size=(400, 2))
        gmm = gmm_fit(np.vstack([a, b]), 2, rng=stream(5))
        centers = gmm.means[np.argsort(gmm.means[:, 0])]
        np.testing.assert_allclose(centers[0], a.mean(axis=0), atol=0.05)
        np.testing.assert_allclose(centers[1], b.mean(axis=0), atol=0.05)

    def test_single_component_closed_form(self):
        data = np.random.default_rng(6).normal(size=(200, 3)) * [1.0, 2.0, 0.5]
        gmm = gmm_fit(data, 1, rng=stream(6))
        np.testing.assert_allclose(gmm.means[0], data.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(gmm.variances[0], data.var(axis=0), atol=1e-12)
        assert gmm.weights[0] == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_log_likelihood_non_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        data = np.vstack(
            [rng.normal(loc=c, scale=0.5, size=(80, 3)) for c in (-2.0, 0.0, 2.0)]
        )
        gmm = gmm_fit(data, 3, rng=stream(seed))
        trace = gmm.log_likelihood_trace
        assert trace.size >= 2
        drops = np.diff(trace)
        assert np.all(drops >= -1e-9 * np.abs(trace[:-1]))

    def test_posteriors_rows_sum_to_one(self):
        data = np.random.default_rng(7).normal(size=(150, 2))
        gmm = gmm_fit(data, 3, rng=stream(7))
        # the posterior mass of a one-point set is that point's row sum
        masses = [enc._e_step(gmm, x[None, :], x[None, :] ** 2)[1].sum() for x in data]
        np.testing.assert_allclose(masses, 1.0, atol=1e-12)
        assert enc._e_step(gmm, data, data**2)[1].sum() == pytest.approx(150.0, rel=1e-12)

    def test_constant_column_gives_finite_parameters(self):
        # one window per sample puts every location at exactly 0.5
        data = np.random.default_rng(11).normal(size=(100, 3))
        data[:, 1] = 0.5
        gmm = gmm_fit(data, 2, rng=stream(11))
        for values in (gmm.weights, gmm.means, gmm.variances, gmm.log_likelihood_trace):
            assert np.isfinite(values).all()
        assert np.all(gmm.means[:, 1] == 0.5)

    def test_requires_ten_points_per_component(self):
        with pytest.raises(ValueError, match="at least"):
            gmm_fit(np.zeros((19, 2)), 2, stream(0))

    def test_collapsed_component_is_reseeded(self, monkeypatch):
        data = np.random.default_rng(8).normal(size=(100, 2))
        original = enc._seed_means

        def far_seeding(d, k, rng):
            means = original(d, k, rng)
            means[1] = 1e8  # underflows every density: immediate collapse
            return means

        monkeypatch.setattr(enc, "_seed_means", far_seeding)
        gmm = gmm_fit(data, 2, rng=stream(8))
        assert np.all(np.abs(gmm.means) < 1e3)

    def test_repeated_collapse_raises(self, monkeypatch):
        data = np.random.default_rng(9).normal(size=(100, 2))
        monkeypatch.setattr(enc, "MAX_RESEEDS", 0)
        original = enc._seed_means

        def far_seeding(d, k, rng):
            means = original(d, k, rng)
            means[1] = 1e8
            return means

        monkeypatch.setattr(enc, "_seed_means", far_seeding)
        with pytest.raises(ConvergenceError, match="collapsed"):
            gmm_fit(data, 2, rng=stream(9))

    def test_determinism(self):
        data = np.random.default_rng(10).normal(size=(200, 2))
        a = gmm_fit(data, 2, rng=stream(10))
        b = gmm_fit(data, 2, rng=stream(10))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)


class TestMatchesPointMajorReference:
    """EM and Fisher encoding keep every bit of the point-major E-step."""

    @pytest.mark.parametrize(
        "k, n, dim",
        [(k, 1800, 10) for k in (1, 2, 5, 8, 12, 16, 24)]
        + [(8, 100, 10), (16, 9000, 10), (16, 17600, 10), (1, 9000, 10), (1, 17600, 10)]
        + [(k, 1800, dim) for k in (1, 5, 24) for dim in (2, 19)]
        + [(2, 100, 2), (12, 9000, 19)],
    )
    def test_gmm_fit(self, k, n, dim):
        data = clustered(n, dim, seed=k * 1000 + dim)
        assert_same_gmm(gmm_fit(data, k, rng=stream(k, n)), reference_gmm_fit(data, k, rng=stream(k, n)))

    @pytest.fixture
    def far_seeding(self, monkeypatch):
        original = enc._seed_means

        def far_seeding(d, k, rng):
            means = original(d, k, rng)
            means[1] = 1e8  # underflows every density: immediate collapse
            return means

        monkeypatch.setattr(enc, "_seed_means", far_seeding)

    def test_gmm_fit_after_a_reseed(self, far_seeding):
        for k, n, dim in ((2, 100, 2), (5, 1800, 10)):
            data = clustered(n, dim, seed=n)
            got = gmm_fit(data, k, rng=stream(8))
            assert_same_gmm(got, reference_gmm_fit(data, k, rng=stream(8)))

    def test_gmm_fit_convergence_error(self, far_seeding, monkeypatch):
        monkeypatch.setattr(enc, "MAX_RESEEDS", 0)
        data = clustered(300, 3, seed=9)
        with pytest.raises(ConvergenceError) as want:
            reference_gmm_fit(data, 3, rng=stream(9))
        with pytest.raises(ConvergenceError) as got:
            gmm_fit(data, 3, rng=stream(9))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("k, dim", [(1, 10), (2, 2), (5, 19), (16, 10), (24, 10)])
    @pytest.mark.parametrize("rows", [1, 7, 200])
    def test_fisher_vector(self, k, dim, rows):
        gmm = gmm_fit(clustered(10 * k + 200, dim, seed=k), k, rng=stream(k))
        x = clustered(rows, dim, seed=rows + k)
        assert np.array_equal(fisher_vector(gmm, x), reference_fisher_vector(gmm, x))

    def test_mean_log_likelihood(self):
        gmm = random_gmm(5, 10, 3)
        for rows in (1, 7, 1800):
            x = clustered(rows, 10, seed=rows)
            assert mean_log_likelihood(gmm, x) == _posteriors(gmm, x)[1]


def random_gmm(k, dim, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=k)
    return GmmModel(
        weights=w / w.sum(),
        means=rng.normal(scale=2.0, size=(k, dim)),
        variances=rng.uniform(0.5, 2.0, size=(k, dim)),
    )


class TestGmmModel:
    @pytest.mark.parametrize(
        "weights, means, variances, match",
        [
            ([0.5, 0.6], [[0.0], [1.0]], [[1.0], [1.0]], "sum to 1"),
            ([1.5, -0.5], [[0.0], [1.0]], [[1.0], [1.0]], "positive"),
            ([0.5, 0.5], [[0.0], [1.0]], [[1.0], [0.0]], "positive"),
            ([np.nan, np.nan], [[0.0], [0.0]], [[np.nan], [1.0]], "weights must be finite"),
            ([0.5, 0.5], [[0.0], [np.nan]], [[1.0], [1.0]], "means must be finite"),
            ([0.5, 0.5], [[np.inf], [0.0]], [[1.0], [1.0]], "means must be finite"),
            ([0.5, 0.5], [[0.0], [1.0]], [[np.nan], [1.0]], "variances must be finite"),
            ([0.5, 0.5], [[0.0], [1.0]], [[np.inf], [1.0]], "variances must be finite"),
        ],
    )
    def test_invalid_parameters_rejected(self, weights, means, variances, match):
        with pytest.raises(ValueError, match=match):
            GmmModel(weights=weights, means=means, variances=variances)


class TestFisherVector:
    def test_single_component_at_mode(self):
        gmm = GmmModel(weights=[1.0], means=[[1.0, -2.0]], variances=[[1.0, 4.0]])
        x = np.tile([1.0, -2.0], (10, 1))
        fv = fisher_vector(gmm, x)
        np.testing.assert_allclose(fv[:2], 0.0, atol=1e-12)
        np.testing.assert_allclose(fv[2:], -1.0 / math.sqrt(2.0), atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_difference_gradients(self, seed):
        """Analytic blocks equal the scaled central differences of the mean
        log-likelihood with respect to means and standard deviations."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(10, 51))
        gmm = random_gmm(k, dim, seed)
        x = rng.normal(scale=2.0, size=(n, dim))
        fv = fisher_vector(gmm, x)
        g_mu = fv[: k * dim].reshape(k, dim)
        g_var = fv[k * dim :].reshape(k, dim)
        h = 1e-5
        sigma = np.sqrt(gmm.variances)
        fd_mu = np.empty_like(g_mu)
        fd_sigma = np.empty_like(g_var)
        for a in range(k):
            for d in range(dim):
                mp = gmm.means.copy()
                mp[a, d] += h
                mm = gmm.means.copy()
                mm[a, d] -= h
                up = GmmModel(gmm.weights, mp, gmm.variances)
                dn = GmmModel(gmm.weights, mm, gmm.variances)
                fd_mu[a, d] = (mean_log_likelihood(up, x) - mean_log_likelihood(dn, x)) / (2 * h)
                sp = sigma.copy()
                sp[a, d] += h
                sm = sigma.copy()
                sm[a, d] -= h
                up = GmmModel(gmm.weights, gmm.means, sp**2)
                dn = GmmModel(gmm.weights, gmm.means, sm**2)
                fd_sigma[a, d] = (mean_log_likelihood(up, x) - mean_log_likelihood(dn, x)) / (2 * h)
        expected_mu = fd_mu * sigma / np.sqrt(gmm.weights)[:, None]
        expected_var = fd_sigma * sigma / np.sqrt(2.0 * gmm.weights)[:, None]
        assert np.linalg.norm(g_mu - expected_mu) <= 1e-5 * max(np.linalg.norm(expected_mu), 1e-3)
        assert np.linalg.norm(g_var - expected_var) <= 1e-5 * max(np.linalg.norm(expected_var), 1e-3)

    def test_score_of_own_samples_vanishes(self):
        gmm = GmmModel(
            weights=[0.4, 0.6],
            means=[[-2.0, 0.0, 1.0], [2.0, 1.0, -1.0]],
            variances=[[1.0, 0.5, 1.5], [0.8, 1.2, 1.0]],
        )
        x = gmm_sample(gmm, 10**5, stream(11))
        fv = fisher_vector(gmm, x)
        assert np.linalg.norm(fv) < 0.02

    def test_dimension_mismatch_rejected(self):
        gmm = random_gmm(2, 3, 0)
        with pytest.raises(ValueError, match="does not match"):
            fisher_vector(gmm, np.zeros((5, 4)))

    def test_empty_descriptors_rejected(self):
        gmm = random_gmm(2, 3, 0)
        with pytest.raises(ValueError, match="non-empty"):
            fisher_vector(gmm, np.zeros((0, 3)))


class TestNormalization:
    def test_power(self):
        np.testing.assert_allclose(power_normalize([4.0, -9.0, 0.0]), [2.0, -3.0, 0.0])

    def test_l2(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_l2_zero_passthrough(self):
        z = np.zeros(4)
        assert np.array_equal(l2_normalize(z), z)

    def test_chain_output_unit_norm(self):
        rng = np.random.default_rng(12)
        out = l2_normalize(power_normalize(rng.normal(size=50)))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)


class TestCodec:
    def test_encoding_dimension(self):
        sets = toy_descriptor_sets()
        codec, _ = fit_codec(sets.__getitem__, range(len(sets)), CODEC_CONFIG, rng=stream(13))
        d_raw = sets[0].descriptors.shape[1]
        d_reduced = (d_raw + 1) // 2
        assert codec.encoding_dim == 2 * 4 * (d_reduced + 1)
        e = encode_sample(codec, augment(codec.pca, sets[0]))
        assert e.size == codec.encoding_dim
        assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-10)

    def test_identical_descriptors_identical_encodings(self):
        sets = toy_descriptor_sets()
        codec, _ = fit_codec(sets.__getitem__, range(len(sets)), CODEC_CONFIG, rng=stream(14))
        a = encode_sample(codec, augment(codec.pca, sets[2]))
        b = encode_sample(codec, augment(codec.pca, sets[2]))
        assert np.array_equal(a, b)

    def test_reduced_pool_holds_each_sets_augmented_rows(self):
        """The pool fit_codec returns is, block by block, what augment gives
        each set, so the training samples encode from it bit for bit."""
        sets = toy_descriptor_sets()
        codec, reduced = fit_codec(sets.__getitem__, range(len(sets)), CODEC_CONFIG, rng=stream(17))
        assert reduced.shape[0] == sum(ds.descriptors.shape[0] for ds in sets)
        for ds, rows in zip(sets, np.split(reduced, len(sets))):
            assert np.array_equal(rows, augment(codec.pca, ds))

    def test_ragged_set_rejected(self):
        sets = toy_descriptor_sets()
        short = sets[3]
        sets[3] = SeriesDescriptorSet(
            descriptors=short.descriptors[:-1],
            locations=short.locations[:-1],
            level_of_row=short.level_of_row[:-1],
        )
        with pytest.raises(ValueError, match="descriptor set 3 is"):
            fit_codec(sets.__getitem__, range(len(sets)), CODEC_CONFIG, rng=stream(19))

    def test_fit_never_calls_numpys_qr(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the codec fit copied its pool into numpy's QR")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        sets = toy_descriptor_sets()
        fit_codec(sets.__getitem__, range(len(sets)), CODEC_CONFIG, rng=stream(24))

    def test_no_descriptors_rejected(self):
        with pytest.raises(ValueError, match="no descriptors"):
            fit_codec([].__getitem__, range(0), CODEC_CONFIG, rng=stream(20))

    def test_saved_codec_holds_the_fit_bit_for_bit(self, tmp_path):
        sets = toy_descriptor_sets()
        codec, _ = fit_codec(sets.__getitem__, range(len(sets)), CODEC_CONFIG, rng=stream(16))
        path = tmp_path / "codec.json"
        save_codec(codec, path)
        # strict JSON: a NaN or Infinity token fails the test
        doc = json.loads(path.read_text(), parse_constant=pytest.fail)
        assert set(doc["pca"]) == {"mean", "projection", "explained_ratio"}
        assert set(doc["gmm"]) == {"weights", "means", "variances"}
        for part in ("pca", "gmm"):
            for name, value in doc[part].items():
                want = getattr(getattr(codec, part), name)
                got = np.asarray(value)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (part, name)
