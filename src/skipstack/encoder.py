"""Descriptor encoding: PCA, Gaussian mixture, Fisher vector, normalization.

The encoding route mirrors the recognition pipeline the theory feeds into:
raw windowed descriptors are PCA-reduced by a factor of two, augmented
with their normalized temporal location, soft-assigned to a diagonal
Gaussian mixture, and summarized as the mixture's normalized mean- and
variance-gradient statistics. Power and L2 normalization follow.

Descriptors from every skip level are pooled into one encoding per
sample; the stacked representation differs from a single-skip one only in
which descriptors enter the pool.

EM, Fisher encoding and ``mean_log_likelihood`` share one E-step kernel,
``_e_step``: it returns the mean log-likelihood and the posterior moments
(mass, sum of x, sum of x^2 per component), of which the M-step and the
Fisher-vector gradients are closed forms.
"""
from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.linalg import lapack_lite

from .config import ExperimentConfig
from .features import SeriesDescriptorSet

EM_MAX_ITERS = 100
EM_TOL = 1e-6
WEIGHT_COLLAPSE = 1e-8
MAX_RESEEDS = 3
VARIANCE_FLOOR_RATIO = 1e-6
MEAN_BLOCK_ROWS = 256


class ConvergenceError(RuntimeError):
    """EM failed to maintain a usable mixture (repeated component collapse)."""


@dataclass
class PcaTransform:
    mean: np.ndarray
    projection: np.ndarray
    explained_ratio: np.ndarray

    def __post_init__(self) -> None:
        gram = self.projection.T @ self.projection
        if not np.allclose(gram, np.eye(self.projection.shape[1]), atol=1e-8):
            raise ValueError("projection columns must be orthonormal")


def _row_order_mean(data: np.ndarray) -> np.ndarray:
    """``data.mean(axis=0)`` of the row-major copy of ``data``, bit for bit,
    without making that copy.

    numpy adds a row-major N x D array (D > 1) down its columns one row at
    a time, from 0, but a column-major one pairwise along each column, so
    the two means may differ in the last bits. Here the rows are added in
    row order to running column sums, a block at a time, through a small
    row-major buffer headed by those sums. A single column is contiguous
    in either order and is summed as it is.
    """
    if data.flags.c_contiguous:
        return data.mean(axis=0)
    n, d = data.shape
    buffer = np.empty((MEAN_BLOCK_ROWS + 1, d))
    total = np.zeros(d)
    for start in range(0, n, MEAN_BLOCK_ROWS):
        rows = data[start : start + MEAN_BLOCK_ROWS]
        buffer[0] = total
        buffer[1 : rows.shape[0] + 1] = rows
        np.add.reduce(buffer[: rows.shape[0] + 1], axis=0, out=total)
    return total / n


def _dgeqrf(data: np.ndarray, tau: np.ndarray, work: np.ndarray, lwork: int) -> None:
    n, d = data.shape
    # data.T is a row-major view of the column-major memory LAPACK reads
    info = lapack_lite.dgeqrf(n, d, data.T, n, tau, work, lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf returned info {info}")


def _householder_r(data: np.ndarray) -> np.ndarray:
    """The D x D triangular factor R of the column-major N x D ``data``
    (N >= D), the R of numpy's QR in mode "r" bit for bit.

    LAPACK's dgeqrf runs in place on ``data``'s memory with the optimal
    workspace, as numpy's QR runs it on a column-major copy of its input;
    ``data`` is left holding the Householder vectors below R.
    """
    d = data.shape[1]
    tau = np.empty(d)
    query = np.empty(1)
    _dgeqrf(data, tau, query, -1)
    work = np.empty(max(1, d, int(query[0])))
    _dgeqrf(data, tau, work, work.size)
    return np.triu(data[:d])


def pca_fit(data: np.ndarray, n_components: int = 0) -> PcaTransform:
    """Centered projection onto the top principal components.

    ``n_components`` 0 keeps the default ceil(D/2), halving the dimension
    like the reference pipeline. The fit consumes ``data``, a writable
    column-major float64 array: it is centered and QR-factored in place,
    so a caller that owns a large pool holds one copy of it and the fit
    makes no other. Afterwards ``data`` holds the factorization, not the
    data. The transform is that of the row-major data bit for bit: the
    mean is summed in row order, and R is numpy's QR's. Pass a copy to
    keep the original.
    """
    if not (
        isinstance(data, np.ndarray)
        and data.dtype == np.float64
        and data.flags.writeable
        and data.flags.f_contiguous
    ):
        raise TypeError(
            "pca_fit factors its data in place and needs a writable column-major float64 array"
        )
    n, d = data.shape
    if n <= d:
        raise ValueError(f"need more samples than dimensions to fit, got N={n}, D={d}")
    if not 0 <= n_components <= d:
        raise ValueError(f"n_components must lie in [0, {d}], got {n_components}")
    mean = _row_order_mean(data)
    data -= mean
    # Right singular vectors of the centered data = covariance eigenvectors.
    # They are those of its D x D triangular factor R, so no N x D left
    # factor is formed. LAPACK's dgesdd runs this same QR first whenever
    # N >= 11D/6, so on tall data the bits are those of the direct SVD.
    _, svals, vt = np.linalg.svd(_householder_r(data), full_matrices=False)
    keep = n_components if n_components else (d + 1) // 2
    components = vt[:keep]
    # make each component's largest-magnitude entry positive so the fit is
    # a pure function of the data
    signs = np.sign(components[np.arange(keep), np.argmax(np.abs(components), axis=1)])
    signs[signs == 0] = 1.0
    components = components * signs[:, None]
    variances = svals**2
    total = variances.sum()
    ratio = variances[:keep] / total if total > 0 else np.zeros(keep)
    return PcaTransform(mean=mean, projection=components.T, explained_ratio=ratio)


def pca_apply(transform: PcaTransform, data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.shape[1] != transform.mean.size:
        raise ValueError(
            f"data dimension {data.shape[1]} does not match the fitted {transform.mean.size}"
        )
    return (data - transform.mean) @ transform.projection


@dataclass
class GmmModel:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood_trace: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        # NaN fails every comparison below, so it is rejected on its own
        for name in ("weights", "means", "variances"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def k(self) -> int:
        return self.weights.size


def _e_step(
    gmm: GmmModel, data: np.ndarray, squares: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """E-step and posterior moments of ``data`` (N x D) under the mixture.

    Returns the mean per-point log-likelihood and, per component, the
    posterior mass sum_n gamma_n(k), the first moments sum_n gamma_n(k) x_n
    and the second moments sum_n gamma_n(k) x_n^2 (K, K x D, K x D).
    ``squares`` is ``data**2``, formed once per data set by the caller.

    The log-densities are built component-major (K x N), so the per-point
    max over components is a contiguous reduction. Every value keeps the
    arithmetic of the point-major form: ``inv @ squares.T`` is the same
    BLAS call as ``squares @ inv.T`` with its operands swapped (at K = 1
    and N = 1 alike), the factor 2 of the cross term is exact on either
    side of the product, and the row sums, the division and the moment
    products run on the N x K posteriors.
    """
    k, n = gmm.k, data.shape[0]
    # the K x N and N x K steps below run in place in one 2 * K * N buffer
    work = np.empty(2 * k * n)
    logd = work[: k * n].reshape(k, n)
    cross = work[k * n :].reshape(k, n)
    inv = 1.0 / gmm.variances
    # ||(x - mu)/sigma||^2 expanded through matmul to avoid a K x N x D array
    np.matmul(inv, squares.T, out=logd)
    np.matmul(2.0 * (gmm.means * inv), data.T, out=cross)
    logd -= cross
    logd += np.sum(gmm.means**2 * inv, axis=1)[:, None]
    logd *= 0.5
    log_norm = -0.5 * (
        data.shape[1] * math.log(2.0 * math.pi) + np.sum(np.log(gmm.variances), axis=1)
    )
    np.subtract((np.log(gmm.weights) + log_norm)[:, None], logd, out=logd)
    top = logd.max(axis=0)
    logd -= top
    np.exp(logd, out=logd)
    # back to point-major for the soft assignments, in the cross buffer
    post = cross.reshape(n, k)
    np.copyto(post, logd.T)
    total = post.sum(axis=1)
    mean_ll = float(np.mean(np.log(total) + top))
    post /= total[:, None]
    return mean_ll, post.sum(axis=0), post.T @ data, post.T @ squares


def mean_log_likelihood(gmm: GmmModel, data: np.ndarray) -> float:
    data = np.asarray(data, dtype=float)
    return _e_step(gmm, data, data**2)[0]


def _seed_means(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding: spread initial means by squared distance."""
    n = data.shape[0]
    means = np.empty((k, data.shape[1]))
    means[0] = data[rng.integers(n)]
    dist = np.sum((data - means[0]) ** 2, axis=1)
    for i in range(1, k):
        total = dist.sum()
        if total <= 0:
            means[i] = data[rng.integers(n)]
            continue
        means[i] = data[rng.choice(n, p=dist / total)]
        dist = np.minimum(dist, np.sum((data - means[i]) ** 2, axis=1))
    return means


def gmm_fit(data: np.ndarray, k_components: int, rng: np.random.Generator) -> GmmModel:
    """Diagonal-covariance EM with k-means++ seeding.

    The mean per-point log-likelihood is recorded at every E-step and is
    non-decreasing; iteration stops when its relative change falls below
    EM_TOL or after EM_MAX_ITERS E-steps. A component whose weight
    collapses below 1e-8 is re-seeded at a random data point (at most 3
    times per component) before the fit is abandoned with ConvergenceError.
    """
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    if n < 10 * k_components:
        raise ValueError(f"need at least {10 * k_components} points for K={k_components}, got {n}")
    data_var = data.var(axis=0)
    data_var[data_var < np.finfo(float).tiny] = 1.0  # unit scale keeps a constant column's floor positive
    floor = VARIANCE_FLOOR_RATIO * data_var
    gmm = GmmModel(
        weights=np.full(k_components, 1.0 / k_components),
        means=_seed_means(data, k_components, rng),
        variances=np.tile(data_var, (k_components, 1)),
    )
    squares = data**2
    trace = []
    reseeds = np.zeros(k_components, dtype=int)
    for _ in range(EM_MAX_ITERS):
        ll, mass, sum_x, sum_x2 = _e_step(gmm, data, squares)
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= EM_TOL * abs(trace[-2]):
            break
        collapsed = np.flatnonzero(mass / n < WEIGHT_COLLAPSE)
        if collapsed.size:
            for comp in collapsed:
                reseeds[comp] += 1
                if reseeds[comp] > MAX_RESEEDS:
                    raise ConvergenceError(
                        f"component {comp} collapsed {reseeds[comp]} times; "
                        f"reduce K or provide more data"
                    )
                gmm.means[comp] = data[rng.integers(n)]
                gmm.variances[comp] = data_var
            gmm.weights = np.full(k_components, 1.0 / k_components)
            continue
        weights = mass / n
        means = sum_x / mass[:, None]
        second = sum_x2 / mass[:, None]
        variances = np.maximum(second - means**2, floor)
        gmm = GmmModel(weights=weights, means=means, variances=variances)
    gmm.log_likelihood_trace = np.asarray(trace)
    return gmm


def gmm_sample(gmm: GmmModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from the mixture."""
    comps = rng.choice(gmm.k, size=n, p=gmm.weights)
    noise = rng.standard_normal((n, gmm.means.shape[1]))
    return gmm.means[comps] + noise * np.sqrt(gmm.variances[comps])


def fisher_vector(gmm: GmmModel, descriptors: np.ndarray) -> np.ndarray:
    """Unnormalized Fisher encoding of a descriptor set under the mixture:
    the mean- and variance-gradient blocks concatenated, 2 * K * D values.

    Mean block (1/(N sqrt(w_k))) sum_n gamma_n(k) (x_n - mu_k)/sigma_k and
    variance block (1/(N sqrt(2 w_k))) sum_n gamma_n(k) ((x_n-mu_k)^2 /
    sigma_k^2 - 1), which are the per-parameter score functions scaled by
    the diagonal Fisher normalization.
    """
    descriptors = np.asarray(descriptors, dtype=float)
    if descriptors.ndim != 2 or descriptors.shape[0] < 1:
        raise ValueError("descriptors must be a non-empty N x D matrix")
    if descriptors.shape[1] != gmm.means.shape[1]:
        raise ValueError(
            f"descriptor dimension {descriptors.shape[1]} does not match "
            f"the mixture dimension {gmm.means.shape[1]}"
        )
    n = descriptors.shape[0]
    _, mass, sum_x, sum_x2 = _e_step(gmm, descriptors, descriptors**2)
    sigma = np.sqrt(gmm.variances)
    # sum_n gamma (x - mu)/sigma, expanded through the accumulated moments
    g_mu = (sum_x - mass[:, None] * gmm.means) / sigma
    g_mu /= n * np.sqrt(gmm.weights)[:, None]
    g_var = (
        sum_x2 - 2.0 * gmm.means * sum_x + mass[:, None] * gmm.means**2
    ) / gmm.variances - mass[:, None]
    g_var /= n * np.sqrt(2.0 * gmm.weights)[:, None]
    return np.concatenate([g_mu.ravel(), g_var.ravel()])


def power_normalize(v: np.ndarray) -> np.ndarray:
    """Elementwise signed square root."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.sqrt(np.abs(v))


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm; the zero vector passes through."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    return v if norm == 0 else v / norm


@dataclass
class FisherCodec:
    pca: PcaTransform
    gmm: GmmModel

    @property
    def encoding_dim(self) -> int:
        return 2 * self.gmm.k * self.gmm.means.shape[1]


def augment(pca: PcaTransform, ds: SeriesDescriptorSet) -> np.ndarray:
    """A sample's PCA-reduced descriptors with their locations as a last
    column: the rows its Fisher encoding reads."""
    reduced = pca_apply(pca, ds.descriptors)
    return np.hstack([reduced, ds.locations[:, None]])


def fit_codec(
    extract: Callable[[int], SeriesDescriptorSet],
    idx: Sequence[int],
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> tuple[FisherCodec, np.ndarray]:
    """Fit PCA on the pooled descriptors and a GMM on the reduced pool.

    ``extract(i)`` makes the descriptor set of sample i; the sets of the
    split ``idx`` all have the same shape. Each is made twice. The first
    pass copies each set into one column-major pool as it is made, so the
    split is never held beside the pool; the PCA fit factors that pool in
    place and consumes it. The second pass augments each set into its
    block of the reduced pool. A set of another shape than the first
    raises ValueError. At most ``config.train_budget`` reduced rows
    (sampled without replacement) train the mixture. The location
    coordinate joins after PCA, so the mixture models motion content plus
    position.

    Returns the codec and the augmented reduced pool: with r rows per set,
    rows k*r to (k+1)*r - 1 are ``augment(codec.pca, extract(idx[k]))``.
    """
    pool = None
    for k, i in enumerate(idx):
        ds = extract(i)
        if pool is None:
            shape = rows, d = ds.descriptors.shape
            pool = np.empty((len(idx) * rows, d), order="F")
        elif ds.descriptors.shape != shape:
            raise ValueError(
                f"descriptor set {k} is {ds.descriptors.shape}, not {shape}: "
                f"every set of a split has the same shape"
            )
        pool[k * rows : (k + 1) * rows] = ds.descriptors
    if pool is None or pool.shape[0] == 0:
        raise ValueError("no descriptors to fit on")
    pca = pca_fit(pool, config.pca_components)
    # the fit left its QR factorization in the pool
    del pool
    reduced = np.empty((len(idx) * rows, pca.projection.shape[1] + 1))
    for k, i in enumerate(idx):
        reduced[k * rows : (k + 1) * rows] = augment(pca, extract(i))
    fit_rows = reduced
    if reduced.shape[0] > config.train_budget:
        pick = rng.choice(reduced.shape[0], size=config.train_budget, replace=False)
        fit_rows = reduced[pick]
    gmm = gmm_fit(fit_rows, config.gmm_components, rng=rng)
    return FisherCodec(pca=pca, gmm=gmm), reduced


def encode_sample(codec: FisherCodec, rows: np.ndarray) -> np.ndarray:
    """The normalized Fisher vector of one sample's augmented rows
    (``augment``'s, or its block of ``fit_codec``'s reduced pool):
    ``codec.encoding_dim`` values of unit norm, or all zeros."""
    raw = fisher_vector(codec.gmm, rows)
    vec = l2_normalize(power_normalize(raw))
    # The second pass only moves the last bits of a vector that is already
    # unit-norm, but the coordinate-descent SVM amplifies those bits into
    # different grid accuracies, so it stays to keep the outputs as they are.
    return l2_normalize(vec)


def save_codec(codec: FisherCodec, path) -> None:
    doc = {
        "pca": {
            "mean": codec.pca.mean.tolist(),
            "projection": codec.pca.projection.tolist(),
            "explained_ratio": codec.pca.explained_ratio.tolist(),
        },
        "gmm": {
            "weights": codec.gmm.weights.tolist(),
            "means": codec.gmm.means.tolist(),
            "variances": codec.gmm.variances.tolist(),
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
