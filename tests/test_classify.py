"""Tests for the one-vs-all hinge classifier and evaluation metrics."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skipstack import classify
from skipstack.classify import (
    SVM_EPOCHS,
    SVM_TOL,
    OneVsAllClassifier,
    LinearModel,
    _average_precision,
    _objective,
    _weight_steps,
    evaluate,
    load_classifier,
    predict,
    save_classifier,
    svm_train_many,
)
from skipstack.streams import stream


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def train(x, labels, c, seed=0, **kwargs):
    """The classifier of one feature matrix."""
    return svm_train_many([x], labels, c, [seed], **kwargs)[0]


def blobs(seed=0, n=40, gap=4.0):
    """Two well-separated Gaussian blobs with labels 0/1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-gap / 2, 0.0), scale=0.4, size=(n, 2))
    b = rng.normal(loc=(gap / 2, 0.0), scale=0.4, size=(n, 2))
    x = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    return x, y


# --- reference: the one-problem solver that the batched kernel replaced ------
# Kept verbatim as the oracle: the batched kernel must reproduce its bits.


def _exact_weight_step(w_j: float, coef: np.ndarray, r: np.ndarray, c: float) -> float:
    """Exact minimizer over delta of (1/2)(w_j + delta)^2 + C sum max(0, r - delta*coef)."""
    nz = coef != 0.0
    if not nz.any():
        return -w_j
    coef = coef[nz]
    breaks = r[nz] / coef
    order = np.argsort(breaks, kind="stable")
    breaks = breaks[order]
    drop = np.abs(coef[order])
    # sum of active coefficients left of every breakpoint, then after each
    s_levels = np.empty(breaks.size + 1)
    s_levels[0] = coef[coef > 0].sum()
    np.subtract(s_levels[0], np.cumsum(drop), out=s_levels[1:])
    # zero of the linear derivative on each open segment
    candidates = c * s_levels - w_j
    lower = np.concatenate(([-np.inf], breaks))
    upper = np.concatenate((breaks, [np.inf]))
    valid = (candidates >= lower) & (candidates <= upper)
    if valid.any():
        return float(candidates[np.argmax(valid)])
    # derivative jumps across zero at a breakpoint
    right_slope = w_j + breaks - c * s_levels[1:]
    hit = right_slope >= 0.0
    return float(breaks[np.argmax(hit)]) if hit.any() else float(breaks[-1])


def _exact_bias_step(y: np.ndarray, r: np.ndarray, c: float) -> float:
    """Exact minimizer over delta of sum max(0, r - delta*y): piecewise linear."""
    breaks = r / y
    order = np.argsort(breaks, kind="stable")
    breaks = breaks[order]
    s_levels = np.empty(breaks.size + 1)
    s_levels[0] = np.sum(y > 0)
    np.subtract(s_levels[0], np.cumsum(np.abs(y[order])), out=s_levels[1:])
    # derivative right of breakpoint k is -C * s_levels[k+1]
    hit = -c * s_levels[1:] >= 0.0
    return float(breaks[np.argmax(hit)]) if hit.any() else float(breaks[-1])


def _train_binary(
    x: np.ndarray,
    y: np.ndarray,
    c: float,
    epochs: int,
    tol: float,
    seed,
) -> LinearModel:
    n, dim = x.shape
    w = np.zeros(dim)
    b = 0.0
    margins = np.zeros(n)  # y * (x @ w + b), maintained incrementally
    rng = stream(seed) if not isinstance(seed, np.random.Generator) else seed
    trace = []
    prev = _objective(w, margins, c)
    trace.append(prev)
    epochs_run = 0
    for _ in range(epochs):
        epochs_run += 1
        # kill incremental drift once per epoch
        margins = y * (x @ w + b)
        for j in rng.permutation(dim):
            coef = y * x[:, j]
            delta = _exact_weight_step(w[j], coef, 1.0 - margins, c)
            if delta != 0.0:
                w[j] += delta
                margins = margins + delta * coef
        delta = _exact_bias_step(y, 1.0 - margins, c)
        if delta != 0.0:
            b += delta
            margins = margins + delta * y
        current = _objective(w, margins, c)
        trace.append(current)
        if abs(prev - current) <= tol * max(1.0, abs(prev)):
            prev = current
            break
        prev = current
    return LinearModel(
        w=w,
        b=b,
        c=c,
        epochs_run=epochs_run,
        objective=prev,
        objective_trace=np.asarray(trace),
    )


def reference_models(x, labels, c, seed, epochs=SVM_EPOCHS, tol=SVM_TOL):
    """The one-vs-all models of the one-problem solver, one class at a time."""
    x, labels = np.asarray(x, dtype=float), np.asarray(labels)
    base = seed if isinstance(seed, tuple) else (seed,)
    return [
        _train_binary(x, np.where(labels == cls, 1.0, -1.0), c, epochs, tol, (*base, idx))
        for idx, cls in enumerate(np.unique(labels))
    ]


def assert_bit_identical(models, expected):
    assert len(models) == len(expected)
    for got, want in zip(models, expected):
        assert got.w.tobytes() == want.w.tobytes()
        assert np.float64(got.b).tobytes() == np.float64(want.b).tobytes()
        assert got.c == want.c
        assert got.epochs_run == want.epochs_run
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        assert got.objective_trace.tobytes() == want.objective_trace.tobytes()


def sparse_features(seed=20, n=30, dim=6):
    """Three classes with many exact zeros and one all-zero column."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    x[rng.random(x.shape) < 0.4] = 0.0
    x[:, 2] = 0.0
    return x, np.arange(n) % 3


def duplicated_rows(seed=21, n=32, dim=5):
    """Every sample twice, on a coarse grid: tied hinge breakpoints."""
    rng = np.random.default_rng(seed)
    half = np.round(rng.normal(size=(n // 2, dim)), 1)
    return np.repeat(half, 2, axis=0), np.repeat(np.arange(n // 2) % 2, 2)


class TestReferenceOracle:
    @pytest.mark.parametrize("c", [1e-3, 1.0, 100.0])
    @pytest.mark.parametrize("make", [blobs, sparse_features, duplicated_rows])
    def test_models_match_the_one_problem_solver(self, make, c):
        x, y = make()
        clf = train(x, y, c, seed=(4, 2))
        assert_bit_identical(clf.models, reference_models(x, y, c, (4, 2)))

    def test_weight_steps_match_the_one_problem_step(self):
        # edge cases: exact zeros, all-zero columns, tied breakpoints, points on the margin
        rng = np.random.default_rng(22)
        rows, n = 3000, 12
        coef = np.round(rng.normal(size=(rows, n)), 1)
        coef[rng.random((rows, n)) < 0.3] = 0.0
        coef[::50] = 0.0
        r = np.round(rng.normal(size=(rows, n)), 1)
        r[rng.random((rows, n)) < 0.2] = 0.0
        w_j = np.round(rng.normal(size=rows), 1)
        w_j[::7] = 0.0
        c = rng.choice([1e-3, 1.0, 100.0], size=rows)
        # no segment holds its candidate, so the step is the last real
        # breakpoint: 12 with every coefficient real, 2 with padding
        coef[:2], r[:2], w_j[:2], c[:2] = 0.0, 0.0, 0.0, 100.0
        coef[0], r[0] = 1.0, np.arange(1.0, n + 1)
        coef[1, :2], r[1, :2] = 1.0, (1.0, 2.0)
        s_first = np.array([row[row > 0].sum() for row in coef])
        got = _weight_steps(w_j, coef, r, c, s_first)
        want = [_exact_weight_step(w_j[i], coef[i], r[i], c[i]) for i in range(rows)]
        assert got.tobytes() == np.array(want).tobytes()
        assert got[:2].tolist() == [12.0, 2.0]

    @settings(max_examples=500, deadline=None)
    @given(FINITE, FINITE, st.integers(-4, 4))
    def test_last_breakpoint_hits_when_its_segment_misses(self, scaled, w_j, ulps):
        """Why ``_weight_steps`` needs no fallback for a row where no
        breakpoint hits: the last segment's candidate ``scaled - w_j``
        missing a breakpoint ``b`` forces ``(w_j + b) - scaled >= 0``.
        ``b`` is drawn within a few ulps of the candidate, where rounding
        could break it."""
        b = scaled - w_j
        for _ in range(abs(ulps)):
            b = math.nextafter(b, math.copysign(math.inf, ulps))
        assume(math.isfinite(b))
        if scaled - w_j < b:
            assert (w_j + b) - scaled >= 0.0

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1.0, 1.0]),
                st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), FINITE),
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([1e-3, 1.0, 100.0]),
    )
    @example([(1.0, 0.5), (1.0, 1.0), (1.0, 0.5)], 1.0)  # all positive, tied
    @example([(-1.0, 0.5), (-1.0, 0.0), (-1.0, 0.5)], 100.0)  # all negative, tied
    @example([(1.0, 0.0), (-1.0, 0.0), (1.0, -0.0), (-1.0, 1.0)], 1e-3)
    def test_bias_step_matches_the_one_problem_step(self, pairs, c):
        """The module's ``_exact_bias_step`` has no fallback for a step where
        no breakpoint hits; its last slope level, -(number of negative
        labels), always hits. It must still equal the oracle bit for bit."""
        y, r = (np.array(column) for column in zip(*pairs))
        got = classify._exact_bias_step(y, r, c)
        want = _exact_bias_step(y, r, c)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def mixed_batch(self):
        # one shape and one label vector, problems that converge after very
        # different epoch counts, int and tuple seeds
        rng = np.random.default_rng(23)
        labels = np.arange(42) % 3
        centers = np.array([[-4.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        separable = centers[labels] + rng.normal(scale=0.4, size=(42, 2))
        overlapping = rng.normal(size=(42, 2))
        return [separable, overlapping, separable], labels, 1.0, [1, (3, 1), 4]

    def test_mixed_batch_matches_the_one_problem_solver(self):
        xs, labels, c, seeds = self.mixed_batch()
        classifiers = svm_train_many(xs, labels, c, seeds)
        epochs = []
        for x, seed, clf in zip(xs, seeds, classifiers, strict=True):
            assert np.array_equal(clf.classes, np.unique(labels))
            assert_bit_identical(clf.models, reference_models(x, labels, c, seed))
            epochs.extend(m.epochs_run for m in clf.models)
        assert max(epochs) >= 5 * min(epochs)

    def test_a_problem_alone_equals_it_inside_a_batch(self):
        xs, labels, c, seeds = self.mixed_batch()
        for x, seed, clf in zip(xs, seeds, svm_train_many(xs, labels, c, seeds), strict=True):
            assert_bit_identical(clf.models, train(x, labels, c, seed).models)

    def test_batch_of_mixed_shapes_rejected(self):
        with pytest.raises(ValueError, match="one shape"):
            svm_train_many([np.eye(4), np.eye(5)], [0, 0, 1, 1], 1.0, [0, 1])

    def test_one_seed_per_matrix(self):
        with pytest.raises(ValueError, match="2 feature matrices but 1 seeds"):
            svm_train_many([np.eye(4), np.eye(4)], [0, 0, 1, 1], 1.0, [0])


class TestTraining:
    def test_separable_blobs_perfect_training_accuracy(self):
        x, y = blobs()
        clf = train(x, y, 100.0, seed=1)
        _, labels = predict(clf, x)
        assert np.mean(labels == y) == 1.0

    def test_training_point_keeps_its_label(self):
        x, y = blobs(seed=2)
        clf = train(x, y, 100.0, seed=2)
        _, label = predict(clf, x[7:8])
        assert label[0] == y[7]

    def test_identical_features_hit_chance_level(self):
        x = np.ones((30, 4))
        y = np.repeat([0, 1, 2], 10)
        clf = train(x, y, 1.0, seed=3)
        report = evaluate(clf, x, y)
        assert report.macc == pytest.approx(100.0 / 3, abs=1e-6)

    def test_objective_beats_zero_vector(self):
        x, y = blobs(seed=4)
        clf = train(x, y, 10.0, seed=4)
        for model in clf.models:
            assert model.objective <= 10.0 * len(y) + 1e-9

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 8))
        y = rng.integers(0, 2, size=60)
        clf = train(x, y, 5.0, seed=5)
        for model in clf.models:
            trace = model.objective_trace
            rises = np.diff(trace)
            assert np.all(rises <= 1e-8 * np.maximum(np.abs(trace[:-1]), 1.0))

    def test_determinism(self):
        x, y = blobs(seed=6)
        a = train(x, y, 100.0, seed=6)
        b = train(x, y, 100.0, seed=6)
        for ma, mb in zip(a.models, b.models):
            assert np.array_equal(ma.w, mb.w)
            assert ma.b == mb.b

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            train(np.zeros((5, 2)), np.zeros(5), c=1.0)

    def test_non_finite_features_rejected(self):
        x = np.zeros((4, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            train(x, [0, 0, 1, 1], 1.0)

    def test_matches_reference_solver(self):
        cvxpy = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 5))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        c = 1.0
        clf = train(x, np.where(y > 0, 1, 0), c=c, epochs=500, tol=1e-12, seed=7)
        model = clf.models[1]  # the binary problem for label 1 is y itself
        w = cvxpy.Variable(5)
        b = cvxpy.Variable()
        hinge = cvxpy.sum(cvxpy.pos(1 - cvxpy.multiply(y, x @ w + b)))
        problem = cvxpy.Problem(cvxpy.Minimize(0.5 * cvxpy.sum_squares(w) + c * hinge))
        problem.solve()
        # Exact per-coordinate minimization can stall at a coordinate-wise
        # minimum of the non-smooth hinge, so allow a small optimality gap
        # but never an objective below the true optimum.
        assert model.objective >= problem.value - 1e-6
        assert model.objective <= problem.value * 1.005


class TestPredict:
    def test_argmax_invariant_under_positive_rescaling(self):
        x, y = blobs(seed=8)
        clf = train(x, y, 100.0, seed=8)
        scaled = OneVsAllClassifier(
            classes=clf.classes,
            models=[
                LinearModel(w=3.0 * m.w, b=3.0 * m.b, c=m.c, epochs_run=0, objective=0.0)
                for m in clf.models
            ],
        )
        _, a = predict(clf, x)
        _, b = predict(scaled, x)
        assert np.array_equal(a, b)

    def test_batch_equals_per_sample(self):
        x, y = blobs(seed=9)
        clf = train(x, y, 100.0, seed=9)
        batch_scores, batch_labels = predict(clf, x)
        for i in range(len(x)):
            s, l = predict(clf, x[i : i + 1])
            # BLAS may take different kernels for (1, d) and (n, d) products
            assert s[0] == pytest.approx(batch_scores[i], rel=1e-12)
            assert l[0] == batch_labels[i]

    def test_tie_breaks_to_lowest_class_index(self):
        clf = OneVsAllClassifier(
            classes=np.array([3, 5]),
            models=[
                LinearModel(w=np.zeros(2), b=0.0, c=1.0, epochs_run=0, objective=0.0),
                LinearModel(w=np.zeros(2), b=0.0, c=1.0, epochs_run=0, objective=0.0),
            ],
        )
        _, labels = predict(clf, np.ones((3, 2)))
        assert labels.tolist() == [3, 3, 3]

    def test_dimension_mismatch_rejected(self):
        x, y = blobs(seed=10)
        clf = train(x, y, 1.0, seed=10)
        with pytest.raises(ValueError, match="dimension"):
            predict(clf, np.zeros((2, 5)))


class TestEvaluate:
    def test_perfect_classifier(self):
        x, y = blobs(seed=11)
        clf = train(x, y, 100.0, seed=11)
        report = evaluate(clf, x, y)
        assert report.macc == pytest.approx(100.0)
        assert report.mean_ap == pytest.approx(100.0)

    def test_random_scores_near_chance_map(self):
        rng = np.random.default_rng(12)
        n = 2000
        x = rng.normal(size=(n, 6))
        y = np.repeat([0, 1], n // 2)
        clf = OneVsAllClassifier(
            classes=np.array([0, 1]),
            models=[
                LinearModel(w=rng.normal(size=6), b=0.0, c=1.0, epochs_run=0, objective=0.0)
                for _ in range(2)
            ],
        )
        report = evaluate(clf, x, y)
        assert report.mean_ap == pytest.approx(50.0, abs=5.0)

    def test_absent_class_excluded_with_warning(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 3))
        y = np.repeat([0, 1, 2], 20)
        clf = train(x, y, 1.0, seed=13)
        keep = y != 2
        with pytest.warns(UserWarning, match="absent"):
            report = evaluate(clf, x[keep], y[keep])
        assert len(report.per_class) == 2

    def test_map_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(14)
        scores = rng.normal(size=200)
        positives = rng.random(200) < 0.3
        base = _average_precision(scores, positives)
        assert _average_precision(3.0 * scores + 7.0, positives) == pytest.approx(base)
        assert _average_precision(np.sinh(scores), positives) == pytest.approx(base)

    def test_average_precision_oracle(self):
        # ranking: pos, neg, pos -> AP = (1/1 + 2/3)/2
        scores = np.array([3.0, 2.0, 1.0])
        positives = np.array([True, False, True])
        assert _average_precision(scores, positives) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


class TestPersistence:
    def test_round_trip_predictions(self, tmp_path):
        x, y = blobs(seed=17)
        clf = train(x, y, 100.0, seed=17)
        path = tmp_path / "clf.json"
        save_classifier(clf, path)
        back = load_classifier(path)
        sa, la = predict(clf, x)
        sb, lb = predict(back, x)
        assert np.array_equal(sa, sb)
        assert np.array_equal(la, lb)
