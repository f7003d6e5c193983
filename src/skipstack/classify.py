"""One-vs-all linear classification of encodings with hinge loss.

Each class trains a binary L2-regularized hinge model

    min_{w,b} (1/2) ||w||^2 + C sum_i max(0, 1 - y_i (w.x_i + b))

by exact cyclic coordinate descent: the one-dimensional restriction of
the objective to a single weight coordinate is a convex piecewise
quadratic whose minimizer has a closed form over the sorted hinge
breakpoints, and the bias restriction is piecewise linear with its
minimizer at a breakpoint. Every coordinate step solves its subproblem
exactly, so the objective never increases and the per-epoch trace is
monotone by construction rather than by tuning.

The binary problems of one ``svm_train_many`` call are stepped together.
With k classes, problem p is class ``p % k`` of feature matrix ``p // k``
(a recognition grid passes one matrix per schedule), and class j of
matrix i draws its coordinate orders from ``stream(seeds[i], j)``. Each
coordinate step is one array step with a row per problem, and each
epoch's bias steps are one stable row sort. Each problem keeps the exact
arithmetic of a lone run (its own coordinate order, matvec, bias step,
objective and convergence test), so batching changes no bit of a model.
Column magnitudes and zero counts are taken once per call, and the step
buffers once per epoch; a step finds its first valid segment by one
comparison along the row (see ``_weight_steps``).

A trained classifier is one record: the k x dim weights ``w``, the k
biases ``b``, the call's one C and, per class, the objective before the
first epoch and after each one (``traces``; none when read from disk).

Prediction takes the argmax of the per-class raw scores with the lowest
class index breaking ties. Evaluation reports mean per-class accuracy and
mean average precision of the per-class score rankings.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import number, numbers
from .streams import stream

SVM_EPOCHS = 200
SVM_TOL = 1e-6


@dataclass
class OneVsAllClassifier:
    classes: np.ndarray
    w: np.ndarray
    b: np.ndarray
    c: float
    traces: tuple[np.ndarray, ...] = ()


def _objective(w: np.ndarray, margins: np.ndarray, c: float) -> float:
    return 0.5 * float(w @ w) + c * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def _step_buffers(rows: int, n: int) -> tuple[np.ndarray, ...]:
    """Scratch that one epoch's weight steps over ``rows`` problems of ``n``
    samples share: segment ends framed by -inf and +inf, the cumulative drops
    after a leading 0, the row numbers, and each row's first flat index."""
    ends = np.empty((rows, n + 2))
    ends[:, 0], ends[:, -1] = -np.inf, np.inf
    at = np.arange(rows)
    return ends, np.zeros((rows, n + 1)), at, at[:, None] * n


def _weight_steps(
    w_j: np.ndarray, coef: np.ndarray, size: np.ndarray, r: np.ndarray, c: float,
    s_first: np.ndarray, real: np.ndarray | None, buffers: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Per row p, the exact minimizer over delta of
    (1/2)(w_j[p] + delta)^2 + c sum_i max(0, r[p, i] - delta*coef[p, i]).

    ``size`` is ``|coef|`` and ``c`` is positive. ``real`` is None when no
    coefficient is zero, else each row's count of nonzero ones: a zero
    coefficient pads its row with breakpoint +inf and drops nothing, so rows
    with different numbers of breakpoints step as one array. ``s_first`` is
    each row's sum of positive coefficients, summed over the compressed
    nonzero vector so its bits match a lone problem. ``r`` is overwritten.
    """
    n = coef.shape[1]
    ends, drops, at, starts = buffers
    raw = r
    if real is None:
        np.divide(r, coef, out=raw)
    else:
        zero = coef == 0.0
        np.divide(r, coef, out=raw, where=~zero)
        raw[zero] = np.inf
    # flat indices of each row's ascending breakpoints
    order = raw.argsort(axis=1)
    order += starts
    # segment ends: -inf, the breakpoints, +inf
    breaks = ends[:, 1:-1]
    raw.take(order, out=breaks)
    # tied breakpoints drop in index order, as a stable sort would put them;
    # only then does the order of equal keys change the sums below. Equal
    # neighbours anywhere in the flat ends (padding included) mark a
    # candidate row cheaply; the row test then counts real breakpoints only.
    flat = ends.ravel()
    if (flat[1:] == flat[:-1]).any():
        tie = breaks[:, 1:] == breaks[:, :-1]
        if real is not None:
            tie &= np.arange(1, n) < real[:, None]
        tied = tie.any(axis=1).nonzero()[0]
        order[tied] = raw[tied].argsort(axis=1, kind="stable") + (tied * n)[:, None]
        breaks[tied] = raw.take(order[tied])
    # C times the sum of active coefficients left of every breakpoint, then after each
    size.take(order).cumsum(axis=1, out=drops[:, 1:])
    scaled = np.subtract(s_first[:, None], drops)
    scaled *= c
    # zero of the linear derivative on each open segment. Along a row the
    # candidates fl(C S_k) - w do not increase (each level S_k subtracts a
    # running sum of magnitudes, C > 0 and rounding is monotone) and the ends
    # do not decrease. So a candidate above its upper end has every earlier
    # one above its own, and one at or above its lower end has every earlier
    # one at or above its own: the valid segments are contiguous, and the
    # first segment whose candidate is not above its upper end (one exists,
    # the last end being +inf) is the first valid one exactly when its
    # candidate is at or above its lower end. A padded segment has lower end
    # +inf and is never valid.
    candidates = scaled - w_j[:, None]
    first = (candidates <= ends[:, 1:]).argmax(axis=1)
    delta = candidates[at, first]
    valid = delta >= ends[at, first]
    # derivative jumps across zero at a breakpoint. With finite values and no
    # valid segment the last real breakpoint b hits, so the first hit is real:
    # its segment's candidate fl(S - w) < b gives S - w < b, as rounding is
    # monotone and b a float, so w + b > S and fl(fl(w + b) - S) >= 0.
    hit = w_j[:, None] + breaks - scaled[:, 1:] >= 0.0
    delta = np.where(valid, delta, breaks[at, hit.argmax(axis=1)])
    # an all-zero column leaves only the quadratic term
    return delta if real is None else np.where(real == 0, -w_j, delta)


def _exact_bias_step(y: np.ndarray, r: np.ndarray, c: float) -> np.ndarray:
    """Per row p, the exact minimizer over delta of sum max(0, r[p] - delta*y[p]),
    which is piecewise linear."""
    rows, n = y.shape
    breaks = r / y
    # a stable sort of each row is the one-dimensional stable sort
    breaks = np.take_along_axis(breaks, breaks.argsort(axis=1, kind="stable"), axis=1)
    # derivative right of breakpoint k is -C * s_levels[k], the number of
    # positive labels less k+1. The levels are exact small integers, and the
    # last is -(number of negative labels) <= 0, so with C > 0 the last
    # breakpoint always hits (-0.0 >= 0 included).
    s_levels = (y > 0).sum(axis=1)[:, None] - np.arange(1.0, n + 1)
    hit = -c * s_levels >= 0.0
    return breaks[np.arange(rows), hit.argmax(axis=1)]


# coefficient rows are gathered for this many steps at a time
_GATHER = 4


def svm_train_many(xs, labels, c: float, seeds) -> list[OneVsAllClassifier]:
    """One one-vs-all classifier per feature matrix of ``xs``, all of one
    shape and trained against the same ``labels`` at the same ``c``, with
    ``seeds[i]`` (an int or a tuple) keying matrix i. Each classifier
    equals the one the same matrix and seed give alone. ``SVM_EPOCHS`` and
    ``SVM_TOL`` are read at each call.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    if any(not np.isfinite(x).all() for x in xs):
        raise ValueError("features must be finite")
    if any(x.shape != xs[0].shape for x in xs):
        raise ValueError("feature matrices of one call must share one shape")
    if len(seeds) != len(xs):
        raise ValueError(f"{len(xs)} feature matrices but {len(seeds)} seeds")
    labels = np.asarray(labels)
    if len(labels) != xs[0].shape[0]:
        raise ValueError(f"{xs[0].shape[0]} feature rows but {len(labels)} labels")
    if not 0.0 < c < np.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("need at least 2 classes to train")
    k = classes.size
    ys = np.where(labels == classes[:, None], 1.0, -1.0)
    n, dim = xs[0].shape
    count = len(xs) * k
    xts = np.stack([x.T for x in xs])
    # row i * dim + j is column j of matrix i, contiguous. Labels are +-1, so
    # |y * column| is |column| exactly
    columns = xts.reshape(-1, n)
    sizes = np.abs(columns)
    zeros = (columns == 0.0).sum(axis=1)
    # per problem and column, the sum of positive coefficients as one vector sum
    s_first = np.array([[col[col > 0].sum() for col in y * xt] for xt in xts for y in ys])
    w = np.zeros((count, dim))
    b = np.zeros(count)
    rngs = [stream(seed, j) for seed in seeds for j in range(k)]
    traces = [[_objective(w[p], np.zeros(n), c)] for p in range(count)]
    active = list(range(count))
    for _ in range(SVM_EPOCHS):
        if not active:
            break
        at = np.asarray(active)
        y = ys[at % k]
        # kill incremental drift once per epoch
        margins = y * np.stack([xs[p // k] @ w[p] + b[p] for p in active])
        perms = np.stack([rngs[p].permutation(dim) for p in active])
        # step-major: row t holds what each problem's step t visits
        visits = (at[:, None], perms)
        weights, firsts = w[visits].T.copy(), s_first[visits].T.copy()
        column = (perms + (at // k * dim)[:, None]).T.copy()
        real = n - zeros.take(column)
        padded = (real < n).any(axis=1).tolist()
        buffers = _step_buffers(at.size, n)
        r = np.empty_like(margins)
        for t in range(dim):
            g = t % _GATHER
            if g == 0:
                block = column[t : t + _GATHER]
                coefs, magnitudes = y * columns.take(block, axis=0), sizes.take(block, axis=0)
            np.subtract(1.0, margins, out=r)
            real_t = real[t] if padded[t] else None
            delta = _weight_steps(weights[t], coefs[g], magnitudes[g], r, c, firsts[t], real_t, buffers)
            # unconditional updates: a zero delta keeps w_j (no weight is ever
            # -0.0) and flips at most the sign of a zero margin, which only
            # ever enters as 1 - margin or as the base of an update
            weights[t] += delta
            margins += delta[:, None] * coefs[g]
        w[visits] = weights.T
        # the same holds for b, which starts at +0.0
        delta = _exact_bias_step(y, 1.0 - margins, c)
        b[at] += delta
        margins += delta[:, None] * y
        still = []
        for row, p in enumerate(active):
            prev = traces[p][-1]
            current = _objective(w[p], margins[row], c)
            traces[p].append(current)
            if abs(prev - current) > SVM_TOL * max(1.0, abs(prev)):
                still.append(p)
        active = still
    return [
        OneVsAllClassifier(
            classes=classes, w=w[p : p + k].copy(), b=b[p : p + k].copy(), c=c,
            traces=tuple(np.asarray(trace) for trace in traces[p : p + k]),
        )
        for p in range(0, count, k)
    ]


def _scores(clf: OneVsAllClassifier, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[1] != clf.w.shape[1]:
        raise ValueError(f"feature dimension {x.shape[1]} does not match model {clf.w.shape[1]}")
    scores = x @ clf.w.T + clf.b
    if not np.isfinite(scores).all():
        raise ValueError("scores are not finite: features and model weights must be finite")
    return scores


def predict(clf: OneVsAllClassifier, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class raw scores and argmax labels (lowest class index on ties)."""
    scores = _scores(clf, x)
    return scores, clf.classes[np.argmax(scores, axis=1)]


def _average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    # evaluate calls this only for a class with test samples, so some are positive
    # stable ranking: descending score, ascending original index on ties
    order = np.lexsort((np.arange(scores.size), -scores))
    hits = positives[order]
    ranks = np.flatnonzero(hits) + 1
    precisions = np.arange(1, ranks.size + 1) / ranks
    return float(np.mean(precisions))


@dataclass
class PerClassResult:
    label: object
    accuracy: float
    average_precision: float
    support: int


@dataclass
class EvalReport:
    macc: float
    mean_ap: float
    per_class: list[PerClassResult]


def evaluate(clf: OneVsAllClassifier, x: np.ndarray, labels) -> EvalReport:
    """Mean per-class accuracy and mean average precision on a labeled set,
    with each evaluated class's accuracy, average precision and support.

    Classes with no test samples are dropped from both means with a
    warning, so a thin test split degrades the report instead of biasing
    it with empty-class zeros. A test label with no model is a ValueError:
    its samples would otherwise drop out of both means unseen.
    """
    labels = np.asarray(labels)
    missing = np.setdiff1d(labels, clf.classes)
    if missing.size:
        raise ValueError(f"the classifier has no model for test labels {missing.tolist()}")
    scores, predicted = predict(clf, x)
    per_class = []
    for i, cls in enumerate(clf.classes):
        mask = labels == cls
        support = int(mask.sum())
        if support == 0:
            warnings.warn(f"class {cls} absent from the test set; excluded from means")
            continue
        accuracy = 100.0 * float(np.mean(predicted[mask] == cls))
        ap = 100.0 * _average_precision(scores[:, i], mask)
        per_class.append(
            PerClassResult(label=cls, accuracy=accuracy, average_precision=ap, support=support)
        )
    if not per_class:
        raise ValueError("no evaluated class has test samples")
    return EvalReport(
        macc=float(np.mean([p.accuracy for p in per_class])),
        mean_ap=float(np.mean([p.average_precision for p in per_class])),
        per_class=per_class,
    )


def save_classifier(clf: OneVsAllClassifier, path) -> None:
    doc = {
        "classes": [cls.item() if hasattr(cls, "item") else cls for cls in clf.classes],
        "models": [{"w": w, "b": b, "c": clf.c} for w, b in zip(clf.w.tolist(), clf.b.tolist())],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_classifier(path) -> OneVsAllClassifier:
    try:
        doc = json.loads(Path(path).read_text())
        classes = doc["classes"]
        models = [(numbers(m["w"]), number(m["b"]), number(m["c"])) for m in doc["models"]]
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path} is not a classifier: {exc!r}") from None
    if not isinstance(classes, list) or not all(type(cls) is int for cls in classes):
        raise ValueError(f"{path}: classes must be a list of integer labels")
    if len(set(classes)) != len(classes):
        raise ValueError(f"{path}: classes must not repeat, got {classes}")
    if not models or len(models) != len(classes):
        raise ValueError(f"{path}: {len(classes)} classes but {len(models)} models")
    w, b, c = zip(*models)
    if any(row.ndim != 1 or row.shape != w[0].shape for row in w):
        raise ValueError(f"{path}: model weights must be vectors of one length")
    if len(set(c)) != 1 or c[0] <= 0.0:
        raise ValueError(f"{path}: c must be positive and the same for every model, got {sorted(set(c))}")
    return OneVsAllClassifier(classes=np.asarray(classes), w=np.stack(w), b=np.array(b), c=c[0])
