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

The binary problems of one ``svm_train_many`` call (every class of every
feature matrix, such as all schedules of a recognition grid) are
stepped together: each coordinate step is one array step with a row per
problem. Each problem keeps the exact arithmetic of a lone run (its own
coordinate order, matvec, bias step, objective and convergence test), so
batching changes no bit of a model.

Prediction takes the argmax of the per-class raw scores with the lowest
class index breaking ties. Evaluation reports mean per-class accuracy and
mean average precision of the per-class score rankings.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .streams import stream

SVM_EPOCHS = 200
SVM_TOL = 1e-6


@dataclass
class LinearModel:
    w: np.ndarray
    b: float
    c: float
    # a model read back from disk keeps no training record
    epochs_run: int = 0
    objective: float = float("nan")
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))


def _objective(w: np.ndarray, margins: np.ndarray, c: float) -> float:
    return 0.5 * float(w @ w) + c * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def _weight_steps(
    w_j: np.ndarray, coef: np.ndarray, r: np.ndarray, c: np.ndarray, s_first: np.ndarray
) -> np.ndarray:
    """Per row p, the exact minimizer over delta of
    (1/2)(w_j[p] + delta)^2 + c[p] sum_i max(0, r[p, i] - delta*coef[p, i]).

    A zero coefficient pads its row: its breakpoint is +inf and it drops
    nothing, so rows with different numbers of breakpoints step as one
    array. ``s_first`` is each row's sum of positive coefficients, summed
    over the compressed nonzero vector so its bits match a lone problem.
    """
    rows, n = coef.shape
    nz = coef != 0.0
    real_count = nz.sum(axis=1)
    raw = np.divide(r, coef, out=np.full((rows, n), np.inf), where=nz)
    # flat indices of each row's ascending breakpoints
    order = raw.argsort(axis=1)
    order += np.arange(0, rows * n, n)[:, None]
    # segment ends: -inf, the breakpoints, +inf
    ends = np.empty((rows, n + 2))
    ends[:, 0] = -np.inf
    ends[:, -1] = np.inf
    breaks = ends[:, 1:-1]
    raw.take(order, out=breaks)
    # tied breakpoints drop in index order, as a stable sort would put them;
    # only then does the order of equal keys change the sums below. Equal
    # neighbours anywhere in the flat ends (padding included) mark a
    # candidate row cheaply; the row test then counts real breakpoints only.
    flat = ends.ravel()
    if (flat[1:] == flat[:-1]).any():
        tie = (breaks[:, 1:] == breaks[:, :-1]) & (np.arange(1, n) < real_count[:, None])
        tied = tie.any(axis=1).nonzero()[0]
        order[tied] = raw[tied].argsort(axis=1, kind="stable") + (tied * n)[:, None]
        breaks[tied] = raw.take(order[tied])
    # sum of active coefficients left of every breakpoint, then after each
    s_levels = np.empty((rows, n + 1))
    s_levels[:, 0] = s_first
    np.subtract(s_first[:, None], np.abs(coef).take(order).cumsum(axis=1), out=s_levels[:, 1:])
    # zero of the linear derivative on each open segment; a padded segment
    # has lower end +inf and is never valid
    scaled = c[:, None] * s_levels
    candidates = scaled - w_j[:, None]
    valid = (candidates >= ends[:, :-1]) & (candidates <= ends[:, 1:])
    # derivative jumps across zero at a breakpoint. With finite values and no
    # valid segment the last real breakpoint b hits, so the first hit is real:
    # its segment's candidate fl(S - w) < b gives S - w < b, as rounding is
    # monotone and b a float, so w + b > S and fl(fl(w + b) - S) >= 0.
    hit = w_j[:, None] + breaks - scaled[:, 1:] >= 0.0
    at = np.arange(rows)
    kink = breaks[at, hit.argmax(axis=1)]
    first_valid = valid.argmax(axis=1)
    delta = np.where(valid[at, first_valid], candidates[at, first_valid], kink)
    # an all-zero column leaves only the quadratic term
    return np.where(real_count == 0, -w_j, delta)


def _exact_bias_step(y: np.ndarray, r: np.ndarray, c: float) -> float:
    """Exact minimizer over delta of sum max(0, r - delta*y): piecewise linear."""
    breaks = r / y
    order = np.argsort(breaks, kind="stable")
    breaks = breaks[order]
    s_levels = np.empty(breaks.size + 1)
    s_levels[0] = np.sum(y > 0)
    np.subtract(s_levels[0], np.cumsum(np.abs(y[order])), out=s_levels[1:])
    # derivative right of breakpoint k is -C * s_levels[k+1]. The levels are
    # exact small integers, and the last is -(number of negative labels) <= 0,
    # so with C > 0 the last breakpoint always hits (-0.0 >= 0 included).
    hit = -c * s_levels[1:] >= 0.0
    return float(breaks[np.argmax(hit)])


def _descend(
    xs: list[np.ndarray],
    source: np.ndarray,
    ys: np.ndarray,
    cs: list[float],
    seeds: list,
    epochs: int,
    tol: float,
) -> list[LinearModel]:
    """Exact cyclic coordinate descent on P binary problems of one shape at once.

    Problem p trains on ``xs[source[p]]`` with labels ``ys[p]`` (+-1) and
    cost ``cs[p]``. It draws its coordinate order per epoch from
    ``stream(seeds[p])``, and keeps its own matvec, bias step, objective
    and convergence test, after which it leaves the active set; only the
    weight steps are taken together, one row per active problem.
    """
    n, dim = xs[0].shape
    count = len(seeds)
    xts = np.stack([x.T for x in xs])
    # row s * dim + j is column j of source s, contiguous
    columns = xts.reshape(-1, n)
    c_all = np.asarray(cs, dtype=float)
    # per problem and column, the sum of positive coefficients as one vector sum
    s_first = np.array(
        [[col[col > 0].sum() for col in ys[p] * xts[source[p]]] for p in range(count)]
    ).reshape(count, dim)
    w = np.zeros((count, dim))
    b = np.zeros(count)
    rngs = [stream(seed) for seed in seeds]
    traces = [[_objective(w[p], np.zeros(n), cs[p])] for p in range(count)]
    active = list(range(count))
    for _ in range(epochs):
        if not active:
            break
        at = np.asarray(active)
        y, c, w_at, s_at = ys[at], c_all[at], w[at], s_first[at]
        # kill incremental drift once per epoch
        margins = np.stack([ys[p] * (xs[source[p]] @ w[p] + b[p]) for p in active])
        perms = np.stack([rngs[p].permutation(dim) for p in active])
        # step t visits, per problem, flat index cell[t] of w_at and row column[t] of columns
        cell = (perms + np.arange(0, at.size * dim, dim)[:, None]).T.copy()
        column = (perms + (source[at] * dim)[:, None]).T.copy()
        for t in range(dim):
            coef = y * columns.take(column[t], axis=0)
            w_j = w_at.take(cell[t])
            delta = _weight_steps(w_j, coef, 1.0 - margins, c, s_at.take(cell[t]))
            # unconditional updates: a zero delta keeps w_j (no weight is ever
            # -0.0) and flips at most the sign of a zero margin, which only
            # ever enters as 1 - margin or as the base of an update
            w_at.put(cell[t], w_j + delta)
            margins = margins + delta[:, None] * coef
        w[at] = w_at
        still = []
        for row, p in enumerate(active):
            delta = _exact_bias_step(ys[p], 1.0 - margins[row], cs[p])
            if delta != 0.0:
                b[p] += delta
                margins[row] = margins[row] + delta * ys[p]
            prev = traces[p][-1]
            current = _objective(w[p], margins[row], cs[p])
            traces[p].append(current)
            if abs(prev - current) > tol * max(1.0, abs(prev)):
                still.append(p)
        active = still
    return [
        LinearModel(
            w=w[p].copy(),
            b=float(b[p]),
            c=cs[p],
            epochs_run=len(traces[p]) - 1,
            objective=traces[p][-1],
            objective_trace=np.asarray(traces[p]),
        )
        for p in range(count)
    ]


@dataclass
class OneVsAllClassifier:
    classes: np.ndarray
    models: list[LinearModel]

    @property
    def dim(self) -> int:
        return self.models[0].w.size


def svm_train_many(
    xs, labels, c: float, seeds, epochs: int = SVM_EPOCHS, tol: float = SVM_TOL
) -> list[OneVsAllClassifier]:
    """One one-vs-all classifier per feature matrix of ``xs``, all of one
    shape and trained against the same ``labels`` at the same ``c``.
    ``seeds[i]`` (an int or a tuple) keys matrix i: its class j draws its
    coordinate orders from the stream of ``seeds[i]`` extended by ``j``.
    A recognition grid passes one matrix per schedule, ``train`` one.

    The binary problems of every matrix are stepped together, and each
    classifier equals the one the same matrix and seed give alone.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    if any(not np.isfinite(x).all() for x in xs):
        raise ValueError("features must be finite")
    if any(x.shape != xs[0].shape for x in xs):
        raise ValueError("feature matrices of one call must share one shape")
    if len(seeds) != len(xs):
        raise ValueError(f"{len(xs)} feature matrices but {len(seeds)} seeds")
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("need at least 2 classes to train")
    k = classes.size
    ys = np.where(labels == classes[:, None], 1.0, -1.0)
    bases = [seed if isinstance(seed, tuple) else (seed,) for seed in seeds]
    models = _descend(
        xs,
        np.repeat(np.arange(len(xs)), k),
        np.tile(ys, (len(xs), 1)),
        [c] * (len(xs) * k),
        [(*base, idx) for base in bases for idx in range(k)],
        epochs,
        tol,
    )
    return [
        OneVsAllClassifier(classes=classes, models=models[i * k : (i + 1) * k])
        for i in range(len(xs))
    ]


def _scores(clf: OneVsAllClassifier, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[1] != clf.dim:
        raise ValueError(f"feature dimension {x.shape[1]} does not match model {clf.dim}")
    weights = np.stack([m.w for m in clf.models])
    biases = np.array([m.b for m in clf.models])
    scores = x @ weights.T + biases
    if not np.isfinite(scores).all():
        raise ValueError("scores are not finite: features and model weights must be finite")
    return scores


def predict(clf: OneVsAllClassifier, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class raw scores and argmax labels (lowest class index on ties)."""
    scores = _scores(clf, x)
    return scores, clf.classes[np.argmax(scores, axis=1)]


def _average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    # stable ranking: descending score, ascending original index on ties
    order = np.lexsort((np.arange(scores.size), -scores))
    hits = positives[order]
    ranks = np.flatnonzero(hits) + 1
    if ranks.size == 0:
        return 0.0
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
            warnings.warn(f"class {cls!r} absent from the test set; excluded from means")
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
        "models": [
            {"w": m.w.tolist(), "b": m.b, "c": m.c}
            for m in clf.models
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_classifier(path) -> OneVsAllClassifier:
    try:
        doc = json.loads(Path(path).read_text())
        classes = doc["classes"]
        models = [
            LinearModel(w=np.asarray(m["w"], dtype=float), b=float(m["b"]), c=float(m["c"]))
            for m in doc["models"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path} is not a classifier: {exc!r}") from None
    if not isinstance(classes, list) or not all(type(cls) is int for cls in classes):
        raise ValueError(f"{path}: classes must be a list of integer labels")
    if len(set(classes)) != len(classes):
        raise ValueError(f"{path}: classes must not repeat, got {classes}")
    if not models or len(models) != len(classes):
        raise ValueError(f"{path}: {len(classes)} classes but {len(models)} models")
    if any(m.w.ndim != 1 or m.w.shape != models[0].w.shape for m in models):
        raise ValueError(f"{path}: model weights must be vectors of one length")
    return OneVsAllClassifier(classes=np.asarray(classes), models=models)
