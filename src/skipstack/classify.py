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

DEFAULT_C = 100.0
SVM_EPOCHS = 200
SVM_TOL = 1e-6
C_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


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


@dataclass
class OneVsAllClassifier:
    classes: np.ndarray
    models: list[LinearModel]

    @property
    def dim(self) -> int:
        return self.models[0].w.size


def svm_train(
    x: np.ndarray,
    labels,
    c: float = DEFAULT_C,
    epochs: int = SVM_EPOCHS,
    tol: float = SVM_TOL,
    seed=0,
) -> OneVsAllClassifier:
    """Train one binary hinge model per class (one-vs-all)."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    if c <= 0:
        raise ValueError(f"C must be positive, got {c}")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("need at least 2 classes to train")
    base = seed if isinstance(seed, tuple) else (seed,)
    models = [
        _train_binary(x, np.where(labels == cls, 1.0, -1.0), c, epochs, tol, (*base, idx))
        for idx, cls in enumerate(classes)
    ]
    return OneVsAllClassifier(classes=classes, models=models)


def _scores(clf: OneVsAllClassifier, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[1] != clf.dim:
        raise ValueError(f"feature dimension {x.shape[1]} does not match model {clf.dim}")
    weights = np.stack([m.w for m in clf.models])
    biases = np.array([m.b for m in clf.models])
    return x @ weights.T + biases


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
    confusion: np.ndarray


def evaluate(clf: OneVsAllClassifier, x: np.ndarray, labels) -> EvalReport:
    """Mean per-class accuracy and mean average precision on a labeled set.

    Classes with no test samples are dropped from both means with a
    warning, so a thin test split degrades the report instead of biasing
    it with empty-class zeros.
    """
    labels = np.asarray(labels)
    scores, predicted = predict(clf, x)
    idx_of = {cls: i for i, cls in enumerate(clf.classes)}
    confusion = np.zeros((clf.classes.size, clf.classes.size), dtype=int)
    for true, pred in zip(labels, predicted):
        if true in idx_of:
            confusion[idx_of[true], idx_of[pred]] += 1
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
        confusion=confusion,
    )


def svm_train_cv(
    x: np.ndarray,
    labels,
    c_grid=C_GRID,
    folds: int = 5,
    seed=0,
) -> tuple[OneVsAllClassifier, float]:
    """Pick C by stratified cross-validated mean accuracy, then refit.

    Ties prefer the smallest C. Returns the refit classifier and the
    chosen C.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if folds < 2:
        raise ValueError("need at least 2 folds")
    rng = stream(seed, 0)
    base = seed if isinstance(seed, tuple) else (seed,)
    fold_of = np.empty(labels.size, dtype=int)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        fold_of[members] = np.arange(members.size) % folds
    best_c, best_score = None, -1.0
    for c in c_grid:
        fold_scores = []
        for fold in range(folds):
            train, val = fold_of != fold, fold_of == fold
            if np.unique(labels[train]).size < 2 or not val.any():
                continue
            clf = svm_train(x[train], labels[train], c, seed=(*base, fold))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fold_scores.append(evaluate(clf, x[val], labels[val]).macc)
        score = float(np.mean(fold_scores)) if fold_scores else 0.0
        if score > best_score:
            best_c, best_score = c, score
    clf = svm_train(x, labels, best_c, seed=seed)
    return clf, best_c


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
    if not models or len(models) != len(classes):
        raise ValueError(f"{path}: {len(classes)} classes but {len(models)} models")
    if any(m.w.ndim != 1 or m.w.shape != models[0].w.shape for m in models):
        raise ValueError(f"{path}: model weights must be vectors of one length")
    return OneVsAllClassifier(classes=np.asarray(classes), models=models)
