"""In-memory span tracer for one traced benchmark pass.

The program is not edited: the tracer replaces, in each caller module,
the names that module looks up at call time (``skipstack.pipeline.fit_codec``,
``skipstack.conditioning.sample_difference_matrix``, ...) with wrappers
that record a span per call. The program keeps its own control flow.

A span is ``[name, start, end, parent, thread, attrs]``: start and end
come from ``time.perf_counter``, parent is the index of the enclosing
span (or -1), and attrs holds exact counts read from the call's
arguments and return value. The stack of open spans is per thread, and
a task submitted to the grid's thread pool starts under the span that
submitted it, so worker-thread spans keep their own parents.

``summarize`` turns the span list of one pass into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = (
    "dataset",
    "features",
    "encoder",
    "classify",
    "pipeline",
    "cli",
    "latent",
    "conditioning",
    "streams",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def open(self, name: str) -> int:
        record = [name, time.perf_counter(), None, self.current(), threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        self._stack().append(index)
        return index

    def close(self, index: int, attrs: dict | None = None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = attrs
        self._stack().pop()

    def wrap(self, fn, name, attrs=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call's arguments, ``attrs`` maps (args, result) to counts."""

        def traced(*args, **kwargs):
            index = self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, attrs(args, result) if attrs else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def adopt(self, parent: int, fn):
        """``fn`` run on another thread with ``parent`` as its enclosing span."""

        def adopted(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return adopted

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _descriptor_counts(args, result) -> dict:
    counts: dict[str, int] = {}
    for ds in result:
        levels, sizes = np.unique(ds.level_of_row, return_counts=True)
        for level, n in zip(levels.tolist(), sizes.tolist()):
            counts[f"l{level}"] = counts.get(f"l{level}", 0) + n
    return counts


def _svm_attrs(args, clf) -> dict:
    return {
        "epochs": sum(m.epochs_run for m in clf.models),
        "objectives": [float(m.objective) for m in clf.models],
    }


def _gmm_attrs(args, gmm) -> dict:
    trace = gmm.log_likelihood_trace
    return {"iters": int(trace.size), "final_ll": float(trace[-1])}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the CLI verbs reach, in the module
    that looks the name up."""
    from skipstack import (
        classify,
        cli,
        conditioning,
        dataset,
        encoder,
        features,
        latent,
        pipeline,
        streams,
    )

    def coverage_name(args) -> str:
        kind = "stacked" if isinstance(args[1], features.SkipSchedule) else "fixed"
        return f"conditioning.coverage_{kind}"

    plan = {
        "generate_dataset": ("dataset.generate", None),
        "save_dataset": ("dataset.save", lambda a, r: {"bytes": os.path.getsize(a[0])}),
        "load_dataset": ("dataset.load", None),
        "extract_all": ("features.extract", _descriptor_counts),
        "mifs_stack": ("features.mifs_stack", None),
        "fit_codec": ("encoder.fit_codec", None),
        "pca_fit": ("encoder.pca_fit", None),
        "gmm_fit": ("encoder.gmm_fit", _gmm_attrs),
        "encode_dataset": ("encoder.encode", lambda a, r: {"samples": len(a[1])}),
        "save_codec": ("encoder.save_codec", None),
        "svm_train": ("classify.svm_train", _svm_attrs),
        "evaluate": ("classify.evaluate", None),
        "run_schedule": ("pipeline.run_schedule", None),
        "new_model": ("latent.new_model", None),
        "sample_difference_matrix": ("latent.sample", lambda a, r: {"cols": int(a[2])}),
        "coverage_experiment": (coverage_name, lambda a, r: {"trials": int(a[3])}),
        "condition_number": ("conditioning.condition_number", None),
        "bernstein_coverage_test": ("conditioning.bernstein", lambda a, r: {"trials": int(a[4])}),
        "spectrum_curve": ("conditioning.spectrum", None),
        "stream": ("streams.stream", None),
    }
    for module in (cli, pipeline, encoder, classify, dataset, features, latent, conditioning, streams):
        for attr, (name, attrs) in plan.items():
            # every module holds its own reference, so a call goes through
            # the wrapper of the module it is made from, and only that one
            fn = module.__dict__.get(attr)
            if fn is not None:
                setattr(module, attr, tracer.wrap(fn, name, attrs))

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt(tracer.current(), fn), *args, **kwargs)

    cli.ThreadPoolExecutor = TracedPool


# --- summary ----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, []), start, end)
        for i, (name, start, end, *_rest) in enumerate(spans)
    ]


def summarize(spans: list[list], threads: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json per_layer)
    and the self time of every span name."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_name_self: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    attrs: dict[str, list[dict]] = {}
    schedule_max = 0.0
    for (name, start, end, _parent, _thread, extra), self_s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        by_name_self[name] = by_name_self.get(name, 0.0) + self_s
        layer_self[name.split(".")[0]] += self_s
        if extra:
            attrs.setdefault(name, []).append(extra)
        if name == "pipeline.run_schedule":
            schedule_max = max(schedule_max, end - start)

    def t(name):
        return total.get(name, 0.0)

    def per(value, count):
        return value / count if count else 0.0

    def field(name, key):
        return [item[key] for item in attrs.get(name, [])]

    verbs = [name for name in total if name.startswith("cli.")]
    verb_wall = sum(t(name) for name in verbs)
    epochs = sum(field("classify.svm_train", "epochs"))
    iters = sum(field("encoder.gmm_fit", "iters"))
    samples = sum(field("encoder.encode", "samples"))
    levels: dict[str, int] = {}
    for counts in attrs.get("features.extract", []):
        for key, n in counts.items():
            levels[key] = levels.get(key, 0) + n
    trials = sum(
        sum(field(name, "trials"))
        for name in ("conditioning.coverage_fixed", "conditioning.coverage_stacked", "conditioning.bernstein")
    )
    trial_s = t("conditioning.coverage_fixed") + t("conditioning.coverage_stacked") + t("conditioning.bernstein")
    metrics = {
        "classify.svm_train_s": t("classify.svm_train"),
        "classify.svm_epochs": epochs,
        "classify.svm_s_per_epoch": per(t("classify.svm_train"), epochs),
        # sums run over sorted values so a pooled grid adds in one order
        "classify.svm_objective": sum(sorted(o for objs in field("classify.svm_train", "objectives") for o in objs)),
        "classify.evaluate_s": t("classify.evaluate"),
        "encoder.fit_codec_s": t("encoder.fit_codec"),
        "encoder.pca_fit_s": t("encoder.pca_fit"),
        "encoder.gmm_fit_s": t("encoder.gmm_fit"),
        "encoder.em_iters": iters,
        "encoder.em_s_per_iter": per(t("encoder.gmm_fit"), iters),
        "encoder.final_ll": sum(sorted(field("encoder.gmm_fit", "final_ll"))),
        "encoder.encode_s": t("encoder.encode"),
        "encoder.samples_encoded": samples,
        "encoder.encode_s_per_sample": per(t("encoder.encode"), samples),
        "features.extract_s": t("features.extract"),
        "features.descriptors": sum(levels.values()),
        **{f"features.descriptors_l{level}": levels.get(f"l{level}", 0) for level in range(4)},
        "dataset.generate_s": t("dataset.generate"),
        "dataset.save_s": t("dataset.save"),
        "dataset.load_s": t("dataset.load"),
        "dataset.bytes_written": sum(field("dataset.save", "bytes")),
        "pipeline.run_schedule_s": t("pipeline.run_schedule"),
        "pipeline.schedule_s_max": schedule_max,
        "cli.pool_busy_frac": per(t("pipeline.run_schedule"), verb_wall * threads),
        "cli.verb_self_s": layer_self["cli"],
        "latent.sample_s": t("latent.sample"),
        "latent.sample_calls": calls.get("latent.sample", 0),
        "latent.cols_sampled": sum(field("latent.sample", "cols")),
        "conditioning.coverage_fixed_s": t("conditioning.coverage_fixed"),
        "conditioning.coverage_stacked_s": t("conditioning.coverage_stacked"),
        "conditioning.condition_number_s": t("conditioning.condition_number"),
        "conditioning.condition_number_calls": calls.get("conditioning.condition_number", 0),
        "conditioning.bernstein_s": t("conditioning.bernstein"),
        "conditioning.spectrum_s": t("conditioning.spectrum"),
        "conditioning.trials_per_s": per(trials, trial_s),
        "streams.derive_s": t("streams.stream"),
        "streams.derive_calls": calls.get("streams.stream", 0),
    }
    # cli self time is verb_self_s; streams spans have no children, so
    # their self time is derive_s
    metrics.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer not in ("cli", "streams")})
    return metrics, by_name_self
