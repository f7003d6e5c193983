"""skipstack benchmark: the CLI verbs of each workload, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload grid|grid-2w|encode|theory|all \\
        --seed N --seconds S --trace 0|1

Each pass runs one workload's verbs in a fresh interpreter through
``skipstack.cli.main`` (``bench/child.py``). A run repeats passes until
``--seconds`` have gone by and reports medians over them.

- ``--trace 0`` times untraced passes plus set-up-only spawns spread
  between them, and prints the end-to-end metrics.
- ``--trace 1`` alternates untraced and traced passes (at least two of
  each) and prints the per-layer metrics, whose exact counts must repeat
  across the traced passes.

A pass still running when the run's deadline comes is killed and counts
as failed; the run then stops and still prints its result.

Every verb's outputs are checked after every pass (``bench/workloads.py``),
must be byte-identical across passes, and must match the outputs of any
earlier run of the same source tree and config (grid against grid-2w
included). Each run also corrupts copies of its outputs and requires the
checks to fail on them.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The metric
names and units are those of ``BENCHMARK.json``. Work files live under
``.bench_runs/`` at the checkout root and are removed when a run ends,
except ``.bench_runs/ref/``, which keeps the output hashes per source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import summarize
from workloads import WORKLOADS, check, corruptions, grid_macc, manifest_outputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
MIN_SETUP_SAMPLES = 31
# every spawn must end this long after the run starts, so a run ends
# within 180 s even when a pass hangs
DEADLINE_S = 150
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# per-layer values that are counts of work or deterministic results, not timings
EXACT = (
    "classify.svm_epochs",
    "classify.svm_objective",
    "classify.macc_mean",
    "encoder.em_iters",
    "encoder.final_ll",
    "encoder.samples_encoded",
    "features.descriptors",
    "features.descriptors_l0",
    "features.descriptors_l1",
    "features.descriptors_l2",
    "features.descriptors_l3",
    "dataset.bytes_written",
    "cli.bytes_written",
    "latent.sample_calls",
    "latent.cols_sampled",
    "conditioning.condition_number_calls",
    "streams.derive_calls",
)


@dataclass
class Pass:
    kind: str  # "plain" or "traced"
    directory: Path
    result: dict
    outputs: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def environment() -> dict:
    """Machine and library versions stored with every result."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": 1,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("SKIPSTACK_THREADS", None)
    return env


def spawn(directory: Path, verbs: list[list[str]], trace: bool, timeout: float) -> dict | None:
    """Run bench/child.py once; its timings plus the measured set-up time,
    or None when it was killed at ``timeout`` seconds."""
    directory.mkdir(parents=True)
    spec = {
        "src": str(SRC),
        "verbs": verbs,
        "result": str(directory / "result.json"),
        "trace": str(directory / "spans.json") if trace else None,
    }
    (directory / "spec.json").write_text(json.dumps(spec))
    started = time.perf_counter()
    with open(directory / "stderr.txt", "wb") as err:
        try:
            subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(directory / "spec.json")],
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=child_env(),
                timeout=max(timeout, 1.0),
                check=False,
            )
        except subprocess.TimeoutExpired:
            return None
    try:
        result = json.loads((directory / "result.json").read_text())
    except (OSError, ValueError):
        tail = (directory / "stderr.txt").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"benchmark child died in {directory.name}:\n{tail}") from None
    result["setup_s"] = result["imported_at"] - started
    return result


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "skipstack").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def compare_with_reference(key: dict, outputs: dict, tally: Tally) -> bool:
    """Outputs of this source tree and config must match every earlier run's."""
    name = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:32]
    path = RUNS / "ref" / f"{name}.json"
    if path.is_file():
        if json.loads(path.read_text()) != outputs:
            tally.problems.append(f"outputs differ from an earlier run of the same source and config ({path.name})")
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(outputs, sort_keys=True))
    os.replace(partial, path)
    return True


def check_pass(workload, run: Pass, first: Pass | None, tally: Tally) -> None:
    out = run.directory / "out"
    if run.result is None:
        tally.attempted += len(workload.verbs)
        tally.failed += len(workload.verbs)
        tally.problems.append(f"{run.directory.name}: killed at the run's deadline ({DEADLINE_S} s)")
        return
    for verb, code in zip(workload.verbs, run.result["codes"]):
        tally.attempted += 1
        problems = [f"{verb} exited {code}"] if code != 0 else check(out, verb)
        if not problems:
            run.outputs[verb] = manifest_outputs(out, verb)
            if first is not None and first.outputs.get(verb) != run.outputs[verb]:
                problems = [f"{verb}: outputs differ from {first.directory.name}"]
        if problems:
            tally.failed += 1
            tally.problems.extend(f"{run.directory.name}: {text}" for text in problems)


def check_the_checks(workload, run: Pass, scratch: Path, tally: Tally) -> None:
    """Every corruption of a good output must fail its verb's check."""
    for verb in workload.verbs:
        for kind, corrupt in corruptions(verb):
            copy = scratch / f"corrupt-{verb}-{kind}"
            shutil.copytree(run.directory / "out", copy)
            corrupt(copy)
            if not check(copy, verb):
                tally.problems.append(f"the {verb} check passed a {kind}-corrupted output")
            shutil.rmtree(copy)


def measure(workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> tuple[list[Pass], list[float], Tally]:
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps({**workload.config, "seed": workload.config_seed(seed)}))
    tally = Tally()
    setups: list[float] = []
    # trace.overhead_s compares medians, so a traced run has as many untraced passes as traced
    plan = ("plain", "traced") if trace else ("plain",)
    # a grid pass is long (12-16 s on a 2-vCPU Xeon VM) and a median of fewer than three
    # follows single slow passes, so a grid run takes three even when they end past --seconds
    min_passes = 4 if trace else workload.min_passes
    passes: list[Pass] = []
    start = time.perf_counter()

    def remaining() -> float:
        return start + DEADLINE_S - time.perf_counter()

    while True:
        kind = plan[len(passes) % len(plan)]
        directory = run_dir / f"pass{len(passes)}"
        result = spawn(directory, workload.argv(config_path, directory / "out"), kind == "traced", remaining())
        passes.append(Pass(kind, directory, result))
        check_pass(workload, passes[-1], passes[0] if len(passes) > 1 else None, tally)
        if result is None:
            break
        n = len(passes)
        elapsed = time.perf_counter() - start
        # stop before an iteration that would end past --seconds
        stop = n >= min_passes and elapsed * (n + 1) / n > seconds
        if not trace:
            # spread set-up spawns over the run, so they see the same machine as the passes
            expected = n if stop else max(n + 1, min_passes, round(seconds * n / elapsed))
            # each pass's own start-up is a set-up sample too
            while len(setups) + n < math.ceil(MIN_SETUP_SAMPLES * n / expected):
                setup = spawn(run_dir / f"setup{len(setups)}", [], False, remaining())
                if setup is None:
                    tally.problems.append("a set-up spawn was killed at the run's deadline")
                    stop = True
                    break
                setups.append(setup["setup_s"])
        if stop:
            break
    first = passes[0]
    if len(first.outputs) == len(workload.verbs):
        check_the_checks(workload, first, run_dir, tally)
        key = {"source": source_digest(), "config": workload.config, "seed": workload.config_seed(seed),
               "verbs": workload.verbs}
        if not compare_with_reference(key, first.outputs, tally):
            tally.failed = tally.attempted
    return passes, setups, tally


def _median(values) -> float:
    """Median of the samples; 0.0 when a killed pass left none (the run is then not correct)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> str:
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}" if values else "n=0"


def end_to_end(workload, passes: list[Pass], setups: list[float], tally: Tally) -> tuple[dict, list[str]]:
    plain = [p for p in passes if p.kind == "plain" and p.result is not None]
    samples = {
        "wall_s": [p.result["wall_s"] for p in plain],
        "setup_s": setups + [p.result["setup_s"] for p in plain],
        "peak_rss_mb": [p.result["peak_rss_kb"] / 1024.0 for p in plain],
    }
    metrics = {name: _median(values) for name, values in samples.items()}
    lines = [f"  {name:<12} {metrics[name]:.6g}  ({_spread(values)})" for name, values in samples.items()]
    lines.append(f"  {'failed_frac':<12} {tally.failed / tally.attempted:.6g}  "
                 f"({tally.failed} of {tally.attempted} verb invocations)")
    if workload.is_grid and plain and all(p.outputs for p in plain):
        macc = [statistics.fmean(grid_macc(p.directory / "out")) for p in plain]
        lines.append(f"  {'macc_mean':<12} {statistics.median(macc):.6g} %  "
                     f"(mean over 7 schedules, n={len(macc)} passes)")
    return metrics, lines


def per_layer(workload, passes: list[Pass], tally: Tally) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.kind == "traced" and p.result is not None]
    plain = [p for p in passes if p.kind == "plain" and p.result is not None]
    summaries, self_by_span = [], {}
    for run in traced:
        metrics, self_by_span = summarize(json.loads((run.directory / "spans.json").read_text()),
                                          workload.threads)
        metrics["cli.cpu_s"] = run.result["cpu_s"]
        metrics["cli.bytes_written"] = sum(f.stat().st_size for f in (run.directory / "out").iterdir())
        grid = workload.is_grid and "run-recognition" in run.outputs
        metrics["classify.macc_mean"] = statistics.fmean(grid_macc(run.directory / "out")) if grid else 0.0
        summaries.append(metrics)
    unequal = [name for name in EXACT if len({s[name] for s in summaries}) > 1]
    for name in unequal:
        tally.problems.append(f"{name} differs across traced passes: {sorted({s[name] for s in summaries})}")
    metrics = {name: _median(s[name] for s in summaries) for name in (summaries[0] if summaries else ())}
    metrics["trace.overhead_s"] = (_median(p.result["wall_s"] for p in traced)
                                   - _median(p.result["wall_s"] for p in plain))
    top = sorted(self_by_span.items(), key=lambda item: -item[1])[:8]
    lines = ["  self time by span (last traced pass): "
             + ", ".join(f"{name} {value:.3f}s" for name, value in top)]
    lines += [f"  {name:<38} {value:.6g}" for name, value in sorted(metrics.items())]
    lines.append(f"  traced passes {len(traced)}, untraced {len(plain)}; exact counts repeat: {not unequal}")
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    run_dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        passes, setups, tally = measure(workload, seed, seconds, trace, run_dir)
        if trace:
            metrics, lines = per_layer(workload, passes, tally)
        else:
            metrics, lines = end_to_end(workload, passes, setups, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    # a killed pass may leave metrics unmeasured; anything else is a mismatch with BENCHMARK.json
    if set(metrics) - set(units) or (set(units) - set(metrics) and not tally.failed):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    metrics = {metric: metrics.get(metric, 0.0) for metric in units}
    print(f"workload {name}: seed {seed}, config seed {workload.config_seed(seed)}, "
          f"{len(passes)} passes in {'traced' if trace else 'untraced'} mode")
    for line in lines:
        print(line)
    for text in tally.problems[:20]:
        print(f"  FAILED: {text}", file=sys.stderr)
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": units[metric]} for metric in units},
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "skipstack" / "cli.py").is_file():
        print(f"error: no skipstack sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), spec) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
