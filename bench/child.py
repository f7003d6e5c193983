"""One benchmark pass in a fresh interpreter.

Usage: ``python3 bench/child.py SPEC`` where SPEC is a JSON file with

- ``src``: directory holding the ``skipstack`` package;
- ``verbs``: argument lists, each run in order through ``skipstack.cli.main``;
- ``result``: file this process writes its timings to;
- ``trace``: span file for a traced pass, or null for an untraced one.

A spec with no verbs measures set-up alone: interpreter start until
``skipstack.cli`` is imported. The parent reads ``imported_at`` against
the ``time.perf_counter`` reading it took before starting this process;
both read the same system-wide monotonic clock.
"""

import json
import resource
import sys
import time
import traceback


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import skipstack.cli as cli

    imported_at = time.perf_counter()
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    codes = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for argv in spec["verbs"]:
        span = tracer.open(f"cli.{argv[0]}") if tracer else None
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            # a crashing verb is a failed invocation, not a lost pass
            traceback.print_exc()
            code = 1
        if tracer:
            tracer.close(span)
        codes.append(code)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if tracer:
        tracer.dump(spec["trace"])
    result = {
        "imported_at": imported_at,
        "codes": codes,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
