"""One timed run in a fresh interpreter: set up, run a workload's jobs, report.

    python3 perfbench/job.py WORKLOAD SEED MODE      (MODE: setup | run | trace)

Every run starts with cold ``lru_cache``s and its own ``ru_maxrss`` high-water
mark, as a CLI user's process does.  The first thing it does is import
``symmrel`` from ``src/`` next to this directory and build the parser; the
CLOCK_MONOTONIC time at which that is done is ``ready``, which the parent
compares with the time it spawned this process.  The last line on stdout is
one JSON object with the timings, the captured output of every job and, in
trace mode, the per-layer metrics.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import symmrel.cli  # noqa: E402

symmrel.cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if not os.path.abspath(symmrel.cli.__file__).startswith(SRC + os.sep):
        print(f"symmrel was imported from {symmrel.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = {"ready": READY}
    if mode == "setup":
        print(json.dumps(record))
        return 0

    from layers import Tracer
    from workloads import jobs

    todo = jobs(workload, seed)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    results = []
    start = time.monotonic()
    for job in todo:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = symmrel.cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc()
        results.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error})
    wall = time.monotonic() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        jobs=results,
    )
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in results)
        layers["trace.wall_s"] = wall
        record["layers"] = layers
        record["hook_errors"] = tracer.hook_errors
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
