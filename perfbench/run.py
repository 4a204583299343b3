"""symmrel benchmark: time the real CLI jobs end to end, or trace them per layer.

    python3 perfbench/run.py --workload solve-c --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every timed iteration is a fresh interpreter (``job.py``), closed
loop, one process at a time.  Iterations repeat while the next one is
expected to end within ``--seconds`` (at least one runs).  Before them, a
few processes only set up, so that ``setup_s`` is a median of several
samples even when one iteration fills the run.

``--trace 0`` reports the end-to-end metrics: the medians over iterations of
``wall_norm_s`` (job time after set-up), ``cpu_norm_s`` (user + sys of the
whole process), ``peak_rss_mb`` (``ru_maxrss``) and ``setup_s`` (spawn until
``symmrel`` is imported and the parser built).  The three times are scaled
to a reference CPU speed: the run pins itself and its children to one CPU,
and while a child runs it times a fixed pure-Python probe on that CPU every
``PROBE_EVERY_S``; a child's times are multiplied by the mean of
``PROBE_REF_S / probe time`` over its probes.  The host this benchmark was
tuned on switches each CPU between two speeds ~1.7x apart for seconds at a
time, which the raw times show and the scaled ones do not.  ``--trace 1``
runs the same jobs with the spans of ``layers.py`` installed and reports
the per-layer metrics instead.  Every job's output is checked; a wrong
output, a traceback or a non-zero exit counts in ``failed``.  The last line
of stdout is the result object; the line before it records provenance, the
raw samples and the scale factors.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, check, jobs  # noqa: E402

END_TO_END = {"wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Share of the parent's median each metric may worsen by, as in BENCHMARK.json;
# README.md gives the spreads measured across runs that these rest on.
BOUNDS = {"wall_norm_s": 0.15, "cpu_norm_s": 0.15, "peak_rss_mb": 0.1, "setup_s": 0.25}
SETUP_SPAWNS = 20
RUN_LIMIT_S = 170  # a run must end within 180 s, so a hung child is killed by then
PROBE_EVERY_S = 0.1
# The probe's CPU time on the tuning host (2-vCPU Intel Xeon VM, Python 3.11)
# at its fast speed, so scaled times read about as raw ones there at that speed.
PROBE_REF_S = 0.0015


class SetupError(RuntimeError):
    """The program cannot even be imported; no measurement is possible."""


def _child_env() -> dict:
    env = dict(os.environ)
    # The program comes from src/ of this checkout, with its default term cap,
    # and set-up imports cached bytecode as an installed CLI does.
    for name in ("PYTHONPATH", "SYMMREL_TERM_CAP", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def pin_to_one_cpu() -> None:
    """Run this process and the children it starts on one CPU, so that the
    probe measures the speed of the CPU the jobs run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe() -> float:
    """CPU time of a fixed piece of dict and Fraction arithmetic, the kind
    of work the polynomial engine does."""
    start = time.thread_time()
    acc: dict = {}
    for i in range(400):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * (i + 3)
    return time.thread_time() - start


def spawn(workload: str, seed: int, mode: str, timeout: float = RUN_LIMIT_S):
    """Run job.py once, probing the CPU meanwhile.

    Returns (spawn time, record or None, stderr).  The record gains
    ``scale``: the factor that takes this child's times to the reference
    CPU speed.
    """
    speeds = [PROBE_REF_S / probe()]
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), workload, str(seed), mode],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        while True:
            try:
                stdout, stderr = proc.communicate(timeout=PROBE_EVERY_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() - started > timeout:
                    return started, None, f"killed after {timeout:.0f} s"
                speeds.append(PROBE_REF_S / probe())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    speeds.append(PROBE_REF_S / probe())
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return started, None, f"exit {proc.returncode}: {stderr.strip()[-2000:]}"
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return started, None, f"unreadable record: {exc}"
    record["scale"] = statistics.fmean(speeds)
    return started, record, stderr


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUP_SPAWNS times, then run timed iterations for `seconds`."""
    pin_to_one_cpu()
    todo = jobs(workload, seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = []  # (raw set-up time, scale) per spawn
    for _ in range(SETUP_SPAWNS):
        started, record, err = spawn(workload, seed, "setup", deadline - time.monotonic())
        if record is None:
            raise SetupError(err)
        setup.append((record["ready"] - started, record["scale"]))
    samples, problems = [], []
    attempted = failed = 0
    mode = "trace" if trace else "run"
    begin = time.monotonic()
    while True:
        started, record, err = spawn(workload, seed, mode, deadline - time.monotonic())
        took = time.monotonic() - started
        attempted += len(todo)
        if record is None:
            failed += len(todo)
            problems.append(f"iteration {len(samples) + 1}: {err}")
        else:
            setup.append((record["ready"] - started, record["scale"]))
            samples.append(record)
            for job, result in zip(todo, record["jobs"]):
                why = check(job, result["exit"], result["stdout"], result["error"])
                if why is not None:
                    failed += 1
                    stderr = result["stderr"].strip()[-300:]
                    problems.append(f"{' '.join(job.argv[2:])}: {why} {stderr}".rstrip())
        now = time.monotonic()
        if now - begin + took > seconds or now + took > deadline:
            break
    return {
        "setup": setup,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def metrics(run: dict, trace: bool) -> dict:
    """Medians over the run's iterations, as {name: {value, unit}}."""
    samples = run["samples"]
    if trace:
        return {
            name: {"value": statistics.median(s["layers"][name] for s in samples), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    values = {
        "wall_norm_s": [s["wall_s"] * s["scale"] for s in samples],
        "cpu_norm_s": [s["cpu_s"] * s["scale"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "setup_s": [raw * scale for raw, scale in run["setup"]],
    }
    return {
        name: {"value": statistics.median(values[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    """Host and source facts; informational, never gated."""
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    facts = provenance()
    try:
        run = measure(args.workload, args.seed, args.seconds, trace)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    facts["loadavg_end"] = list(os.getloadavg())
    for problem in run["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    if not run["samples"]:
        print("no iteration completed; nothing to report", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": len(run["samples"]),
        "setup_samples_s": [raw for raw, _ in run["setup"]],
        "setup_scales": [scale for _, scale in run["setup"]],
        "provenance": facts,
    }
    if trace:
        detail["hook_errors"] = run["samples"][0]["hook_errors"]
    else:
        detail["samples"] = {
            name: [s[name] for s in run["samples"]]
            for name in ("wall_s", "cpu_s", "peak_rss_mb", "scale")
        }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics(run, trace),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
