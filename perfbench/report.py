"""Print every metric of every workload in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]      (~75 s at the default)

Each workload is measured untraced (end-to-end metrics) and then traced
(per-layer metrics).  The last row is the tracing overhead: traced job time
over untraced job time, both scaled to the reference CPU speed, minus one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from layers import PER_LAYER
from run import END_TO_END, SetupError, measure, metrics, provenance
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args(argv)

    print(json.dumps({"provenance": provenance()}))
    columns = {}
    for workload in WORKLOADS:
        try:
            plain = measure(workload, args.seed, args.seconds, trace=False)
            traced = measure(workload, args.seed, args.seconds, trace=True)
        except SetupError as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 1
        for problem in plain["problems"] + traced["problems"]:
            print(f"FAILED {workload}: {problem}", file=sys.stderr)
        if not (plain["samples"] and traced["samples"]):
            print(f"{workload}: no iteration completed", file=sys.stderr)
            return 1
        values = {name: m["value"] for name, m in metrics(plain, False).items()}
        values.update({name: m["value"] for name, m in metrics(traced, True).items()})
        traced_wall = statistics.median(s["wall_s"] * s["scale"] for s in traced["samples"])
        values["trace.overhead"] = traced_wall / values["wall_norm_s"] - 1
        values["failed/attempted"] = (
            f"{plain['failed'] + traced['failed']}/{plain['attempted'] + traced['attempted']}"
        )
        columns[workload] = values

    units = dict(END_TO_END)
    units.update({name: unit for name, (unit, _) in PER_LAYER.items()})
    units.update({"trace.overhead": "ratio", "failed/attempted": "count"})
    width = max(map(len, units)) + 2
    print(f"{'metric':<{width}}{'unit':<7}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name, unit in units.items():
        cells = "".join(
            f"{v:>14.6g}" if isinstance(v, (int, float)) else f"{v:>14}"
            for v in (columns[w][name] for w in WORKLOADS)
        )
        print(f"{name:<{width}}{unit:<7}{cells}")
    return 0 if all(c["failed/attempted"].startswith("0/") for c in columns.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
