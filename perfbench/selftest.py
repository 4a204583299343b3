"""Self-test of the benchmark harness, run from the root of a checkout.

    python3 perfbench/selftest.py [WORKLOAD ...]      (~2 min for all three)

For each workload it runs two traced iterations and one untraced iteration
with the same seed and asserts that

* the per-layer counts repeat exactly, so every run starts from cold caches;
* traced outputs equal untraced ones, apart from stage timings;
* every span listed in EXPECTED recorded work on that workload;
* every output passes its check, and the checker turns a wrong value, a
  traceback, a non-zero exit and unreadable output into failures instead of
  raising.

It also asserts that BENCHMARK.json names the metrics the harness reports,
with the bounds that ``run.BOUNDS`` and README.md give.
EXPECTED describes the program as it is when this benchmark was defined; a
change that removes a layer on purpose updates it.
"""

from __future__ import annotations

import json
import sys

from layers import PER_LAYER
from run import BOUNDS, END_TO_END, ROOT, spawn
from workloads import WORKLOADS, check, jobs

SEED = 7

# Per workload, the per-layer metrics that must be nonzero.
_SHARED = ["polyring.mul.calls", "polyring.add.calls", "polyring.pow.self_s", "cli.main.self_s"]
EXPECTED = {
    "solve-c": _SHARED
    + [
        "polyring.substitute.calls",
        "polyring.divide_by_difference.calls",
        "polyring.divide_by_variable.self_s",
        "relations.verify_conjecture2.calls",
        "relations.expand_s",
        "relations.divide_s",
        "relations.basis_s",
        "relations.numerator_terms",
        "symmfunc.to_power_sum_basis.calls",
        "symmfunc.is_symmetric.self_s",
        "symmfunc.power_sums_of.self_s",
        "solver.solve_c_coefficients.self_s",
        "solver.residue_system.self_s",
        "solver.equations",
        "partitions.exponent_vectors.calls",
    ],
    "zero-sweep": _SHARED
    + [
        "relations.verify_conjecture1.calls",
        "relations.prescreen_s",
        "relations.expand_s",
        "symmfunc.complete_bell.calls",
        "symmfunc.power_sums_of.self_s",
        "exactnum.bernoulli_numbers.self_s",
    ],
    "z-tables": _SHARED
    + [
        "polyring.substitute.calls",
        "polyring.divide_by_difference.calls",
        "polyring.divide_by_variable.self_s",
        "relations.verify_conjecture2.calls",
        "relations.divide_s",
        "relations.basis_s",
        "relations.extract_z.hit_ratio",
        "symmfunc.to_power_sum_basis.calls",
        "symmfunc.is_symmetric.self_s",
        "symmfunc.complete_bell.calls",
        "solver.sequential_a_elimination.self_s",
        "exactnum.bernoulli_numbers.self_s",
        "partitions.exponent_vectors.calls",
    ],
}

# Metrics that must repeat exactly between runs of one seed.  Output size does
# not: verify JSON carries wall-clock stage timings of varying length.
EXACT = [
    name
    for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "ratio") and name != "cli.output_bytes"
]


def _strip_timings(value):
    if isinstance(value, dict):
        return {k: _strip_timings(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def _outputs(record):
    return [
        (job["exit"], job["error"], _strip_timings(json.loads(job["stdout"])))
        for job in record["jobs"]
    ]


def _corrupt(kind: str, doc: dict) -> dict:
    """The same document with one result field wrong."""
    if kind == "verify":
        doc["cases"][-1]["verdict"] = "falsified"
    elif kind == "table":
        doc["entries"][0]["coeff"] += " + a_9"
    elif kind == "bernoulli":
        doc["elimination"]["entries"][-1]["computed"] += " + 1"
    else:
        doc["relations"][0]["terms"][0]["coeff"] = "1/7"
    return doc


def _record(workload: str, mode: str) -> dict:
    _, record, err = spawn(workload, SEED, mode)
    assert record is not None, f"{workload} {mode}: {err}"
    return record


def test_workload(workload: str) -> None:
    first, second = _record(workload, "trace"), _record(workload, "trace")
    plain = _record(workload, "run")
    for name in EXACT:
        assert first["layers"][name] == second["layers"][name], (
            f"{workload}: {name} {first['layers'][name]} != {second['layers'][name]}"
        )
    assert not first["hook_errors"], f"{workload}: {first['hook_errors']}"
    assert _outputs(first) == _outputs(plain), f"{workload}: traced output differs"
    for name in EXPECTED[workload]:
        assert first["layers"][name] > 0, f"{workload}: {name} recorded nothing"
    for job, result in zip(jobs(workload, SEED), plain["jobs"]):
        stdout = result["stdout"]
        assert check(job, result["exit"], stdout, result["error"]) is None, job.argv
        wrong = json.dumps(_corrupt(job.kind, json.loads(stdout)))
        assert check(job, 0, wrong, None) is not None, f"{job.argv}: wrong value passed"
        assert check(job, 1, stdout, None) is not None, f"{job.argv}: exit 1 passed"
        assert check(job, None, "", "Traceback\nValueError: x\n") is not None
        assert check(job, 0, stdout[: len(stdout) // 2], None) is not None
    print(f"ok {workload}: counts repeat, outputs match, {len(EXPECTED[workload])} spans active")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == {
        name: (unit, "lower", BOUNDS[name]) for name, unit in END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    print("ok BENCHMARK.json matches the harness")


def main(argv) -> int:
    test_benchmark_json()
    for workload in argv or WORKLOADS:
        test_workload(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
