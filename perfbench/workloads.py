"""Workload definitions and exact output checks.

A workload is a fixed list of CLI jobs (argv lists for ``symmrel.cli.main``).
The seed only permutes independent jobs; the case set never changes, so the
work done and every per-layer count are the same for every seed.

Checks read result fields only (verdicts, extracted entries, relations,
``all_ok``) and compare exact values parsed from the output text against
``reference.json`` or against values computed here with the standard
library, never against values the program under test builds.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from functools import cache
from math import comb
from pathlib import Path
from typing import NamedTuple

FAMILIES = ("legendre", "laguerre", "hermite", "fibonacci", "bernoulli", "t", "euler", "bell")
FAMILY_M = range(2, 6)
SYMBOLIC_M = range(2, 5)
Z_GRID = [(n, m) for n in range(5) for m in range(2, 5)]
SOLVE_C_N = 6
BERNOULLI_MAX_INDEX = 8

WORKLOADS = ("solve-c", "zero-sweep", "z-tables")


class Job(NamedTuple):
    kind: str  # verify | table | solve-c | bernoulli
    params: tuple
    argv: tuple


def jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload, independent ones in seed order."""
    rng = random.Random(seed)
    if workload == "solve-c":
        return [Job("solve-c", (SOLVE_C_N,), ("--format", "json", "solve-c", "--n", str(SOLVE_C_N)))]
    if workload == "zero-sweep":
        cases = [(name, FAMILY_M) for name in FAMILIES] + [("symbolic", SYMBOLIC_M)]
        rng.shuffle(cases)
        return [
            Job(
                "verify",
                (name, ms),
                ("--format", "json", "verify", "--conjecture", "1", "--family", name,
                 "--m", f"{ms[0]}..{ms[-1]}", "--allow-large"),
            )
            for name, ms in cases
        ]
    if workload == "z-tables":
        grid = list(Z_GRID)
        rng.shuffle(grid)
        out = [
            Job("table", (n, m), ("--format", "json", "table", "Z", "--n", str(n), "--m", str(m)))
            for n, m in grid
        ]
        out.append(
            Job(
                "bernoulli",
                (BERNOULLI_MAX_INDEX,),
                ("--format", "json", "bernoulli-relations", "--max-index", str(BERNOULLI_MAX_INDEX)),
            )
        )
        return out
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Exact values from output text
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)([^+-]+)")
_FACTOR = re.compile(r"([a-z]+_\d+)(?:\^(\d+))?$")


def parse_poly(text: str) -> dict:
    """'5/2*a_1^4 - a_2 + 3' -> {(('a_1', 4),): 5/2, (('a_2', 1),): -1, (): 3}.

    The result has no zero coefficients, so two polynomials are equal exactly
    when their parsed dicts are.  Raises ValueError on text it cannot read.
    """
    out: dict = {}
    body = text.replace(" ", "")
    if not body:
        raise ValueError("empty polynomial text")
    pos = 0
    for match in _TERM.finditer(body):
        if match.start() != pos:
            raise ValueError(f"cannot parse {text!r}")
        pos = match.end()
        sign, term = match.groups()
        coeff = Fraction(-1 if sign == "-" else 1)
        mono = {}
        for factor in term.split("*"):
            var = _FACTOR.match(factor)
            if var:
                name, exp = var.group(1), int(var.group(2) or 1)
                mono[name] = mono.get(name, 0) + exp
            else:
                coeff *= Fraction(factor)
        key = tuple(sorted(mono.items()))
        out[key] = out.get(key, 0) + coeff
    if pos != len(body):
        raise ValueError(f"cannot parse {text!r}")
    return {k: c for k, c in out.items() if c}


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max with B_1 = -1/2, from sum_{j<=k} C(k+1, j) B_j = 0."""
    values = [Fraction(1)]
    for k in range(1, n_max + 1):
        values.append(-sum(comb(k + 1, j) * values[j] for j in range(k)) / (k + 1))
    return values


@cache
def reference() -> dict:
    return json.loads(Path(__file__).with_name("reference.json").read_text())


def _key(values) -> str:
    return ",".join(map(str, values))


# ---------------------------------------------------------------------------
# Checks: each returns None when the output is right, else the first problem
# ---------------------------------------------------------------------------


def check(job: Job, exit_code, stdout: str, error) -> str | None:
    """Why the job's output is wrong, or None.  Never raises."""
    if error is not None:
        return "raised: " + (error.strip().splitlines() or ["?"])[-1]
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        document = json.loads(stdout)
        return _CHECKS[job.kind](job, document)
    except Exception as exc:  # any malformed output is a failed job, not a harness crash
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_verify(job: Job, doc) -> str | None:
    name, ms = job.params
    expected = sorted((n, m) for m in ms for n in range(m))
    cases = doc["cases"]
    got = sorted((c["n"], c["m"]) for c in cases)
    if got != expected:
        return f"{name}: case grid {got} != {expected}"
    for case in cases:
        if case["conjecture"] != "C1" or case["source"] != name or case["verdict"] != "verified":
            return f"{name} n={case['n']} m={case['m']}: {case['conjecture']} {case['verdict']}"
    summary = doc["summary"]
    if (summary["total"], summary["verified"]) != (len(expected), len(expected)):
        return f"{name}: summary {summary}"
    return None


def _check_table(job: Job, doc) -> str | None:
    n, m = job.params
    if (doc["table"], doc["n"], doc["m"]) != ("Z", n, m):
        return f"table header {doc['table']} n={doc['n']} m={doc['m']}"
    ref = next(t for t in reference()["z_tables"] if (t["n"], t["m"]) == (n, m))["entries"]
    got = {_key(e["key"]): e["coeff"] for e in doc["entries"]}
    if set(got) != set(ref):
        return f"Z({n},{m}) keys {sorted(got)} != {sorted(ref)}"
    for key, text in ref.items():
        if parse_poly(got[key]) != parse_poly(text):
            return f"Z({n},{m}) key ({key}) = {got[key]}"
    return None


def _check_bernoulli(job: Job, doc) -> str | None:
    (max_index,) = job.params
    if doc["all_ok"] is not True:
        return "all_ok is not true"
    for rel in doc["nonlinear"]["relations"]:
        if not rel["ok"] or Fraction(rel["value"]) != 0:
            return f"nonlinear relation {rel['relation']} = {rel['value']}"
    entries = doc["elimination"]["entries"]
    if [e["index"] for e in entries] != list(range(2, max_index + 1)):
        return f"elimination indices {[e['index'] for e in entries]}"
    b = bernoulli_numbers(max_index)
    for e in entries:
        k = e["index"]
        coeff = -Fraction(2**k) * b[k] / k
        expected = {(("a_1", k),): coeff} if coeff else {}
        if parse_poly(e["computed"]) != expected:
            return f"a_{k} = {e['computed']}"
    return None


def _check_solve_c(job: Job, doc) -> str | None:
    ref = reference()["solve_c_6"]
    if doc["free_keys"] != ref["free_keys"]:
        return f"free keys {doc['free_keys']}"
    got = {
        _key(r["key"]): {_key(t["free"]): Fraction(t["coeff"]) for t in r["terms"] if Fraction(t["coeff"])}
        for r in doc["relations"]
    }
    expected = {
        key: {fk: Fraction(c) for fk, c in form.items() if Fraction(c)}
        for key, form in ref["dependent"].items()
    }
    if got != expected:
        wrong = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
        return f"dependent forms differ at {wrong}"
    return None


_CHECKS = {
    "verify": _check_verify,
    "table": _check_table,
    "bernoulli": _check_bernoulli,
    "solve-c": _check_solve_c,
}
