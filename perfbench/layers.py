"""Per-layer tracing from outside the package.

``Tracer.install`` wraps public functions of the ``symmrel`` modules in
spans.  A span records calls and self time: its duration minus the time of
the spans it encloses.  Hooks add counts where the work happens, e.g. the
term pairs of each polynomial product.  Nothing under ``src/`` is changed;
functions are replaced in every module that binds them (``from .x import f``
copies the reference) and on the class for every alias
(``MultiPoly.__rmul__ = __mul__``).  A name the program no longer has is
skipped, so its metrics read 0; a hook that no longer fits what a function
returns is counted in ``hook_errors`` and never breaks the job.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# Metric name -> (unit, better).  Run in this order; every traced run reports
# all of them, with 0 for a layer the workload does not reach.
PER_LAYER = {
    "polyring.mul.calls": ("count", "lower"),
    "polyring.mul.self_s": ("s", "lower"),
    "polyring.mul.term_pairs": ("count", "lower"),
    "polyring.mul.out_terms": ("count", "lower"),
    "polyring.mul.max_operand_terms": ("count", "lower"),
    "polyring.mul.fraction_share": ("ratio", "lower"),
    "polyring.add.calls": ("count", "lower"),
    "polyring.add.self_s": ("s", "lower"),
    "polyring.pow.self_s": ("s", "lower"),
    "polyring.substitute.calls": ("count", "lower"),
    "polyring.substitute.self_s": ("s", "lower"),
    "polyring.divide_by_difference.calls": ("count", "lower"),
    "polyring.divide_by_difference.self_s": ("s", "lower"),
    "polyring.divide_by_difference.in_terms": ("count", "lower"),
    "polyring.divide_by_variable.self_s": ("s", "lower"),
    "relations.verify_conjecture1.calls": ("count", "lower"),
    "relations.verify_conjecture1.self_s": ("s", "lower"),
    "relations.verify_conjecture2.calls": ("count", "lower"),
    "relations.verify_conjecture2.self_s": ("s", "lower"),
    "relations.prescreen_s": ("s", "lower"),
    "relations.expand_s": ("s", "lower"),
    "relations.divide_s": ("s", "lower"),
    "relations.basis_s": ("s", "lower"),
    "relations.numerator_terms": ("count", "lower"),
    "relations.resource_limited": ("count", "lower"),
    "relations.extract_z.hit_ratio": ("ratio", "higher"),
    "relations.extract_y_basis.hit_ratio": ("ratio", "higher"),
    "symmfunc.to_power_sum_basis.calls": ("count", "lower"),
    "symmfunc.to_power_sum_basis.self_s": ("s", "lower"),
    "symmfunc.to_power_sum_basis.keys": ("count", "lower"),
    "symmfunc.is_symmetric.self_s": ("s", "lower"),
    "symmfunc.complete_bell.calls": ("count", "lower"),
    "symmfunc.complete_bell.self_s": ("s", "lower"),
    "symmfunc.power_sums_of.self_s": ("s", "lower"),
    "solver.solve_c_coefficients.self_s": ("s", "lower"),
    "solver.residue_system.self_s": ("s", "lower"),
    "solver.sequential_a_elimination.self_s": ("s", "lower"),
    "solver.equations": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("count", "lower"),
    "exactnum.bernoulli_numbers.self_s": ("s", "lower"),
    "partitions.exponent_vectors.calls": ("count", "lower"),
    "partitions.exponent_vectors.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
}

STAGES = ("prescreen", "expand", "divide", "basis")
CALLER_MEASURED = ("cli.output_bytes", "trace.wall_s")  # set by job.py


def _mul_counts(counts, args, result):
    a, b = args
    len_a = len(a)
    len_b = len(b) if hasattr(b, "terms") else 1
    counts["polyring.mul.term_pairs"] += len_a * len_b
    counts["polyring.mul.max_operand_terms"] = max(
        counts["polyring.mul.max_operand_terms"], len_a, len_b
    )
    terms = getattr(result, "terms", None)
    if terms is not None:
        counts["polyring.mul.out_terms"] += len(terms)
        counts["mul.fractions"] += sum(1 for c in terms.values() if isinstance(c, Fraction))


def _report_counts(counts, args, report):
    for stage in getattr(report, "stages", ()):
        if stage.name in STAGES:
            counts[f"relations.{stage.name}_s"] += stage.seconds
    counts["relations.resource_limited"] += getattr(report, "verdict", "") == "resource-limited"


# (module, attribute path, span name or None for count-only, hook)
TARGETS = [
    ("polyring", "MultiPoly.__mul__", "polyring.mul", _mul_counts),
    ("polyring", "MultiPoly.__add__", "polyring.add", None),
    ("polyring", "MultiPoly.__sub__", "polyring.add", None),
    ("polyring", "MultiPoly.__rsub__", "polyring.add", None),
    ("polyring", "MultiPoly.__pow__", "polyring.pow", None),
    ("polyring", "MultiPoly.substitute", "polyring.substitute", None),
    (
        "polyring",
        "MultiPoly.divide_by_difference",
        "polyring.divide_by_difference",
        lambda counts, args, result: counts.update(
            {"polyring.divide_by_difference.in_terms": len(args[0])}
        ),
    ),
    ("polyring", "MultiPoly.divide_by_variable", "polyring.divide_by_variable", None),
    ("relations", "verify_conjecture1", "relations.verify_conjecture1", _report_counts),
    ("relations", "verify_conjecture2", "relations.verify_conjecture2", _report_counts),
    (
        "relations",
        "_u_numerator",
        None,
        lambda counts, args, result: counts.update({"relations.numerator_terms": len(result[0])}),
    ),
    (
        "symmfunc",
        "to_power_sum_basis",
        "symmfunc.to_power_sum_basis",
        lambda counts, args, result: counts.update(
            {"symmfunc.to_power_sum_basis.keys": len(result.coefficients)}
        ),
    ),
    ("symmfunc", "is_symmetric", "symmfunc.is_symmetric", None),
    ("symmfunc", "complete_bell", "symmfunc.complete_bell", None),
    ("symmfunc", "power_sums_of", "symmfunc.power_sums_of", None),
    (
        "solver",
        "solve_c_coefficients",
        "solver.solve_c_coefficients",
        lambda counts, args, result: counts.update({"solver.equations": result.equations}),
    ),
    ("solver", "residue_system", "solver.residue_system", None),
    ("solver", "sequential_a_elimination", "solver.sequential_a_elimination", None),
    ("cli", "main", "cli.main", None),
    ("exactnum", "bernoulli_numbers", "exactnum.bernoulli_numbers", None),
    ("partitions", "exponent_vectors", "partitions.exponent_vectors", None),
]

# lru_cache objects whose hit ratio is reported: metric -> (module, name).
CACHES = {
    "relations.extract_z.hit_ratio": ("relations", "extract_z"),
    "relations.extract_y_basis.hit_ratio": ("relations", "extract_y_basis"),
}


class Tracer:
    def __init__(self):
        self.spans: dict = {}  # span name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self._stack: list = []  # open spans as [name, seconds spent in child spans]
        self._caches: dict = {}
        self.hook_errors: Counter = Counter()

    def _hook(self, hook, path, args, result):
        try:
            hook(self.counts, args, result)
        except Exception as exc:  # the program changed shape; keep the job running
            self.hook_errors[f"{path}: {type(exc).__name__}: {exc}"] += 1

    def _wrap(self, fn, path, name, hook):
        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._hook(hook, path, args, result)
                return result

            return counted

        stack = self._stack
        stat = self.spans.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                # Re-entry (a subtraction adding, a recursion) folds into the open span.
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                stat[0] += 1
                stat[1] += perf_counter() - start - frame[1]
                stack.pop()
                if ok and hook is not None:
                    self._hook(hook, path, args, result)
                if stack:
                    # The hook's cost leaves the parent's self time as well.
                    stack[-1][1] += perf_counter() - start

        return span

    def install(self) -> None:
        """Wrap every target in every symmrel module that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "symmrel" or n.startswith("symmrel.")]
        for module_name, path, name, hook in TARGETS:
            module = sys.modules.get(f"symmrel.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, path, name, hook)
            if isinstance(owner, type):
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, alias, wrapped)
            else:
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, alias, wrapped)
        for metric, (module_name, attr) in CACHES.items():
            # The lru_cache object itself: following __wrapped__ would reach
            # the bare function, which has no cache_info().
            cached = getattr(sys.modules.get(f"symmrel.{module_name}"), attr, None)
            if hasattr(cached, "cache_info"):
                self._caches[metric] = cached

    def metrics(self) -> dict:
        """Every PER_LAYER metric but the two the caller measures."""
        out = {}
        for name, (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        fractions = out.pop("mul.fractions", 0)
        out_terms = self.counts["polyring.mul.out_terms"]
        out["polyring.mul.fraction_share"] = fractions / out_terms if out_terms else 0.0
        for metric, cached in self._caches.items():
            info = cached.cache_info()
            calls = info.hits + info.misses
            out[metric] = info.hits / calls if calls else 0.0
        return {key: out.get(key, 0) for key in PER_LAYER if key not in CALLER_MEASURED}
