"""Command-line front end.

Subcommands:

* ``verify`` -- run zero-relation / residue checks over (family, n, m) grids
  or over power-sum-product keys;
* ``table`` -- regenerate the Z (symbolic residue) and Y (product residue)
  coefficient tables;
* ``solve-c`` -- solve the vanishing system for the C coefficients and
  optionally confirm the Bernoulli reconstruction;
* ``bernoulli-relations`` -- evaluate the nonlinear Bernoulli-number
  relations and the a_k elimination identity;
* ``families`` -- list the family registry.

Exit codes: 0 all checks passed, 1 a check was falsified, 2 usage error,
3 a resource cap was hit.  Verdicts are always available in machine-readable
form via ``--format json``; exit codes are the authoritative channel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .families import FAMILY_NAMES, SYMBOLIC_NAME, get_family
from .partitions import _count_exceeds, exponent_vectors, partition_count, vector_weight
from .polyring import (
    TermCapExceeded,
    format_rational,
    format_terms,
    get_term_cap,
    set_term_cap,
    term_cap_from_environment,
)
from .relations import (
    PreconditionError,
    extract_y_basis,
    extract_z,
    verify_conjecture1,
    verify_conjecture2,
)
from .solver import (
    TABULATED_BERNOULLI_FREE_VALUES,
    bernoulli_reconstruction_check,
    solve_c_coefficients,
    verify_bernoulli_identity,
    verify_nonlinear_bernoulli,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_N = 8
DEFAULT_MAX_M = 4
# More cases than any run could list, let alone decide, even with --allow-large.
_MAX_CASES = 10**6


class UsageError(ValueError):
    pass


def _parse_range(spec: str) -> range:
    """Accept '3' or '2..4' (inclusive).  No list is built: a range is checked
    against the bounds by its ends."""
    try:
        if ".." in spec:
            lo_text, hi_text = spec.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
        else:
            lo = hi = int(spec)
    except ValueError:
        raise UsageError(f"bad range {spec!r}; expected N or LO..HI") from None
    return range(lo, hi + 1)


def _check_keys(weight: int, max_part: int) -> None:
    """Refuse more exponent vectors of ``weight`` with parts <= ``max_part``
    than the term cap, before any is listed.

    Within the default bounds there are at most P(8) = 22 of them and the cap
    meets the products instead.  The count is made afresh on every call, so
    the verdict does not depend on what ran before.
    """
    if weight > DEFAULT_MAX_N and _count_exceeds(weight, max_part, get_term_cap()):
        raise TermCapExceeded(
            f"the exponent vectors of weight {weight} with parts <= {max_part} "
            f"number more than the cap of {get_term_cap()}"
        )


def _check_grid(size: int) -> None:
    if size > _MAX_CASES:
        raise UsageError(f"the case grid has {size} cases; no grid holds more than {_MAX_CASES}")


def _parse_key(spec: str) -> tuple[int, ...]:
    try:
        key = tuple(int(part) for part in spec.split(","))
        if min(key) < 0:
            raise ValueError
        return key
    except ValueError:
        raise UsageError(f"bad key {spec!r}; expected comma-separated integers >= 0") from None


def _format_powersum(expansion) -> str:
    """Render a power-sum expansion as p_1, p_2, ... products."""
    if any(hasattr(coeff, "terms") for coeff in expansion.coefficients.values()):
        raise ValueError("symbolic expansions are rendered per entry")
    return format_terms(
        ("*".join(f"p_{i}" if e == 1 else f"p_{i}^{e}" for i, e in enumerate(key, 1) if e), coeff)
        for key, coeff in expansion.coefficients.items()
    )


def _render_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, with no pure-Python
    encoder: with an indent, ``json.dumps`` runs its Python encoder, so the
    2-space layout is built here and each string is encoded by the C
    ``encode_basestring_ascii``.  Dicts with str or int keys, lists, str,
    int, bool and None are rendered here; any other value, or a dict with
    another key, by ``json.dumps``, indented to where it stands."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_render_json(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict and all(type(key) is str or type(key) is int for key in value):
        if not value:
            return "{}"
        items = [_quote(str(key)) + ": " + _render_json(item, inner) for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    # A JSON text holds no raw newline in a string, so each one starts a line.
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _emit(document, fmt: str, text_lines) -> None:
    """Print the document as JSON, or the lines ``text_lines()`` yields: the
    text is made only under ``--format text``."""
    try:
        if fmt == "json":
            print(_render_json(document))
        else:
            for line in text_lines():
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``).  Send what is left to devnull
        # so the exit code still reports the verdict, not the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_case(case):
    """Run one verification case; used directly and from worker processes."""
    regime, source, n, m = case
    if regime == "zero":
        report = verify_conjecture1(source, n, m)
    else:
        report = verify_conjecture2(source, n, m)
    return report.to_json()


def _case_label(result) -> str:
    return f"{result['conjecture']} {result['source']} n={result['n']} m={result['m']}"


def _build_cases(args) -> list:
    # An empty --n= or --m= is a bad range, not an absent option.
    m_values = _parse_range(args.m) if args.m is not None else range(2, DEFAULT_MAX_M + 1)
    n_values = _parse_range(args.n) if args.n is not None else None
    if args.conjecture in (1, 2):
        if not args.family:
            raise UsageError("--family is required for conjectures 1 and 2")
        name = args.family.lower()
        if name != SYMBOLIC_NAME:
            try:
                get_family(name)
            except KeyError as exc:
                raise UsageError(exc.args[0]) from None
    else:
        if n_values is None:
            raise UsageError("--n is required for conjecture 3")
        if n_values[0] < 0:
            raise UsageError("conjecture 3 needs --n >= 0")
    # The bounds, sizes and key counts are checked on the ends of the
    # ranges, before any list is built.  The default degrees are n <= m - 1
    # (conjecture 1) and m <= n <= DEFAULT_MAX_N (conjecture 2).
    top_m = m_values[-1]
    if n_values is not None:
        top_n = n_values[-1]
        size = (top_m - m_values[0] + 1) * (top_n - n_values[0] + 1)
    elif args.conjecture == 1:
        top_n = top_m - 1
        lo = max(m_values[0], 1)
        size = (top_m - lo + 1) * (lo + top_m) // 2 if top_m >= lo else 0  # m cases per m
    else:
        top_n = DEFAULT_MAX_N
        lo, hi = m_values[0], min(top_m, DEFAULT_MAX_N)
        # DEFAULT_MAX_N + 1 - m cases per m
        size = (hi - lo + 1) * (2 * DEFAULT_MAX_N + 2 - lo - hi) // 2 if hi >= lo else 0
    if not args.allow_large and (top_n > DEFAULT_MAX_N or top_m > DEFAULT_MAX_M):
        raise UsageError(
            f"the grid reaches n={top_n}, m={top_m}, outside the default bounds "
            f"(n <= {DEFAULT_MAX_N}, m <= {DEFAULT_MAX_M}); pass --allow-large"
        )
    _check_grid(size)
    if args.conjecture == 1:
        # No degree above m - 1 is listed: the grid is refused first.
        _check_keys(min(top_n, top_m - 1), min(top_n, top_m - 1))
    elif args.conjecture == 2 or not args.key:
        _check_keys(top_n, top_n)  # a family, or every key, of that degree
    if args.conjecture == 3 and not args.key:
        _check_grid((top_m - m_values[0] + 1) * sum(partition_count(n, n) for n in n_values))
    cases = []
    if args.conjecture in (1, 2):
        for m in m_values:
            if args.conjecture == 1:
                ns = n_values if n_values is not None else range(0, m)
                for n in ns:
                    if not 0 <= n <= m - 1:
                        raise UsageError(
                            f"conjecture 1 needs 0 <= n <= m-1, got n={n}, m={m}"
                        )
                    cases.append(("zero", name, n, m))
            else:
                ns = n_values if n_values is not None else range(m, DEFAULT_MAX_N + 1)
                for n in ns:
                    if n < m:
                        raise UsageError(f"conjecture 2 needs n >= m, got n={n}, m={m}")
                    cases.append(("poly", name, n, m))
    else:
        for m in m_values:
            for n in n_values:
                keys = [_parse_key(args.key)] if args.key else exponent_vectors(n, n if n else 1)
                for key in keys:
                    if vector_weight(key) != n or len(key) != n:
                        raise UsageError(f"key {key} does not have weight {n}")
                    regime = "zero" if n <= m - 1 else "poly"
                    if args.key and regime == "poly":
                        _check_keys(n - m, m)  # the residue's keys
                    cases.append((regime, key, n, m))
    if not cases:
        raise UsageError("empty case grid")
    return cases


def cmd_verify(args) -> int:
    cases = _build_cases(args)
    # The pool starts all its workers at once, so never more than can be busy.
    workers = min(args.jobs, len(cases), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it loads multiprocessing, which other commands never use.
        from concurrent.futures import ProcessPoolExecutor

        # Workers started by spawn or forkserver do not inherit the parent's
        # term cap, so it is passed explicitly.
        with ProcessPoolExecutor(
            max_workers=workers, initializer=set_term_cap, initargs=(get_term_cap(),)
        ) as pool:
            results = list(pool.map(_verify_case, cases))
    else:
        results = [_verify_case(case) for case in cases]

    verified = sum(1 for r in results if r["verdict"] == "verified")
    falsified = [r for r in results if r["verdict"] == "falsified"]
    limited = [r for r in results if r["verdict"] == "resource-limited"]
    document = {
        "command": "verify",
        "conjecture": args.conjecture,
        "cases": results,
        "summary": {
            "total": len(results),
            "verified": verified,
            "falsified": len(falsified),
            "resource_limited": len(limited),
        },
    }

    def lines():
        for r in results:
            line = f"{_case_label(r)}: {r['verdict']}"
            if r["verdict"] == "falsified" and "witness" in r:
                line += f" (witness: {r['witness']})"
            if r["verdict"] == "verified" and "extracted" in r:
                entries = r["extracted"]["entries"]
                nonzero = [e for e in entries if e["coeff"] not in ("0",)]
                line += f" (residue: {len(nonzero)} nonzero of {len(entries)} entries)"
            yield line
        yield (
            f"summary: {verified}/{len(results)} verified, "
            f"{len(falsified)} falsified, {len(limited)} resource-limited"
        )

    _emit(document, args.format, lines)
    if limited:
        return EXIT_RESOURCE
    if falsified:
        return EXIT_FALSIFIED
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.n < 0:
        raise UsageError(f"table needs --n >= 0, got {args.n}")
    if not args.allow_large and (args.n > DEFAULT_MAX_N or args.m > DEFAULT_MAX_M):
        raise UsageError(
            f"table n={args.n}, m={args.m} is outside the default bounds; pass --allow-large"
        )
    if args.table == "Z":
        # The symbolic source of degree n + m lists every key of that weight.
        _check_keys(args.n + args.m, args.n + args.m)
        expansion = extract_z(args.n, args.m)
        entries = [
            {"key": list(key), "coeff": str(coeff)}
            for key, coeff in expansion.coefficients.items()
        ]
        document = {"table": "Z", "n": args.n, "m": args.m, "entries": entries}
        # Each coefficient is formatted once, for the document, and read from it.
        _emit(
            document,
            args.format,
            lambda: (
                f"z^{args.m}_{{{','.join(map(str, e['key'])) or '0'}}} = {e['coeff']}"
                for e in entries
            ),
        )
        return EXIT_OK
    if not args.key:
        raise UsageError("table Y requires --key")
    key = _parse_key(args.key)
    if vector_weight(key) != args.n or len(key) != args.n:
        raise UsageError(f"key {key} does not have weight {args.n}")
    _check_keys(args.n - args.m, args.m)
    expansion = extract_y_basis(args.n, args.m, key)
    entries = [
        {"key": list(entry_key), "coeff": format_rational(coeff)}
        for entry_key, coeff in expansion.coefficients.items()
    ]
    document = {
        "table": "Y",
        "n": args.n,
        "m": args.m,
        "basis_key": list(key),
        "entries": entries,
    }
    label = f"Y_{{{args.n - args.m},{{{','.join(map(str, key))}}}}}"
    _emit(document, args.format, lambda: [f"{label} = {_format_powersum(expansion)}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve-c
# ---------------------------------------------------------------------------


def _key_text(n: int, key) -> str:
    return f"C_{{{n},{{{', '.join(map(str, key))}}}}}"


def cmd_solve_c(args) -> int:
    if args.n < 2:
        raise UsageError("solve-c needs --n >= 2")
    if args.check_bernoulli and args.n not in TABULATED_BERNOULLI_FREE_VALUES:
        raise UsageError(f"tabulated free values cover n <= 5; got n = {args.n}")
    _check_keys(args.n, args.n)
    solution = solve_c_coefficients(args.n)
    # In key order: the pivots are stored in reverse column order.  Each form
    # is already in key order.
    forms = [
        (key, solution.dependent[key]) for key in solution.key_order if key in solution.dependent
    ]
    relations = [
        {
            "key": list(key),
            "terms": [{"free": list(fk), "coeff": format_rational(c)} for fk, c in form.items()],
        }
        for key, form in forms
    ]
    document = {
        "command": "solve-c",
        "n": args.n,
        "unknowns": len(solution.key_order),
        "equations": solution.equations,
        "nullspace_dimension": solution.nullspace_dimension,
        "free_keys": [list(k) for k in solution.free_keys],
        "relations": relations,
    }
    matches = None
    if args.check_bernoulli:
        matches = bernoulli_reconstruction_check(args.n)
        document["bernoulli_check"] = {"n": args.n, "matches": matches}

    def lines():
        yield (
            f"n = {args.n}: {len(solution.key_order)} unknowns, "
            f"{solution.equations} equations, nullspace dimension {solution.nullspace_dimension}"
        )
        yield "free: " + ", ".join(_key_text(args.n, k) for k in solution.free_keys)
        for key, form in forms:
            text = format_terms((_key_text(args.n, fk), c) for fk, c in form.items())
            yield f"{_key_text(args.n, key)} = {text}"
        if matches is not None:
            verdict = "confirmed" if matches else "MISMATCH"
            yield f"Bernoulli reconstruction for n={args.n}: {verdict}"

    _emit(document, args.format, lines)
    return EXIT_FALSIFIED if matches is False else EXIT_OK


# ---------------------------------------------------------------------------
# bernoulli-relations
# ---------------------------------------------------------------------------


def cmd_bernoulli_relations(args) -> int:
    if args.max_index < 2:
        raise UsageError(f"bernoulli-relations needs --max-index >= 2, got {args.max_index}")
    nonlinear = verify_nonlinear_bernoulli()
    identity = verify_bernoulli_identity(args.max_index)
    document = {
        "command": "bernoulli-relations",
        "nonlinear": nonlinear.to_json(),
        "elimination": identity.to_json(),
        "all_ok": nonlinear.all_ok and identity.all_ok,
    }

    def lines():
        # Every value is read from the document, where it is formatted once.
        for rel in document["nonlinear"]["relations"]:
            yield f"{rel['relation']} = {rel['value']} [{'ok' if rel['ok'] else 'FAIL'}]"
        for e in document["elimination"]["entries"]:
            k = e["index"]
            verdict = "matches" if e["ok"] else "DIFFERS FROM"
            yield f"a_{k} = {e['computed']} [{verdict} -(2*a_1)^{k}*B_{k}/{k}]"
        yield "all relations hold" if document["all_ok"] else "FAILURES present"

    _emit(document, args.format, lines)
    return EXIT_OK if document["all_ok"] else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def cmd_families(args) -> int:
    rows = []
    for name in FAMILY_NAMES:
        spec = get_family(name)
        rows.append(
            {
                "name": name,
                "generating_function": spec.gf_note,
                "coefficients": spec.a_note,
                "s_0": format_rational(spec.s0),
                "a_1..a_6": [format_rational(v) for v in spec.coefficients(6)],
            }
        )
    rows.append(
        {
            "name": SYMBOLIC_NAME,
            "generating_function": "generic",
            "coefficients": "a_k left as free symbols",
            "s_0": "0",
            "a_1..a_6": ["a_1", "a_2", "a_3", "a_4", "a_5", "a_6"],
        }
    )
    document = {"command": "families", "families": rows}
    _emit(
        document,
        args.format,
        lambda: (
            f"{row['name']:<10} {row['generating_function']:<28} {row['coefficients']}"
            for row in rows
        ),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no state of a call, and
    every ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="symmrel",
        description="Exact checks and tables for relations of homogeneous symmetric polynomials",
    )
    parser.add_argument("--version", action="version", version=f"symmrel {__version__}")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--term-cap", type=int, default=None, help="expansion guard override")
    parser.add_argument("--jobs", type=int, default=1, help="parallel verification workers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run relation checks over a case grid")
    p_verify.add_argument("--conjecture", type=int, choices=(1, 2, 3), required=True)
    p_verify.add_argument("--family", help="family name or 'symbolic' (conjectures 1 and 2)")
    p_verify.add_argument("--key", help="power-sum product key k1,k2,... (conjecture 3)")
    p_verify.add_argument("--n", help="degree or degree range LO..HI")
    p_verify.add_argument("--m", help="variable count or range LO..HI (default 2..4)")
    p_verify.add_argument("--allow-large", action="store_true")
    p_verify.set_defaults(handler=cmd_verify)

    p_table = sub.add_parser("table", help="regenerate coefficient tables")
    p_table.add_argument("table", choices=("Z", "Y"))
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--m", type=int, required=True)
    p_table.add_argument("--key", help="basis key for Y tables")
    p_table.add_argument("--allow-large", action="store_true")
    p_table.set_defaults(handler=cmd_table)

    p_solve = sub.add_parser("solve-c", help="solve the residue-vanishing system")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--check-bernoulli", action="store_true")
    p_solve.set_defaults(handler=cmd_solve_c)

    p_bern = sub.add_parser("bernoulli-relations", help="nonlinear Bernoulli-number checks")
    p_bern.add_argument("--max-index", type=int, default=8)
    p_bern.set_defaults(handler=cmd_bernoulli_relations)

    p_fam = sub.add_parser("families", help="list the family registry")
    p_fam.set_defaults(handler=cmd_families)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SYMMREL_TERM_CAP, as set at this call, and --term-cap hold for this call
    # alone: an in-process caller's next call runs under the cap it had before.
    previous_cap = get_term_cap()
    try:
        set_term_cap(term_cap_from_environment(previous_cap))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _run(args)
    finally:
        set_term_cap(previous_cap)


def _run(args) -> int:
    if args.term_cap is not None:
        try:
            set_term_cap(args.term_cap)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.jobs < 1:
        print(f"error: --jobs must be a positive integer, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except (UsageError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TermCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
