import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmrel import cli, exactnum, families, partitions, polyring, relations, solver, symmfunc
from symmrel.cli import main
from symmrel.polyring import get_term_cap, set_term_cap
from symmrel.relations import extract_z
from symmrel.solver import solve_c_coefficients

from reference_tables import C_RELATIONS, z_table


@pytest.fixture(autouse=True)
def restore_term_cap():
    cap = get_term_cap()
    yield
    set_term_cap(cap)


def clear_caches():
    """Forget cached residues, so a term cap meets real work."""
    for cached in (extract_z, solve_c_coefficients):
        cached.cache_clear()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_zero_relation_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "1", "--family", "bernoulli", "--m", "2..4")
        assert code == 0
        assert "9/9 verified" in out

    def test_zero_relation_symbolic(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "1", "--family", "symbolic", "--m", "2..3")
        assert code == 0

    def test_residue_extraction(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "2", "--family", "t", "--n", "3", "--m", "2")
        assert code == 0
        assert "residue" in out

    def test_regime_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--conjecture", "1", "--family", "bernoulli", "--n", "3", "--m", "2")
        assert code == 2
        assert "error" in err

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--conjecture", "1", "--family", "gegenbauer", "--m", "2")
        assert code == 2
        assert err.startswith("error: unknown family 'gegenbauer'")

    def test_negative_key_degree(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--conjecture", "3", "--n", "-1", "--m", "2")
        assert code == 2
        assert err.splitlines() == ["error: conjecture 3 needs --n >= 0"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--conjecture", "1", "--family", "bell", "--n=", "--m="),
            ("--conjecture", "1", "--family", "bell", "--m="),
            ("--conjecture", "2", "--family", "symbolic", "--n=", "--m=2"),
            ("--conjecture", "3", "--n=", "--m=2"),
        ],
    )
    def test_empty_range(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: bad range ''; expected N or LO..HI"]

    def test_basis_products(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "3", "--n", "2", "--m", "3")
        assert code == 0
        assert "C3-zero" in out

    def test_large_grid_needs_flag(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--conjecture", "1", "--family", "bernoulli", "--m", "5")
        assert code == 2
        assert "allow-large" in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("verify", "--conjecture", "1", "--family", "bell", "--m", "2", "--n",
              "0..99999999999999999999"), 2, "error: the grid reaches n=99999999999999999999"),
            (("verify", "--conjecture", "1", "--family", "bell", "--m", "99999999999999999999",
              "--allow-large"), 2, "error: the case grid has "),
            (("verify", "--conjecture", "2", "--family", "bell", "--m=-1000000000000..2"), 2,
             "error: the case grid has "),
            (("solve-c", "--n", "1000"), 3, "resource cap: the exponent vectors of weight 1000 "),
            (("table", "Z", "--n", "1000", "--m", "2", "--allow-large"), 3,
             "resource cap: the exponent vectors of weight 1002 "),
            (("verify", "--conjecture", "3", "--n", "1000", "--m", "2", "--allow-large"), 3,
             "resource cap: the exponent vectors of weight 1000 "),
            (("verify", "--conjecture", "2", "--family", "t", "--n", "1000", "--m", "2",
              "--allow-large"), 3, "resource cap: the exponent vectors of weight 1000 "),
        ],
    )
    def test_huge_grids_are_refused_before_any_list(self, capsys, argv, code, message):
        # Ranges are checked by their ends and key counts without listing a
        # key, so each refusal is immediate, with or without --allow-large.
        result = run_cli(capsys, *argv)
        assert result[:2] == (code, "")
        assert len(result[2].splitlines()) == 1 and result[2].startswith(message), result[2]

    def test_allow_large(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--conjecture", "1", "--family", "hermite", "--n", "2", "--m", "5", "--allow-large"
        )
        assert code == 0

    def test_term_cap_exit_code(self, capsys):
        clear_caches()
        code, out, _ = run_cli(
            capsys,
            "--term-cap", "50",
            "verify", "--conjecture", "2", "--family", "bernoulli", "--n", "6", "--m", "3",
        )
        assert code == 3
        assert "resource-limited" in out

    def test_term_cap_in_the_residue_relation(self, capsys):
        # The cap meets the closed form and its certificate on every call:
        # an uncapped run in between leaves nothing cached that skips it.
        argv = ("--jobs", "1", "verify", "--conjecture", "2", "--family", "bernoulli",
                "--n", "6", "--m", "3")
        clear_caches()
        capped = run_cli(capsys, "--term-cap", "50", *argv)
        assert capped[0] == 3
        assert "resource-limited" in capped[1]
        assert run_cli(capsys, "--term-cap", "10000000", *argv)[0] == 0
        assert run_cli(capsys, "--term-cap", "50", *argv) == capped

    def test_parallel_jobs(self, capsys):
        # Workers must not change a byte of the document, witnesses and
        # stages included.
        for argv in [
            ("verify", "--conjecture", "1", "--family", "symbolic", "--m", "2..4"),
            ("verify", "--conjecture", "3", "--n", "2", "--m", "3..4"),
        ]:
            serial = run_cli(capsys, "--format", "json", "--jobs", "1", *argv)
            parallel = run_cli(capsys, "--format", "json", "--jobs", "2", *argv)
            assert serial[0] == 0 and serial[1], argv
            assert parallel == serial, argv

    def test_term_cap_in_the_zero_relation(self, capsys):
        # The cap stops the zero relation at n = 1.  Nothing of it is cached,
        # so an uncapped run in between changes no verdict under the cap.
        argv = ("--jobs", "1", "verify", "--conjecture", "1", "--family", "bernoulli", "--m", "3")
        capped = run_cli(capsys, "--term-cap", "1", *argv)
        assert capped[0] == 3
        assert "resource-limited" in capped[1]
        assert run_cli(capsys, "--term-cap", "10000000", *argv)[0] == 0
        assert run_cli(capsys, "--term-cap", "1", *argv) == capped

    def test_jobs_start_no_more_workers_than_cases(self, capsys, monkeypatch):
        requested = []

        class RecordingPool:
            """Records the worker count and runs the cases in this process."""

            def __init__(self, max_workers, initializer, initargs):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("symmrel.cli.os.cpu_count", lambda: 64)
        argv = ("--jobs", "64", "verify", "--conjecture", "1", "--family", "bell", "--m", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "2/2 verified" in out
        assert requested == [2]
        monkeypatch.setattr("symmrel.cli.os.cpu_count", lambda: 1)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "2/2 verified" in out
        assert requested == [2]  # one worker: the cases run serially

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "--jobs", jobs, "verify", "--conjecture", "1", "--family", "bell", "--m", "2"
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: --jobs must be a positive integer, got {jobs}"]

    def test_negative_key_entry(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--conjecture", "3", "--n", "2", "--m", "2", "--key=-2,2")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: bad key '-2,2'; expected comma-separated integers >= 0"]

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json",
            "verify", "--conjecture", "1", "--family", "bell", "--m", "2",
        )
        assert code == 0
        document = json.loads(out)
        assert document["summary"]["verified"] == 2
        assert all(case["verdict"] == "verified" for case in document["cases"])

    def test_json_is_byte_deterministic(self, capsys):
        argv = ("--format", "json", "verify", "--conjecture", "1", "--family", "bernoulli", "--m", "2..3")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        stages = [s for case in json.loads(first)["cases"] for s in case["stages"]]
        assert stages and all(set(s) == {"name", "detail"} for s in stages)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--conjecture", "1", "--family", "laguerre", "--m", "2..4"),
            ("--conjecture", "3", "--n", "2", "--m", "3", "--key", "0,1"),
        ],
    )
    def test_zero_relation_is_decided_by_the_orbit_certificate_alone(self, capsys, argv):
        code, out, _ = run_cli(capsys, "--format", "json", "verify", *argv)
        assert code == 0
        cases = json.loads(out)["cases"]
        assert cases and all(case["verdict"] == "verified" for case in cases)
        assert all([s["name"] for s in case["stages"]] == ["orbit-certificate"] for case in cases)


class TestTableCommand:
    def test_z_entry(self, capsys):
        code, out, _ = run_cli(capsys, "table", "Z", "--n", "0", "--m", "2")
        assert code == 0
        assert "a_1^2 + 3*a_2" in out

    def test_z_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "table", "Z", "--n", "2", "--m", "2")
        document = json.loads(out)
        assert document["table"] == "Z"
        assert document["n"] == 2 and document["m"] == 2
        assert [entry["key"] for entry in document["entries"]] == [[2, 0], [0, 1]]

    def test_y_constant(self, capsys):
        code, out, _ = run_cli(capsys, "table", "Y", "--n", "2", "--m", "2", "--key", "0,1")
        assert code == 0
        assert "= 3" in out

    def test_y_final_appendix_entry(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json",
            "table", "Y", "--n", "8", "--m", "4", "--key", "0,0,0,0,0,0,0,1",
        )
        document = json.loads(out)
        coeffs = {tuple(e["key"]): e["coeff"] for e in document["entries"]}
        assert coeffs[(4, 0, 0, 0)] == "-9/8"
        assert coeffs[(2, 1, 0, 0)] == "45/4"
        assert coeffs[(0, 2, 0, 0)] == "117/8"
        assert coeffs[(1, 0, 1, 0)] == "-57"
        assert coeffs[(0, 0, 0, 1)] == "285/4"

    def test_y_requires_key(self, capsys):
        code, _, err = run_cli(capsys, "table", "Y", "--n", "4", "--m", "2")
        assert code == 2

    def test_key_weight_validated(self, capsys):
        code, _, err = run_cli(capsys, "table", "Y", "--n", "4", "--m", "2", "--key", "1,1")
        assert code == 2

    @pytest.mark.parametrize("table", ["Z", "Y"])
    def test_negative_degree(self, capsys, table):
        code, out, err = run_cli(capsys, "table", table, "--n", "-1", "--m", "2", "--key", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: table needs --n >= 0, got -1"]

    def test_negative_key_entry(self, capsys):
        code, out, err = run_cli(capsys, "table", "Y", "--n", "2", "--m", "2", "--key=-2,2")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: bad key '-2,2'; expected comma-separated integers >= 0"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "table", "Z", "--n", "1", "--m", "3")
        document = json.loads(out)
        assert json.dumps(document, indent=2, sort_keys=False) == out.rstrip("\n")


# The smallest Z table at m = 2 and the smallest C system whose residues form
# a product of more than 5 term pairs.
@pytest.mark.parametrize("argv", [("table", "Z", "--n", "2", "--m", "2"), ("solve-c", "--n", "4")])
def test_term_cap_during_extraction(capsys, argv):
    # Earlier runs may have cached these residues; the cap must meet real work.
    clear_caches()
    code, out, err = run_cli(capsys, "--term-cap", "5", *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("resource cap: ")


_CAP_GRID = [("solve-c", "--n", str(n)) for n in range(3, 9)] + [
    ("table", "Z", "--n", str(n), "--m", str(m)) for n in range(5) for m in range(2, 5)
]


def clear_every_cache():
    """Forget everything the library caches, residues and the tables under them."""
    for module in (exactnum, families, partitions, polyring, relations, solver, symmfunc):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_term_cap_verdicts_do_not_depend_on_earlier_runs(capsys):
    cap = get_term_cap()

    def exit_codes(clear):
        codes = []
        for limit in ("5", "10", "20", "50"):
            for argv in _CAP_GRID:
                clear()
                codes.append(run_cli(capsys, "--term-cap", limit, *argv)[0])
        set_term_cap(cap)
        return codes

    cold = exit_codes(clear_every_cache)
    assert set(cold) == {0, 3}
    # Warm every cache the grid could use, then forget only the residues.
    for n in range(2, 10):
        solver.residue_system(n)
    for n in range(6):
        for m in range(2, 6):
            extract_z(n, m)
    assert exit_codes(clear_caches) == cold


@pytest.mark.parametrize("conjecture", ["1", "2"])
def test_relation_term_cap_verdicts_are_the_same_cold_and_warm(capsys, conjecture):
    # The orbit certificate and the key counts are made afresh on every
    # call, and a family's source, which meets no cap, is built once: after
    # an uncapped run has filled every cache, each capped run prints the
    # same document, verdicts and cap messages included.  That holds for
    # the symbolic and a registry family, over a range of m and with each m
    # on its own from the highest down, so each run reuses the sources the
    # runs before it built.
    caps = ("10", "100", "1000", "10000")
    grids = ["2..5", "5", "4", "3", "2"]
    for family in ("symbolic", "bernoulli"):
        argv = ("--format", "json", "verify", "--conjecture", conjecture, "--family", family,
                "--allow-large")

        def capped_runs():
            return [run_cli(capsys, "--term-cap", cap, *argv, "--m", m) for cap in caps for m in grids]

        clear_every_cache()
        cold = capped_runs()
        verdicts = {case["verdict"] for _, out, _ in cold for case in json.loads(out)["cases"]}
        assert verdicts == {"verified", "resource-limited"}, family
        assert run_cli(capsys, "--term-cap", "10000000", *argv, "--m", "2..5")[0] == 0
        assert capped_runs() == cold, family


def test_small_extractions_fit_the_term_cap(capsys):
    # Extraction multiplies no factor of weight above n - m, so these run
    # under a cap of 5 and give the tabulated values.
    clear_caches()
    code, out, err = run_cli(capsys, "--term-cap", "5", "--format", "json", "table", "Z", "--n", "1", "--m", "2")
    assert (code, err) == (0, "")
    (entry,) = json.loads(out)["entries"]
    assert entry == {"key": [1], "coeff": str(z_table()[1, 2][(1,)])}

    clear_caches()
    code, out, err = run_cli(capsys, "--term-cap", "5", "--format", "json", "solve-c", "--n", "3")
    assert (code, err) == (0, "")
    document = json.loads(out)
    free, dependent = C_RELATIONS[3]
    assert [tuple(k) for k in document["free_keys"]] == list(free)
    got = {
        tuple(r["key"]): {tuple(t["free"]): Fraction(t["coeff"]) for t in r["terms"]}
        for r in document["relations"]
    }
    assert got == dependent


class TestSolveCCommand:
    def test_cubic(self, capsys):
        code, out, _ = run_cli(capsys, "solve-c", "--n", "3")
        assert code == 0
        assert "C_{3,{0, 0, 1}} = 0" in out
        assert "nullspace dimension 1" in out

    def test_quartic_with_bernoulli_check(self, capsys):
        code, out, _ = run_cli(capsys, "solve-c", "--n", "4", "--check-bernoulli")
        assert code == 0
        assert "confirmed" in out

    def test_bernoulli_check_expands_nothing_in_x(self, capsys, monkeypatch):
        # The reconstruction is compared with the family in the power sums.
        def refuse(*args):
            raise AssertionError("a symmetric polynomial was expanded in x")

        monkeypatch.setattr(symmfunc, "in_variables", refuse)
        monkeypatch.setattr(families, "in_variables", refuse)
        code, out, _ = run_cli(capsys, "solve-c", "--n", "5", "--check-bernoulli")
        assert code == 0
        assert "Bernoulli reconstruction for n=5: confirmed" in out

    def test_sextic_counts(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "solve-c", "--n", "6")
        document = json.loads(out)
        assert document["unknowns"] == 11
        assert document["equations"] == 10
        assert document["nullspace_dimension"] == 3

    def test_precondition(self, capsys):
        code, _, err = run_cli(capsys, "solve-c", "--n", "1")
        assert code == 2

    def test_untabulated_bernoulli_check_is_refused_before_solving(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"solve_c_coefficients({n}) called for a usage error")

        monkeypatch.setattr(cli, "solve_c_coefficients", refuse)
        code, out, err = run_cli(capsys, "solve-c", "--n", "10", "--check-bernoulli")
        assert code == 2
        assert out == ""
        assert err == "error: tabulated free values cover n <= 5; got n = 10\n"


class TestBernoulliRelationsCommand:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli-relations")
        assert code == 0
        assert out.count("[ok]") == 6
        assert "a_8" in out

    def test_small_index(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli-relations", "--max-index", "2")
        assert code == 0
        assert "a_2" in out and "a_3" not in out

    def test_index_below_two(self, capsys):
        code, out, err = run_cli(capsys, "bernoulli-relations", "--max-index", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: bernoulli-relations needs --max-index >= 2, got 1"]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "bernoulli-relations", "--max-index", "4")
        document = json.loads(out)
        assert document["all_ok"] is True
        assert len(document["nonlinear"]["relations"]) == 6


_TERM = re.compile(r"(^-|^| \+ | - )(.+?)(?= \+ | - |$)")


def _terms(text):
    """'3/2*p_1^2 - p_2 + 4' -> [('p_1^2', 3/2), ('p_2', -1), ('', 4)], in
    text order.  Bodies hold no ' + ' or ' - ' and begin with no digit."""
    out, pos = [], 0
    for match in _TERM.finditer(text):
        assert match.start() == pos, text
        pos = match.end()
        sign, term = match.groups()
        coeff, _, body = term.partition("*") if term[0].isdigit() else ("1", "", term)
        out.append((body, -Fraction(coeff) if "-" in sign else Fraction(coeff)))
    assert pos == len(text), text
    return out


class TestTextAgreesWithJson:
    """Each command's text lines carry the coefficients of its JSON document,
    every one, in the same order."""

    def both(self, capsys, *argv):
        code, text, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        code, out, err = run_cli(capsys, "--format", "json", *argv)
        assert (code, err) == (0, ""), argv
        return text.splitlines(), json.loads(out)

    def test_z_table(self, capsys):
        lines, document = self.both(capsys, "table", "Z", "--n", "4", "--m", "3")
        expected = [
            f"z^3_{{{','.join(map(str, e['key']))}}} = {e['coeff']}" for e in document["entries"]
        ]
        assert len(expected) == 5
        assert lines == expected

    def test_y_table(self, capsys):
        lines, document = self.both(capsys, "table", "Y", "--n", "5", "--m", "3", "--key", "1,2,0,0,0")
        (line,) = lines
        label, _, text = line.partition(" = ")
        assert label == "Y_{2,{1,2,0,0,0}}"
        got = []
        for body, coeff in _terms(text):
            key = [0] * (document["n"] - document["m"])
            for factor in body.split("*"):
                index, _, power = factor.removeprefix("p_").partition("^")
                key[int(index) - 1] += int(power or 1)
            got.append((key, coeff))
        expected = [
            (e["key"], Fraction(e["coeff"])) for e in document["entries"] if Fraction(e["coeff"])
        ]
        assert expected and got == expected

    def test_solve_c(self, capsys):
        lines, document = self.both(capsys, "solve-c", "--n", "6")
        assert lines[0] == "n = 6: 11 unknowns, 10 equations, nullspace dimension 3"
        free = ", ".join(_c_key(6, k) for k in document["free_keys"])
        assert lines[1] == f"free: {free}"
        assert len(lines) == 2 + len(document["relations"])
        for line, relation in zip(lines[2:], document["relations"]):
            label, _, text = line.partition(" = ")
            assert label == _c_key(6, relation["key"])
            expected = [
                (_c_key(6, t["free"]), Fraction(t["coeff"]))
                for t in relation["terms"]
                if Fraction(t["coeff"])
            ]
            assert _terms(text) == expected, line

    def test_bernoulli_relations(self, capsys):
        lines, document = self.both(capsys, "bernoulli-relations", "--max-index", "8")
        nonlinear = document["nonlinear"]["relations"]
        elimination = document["elimination"]["entries"]
        assert len(lines) == len(nonlinear) + len(elimination) + 1 == 6 + 7 + 1
        for line, rel in zip(lines, nonlinear):
            assert line == f"{rel['relation']} = {rel['value']} [ok]"
        for line, e in zip(lines[len(nonlinear):], elimination):
            k = e["index"]
            assert line == f"a_{k} = {e['computed']} [matches -(2*a_1)^{k}*B_{k}/{k}]"
        assert lines[-1] == "all relations hold"


def _c_key(n, key):
    return f"C_{{{n},{{{', '.join(map(str, key))}}}}}"


class TestFamiliesCommand:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "families")
        assert code == 0
        for name in ("legendre", "laguerre", "hermite", "fibonacci", "bernoulli", "euler", "bell", "symbolic"):
            assert name in out


SUBCOMMANDS = ("verify", "table", "solve-c", "bernoulli-relations", "families")


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == "symmrel 0.1.0\n"

    def test_top_level_help_names_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: symmrel ")
        for name in SUBCOMMANDS:
            assert name in out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: symmrel {command} ")


SRC = Path(__file__).resolve().parent.parent / "src"


def run_subprocess(argv, term_cap):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC), "SYMMREL_TERM_CAP": term_cap},
    )


def test_term_cap_reaches_spawned_workers():
    # Spawned workers start from a fresh import; the cap must be passed to them.
    script = (
        "import multiprocessing, sys\n"
        "from symmrel.cli import main\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        "    sys.exit(main(['--term-cap', '1', '--jobs', '2', 'verify', '--conjecture', '1',\n"
        "                   '--family', 'bernoulli', '--m', '3']))\n"
    )
    result = run_subprocess(["-c", script], "10000000")
    assert result.returncode == 3, result.stderr
    assert "resource-limited" in result.stdout


def test_closed_pipe_keeps_verdict_exit_code():
    process = subprocess.Popen(
        [sys.executable, "-m", "symmrel.cli", "verify", "--conjecture", "3", "--n", "6", "--m", "2..4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
    )
    process.stdout.close()  # the reader leaves before any output is written
    try:
        _, err = process.communicate(timeout=120)
    finally:
        process.kill()
    assert process.returncode == 0
    assert b"Traceback" not in err


def test_term_cap_environment_variable():
    script = "from symmrel.polyring import get_term_cap; print(get_term_cap())"
    result = run_subprocess(["-c", script], "12345")
    assert result.stdout.strip() == "12345"


def test_prescreen_points_is_not_an_option():
    # The zero relation has no tunable stage; argparse refuses the old flag.
    argv = ["verify", "--conjecture", "1", "--family", "bell", "--m", "3", "--prescreen-points", "3"]
    result = run_subprocess(["-m", "symmrel.cli", *argv], "10000000")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: ")
    assert "unrecognized arguments: --prescreen-points 3" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_term_cap_environment_is_usage_error(value):
    result = run_subprocess(["-m", "symmrel.cli", "families"], value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: SYMMREL_TERM_CAP must be a positive integer, got {value!r}"
    ]


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.text()
    | st.floats(allow_nan=False)
)
_json_documents = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.integers(-5, 5), children, max_size=4)
    | st.dictionaries(st.booleans() | st.none(), children, max_size=2)
    | st.tuples(children, children),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_documents)
def test_json_rendering_matches_the_standard_encoder(document):
    # Nested empty containers, non-ASCII and control characters, large
    # ints, bools, None and int dict keys are rendered by the 2-space
    # renderer; floats, tuples and other dict keys go through json.dumps at
    # their depth.  Either way the bytes are json.dumps(doc, indent=2)'s.
    assert cli._render_json(document) == json.dumps(document, indent=2)


def test_json_rendering_of_edge_cases():
    document = {
        "empty": [[], {}, [[]], {"x": {}}],
        "text": "é☃\U0001f600 \x00\x1f\"\\\n\t",
        "ints": [10**40, -(10**40), 0],
        "flags": [True, False, None],
        3: {-1: "int keys", "1": "str key"},
        "nested": {"float": 1.5, "tuple": (1, [2, {}])},
    }
    assert cli._render_json(document) == json.dumps(document, indent=2)
