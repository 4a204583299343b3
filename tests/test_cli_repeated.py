"""``cli.main`` may be called many times in one process.

The parser is built once per process, and every call parses its own argv
into a fresh namespace, so no call sees another's options.  No fixture
here restores the term cap after a test, so each test sees what an
in-process caller of ``main`` sees.  ``--jobs 2`` after ``--jobs 1`` is
checked by ``test_cli.py::TestVerifyCommand::test_parallel_jobs``.
"""

import json

import pytest

from symmrel import cli
from symmrel.polyring import get_term_cap
from symmrel.relations import extract_z


def call(capsys, *argv):
    """(exit code, stdout, stderr) of one call; a usage error from the parser
    raises SystemExit, whose code is the exit code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "Z", "--n", "2", "--m", "3"),
        ("--format", "json", "table", "Y", "--n", "5", "--m", "3", "--key", "1,2,0,0,0"),
        ("solve-c", "--n", "5", "--check-bernoulli"),
        ("--format", "json", "verify", "--conjecture", "1", "--family", "bell", "--m", "2..3"),
        ("verify", "--conjecture", "3", "--n", "4", "--m", "2..3"),
        ("bernoulli-relations", "--max-index", "6"),
        ("--format", "json", "families"),
    ],
)
def test_the_same_argv_twice_prints_the_same_bytes(capsys, argv):
    first = call(capsys, *argv)
    assert first[0] == 0 and first[1] and not first[2], first
    assert call(capsys, *argv) == first


def test_a_capped_call_leaves_the_next_under_the_previous_cap(capsys):
    # Z(2, 2) is made afresh, so the cap of 5 meets its products.
    argv = ("table", "Z", "--n", "2", "--m", "2")
    cap = get_term_cap()
    extract_z.cache_clear()
    assert call(capsys, "--term-cap", "5", *argv) == (
        3, "", "resource cap: product of 2 x 3 terms exceeds the cap of 5\n"
    )
    assert get_term_cap() == cap
    extract_z.cache_clear()
    code, out, err = call(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("z^2_{2,0} = ")
    assert get_term_cap() == cap


def test_formats_alternate_freely(capsys):
    argv = ("solve-c", "--n", "4")
    text = call(capsys, *argv)
    document = call(capsys, "--format", "json", *argv)
    assert text[0] == document[0] == 0
    assert not text[1].startswith("{")
    assert json.loads(document[1])["command"] == "solve-c"
    # Each format prints as it did before the other ran.
    assert call(capsys, *argv) == text
    assert call(capsys, "--format", "json", *argv) == document


@pytest.mark.parametrize(
    "bad, message",
    [
        (("--format", "xml", "families"), "invalid choice: 'xml'"),
        (("table", "Y", "--n", "3", "--m", "2"), "error: table Y requires --key"),
        (("verify", "--conjecture", "1", "--family", "gegenbauer", "--m", "2"),
         "error: unknown family 'gegenbauer'"),
    ],
)
def test_a_usage_error_leaves_the_next_call_alone(capsys, bad, message):
    argv = ("--format", "json", "table", "Z", "--n", "1", "--m", "2")
    before = call(capsys, *argv)
    code, out, err = call(capsys, *bad)
    assert (code, out) == (2, "")
    assert message in err
    assert call(capsys, *argv) == before

