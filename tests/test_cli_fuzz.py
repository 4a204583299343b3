"""Any argv keeps the exit-code contract: 0, 1, 2 or 3, and no traceback."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from symmrel.cli import main
from symmrel.polyring import get_term_cap, set_term_cap

# Every degree and variable count stays <= 3, so each example runs well under a
# second.  An empty value is a usage error, never the default grid.
VALUES = ["-1", "0", "1", "2", "3", "abc", "3..2", "1..3", "2..3", ""]
KEYS = ["-2,2", "2,0", "0,1", "1,1,0", "3,0,0", "1,-1,1", "abc", ""]
FAMILIES = ["bernoulli", "t", "hermite", "symbolic", "gegenbauer", ""]
TERM_CAPS = ["abc", "0", "-1", "", "5", "100000"]


@st.composite
def argvs(draw):
    def option(flag, values):
        return [f"{flag}={draw(st.sampled_from(values))}"]

    def maybe(flag, values):
        return option(flag, values) if draw(st.booleans()) else []

    argv = maybe("--format", ["text", "json", "xml"]) + maybe("--term-cap", TERM_CAPS)
    command = draw(
        st.sampled_from(["verify", "table", "solve-c", "bernoulli-relations", "families", "plot"])
    )
    argv.append(command)
    if command == "verify":
        argv += option("--conjecture", ["1", "2", "3", "4", "abc"])
        argv += option("--n", VALUES) + option("--m", VALUES)
        argv += maybe("--family", FAMILIES) + maybe("--key", KEYS)
    elif command == "table":
        argv.append(draw(st.sampled_from(["Z", "Y", "W"])))
        argv += option("--n", VALUES) + option("--m", VALUES) + maybe("--key", KEYS)
    elif command == "solve-c":
        argv += option("--n", ["-1", "0", "2", "3", "4", "abc", ""])
        argv += ["--check-bernoulli"] if draw(st.booleans()) else []
    elif command == "bernoulli-relations":
        argv += maybe("--max-index", ["-1", "0", "1", "2", "4", "abc", ""])
    return argv


@settings(max_examples=100, deadline=None)
@given(argvs())
@example(["verify", "--conjecture=3", "--n=2", "--m=2", "--key=-2,2"])
@example(["table", "Y", "--n=2", "--m=2", "--key=-2,2"])
@example(["--term-cap=5", "table", "Z", "--n=1", "--m=2"])
@example(["verify", "--conjecture=2", "--n=", "--m=", "--family=symbolic"])
# Ranges no grid can hold, refused by their ends before any list is built.
@example(["verify", "--conjecture", "1", "--family", "bell", "--m", "2", "--n", "0..99999999999999999999"])
@example(["verify", "--conjecture", "1", "--family", "bell", "--m", "99999999999999999999", "--allow-large"])
# Degrees with more exponent vectors than the term cap, refused before any
# is listed.
@example(["solve-c", "--n", "1000"])
@example(["table", "Z", "--n", "1000", "--m", "2", "--allow-large"])
@example(["verify", "--conjecture", "3", "--n", "1000", "--m", "2", "--allow-large"])
def test_exit_code_contract(argv):
    cap = get_term_cap()
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
    finally:
        set_term_cap(cap)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
