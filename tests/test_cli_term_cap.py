"""``--term-cap`` and SYMMREL_TERM_CAP hold for their own call of ``cli.main`` alone.

No fixture here restores the cap after a test, so each test sees what an
in-process caller of ``main`` sees.
"""

from symmrel.cli import main
from symmrel.polyring import get_term_cap
from symmrel.relations import extract_z


def test_the_cap_ends_with_its_call(capsys):
    # Z(2, 2) is made afresh, so the cap of 5 meets its products.
    extract_z.cache_clear()
    cap = get_term_cap()
    assert main(["--term-cap", "5", "table", "Z", "--n", "2", "--m", "2"]) == 3
    assert "exceeds the cap of 5" in capsys.readouterr().err
    assert get_term_cap() == cap
    assert main(["table", "Z", "--n", "3", "--m", "2"]) == 0
    assert get_term_cap() == cap


def test_the_environment_cap_is_read_at_each_call(capsys, monkeypatch):
    # SYMMREL_TERM_CAP set after import holds for the call, as in a fresh
    # process, and ends with it; --term-cap still wins over it.
    cap = get_term_cap()
    monkeypatch.setenv("SYMMREL_TERM_CAP", "5")
    extract_z.cache_clear()
    assert main(["table", "Z", "--n", "2", "--m", "2"]) == 3
    assert "exceeds the cap of 5" in capsys.readouterr().err
    assert get_term_cap() == cap
    extract_z.cache_clear()
    assert main(["--term-cap", "100", "table", "Z", "--n", "2", "--m", "2"]) == 0
    assert get_term_cap() == cap


def test_a_refused_cap_leaves_the_cap_alone(capsys):
    cap = get_term_cap()
    assert main(["--term-cap", "0", "families"]) == 2
    assert main(["--term-cap", "100", "families"]) == 0
    assert get_term_cap() == cap
