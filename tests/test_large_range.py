"""Opt-in checks beyond the default n <= 8, m <= 4 grid and the n <= 7 solver.

The tabulated zero-relation claim extends to six variables (five are in
the default suite), and the C system is solvable at n = 8.  These checks are
exact; the six-variable sweeps expand the general-y numerator, and together
they take about 10 s on a 2-vCPU x86-64 host, so they only run when
SYMMREL_LARGE_TESTS is set:

    SYMMREL_LARGE_TESTS=1 pytest tests/test_large_range.py -s
"""

import os

import pytest

from symmrel.relations import verify_conjecture1

from test_solver import assert_bernoulli_satisfies_relations

pytestmark = pytest.mark.skipif(
    not os.environ.get("SYMMREL_LARGE_TESTS"),
    reason="set SYMMREL_LARGE_TESTS=1 to run the m=6 sweeps and the n=8 C system",
)


@pytest.mark.parametrize("name", ["bernoulli", "t"])
def test_zero_relation_six_variables(name):
    for n in range(0, 6):
        report = verify_conjecture1(name, n, 6)
        assert report.verified, (name, n, report.verdict)


def test_symbolic_four_variables():
    for n in range(0, 4):
        report = verify_conjecture1("symbolic", n, 4)
        assert report.verified, (n, report.verdict)


def test_c_system_degree_eight():
    assert_bernoulli_satisfies_relations(8)
