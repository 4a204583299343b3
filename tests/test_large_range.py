"""Opt-in checks beyond the default n <= 8, m <= 4 grid and the n <= 7 solver.

The tabulated zero-relation claim extends to seven variables (six are in the
default suite), and to six for the symbolic family; the residue relation
holds for every family at five variables up to n = 8, and for the symbolic
family at four and five variables up to n = m + 3; and the C system is
solvable at n = 8.  These checks are exact: both relations are decided on
orbit representatives of one alternant, the residue relation with the
closed-form residue as its certificate.  Together they take about 14 s on a
2-vCPU x86-64 host (the n = 8 C system about half of it, the residue sweeps
about 1 s), so they only run when SYMMREL_LARGE_TESTS is set:

    SYMMREL_LARGE_TESTS=1 pytest tests/test_large_range.py -s
"""

import os

import pytest

from symmrel.families import FAMILY_NAMES
from symmrel.relations import verify_conjecture1, verify_conjecture2

from test_solver import assert_bernoulli_satisfies_relations

pytestmark = pytest.mark.skipif(
    not os.environ.get("SYMMREL_LARGE_TESTS"),
    reason="set SYMMREL_LARGE_TESTS=1 to run the m=7 sweeps, the m=5 residue sweeps and the n=8 C system",
)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_zero_relation_seven_variables(name):
    for n in range(0, 7):
        report = verify_conjecture1(name, n, 7)
        assert report.verified, (name, n, report.verdict)


def test_symbolic_four_variables():
    for n in range(0, 4):
        report = verify_conjecture1("symbolic", n, 4)
        assert report.verified, (n, report.verdict)


@pytest.mark.parametrize("m", [5, 6])
def test_symbolic_five_and_six_variables(m):
    for n in range(0, m):
        report = verify_conjecture1("symbolic", n, m)
        assert report.verified, (m, n, report.verdict)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_residue_relation_five_variables(name):
    for n in range(5, 9):
        report = verify_conjecture2(name, n, 5)
        assert report.verified, (name, n, report.verdict)
        assert [stage.name for stage in report.stages] == ["orbit-certificate"]


@pytest.mark.parametrize("m", [4, 5])
def test_symbolic_residue_relation(m):
    for n in range(m, m + 4):
        report = verify_conjecture2("symbolic", n, m)
        assert report.verified, (m, n, report.verdict)
        assert [stage.name for stage in report.stages] == ["orbit-certificate"]


def test_c_system_degree_eight():
    assert_bernoulli_satisfies_relations(8)
