"""Opt-in checks beyond the default n <= 8, m <= 4 grid and the n <= 7 solver.

The tabulated zero-relation claim extends to seven variables (six are in the
default suite), and to six for the symbolic family, and to nine at degree
eight, under the default term cap; the residue relation
holds for every family at five variables up to n = 8, for the symbolic
family at four and five variables up to n = m + 3, and for the Bernoulli
family, whose residues vanish, at (16, 6) and (20, 4); the C system is
solvable at n = 8; and its nullspace has dimension floor(n/2) at n = 11
to 16, as the default suite checks up to n = 10.  These checks are exact:
both relations are decided on orbit representatives of one alternant, the
residue relation with the closed-form residue as its certificate.  The
weight-truncated residue is also checked against the untruncated form on
the Z tables at (6, 6) and (8, 4) and on every row of the n = 9 C system.
Together they take about 12-19 s on a 2-vCPU x86-64 host with Python 3.11
(the symbolic zero relation at (8, 9) 2.6-4 s, the n = 8 C system 1.3 s,
the Bernoulli residue relation at (16, 6) and (20, 4) 1-1.5 s,
the nullspace dimensions at n = 11 to 16 5-6 s in all, the other zero
sweeps 2 s, the residue sweeps and the untruncated-form checks under 1 s
each), so they only run when
SYMMREL_LARGE_TESTS is set:

    SYMMREL_LARGE_TESTS=1 pytest tests/test_large_range.py -s
"""

import os

import pytest

from fractions import Fraction

from symmrel.families import FAMILY_NAMES
from symmrel.partitions import exponent_vectors
from symmrel.polyring import _DEFAULT_TERM_CAP, get_term_cap, set_term_cap
from symmrel.relations import _make_source, extract_z, verify_conjecture1, verify_conjecture2
from symmrel.solver import residue_system, solve_c_coefficients

from oracles import untruncated_residue
from test_solver import assert_bernoulli_satisfies_relations

pytestmark = pytest.mark.skipif(
    not os.environ.get("SYMMREL_LARGE_TESTS"),
    reason=(
        "set SYMMREL_LARGE_TESTS=1 to run the m=7 sweeps, symbolic (8, 9), the m=5 residue sweeps,"
        " bernoulli (16, 6) and (20, 4) and the C systems at n=8 and 11 to 16"
    ),
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


def test_symbolic_nine_variables_at_degree_eight():
    """The orbit certificate alone verifies symbolic (8, 9) under the default
    term cap: its H has 3 955 472 terms from the 80 955 of S(x), and its
    22 orbits of m_mu are expanded once each, in 2.6-4 s and about 26 MB on
    a 2-vCPU x86-64 host with Python 3.11.
    """
    cap = get_term_cap()
    set_term_cap(_DEFAULT_TERM_CAP)
    try:
        report = verify_conjecture1("symbolic", 8, 9)
    finally:
        set_term_cap(cap)
    assert report.verified, report.stages
    assert [stage.name for stage in report.stages] == ["orbit-certificate"]
    assert report.stages[0].detail == "Alt(H) = 0 on 3947733 terms"


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


@pytest.mark.parametrize("n, m, terms", [(16, 6, 687039), (20, 4, 38968)])
def test_bernoulli_residue_relation_at_high_degree(n, m, terms):
    """The Bernoulli residues vanish: the closed form gives G = 0, and the
    orbit certificate, one expansion per orbit of S(x) at y = 1, certifies it
    under the default term cap, in about 1 s at (16, 6) and 0.2 s at (20, 4)
    on a 2-vCPU x86-64 host with Python 3.11."""
    cap = get_term_cap()
    set_term_cap(_DEFAULT_TERM_CAP)
    try:
        report = verify_conjecture2("bernoulli", n, m)
    finally:
        set_term_cap(cap)
    assert report.verified and report.extracted.is_zero(), report.stages
    assert [stage.name for stage in report.stages] == ["orbit-certificate"]
    assert report.stages[0].detail == f"closed-form residue G; Alt(H - M*pi(x)*G) = 0 on {terms} terms"


def test_c_system_degree_eight():
    assert_bernoulli_satisfies_relations(8)


@pytest.mark.parametrize("n, m", [(6, 6), (8, 4)])
def test_z_table_against_untruncated_form(n, m):
    expected = untruncated_residue(_make_source("symbolic", n + m), m)
    z = extract_z(n, m)
    for key in exponent_vectors(n, n):
        assert z.coefficient(key) == expected.coefficient(key), (n, m, key)


def test_residue_system_against_untruncated_form():
    n = 9
    rows, keys = residue_system(n)
    expected = []
    for m in range(2, n + 1):
        residues = [untruncated_residue(_make_source(k, n), m) for k in keys]
        for basis_key in exponent_vectors(n - m, m):
            expected.append([Fraction(r.coefficient(basis_key)) for r in residues])
    assert rows == expected


@pytest.mark.parametrize("n", range(11, 17))
def test_c_system_nullspace_dimension(n):
    # floor(n/2) free keys and p(n) - 1 equations: observed, not proved.
    solution = solve_c_coefficients(n)
    assert solution.nullspace_dimension == n // 2
    assert solution.equations == len(exponent_vectors(n, n)) - 1
