"""A second pipeline for small residues, independent of ``polyring``.

U_n at y = 1 is built in sympy from plain symbols, straight from its
definition S(x)/pi(x) - sum_i S(s_i)/pi(s_i), and reduced with
``sympy.cancel``.  The power-sum coefficients that ``extract_y_basis`` and
``extract_z`` return are mapped into sympy term by term and expanded there.
sympy is a test-only dependency; the module is skipped without it.
"""

from math import comb

import pytest

from symmrel.partitions import exponent_vectors
from symmrel.relations import extract_y_basis, extract_z

sympy = pytest.importorskip("sympy")


def _xs(m):
    return sympy.symbols(f"x1:{m + 1}")


def _power_product(key, values):
    return sympy.Mul(*(sum(v**j for v in values) ** e for j, e in enumerate(key, 1)))


def _residue_at_y_one(s_of, m):
    """cancel(S(x)/pi(x) - sum_i S(s_i)/pi(s_i)) with the rows s_i at y = 1."""
    xs = _xs(m)
    u = s_of(xs) / sympy.Mul(*xs)
    for i in range(m):
        row = [xs[i] if j == i else xs[j] - xs[i] for j in range(m)]
        u -= s_of(row) / sympy.Mul(*row)
    residue = sympy.cancel(sympy.together(u))
    assert sympy.fraction(residue)[1] == 1
    return residue


def _to_sympy(coeff):
    """A Fraction, or a polynomial in the a symbols read off its term map."""
    terms = coeff.terms.items() if hasattr(coeff, "terms") else [((), coeff)]
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(sympy.Symbol(f"a{var.index}") ** e for var, e in mono))
            for mono, c in terms
        )
    )


def _expansion_in_sympy(expansion, m):
    xs = _xs(m)
    return sympy.Add(
        *(_to_sympy(c) * _power_product(key, xs) for key, c in expansion.coefficients.items())
    )


def _symbolic_family(n, values):
    """B_n(a_1 p_1, ..., a_n p_n), by B_{k+1} = sum_j C(k, j) B_{k-j} b_{j+1}."""
    b = [sympy.Symbol(f"a{j}") * sum(v**j for v in values) for j in range(1, n + 1)]
    bell = [sympy.Integer(1)]
    for k in range(n):
        bell.append(sum(comb(k, j) * bell[k - j] * b[j] for j in range(k + 1)))
    return bell[n]


CASES = [(n, m) for m in range(1, 4) for n in range(m, 6)]


@pytest.mark.parametrize("n, m", CASES)
def test_y_residues(n, m):
    for key in exponent_vectors(n, n):
        expected = _residue_at_y_one(lambda values: _power_product(key, values), m)
        got = _expansion_in_sympy(extract_y_basis(n, m, key), m)
        assert sympy.expand(got - expected) == 0, (n, m, key)


@pytest.mark.parametrize("n, m", [(n, m) for n, m in CASES if m >= 2])
def test_z_residues(n, m):
    expected = _residue_at_y_one(lambda values: _symbolic_family(n, values), m)
    got = _expansion_in_sympy(extract_z(n - m, m), m)
    assert sympy.expand(got - expected) == 0, (n, m)
