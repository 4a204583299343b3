"""Registry of symmetric-polynomial families built from complete Bell polynomials.

Each family is defined by a coefficient stream a_k and a normalization b_n:
the degree-n member over m variables is

    F_n(x_1..x_m) = b_n * BellPoly_n(f_1, ..., f_n),   f_k = a_k * p_k(x)

where p_k is the k-th power sum.  :func:`bell_form` builds it once, in the
power-sum variables p_k, by the closed form: p_1^k_1 * ... * p_n^k_n has
coefficient n! / prod_i (k_i! (i!)^k_i) * prod_i a_i^k_i.  The relations
engine keeps that form; :func:`family_polynomial` and
:func:`symbolic_family_polynomial` take it to x_1..x_m through the monomial
basis (``symmfunc.in_variables``), with no substitution.
The streams come from the classical
exponential generating functions noted on each entry; the shift value s_0
at which the log-derivative stream was taken is recorded for documentation
only (the tabulated a_k already bake it in).  Two streams are computed in
closed form from other exact numbers:

* Legendre: a_k = k! [t^k] log J_0(t) are the cumulants of the moments
  g_n = P_n(0) = (-1)^(n/2) C(n, n/2) / 2^n (n even, else 0), by
  a_k = g_k - sum_{j<k} C(k-1, j-1) a_j g_(k-j);
* Euler: a_1 = -1/2 and a_k = E_(k-1)(0) / 2 = (1 - 2^k) B_k / k, by
  E_n(0) = 2 (1 - 2^(n+1)) B_(n+1) / (n+1) (DLMF §24.4).

A fully symbolic family is also provided, with the a_k left as free
symbols, so identities can be verified for all coefficient streams at once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, NamedTuple, Sequence, Union

from .exactnum import bernoulli_numbers
from .partitions import exponent_vectors
from .polyring import KIND_A, MultiPoly, VarId
from .symmfunc import in_variables, power_sum_monomial

__all__ = [
    "FamilySpec",
    "FAMILY_NAMES",
    "SYMBOLIC_NAME",
    "get_family",
    "bell_form",
    "family_form",
    "family_polynomial",
    "symbolic_family_polynomial",
    "symbolic_coefficient_values",
]


class FamilySpec(NamedTuple):
    name: str
    a_coeff: Callable[[int], Fraction]
    b_norm: Callable[[int], Fraction]
    s0: Fraction
    gf_note: str
    a_note: str  # the coefficient stream, as ``symmrel families`` prints it

    def coefficients(self, up_to: int) -> list[Fraction]:
        if up_to < 1:
            raise ValueError("need at least one coefficient")
        return [self.a_coeff(k) for k in range(1, up_to + 1)]


def _bernoulli(k: int) -> Fraction:
    return bernoulli_numbers(k)[k]


def _bernoulli_a(k: int) -> Fraction:
    return Fraction((-1) ** (k - 1)) * _bernoulli(k) / k


def _t_a(k: int) -> Fraction:
    return Fraction((-1) ** k) * _bernoulli(k) / k


def _j0_moment(n: int) -> Fraction:
    # g_n = P_n(0), so J_0(t) = sum g_n t^n / n!.
    return Fraction(0) if n % 2 else Fraction((-1) ** (n // 2) * comb(n, n // 2), 2**n)


@lru_cache(maxsize=None)
def _legendre_a(k: int) -> Fraction:
    # The cumulants of the g_n: k! [t^k] log J_0(t).
    return _j0_moment(k) - sum(
        comb(k - 1, j - 1) * _legendre_a(j) * _j0_moment(k - j) for j in range(1, k)
    )


def _euler_a(k: int) -> Fraction:
    if k == 1:
        return Fraction(-1, 2)
    # E_(k-1)(0) / 2 in closed form.
    return (1 - 2**k) * _bernoulli(k) / k


def _fibonacci_a(k: int) -> Fraction:
    # log(1/(1-t^2)) = sum t^(2j)/j, so the even-index stream is 2*(2j-1)!.
    if k % 2:
        return Fraction(0)
    return Fraction(2 * factorial(k - 1))


_one = lambda n: Fraction(1)
_inv_factorial = lambda n: Fraction(1, factorial(n))

_REGISTRY = {
    spec.name: spec
    for spec in (
        FamilySpec("legendre", _legendre_a, _one, Fraction(0), "e^(s*t) * J_0(t*sqrt(1-s^2))",
                   "a_2k from the even log-derivatives of J_0; odd a_k vanish"),
        FamilySpec("laguerre", lambda k: Fraction(factorial(k - 1)), _inv_factorial, Fraction(0), "e^(-t*s/(1-t)) / (1-t)",
                   "a_k = (k-1)!, normalization 1/n!"),
        FamilySpec("hermite", lambda k: Fraction(-2) if k == 2 else Fraction(0), _one, Fraction(0), "e^(2*s*t - t^2)",
                   "a_2 = -2, all other a_k = 0"),
        FamilySpec("fibonacci", _fibonacci_a, _inv_factorial, Fraction(0), "1 / (1 - x*t - t^2)",
                   "a_2k = 2*(2k-1)!, odd a_k vanish, normalization 1/n!"),
        FamilySpec("bernoulli", _bernoulli_a, _one, Fraction(0), "t * e^(s*t) / (e^t - 1)",
                   "a_k = (-1)^(k-1) B_k / k"),
        FamilySpec("t", _t_a, _one, Fraction(0), "(e^t - 1) / (t * e^(s*t))",
                   "a_k = (-1)^k B_k / k"),
        FamilySpec("euler", _euler_a, _one, Fraction(0), "2 * e^(s*t) / (e^t + 1)",
                   "a_1 = -1/2, a_k = E_(k-1)(0) / 2"),
        FamilySpec("bell", _one, _one, Fraction(1), "e^((e^t - 1)*s)",
                   "a_k = 1"),
    )
}

FAMILY_NAMES = tuple(_REGISTRY)
SYMBOLIC_NAME = "symbolic"


def get_family(name: str) -> FamilySpec:
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(FAMILY_NAMES)
        raise KeyError(f"unknown family {name!r}; known families: {known}") from None


def bell_form(n: int, a: Sequence, scale=1) -> MultiPoly:
    """scale * B_n(a_1 p_1, ..., a_n p_n) in the power-sum variables p_k.

    The a_k may be rationals or polynomials in the a symbols.
    """
    terms = []
    for key in exponent_vectors(n, max(n, 1)):
        divisor = 1
        coeff = scale
        for i, e in enumerate(key, 1):
            if e:
                divisor *= factorial(e) * factorial(i) ** e
                coeff = coeff * a[i - 1] ** e
        terms.extend((factorial(n) // divisor * coeff * power_sum_monomial(key)).terms.items())
    return MultiPoly(terms)


def family_form(family: Union[FamilySpec, str], n: int) -> MultiPoly:
    """The degree-n member of a registry family in the power-sum variables."""
    if isinstance(family, str):
        family = get_family(family)
    return bell_form(n, [family.a_coeff(k) for k in range(1, n + 1)], family.b_norm(n))


def family_polynomial(family: Union[FamilySpec, str], n: int, m: int) -> MultiPoly:
    """The degree-n member of a family over m variables, fully expanded."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return in_variables(family_form(family, n), m)


@lru_cache(maxsize=None)
def symbolic_family_polynomial(n: int, m: int) -> MultiPoly:
    """The generic degree-n member with the a_k left as free symbols."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return in_variables(bell_form(n, [MultiPoly.a(k) for k in range(1, n + 1)]), m)


def symbolic_coefficient_values(family: Union[FamilySpec, str], up_to: int) -> dict:
    """Assignment a_k -> family value, for specializing symbolic expansions."""
    if isinstance(family, str):
        family = get_family(family)
    return {VarId(KIND_A, k): family.a_coeff(k) for k in range(1, up_to + 1)}
