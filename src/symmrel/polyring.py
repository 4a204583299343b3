"""Sparse multivariate polynomials over exact rationals.

Four variable families exist, ordered x < y < a < p with ascending index:

* ``x_i`` -- the main indeterminates of the symmetric polynomials,
* ``y_i`` -- the auxiliary variables of the row-substitution matrix,
* ``a_i`` -- free coefficient symbols for fully symbolic expansions,
* ``p_k`` -- power sums held as indeterminates, so that a symmetric
  polynomial can stay in Q[p_1, p_2, ..., a_1, ...] until it is taken to
  the monomial symmetric functions of x_1..x_m
  (``symmfunc.monomial_expansion``) or read off as a power-sum expansion.

A monomial is a tuple of ``(VarId, exponent)`` pairs sorted by variable with
no zero exponents; a polynomial is a dict monomial -> nonzero coefficient.
The canonical term order is graded lexicographic: higher total degree first,
ties broken so that a higher power on an earlier variable wins.  Polynomials
are immutable values: operations return new objects and never mutate their
inputs, so instances are safe to share across threads.

Coefficients are exact: ints, or Fractions where a value is not integral.
Constructors and scalar multiplication store an integral Fraction as the
int it equals (same value, same hash), and sums and products of ints stay
ints, so a polynomial built from integral data carries only ints and its
arithmetic never touches ``Fraction``.  A sum or product of non-integral
Fractions may still leave an integral Fraction behind; it compares and
hashes like the int.

Products accumulate on packed monomials (Kronecker substitution, as in
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007).  ``f * g`` gives every variable a bit
field wide enough for the largest exponent the product can reach, so a
monomial packs into one int and multiplying two monomials is an integer add
that never carries between fields.  The double loop only adds keys,
multiplies coefficients and accumulates in a single dict.  Keys are decoded
only at the end, and only where the coefficient survived: for each key the
loop keeps the first pair of monomials that produced it, and merges that
pair into the canonical tuple.  A factor with a single term skips packing,
since multiplying by one monomial cannot merge two terms.  Two monomials
whose variables do not interleave, such as a monomial in the a_k and one in
x and y, are merged by concatenating the tuples.

Exact division is long division in u, the divisor's last variable in VarId
order, over the ring of the others (Geddes, Czapor & Labahn, *Algorithms for
Computer Algebra*, 1992, ch. 2): each quotient coefficient is the running
remainder's top coefficient in u divided, recursively, by the divisor's
leading coefficient.  A single-term divisor subtracts exponents in one pass;
a constant one scales.  No library path divides: the test oracles do, to
form the residue from U_n's numerator over the full product of
denominators.

Expansions are guarded by a configurable term cap (default 10**7 terms,
overridable via ``set_term_cap`` or the SYMMREL_TERM_CAP environment
variable); a product whose estimated size exceeds the cap raises
:class:`TermCapExceeded` before any work is done.
"""

from __future__ import annotations

import os
from bisect import bisect
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Union

__all__ = [
    "KIND_X",
    "KIND_Y",
    "KIND_A",
    "KIND_P",
    "VarId",
    "Monomial",
    "MultiPoly",
    "TermCapExceeded",
    "NonDivisibleError",
    "MissingVariableError",
    "get_term_cap",
    "set_term_cap",
    "term_cap_from_environment",
]

KIND_X = 0
KIND_Y = 1
KIND_A = 2
KIND_P = 3
_KIND_NAMES = ("x", "y", "a", "p")

Scalar = Union[int, Fraction]


class VarId(NamedTuple):
    kind: int
    index: int

    def __repr__(self) -> str:
        return f"{_KIND_NAMES[self.kind]}_{self.index}"


Monomial = tuple  # tuple[(VarId, int), ...] sorted by VarId, exponents > 0


class TermCapExceeded(RuntimeError):
    """An expansion would exceed the configured term budget."""


class NonDivisibleError(ArithmeticError):
    """Exact division failed: ``remainder`` is a nonzero r with the dividend
    minus r a multiple of the divisor.  Relation checks surface it as the
    counterexample witness.
    """

    def __init__(self, message: str, remainder: "MultiPoly"):
        super().__init__(message)
        self.remainder = remainder


class MissingVariableError(ValueError):
    """Evaluation assignment does not cover a variable of the polynomial."""


_DEFAULT_TERM_CAP = 10**7


def term_cap_from_environment(default: int = _DEFAULT_TERM_CAP) -> int:
    """The term cap SYMMREL_TERM_CAP asks for; ``default`` when it is unset.

    Raises ValueError when the variable holds anything but a positive integer.
    """
    text = os.environ.get("SYMMREL_TERM_CAP")
    if text is None:
        return default
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"SYMMREL_TERM_CAP must be a positive integer, got {text!r}")
    return cap


try:
    _term_cap = term_cap_from_environment()
except ValueError:
    # Importing never fails on a bad value: the command line rejects it with
    # exit code 2, and library code keeps the default.
    _term_cap = _DEFAULT_TERM_CAP


def get_term_cap() -> int:
    return _term_cap


def set_term_cap(cap: int) -> None:
    """Set the global expansion guard; intended for startup configuration."""
    global _term_cap
    if cap < 1:
        raise ValueError("term cap must be positive")
    _term_cap = cap


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    # Variables that do not interleave (an a-monomial and an x/y one, say).
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    if i < n1:
        out.extend(m1[i:])
    if j < n2:
        out.extend(m2[j:])
    return tuple(out)


def _max_exponents(terms: Iterable) -> dict:
    top: dict = {}
    for mono in terms:
        for v, e in mono:
            if e > top.get(v, 0):
                top[v] = e
    return top


def _field_shifts(a: Mapping, b: Mapping) -> dict:
    """Bit offset of each variable's field in one packed layout for a * b.

    A field holds the largest exponent the product can reach, so the sum of
    two packed monomials never carries from one field into the next.
    """
    top_a, top_b = _max_exponents(a), _max_exponents(b)
    shifts = {}
    shift = 0
    for v in top_a.keys() | top_b.keys():
        shifts[v] = shift
        shift += (top_a.get(v, 0) + top_b.get(v, 0)).bit_length()
    return shifts


def _cap_error(len_a: int, len_b: int) -> TermCapExceeded:
    return TermCapExceeded(f"product of {len_a} x {len_b} terms exceeds the cap of {_term_cap}")


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def term_sort_key(m: Monomial):
    """Sort key realizing the canonical graded-lex order (descending)."""
    return (-_mono_degree(m), tuple((v, -e) for v, e in m))


def _coerce_scalar(value) -> Scalar:
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"expected an int or Fraction coefficient, got {type(value).__name__}")


def _by_power(terms: Mapping, u: VarId) -> dict:
    """{k: coefficient of u^k} for a term map; each coefficient is free of u."""
    parts: dict = {}
    for mono, c in terms.items():
        k = 0
        pos = bisect(mono, (u, 0))
        if pos < len(mono) and mono[pos][0] == u:
            k = mono[pos][1]
            mono = mono[:pos] + mono[pos + 1 :]
        parts.setdefault(k, {})[mono] = c
    return {k: MultiPoly._raw(t) for k, t in parts.items()}


def _from_powers(parts: Mapping, u: VarId) -> "MultiPoly":
    """sum_k parts[k] * u^k, for coefficients free of u."""
    out: dict = {}
    for k, poly in parts.items():
        if not k:
            out.update(poly._terms)
            continue
        u_term = ((u, k),)
        for mono, c in poly._terms.items():
            pos = bisect(mono, u_term[0])
            out[mono[:pos] + u_term + mono[pos:]] = c
    return MultiPoly._raw(out)


class MultiPoly:
    """Immutable sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        data: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            coeff = _coerce_scalar(coeff)
            if coeff == 0:
                continue
            mono = tuple(sorted((VarId(*v), int(e)) for v, e in mono if e != 0))
            if any(e < 0 for _, e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            acc = data.get(mono)
            if acc is None:
                data[mono] = coeff
            else:
                acc = acc + coeff
                if acc:
                    data[mono] = acc
                else:
                    del data[mono]
        self._terms = data

    @classmethod
    def _raw(cls, data: dict) -> "MultiPoly":
        # Trusted constructor: data already canonical (sorted keys, no zeros).
        poly = object.__new__(cls)
        poly._terms = data
        return poly

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls._raw({(): 1})

    @classmethod
    def constant(cls, c: Scalar) -> "MultiPoly":
        c = _coerce_scalar(c)
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, var: VarId) -> "MultiPoly":
        if var.index < 1:
            raise ValueError("variable indices start at 1")
        return cls._raw({((var, 1),): 1})

    @classmethod
    def x(cls, index: int) -> "MultiPoly":
        return cls.variable(VarId(KIND_X, index))

    @classmethod
    def y(cls, index: int) -> "MultiPoly":
        return cls.variable(VarId(KIND_Y, index))

    @classmethod
    def a(cls, index: int) -> "MultiPoly":
        return cls.variable(VarId(KIND_A, index))

    @classmethod
    def p(cls, index: int) -> "MultiPoly":
        return cls.variable(VarId(KIND_P, index))

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict:
        """The term map; treat as read-only."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> set:
        out = set()
        for mono in self._terms:
            for v, _ in mono:
                out.add(v)
        return out

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(_mono_degree(m) for m in self._terms)

    def constant_term(self) -> Scalar:
        return self._terms.get((), 0)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, 0)

    def leading_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return min(self._terms, key=term_sort_key)

    def integral_form(self) -> tuple:
        """(d * self, d), d the least common denominator: d * self has int coefficients."""
        d = lcm(1, *(c.denominator for c in self._terms.values()))
        return MultiPoly._raw({m: (c * d).numerator for m, c in self._terms.items()}), d

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self._terms
            return len(self._terms) == 1 and self._terms.get(()) == other
        return NotImplemented

    def __hash__(self):
        # Constant polynomials compare equal to their scalar value, so they
        # must hash like it.
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and () in self._terms:
            return hash(self._terms[()])
        return hash(frozenset(self._terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if len(self._terms) < len(other._terms):
            self, other = other, self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return MultiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def scale(self, factor: Scalar) -> "MultiPoly":
        factor = _coerce_scalar(factor)
        if factor == 0:
            return MultiPoly.zero()
        if isinstance(factor, Fraction):
            # A non-integral factor can still give integral products.
            return MultiPoly._raw({m: _coerce_scalar(factor * c) for m, c in self._terms.items()})
        return MultiPoly._raw({m: factor * c for m, c in self._terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return MultiPoly.zero()
        if len(a) * len(b) > _term_cap:
            raise _cap_error(len(a), len(b))
        if len(a) == 1:
            # m1 * m2 is injective in m2, so no two products merge.
            ((m1, c1),) = a.items()
            return MultiPoly._raw({_mono_mul(m1, m2): c1 * c2 for m2, c2 in b.items()})
        shifts = _field_shifts(a, b)

        def pack(mono: Monomial) -> int:
            return sum(e << shifts[v] for v, e in mono)

        out: dict = {}
        # The pair that first produced each key, in the insertion order of out.
        left: list = []
        right: list = []
        get = out.get
        packed_b = [(pack(m2), m2, c2) for m2, c2 in b.items()]
        for m1, c1 in a.items():
            k1 = pack(m1)
            for k2, m2, c2 in packed_b:
                key = k1 + k2
                acc = get(key)
                if acc is None:
                    out[key] = c1 * c2
                    left.append(m1)
                    right.append(m2)
                else:
                    out[key] = acc + c1 * c2
        return MultiPoly._raw(
            {_mono_mul(m1, m2): c for c, m1, m2 in zip(out.values(), left, right) if c}
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MultiPoly":
        scalar = _coerce_scalar(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self.scale(Fraction(1, 1) / scalar if isinstance(scalar, int) else 1 / scalar)

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if not exponent:
            return MultiPoly.one()
        base, result = self, None
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping) -> Fraction:
        """Exact value at a point; the assignment must cover every variable."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = Fraction(coeff)
            for var, exp in mono:
                try:
                    base = assignment[var]
                except KeyError:
                    raise MissingVariableError(f"no value assigned to {var!r}") from None
                value *= Fraction(base) ** exp
            total += value
        return total

    def substitute(self, mapping: Mapping) -> "MultiPoly":
        """Replace variables by polynomials; unmapped variables are kept."""
        replacements = {}
        for var, repl in mapping.items():
            var = VarId(*var)
            if isinstance(repl, (int, Fraction)):
                repl = MultiPoly.constant(repl)
            replacements[var] = repl
        # One accumulator for every term's product, as in __add__; adding each
        # product to a growing MultiPoly would copy the result once per term.
        out: dict = {}
        power_cache: dict = {}
        for mono, coeff in self._terms.items():
            untouched = []
            factors = []
            for var, exp in mono:
                if var in replacements:
                    key = (var, exp)
                    power = power_cache.get(key)
                    if power is None:
                        power = replacements[var] ** exp
                        power_cache[key] = power
                    factors.append(power)
                else:
                    untouched.append((var, exp))
            term = MultiPoly._raw({tuple(untouched): coeff})
            for f in factors:
                term = term * f
            for m, c in term._terms.items():
                acc = out.get(m)
                out[m] = c if acc is None else acc + c
        return MultiPoly._raw({m: c for m, c in out.items() if c})

    # -- exact division -------------------------------------------------------

    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        """self / divisor; NonDivisibleError if the remainder is nonzero."""
        terms = divisor._terms
        if not terms:
            raise ZeroDivisionError("division of a polynomial by zero")
        if len(terms) == 1:
            ((lead, coeff),) = terms.items()
            if not lead:
                return self if coeff == 1 else self / coeff
            need, degree = dict(lead), _mono_degree(lead)
            out, rest = {}, {}
            for mono, c in self._terms.items():
                q, left = [], degree  # left ends at 0 if lead divides mono
                for v, e in mono:
                    d = need.get(v, 0)
                    left -= d if e > d else e
                    if e > d:
                        q.append((v, e - d))
                if left:
                    rest[mono] = c
                else:
                    out[tuple(q)] = c
            if rest:
                raise NonDivisibleError(
                    f"{len(rest)} terms are no multiples of {divisor}", MultiPoly._raw(rest)
                )
            quotient = MultiPoly._raw(out)
            return quotient if coeff == 1 else quotient / coeff
        u = max(divisor.variables())
        lower = _by_power(terms, u)
        top = max(lower)
        lead_coeff = lower.pop(top)
        lower = {j: -b for j, b in lower.items()}
        rem = _by_power(self._terms, u)
        parts = {}
        for k in range(max(rem, default=-1), top - 1, -1):
            c = rem.pop(k, None)
            if not c:
                continue
            try:
                parts[k - top] = q = c.exact_divide(lead_coeff)
            except NonDivisibleError:
                rem[k] = c  # self is then no multiple of the divisor either
                break
            for j, minus_b in lower.items():
                rem[k - top + j] = rem.get(k - top + j, MultiPoly.zero()) + q * minus_b
        rest = _from_powers(rem, u)
        if rest:
            raise NonDivisibleError(f"nonzero remainder after division by ({divisor})", rest)
        return _from_powers(parts, u)

    # -- formatting -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def __str__(self) -> str:
        return format_poly(self)


def format_rational(coeff: Scalar) -> str:
    """p/q in lowest terms, or the integer when q = 1.  An int and a Fraction
    both carry their numerator and denominator, so neither is converted."""
    if coeff.denominator == 1:
        return str(coeff.numerator)
    return f"{coeff.numerator}/{coeff.denominator}"


def _format_monomial(mono: Monomial) -> str:
    parts = []
    for var, exp in mono:
        name = f"{_KIND_NAMES[var.kind]}_{var.index}"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def format_poly(poly: MultiPoly) -> str:
    """Canonical text form: graded-lex term order, rationals as p/q."""
    return format_terms((_format_monomial(mono), c) for mono, c in poly.sorted_terms())


def format_terms(terms: Iterable) -> str:
    """The sum of coeff * body over (body, coeff) pairs, zero terms left out."""
    out = []
    for body, coeff in terms:
        if not coeff:
            continue
        num, den = coeff.numerator, coeff.denominator
        if out:
            out.append(" - " if num < 0 else " + ")
        elif num < 0:
            out.append("-")
        num = abs(num)
        if den != 1:
            out.append(f"{num}/{den}*{body}" if body else f"{num}/{den}")
        elif num != 1 or not body:
            out.append(f"{num}*{body}" if body else str(num))
        else:
            out.append(body)
    return "".join(out) or "0"
