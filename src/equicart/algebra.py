"""Exact arithmetic foundation.

Rationals, multivariate polynomials in the torus variables u_1..u_n (graded by
twice the polynomial degree, so each u_i sits in cohomological degree 2),
rational functions with cross-multiplication equality, and Smith normal form
over the univariate ring Q[u].

Every exact kernel computes on Python ints: a Polynomial holds integer
coefficients over one positive denominator, and Fraction appears only at the
boundary (constructor input, the read-only ``Polynomial.terms`` view, printed
output and returned solutions).  A model stores an integral entry of d, a
c_i or a pullback as an int, so the rows read from it are integer rows.  All
exact linear algebra (ranks, solutions for many right-hand sides, kernels)
goes through one sparse, row-incremental, fraction-free (Bareiss) echelon
core, ``Echelon``, over Z or Z[u_1..u_n], which takes an all-int row over Z
as it is, clears rows over Q, Q[u] and its fraction field into it, and
back-substitutes in it; ``rank_rational``, ``solve_rational`` and
``rank_and_solve`` are entry points over it, and the rank-1 persistence
pairing of ``duality._graded_pairs`` reads its pivot columns.  The one other
elimination is the Smith normal form.  ``generic_specialized_rank``, a rank at
seeded random points, holds only with high probability; no command uses it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, floordiv, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

Rational = Fraction

#: Default seed of ``generic_specialized_rank``'s draws.
DEFAULT_SEED = 1729

_SPECIALIZE_NUM_BOUND = 10_000
_SPECIALIZE_DEN_BOUND = 100


class UnsupportedRankError(ValueError):
    """Raised when an operation requires a specific torus rank."""


class SpecializationError(RuntimeError):
    """Raised when three specialized rank draws mutually disagree."""


def _as_fraction(value: Union[int, Fraction]) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _check_torus_rank(torus_rank: int) -> None:
    if torus_rank < 0:
        raise ValueError("torus_rank must be >= 0")


def _reduced(num: dict, den: int) -> tuple:
    """(num, den) divided by gcd(den, every numerator): the canonical pair."""
    if den > 1:
        g = gcd(den, *num.values())
        if g > 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return num, den


class Polynomial:
    """Multivariate polynomial over Q with exact coefficients.

    Stored as integer coefficients over one positive denominator (Gauss's
    lemma): ``_num`` maps exponent tuples of length ``torus_rank`` to nonzero
    ints, and ``_den`` is coprime to all of them, so equal polynomials store
    equal pairs.  ``terms`` is the read-only view {exponents: Fraction},
    built on first read.  The cohomological degree of a monomial is twice
    its polynomial degree.
    """

    __slots__ = ("torus_rank", "_num", "_den", "_terms")

    def __new__(cls, torus_rank: int, terms: Optional[dict] = None):
        _check_torus_rank(torus_rank)
        clean: dict = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != torus_rank:
                raise ValueError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {torus_rank}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = clean.get(exps, 0) + _as_fraction(coeff)
        clean = {e: c for e, c in clean.items() if c}
        # the lcm of reduced denominators is coprime to the scaled numerators
        den = lcm(*[c.denominator for c in clean.values()])
        num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        return _poly(torus_rank, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping:
        view = self._terms
        if view is None:
            den = self._den
            view = MappingProxyType({e: Fraction(c, den) for e, c in self._num.items()})
            _SET_TERMS(self, view)
        return view

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, torus_rank: int) -> "Polynomial":
        _check_torus_rank(torus_rank)
        return _poly(torus_rank, {})

    @classmethod
    def one(cls, torus_rank: int) -> "Polynomial":
        _check_torus_rank(torus_rank)
        return _poly(torus_rank, {(0,) * torus_rank: 1})

    @classmethod
    def constant(cls, torus_rank: int, value: Union[int, Fraction]) -> "Polynomial":
        _check_torus_rank(torus_rank)
        if not isinstance(value, (int, Fraction)):
            value = _as_fraction(value)  # raises TypeError
        if not value:
            return _poly(torus_rank, {})
        return _poly(torus_rank, {(0,) * torus_rank: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, torus_rank: int, index: int) -> "Polynomial":
        if not 0 <= index < torus_rank:
            raise ValueError(f"variable index {index} out of range for rank {torus_rank}")
        return cls.monomial(torus_rank, [int(i == index) for i in range(torus_rank)])

    @classmethod
    def linear(cls, coeffs: Sequence[Union[int, Fraction]]) -> "Polynomial":
        """The linear form sum_i coeffs[i] * u_i."""
        n = len(coeffs)
        return cls(n, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs)})

    @classmethod
    def monomial(
        cls, torus_rank: int, exps: Sequence[int], coeff: Union[int, Fraction] = 1
    ) -> "Polynomial":
        return cls(torus_rank, {tuple(exps): _as_fraction(coeff)})

    # -- ring structure --------------------------------------------------

    def _check_rank(self, other: "Polynomial") -> None:
        if self.torus_rank != other.torus_rank:
            raise ValueError(f"rank mismatch: {self.torus_rank} vs {other.torus_rank}")

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.torus_rank, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        if not other._num:
            return self
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        f1, f2 = den // d1, sign * (den // d2)
        num = dict(self._num) if f1 == 1 else {e: c * f1 for e, c in self._num.items()}
        for e, c in other._num.items():
            total = num.get(e, 0) + f2 * c
            if total:
                num[e] = total
            else:
                del num[e]
        return _poly(self.torus_rank, *_reduced(num, den))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.torus_rank, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _poly(self.torus_rank, {})
            return _rescale(self, other.numerator, other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        a, b = self._num, other._num
        if len(a) < len(b):
            a, b = b, a
        rank1 = self.torus_rank == 1  # the common case: add 1-tuples directly
        if len(b) <= 1:  # zero or a monomial: no two products share exponents
            num = {
                (e1[0] + e2[0],) if rank1 else tuple(map(add, e1, e2)): c1 * c2
                for e2, c2 in b.items() for e1, c1 in a.items()
            }
        else:
            num = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = (e1[0] + e2[0],) if rank1 else tuple(map(add, e1, e2))
                    total = num.get(e, 0) + c1 * c2
                    if total:
                        num[e] = total
                    else:
                        del num[e]
        return _poly(self.torus_rank, *_reduced(num, self._den * other._den))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.torus_rank)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.torus_rank, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        rank, den = self.torus_rank, self._den
        return rank == other.torus_rank and den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self.torus_rank, self._den, frozenset(self._num.items())))

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_constant(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and not any(next(iter(num))))

    def degree(self) -> int:
        """Polynomial degree; -1 for the zero polynomial."""
        return max(map(sum, self._num), default=-1)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self._num))) <= 1

    def cohomological_degree(self) -> Optional[int]:
        """2 * polynomial degree for nonzero homogeneous input, else None."""
        return None if self.is_zero or not self.is_homogeneous() else 2 * self.degree()

    def lex_leading(self) -> tuple:
        """(exponents, coefficient) of the lexicographically largest term."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self._num)
        return exps, Fraction(self._num[exps], self._den)

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        return Fraction(gcd(*self._num.values()), self._den) if self._num else Fraction(1)

    # -- maps ------------------------------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute u_i -> images[i]; images live in a common target ring."""
        if len(images) != self.torus_rank:
            raise ValueError("one image per variable required")
        target = images[0].torus_rank if images else 0
        if any(img.torus_rank != target for img in images):
            raise ValueError("images must share a torus rank")
        result = Polynomial.zero(target)
        for exps, coeff in sorted(self.terms.items()):
            term = Polynomial.constant(target, coeff)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * images[i]
            result = result + term
        return result

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.torus_rank:
            raise ValueError("one value per variable required")
        total = Fraction(0)
        for exps, coeff in self._num.items():
            val = Fraction(coeff)
            for x, e in zip(point, exps):
                val *= _as_fraction(x) ** e
            total += val
        return total / self._den

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names = ["u"] if self.torus_rank == 1 else [f"u{i + 1}" for i in range(self.torus_rank)]
        parts = []
        for exps, coeff in sorted(self.terms.items(), reverse=True):
            body = "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(names, exps) if e)
            sign = "" if coeff == 1 else "-" if coeff == -1 else f"{coeff}*"
            parts.append(f"{sign}{body}" if body else str(coeff))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_new = object.__new__
_SET_RANK, _SET_NUM, _SET_DEN, _SET_TERMS = (
    Polynomial.__dict__[name].__set__ for name in Polynomial.__slots__
)


def _poly(torus_rank: int, num: dict, den: int = 1) -> Polynomial:
    """Internal: wrap a canonical pair (valid exponent tuples, nonzero int
    numerators, a positive denominator coprime to them) without checks."""
    out = _new(Polynomial)
    _SET_RANK(out, torus_rank)
    _SET_NUM(out, num)
    _SET_DEN(out, den)
    _SET_TERMS(out, None)
    return out


def _rescale(p: Polynomial, k: int, m: int) -> Polynomial:
    """p * k / m for nonzero ints k and m."""
    if m < 0:
        k, m = -k, -m
    if k == m or not p._num:
        return p
    return _poly(p.torus_rank, *_reduced({e: c * k for e, c in p._num.items()}, p._den * m))


# -- univariate and exact-division helpers --------------------------------


def _dense(p: Polynomial) -> list:
    """Integer numerator of a rank-1 polynomial, constant coefficient first."""
    return [p._num.get((e,), 0) for e in range(p.degree() + 1)]


def _from_dense(coeffs: list, den: int) -> Polynomial:
    """sum_e coeffs[e] * u^e / den for a nonzero int den."""
    return _rescale(_poly(1, {(e,): c for e, c in enumerate(coeffs) if c}), 1, den)


def _pseudo_divmod(a: list, b: list) -> tuple:
    """(q, r, s) with s * a = q * b + r, deg r < deg b, for dense integer lists
    with deg a >= deg b >= 0: pseudo-division (Knuth, TAOCP vol. 2 §4.6.1) that
    scales by lead(b) only where a quotient coefficient is not an integer."""
    lead, db = b[-1], len(b) - 1
    r, q, s = list(a), [0] * (len(a) - db), 1
    for k in range(len(q) - 1, -1, -1):
        c = r[db + k]
        if not c:
            continue
        t, rest = divmod(c, lead)
        if rest:
            q = [x * lead for x in q]
            r = [x * lead for x in r]
            s, t = s * lead, c
        q[k] = t
        for i, y in enumerate(b):
            r[i + k] -= t * y
    return q, r[:db], s


def _primitive(coeffs: list) -> list:
    """A dense integer list without trailing zeros, divided by its content."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple:
    """Euclidean division a = q*b + r in Q[u] (torus rank 1 only)."""
    if a.torus_rank != 1 or b.torus_rank != 1:
        raise UnsupportedRankError("polynomial division requires torus rank 1")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.degree() < b.degree():
        return Polynomial.zero(1), a
    # s*A = q*B + r for the numerators A = a*da, B = b*db, so
    # a = (q*db / (s*da)) * b + r / (s*da)
    q, r, s = _pseudo_divmod(_dense(a), _dense(b))
    return _from_dense([x * b._den for x in q], s * a._den), _from_dense(r, s * a._den)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[u] (torus rank 1 only): a primitive pseudo-remainder
    sequence on the integer numerators."""
    if a.torus_rank != 1 or b.torus_rank != 1:
        raise UnsupportedRankError("polynomial gcd requires torus rank 1")
    x, y = _primitive(_dense(a)), _primitive(_dense(b))
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _primitive(_pseudo_divmod(x, y)[1])
    return _from_dense(x, x[-1]) if x else Polynomial.zero(1)


def poly_exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact quotient a/b in any rank; raises if b does not divide a.

    The integer numerator of a is divided by the primitive part of b's: when
    b divides a, every quotient coefficient is an integer (Gauss's lemma).
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    a._check_rank(b)
    if b.is_constant:
        ((_, c),) = b._num.items()
        return _rescale(a, b._den, c)
    divisor, den = b._num, a._den
    lead_e = max(divisor)
    g = gcd(*divisor.values())
    if g > 1:
        divisor, den = {e: c // g for e, c in divisor.items()}, den * g
    lead, rest, quotient = divisor[lead_e], dict(a._num), {}
    while rest:
        exps = max(rest)
        shift = tuple(map(sub, exps, lead_e))
        t, r = divmod(rest[exps], lead)
        if r or min(shift, default=0) < 0:
            raise ValueError(f"{b} does not divide {a}")
        quotient[shift] = t
        for e, c in divisor.items():
            key = tuple(map(add, shift, e))
            v = rest.get(key, 0) - t * c
            if v:
                rest[key] = v
            else:
                del rest[key]
    return _poly(a.torus_rank, *_reduced({e: c * b._den for e, c in quotient.items()}, den))


def _quotient(y: Polynomial, d: Polynomial) -> "RationalFunction":
    """y / d, a polynomial when d divides y."""
    try:
        return _rational(poly_exact_div(y, d))
    except ValueError:
        return RationalFunction(y, d)


def _field_op(method):
    """The method with its operand coerced to a RationalFunction (from a
    Polynomial, int or Fraction); NotImplemented for any other type."""
    def op(self, other):
        if isinstance(other, Polynomial):
            other = _rational(other)
        elif isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(self.torus_rank, other)
        elif not isinstance(other, RationalFunction):
            return NotImplemented
        return method(self, other)
    return op


class RationalFunction:
    """Element of the fraction field of Q[u_1..u_n].

    Normalization divides a constant denominator into the numerator, keeps
    any other denominator integer-content-free with positive lexicographic
    leading coefficient, and fully reduces by the gcd at torus rank 1.  The
    form is canonical at ranks 0 and 1, where equality compares the fields;
    at higher rank equality is decided by cross-multiplication, so the
    partial normalization there is sound.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Optional[Polynomial] = None):
        if denominator is None:
            denominator = Polynomial.one(numerator.torus_rank)
        if not isinstance(numerator, Polynomial) or not isinstance(denominator, Polynomial):
            raise TypeError("numerator and denominator must be Polynomial")
        numerator._check_rank(denominator)
        if denominator.is_zero:
            raise ZeroDivisionError("zero denominator")
        n = numerator.torus_rank
        if numerator.is_zero:
            denominator = Polynomial.one(n)
        else:
            if n == 1 and not (numerator.is_constant or denominator.is_constant):
                g = poly_gcd(numerator, denominator)
                if g.degree() > 0:
                    numerator = poly_exact_div(numerator, g)
                    denominator = poly_exact_div(denominator, g)
            # content-free, positive leading coefficient: a constant becomes 1
            coeffs = denominator._num
            c = gcd(*coeffs.values())
            if coeffs[max(coeffs)] < 0:
                c = -c
            numerator = _rescale(numerator, denominator._den, c)
            if c != 1 or denominator._den != 1:
                denominator = _poly(n, {e: v // c for e, v in coeffs.items()})
        _SET_NUMERATOR(self, numerator)
        _SET_DENOMINATOR(self, denominator)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, torus_rank: int) -> "RationalFunction":
        return _rational(Polynomial.zero(torus_rank))

    @classmethod
    def one(cls, torus_rank: int) -> "RationalFunction":
        return _rational(Polynomial.one(torus_rank))

    @classmethod
    def constant(cls, torus_rank: int, value: Union[int, Fraction]) -> "RationalFunction":
        return _rational(Polynomial.constant(torus_rank, value))

    @classmethod
    def coerce(cls, value, torus_rank: int) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            if value.torus_rank != torus_rank:
                raise ValueError("rank mismatch")
            return value
        if isinstance(value, Polynomial):
            return _rational(value)
        return cls.constant(torus_rank, value)

    @property
    def torus_rank(self) -> int:
        return self.numerator.torus_rank

    # -- field structure -------------------------------------------------

    @_field_op
    def __add__(self, other):
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        a, b, c, d = self.numerator, self.denominator, other.numerator, other.denominator
        # a denominator 1 is left out of the products
        if b.is_constant:
            return _rational(a + c, d) if d.is_constant else RationalFunction(a * d + c, d)
        if d.is_constant:
            return RationalFunction(a + c * b, b)
        return RationalFunction(a * d + c * b, b * d)

    __radd__ = __add__

    def __neg__(self):
        return _rational(-self.numerator, self.denominator)

    @_field_op
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @_field_op
    def __mul__(self, other):
        # a constant factor, or two polynomials, need no normalization
        for x, y in ((self, other), (other, self)):
            if y.denominator.is_constant and (y.numerator.is_constant or x.denominator.is_constant):
                if y.is_zero:
                    return y
                return _rational(x.numerator * y.numerator, x.denominator)
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    @_field_op
    def __truediv__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        if other.is_polynomial and other.numerator.is_constant:
            ((_, c),) = other.numerator._num.items()
            return _rational(_rescale(self.numerator, other.numerator._den, c), self.denominator)
        return RationalFunction(
            self.numerator * other.denominator, self.denominator * other.numerator
        )

    @_field_op
    def __rtruediv__(self, other):
        return other / self

    @_field_op
    def __eq__(self, other):
        if self.torus_rank <= 1:  # canonical form
            return self.numerator == other.numerator and self.denominator == other.denominator
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __hash__(self):
        if self.torus_rank <= 1:
            return hash((self.numerator, self.denominator))
        raise TypeError("RationalFunction of rank >= 2 is not hashable")

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    @property
    def is_polynomial(self) -> bool:
        """True when the normalized denominator is the constant 1: exact at
        ranks 0 and 1; at higher rank a hidden common factor can remain, so
        False is conservative there."""
        return self.denominator.is_constant

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise ValueError(f"{self} is not a polynomial")
        return self.numerator

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        den = self.denominator.evaluate(point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.numerator.evaluate(point) / den

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


_SET_NUMERATOR, _SET_DENOMINATOR = (
    RationalFunction.__dict__[name].__set__ for name in RationalFunction.__slots__
)


def _rational(numerator: Polynomial, denominator: Optional[Polynomial] = None):
    """Internal: wrap a normalized pair (denominator 1 when None)."""
    if denominator is None:
        denominator = Polynomial.one(numerator.torus_rank)
    out = _new(RationalFunction)
    _SET_NUMERATOR(out, numerator)
    _SET_DENOMINATOR(out, denominator)
    return out


# -- matrices --------------------------------------------------------------


@dataclass(frozen=True)
class MatrixF:
    """Rectangular matrix container with immutable dimensions.

    Entries are Fraction, Polynomial, or RationalFunction; the arithmetic
    helpers below are duck-typed over those.
    """

    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "MatrixF":
        if rows and len({len(r) for r in rows}) != 1:
            raise ValueError("ragged rows")
        return cls(len(rows), len(rows[0]) if rows else 0, tuple(map(tuple, rows)))

    def row_lists(self) -> list:
        return [list(row) for row in self.entries]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def _is_zero(x) -> bool:
    """x == 0 for an int, Fraction, Polynomial or RationalFunction, without
    building the zero it would compare against."""
    return x.is_zero if isinstance(x, (Polynomial, RationalFunction)) else x == 0


def matmul(a: Sequence[Sequence], b: Sequence[Sequence], zero):
    """Matrix product over any exact coefficient type that multiplies only
    nonzero entries of both factors; each entry still sums its products in
    increasing order of the inner index, as the dense product would."""
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    b_rows = [[(j, y) for j, y in enumerate(row) if not _is_zero(y)] for row in b]
    out = []
    for row_a in a:
        row = [zero] * cb
        for k, x in enumerate(row_a):
            if _is_zero(x):
                continue
            for j, y in b_rows[k]:
                row[j] = row[j] + x * y
        out.append(row)
    return out


# -- the exact echelon core ----------------------------------------------------


class Echelon:
    """Sparse, row-incremental, fraction-free echelon form (Bareiss 1968).

    The one elimination of the library, over Z (``torus_rank`` None,
    division ``//``) or Z[u_1..u_n] (division ``poly_exact_div``).  An
    all-int row over Z is taken as it is; any other row is cleared into that
    domain by the lcm of its Fraction denominators, or by
    the product of its distinct RationalFunction denominators and then the
    lcm of its coefficient denominators.

    Rows are dicts column -> nonzero entry.  Columns ``0..ncols-1`` are the
    matrix; the ``nrhs`` columns after them are right-hand sides, which
    follow the row operations but never hold a pivot.

    A new row is reduced against the pivot rows in the order they were
    added, and its leading nonzero becomes its pivot, so the pivot columns
    are those of column-major elimination (an invariant of the row space).
    Pivot row k holds the k x k minors of the first k independent rows on
    the first k pivot columns, which makes every step
    ``row <- (p_k * row - row[c_k] * pivot_row_k) / p`` exact (Sylvester's
    identity), with p the pivot of the last step that touched the row: a
    step that does not touch a row leaves it as it is, and a new pivot row
    takes the scale of the steps since then, at which it is stored.  Back
    substitution stays in the ring (Bareiss 1968; Nakos, Turner and Williams
    1997): the newest pivot D is the minor of the pivot rows on the pivot
    columns, so by Cramer's rule D times a solution, or times a kernel vector
    with free variable 1, is over the ring, and every step divides exactly;
    each entry is divided by D once, at the end.
    """

    def __init__(self, ncols: int, torus_rank: Optional[int] = None, nrhs: int = 0):
        self.ncols, self.nrhs, self.torus_rank = ncols, nrhs, torus_rank
        if torus_rank is None:
            self._zero, self._one, self._div = 0, 1, floordiv
        else:
            self._zero, self._one = Polynomial.zero(torus_rank), Polynomial.one(torus_rank)
            self._div = poly_exact_div
        self._pivots: list = []  # (pivot column, row), in order
        self._last = self._one  # pivot of the newest pivot row
        self._inconsistent: set = set()  # right-hand sides a dependent row kept

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> tuple:
        """The pivot columns, in the order their rows became pivot rows."""
        return tuple(item[0] for item in self._pivots)

    def add_row(self, row) -> bool:
        """Reduce a row (dict or sequence of width ncols + nrhs) against the
        pivot rows; True when it extends the span and becomes a pivot row."""
        v = self._entries(row)
        zero, div, one = self._zero, self._div, self._one
        prev = one  # a division by it is skipped
        for col, pivot_row in self._pivots:
            head = v.pop(col, None)
            if head is None:
                continue
            p, exact = pivot_row[col], prev is one
            out = {}
            for j, x in v.items():
                y = pivot_row.get(j)
                t = p * x if y is None else p * x - head * y
                if t != zero:
                    out[j] = t if exact else div(t, prev)
            for j, y in pivot_row.items():
                if j != col and j not in v:
                    out[j] = -(head * y) if exact else div(-(head * y), prev)
            v, prev = out, p
        lead = min((j for j in v if j < self.ncols), default=None)
        if lead is None:
            self._inconsistent.update(v)
            return False
        if prev is not self._last:
            v = {j: div(x * self._last, prev) for j, x in v.items()}
        self._pivots.append((lead, v))
        self._last = v[lead]
        return True

    def _entries(self, row) -> dict:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        n = self.torus_rank
        if n is None:
            out = {j: x for j, x in items if x != 0}
            if all(type(x) is int for x in out.values()):
                return out  # integer already: nothing to clear
            out = {j: x if type(x) is int else _as_fraction(x) for j, x in out.items()}
            common = lcm(*[x.denominator for x in out.values()])
            return {j: x.numerator * (common // x.denominator) for j, x in out.items()}
        out = {}
        denominators: dict = {}  # distinct, in order of appearance
        for j, x in items:
            if not isinstance(x, (Polynomial, RationalFunction)):
                x = Polynomial.constant(n, x)
            elif x.torus_rank != n:
                raise ValueError(f"rank mismatch: {x.torus_rank} vs {n}")
            if isinstance(x, RationalFunction) and x.is_polynomial:
                x = x.numerator
            elif isinstance(x, RationalFunction):
                denominators[x.denominator] = None
            if not x.is_zero:
                out[j] = x
        if denominators:
            scale = self._one
            for d in denominators:
                scale = scale * d
            out = {
                j: x.numerator * poly_exact_div(scale, x.denominator)
                if isinstance(x, RationalFunction) else x * scale
                for j, x in out.items()
            }
        # then to integer coefficients, the natural domain of Bareiss
        common = lcm(*[x._den for x in out.values()])
        if common > 1:
            out = {j: _rescale(x, common, 1) for j, x in out.items()}
        return out

    def _back_substitute(self, y: dict, rhs: Optional[int]) -> tuple:
        """x = y / D for the pivot rows with right-hand-side column ``rhs``
        (None: zero), y holding D times the free variables: y_c = (D*b -
        sum row[j]*y_j) / row[c], newest row first, as a pivot row is zero on
        the pivot columns of the rows added before it.  The newest row's
        pivot is D itself, so there y_c = b - sum / D, with no product."""
        d, zero, div = self._last, self._zero, self._div
        for col, row in reversed(self._pivots):
            acc = zero  # minus the sum over the known variables
            for j in row.keys() & y.keys():
                acc = acc - row[j] * y[j]
            if row[col] is d:
                acc = div(acc, d) if rhs not in row else row[rhs] + div(acc, d)
            else:
                acc = div(acc if rhs not in row else d * row[rhs] + acc, row[col])
            if acc != zero:
                y[col] = acc
        if self.torus_rank is None:
            return tuple(Fraction(y.get(j, 0), d) for j in range(self.ncols))
        return tuple(_quotient(y[j], d) if j in y else _rational(zero) for j in range(self.ncols))

    def solve(self) -> list:
        """Per right-hand side b, the solution of M x = b whose free variables
        are zero, or None when b is inconsistent.  Entries are Fractions over
        Q and RationalFunctions over Q[u]."""
        return [
            None if rhs in self._inconsistent else self._back_substitute({}, rhs)
            for rhs in range(self.ncols, self.ncols + self.nrhs)
        ]

    def kernel(self) -> list:
        """Kernel basis: per free column, the vector with that variable 1 and
        the other free variables 0."""
        pivot_cols = set(self.pivots)
        return [
            self._back_substitute({free: self._last}, None)
            for free in range(self.ncols)
            if free not in pivot_cols
        ]


def rank_rational(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of Fractions."""
    echelon = Echelon(len(rows[0]) if rows else 0)
    for row in rows:
        echelon.add_row(row)
    return echelon.rank


def solve_rational(rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[list]:
    """One exact solution of M x = b over Q (reduced echelon, free vars = 0).

    Returns None when the system is inconsistent.
    """
    echelon = Echelon(len(rows[0]) if rows else 0, nrhs=1)
    for row, bi in zip(rows, b):
        echelon.add_row(list(row) + [bi])
    solution = echelon.solve()[0]
    return None if solution is None else list(solution)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of rank_and_solve; inconsistency is an outcome, not an error."""

    rank: int
    consistent: bool
    solution: Optional[tuple]
    kernel: tuple


def _entry_rank(entries: Iterable) -> Optional[int]:
    kinds = (Polynomial, RationalFunction)
    return next((e.torus_rank for e in entries if isinstance(e, kinds)), None)


def rank_and_solve(
    matrix: Sequence[Sequence],
    b: Optional[Sequence] = None,
    torus_rank: Optional[int] = None,
    cols: Optional[int] = None,
) -> SolveResult:
    """Exact rank over the fraction field, one solution of M x = b when
    consistent (reduced-echelon particular solution: free variables zero),
    and a kernel basis.

    Entries may be Fraction, Polynomial, or RationalFunction; the solution
    and kernel entries are RationalFunctions.  ``cols`` disambiguates the
    width of a matrix with no rows.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else (cols or 0)
    if nrows and cols is not None and cols != ncols:
        raise ValueError(f"cols={cols} disagrees with row width {ncols}")
    if b is not None and len(b) != nrows:
        raise ValueError(f"b has length {len(b)}, expected {nrows}")
    if torus_rank is None:
        flat = [e for row in rows for e in row] + (list(b) if b else [])
        torus_rank = _entry_rank(flat) or 0
    echelon = Echelon(ncols, torus_rank, nrhs=0 if b is None else 1)
    for i, row in enumerate(rows):
        echelon.add_row(row if b is None else row + [b[i]])
    solution = None if b is None else echelon.solve()[0]
    return SolveResult(
        rank=echelon.rank,
        consistent=b is None or solution is not None,
        solution=solution,
        kernel=tuple(echelon.kernel()),
    )


# -- specialization ----------------------------------------------------------


def generic_specialized_rank(
    matrix: Sequence[Sequence[Polynomial]], seed: int = DEFAULT_SEED
) -> int:
    """Rank via evaluation at seeded random rational points.

    Each draw has numerators in [-10^4, 10^4] and denominators in [1, 100].
    Two independent draws; a disagreement triggers a third, and three mutually
    distinct values raise SpecializationError listing all draws.  The largest
    observed value is returned (specializing can only lower the rank).
    """
    rows = [list(r) for r in matrix]
    n = _entry_rank(e for row in rows for e in row)
    if n is None or n < 1:
        raise UnsupportedRankError("generic_specialized_rank requires torus rank >= 1")
    rng = random.Random(seed)

    def draw() -> int:
        point = [
            Fraction(rng.randint(-_SPECIALIZE_NUM_BOUND, _SPECIALIZE_NUM_BOUND),
                     rng.randint(1, _SPECIALIZE_DEN_BOUND))
            for _ in range(n)
        ]
        return rank_rational([[e.evaluate(point) for e in row] for row in rows])

    r1, r2 = draw(), draw()
    if r1 == r2:
        return r1
    r3 = draw()
    if r3 not in (r1, r2):
        raise SpecializationError(
            f"three specialized ranks mutually disagree: {r1}, {r2}, {r3}"
        )
    return max(r1, r2, r3)


# -- Smith normal form over Q[u] --------------------------------------------


def _coerce_univariate(matrix: Sequence[Sequence]) -> list:
    rows = []
    for row in matrix:
        rows.append([])
        for e in row:
            if isinstance(e, RationalFunction):
                e = e.as_polynomial()
            if not isinstance(e, Polynomial):
                e = Polynomial.constant(1, e)
            elif e.torus_rank != 1:
                raise UnsupportedRankError(
                    "smith_normal_form requires univariate (torus rank 1) entries"
                )
            rows[-1].append(e)
    return rows


def smith_normal_form(matrix: Sequence[Sequence]) -> tuple:
    """Smith normal form over Q[u]: returns (U, D, V) with U*A*V = D.

    D is diagonal with monic invariant factors d_1 | d_2 | ...; U and V are
    unimodular over Q[u] (rational nonzero determinant).  Pivoting picks the
    nonzero entry of minimal degree, ties broken by smallest row then column.
    """
    d = _coerce_univariate(matrix)
    nrows = len(d)
    ncols = len(d[0]) if nrows else 0
    zero = Polynomial.zero(1)
    one = Polynomial.one(1)
    u = [[one if i == j else zero for j in range(nrows)] for i in range(nrows)]
    v = [[one if i == j else zero for j in range(ncols)] for i in range(ncols)]

    def primitive_scale(polys):
        # Reciprocal of the rational content (1 for an all-zero slice), from
        # the gcd of the integer numerators and the lcm of the denominators.
        num_gcd = gcd(*[c for p in polys for c in p._num.values()])
        return Fraction(lcm(*[p._den for p in polys]), num_gcd) if num_gcd else 1

    def row_op(i, j, q):
        # row_i -= q * row_j, then strip content to limit coefficient growth
        d[i] = [a - q * b for a, b in zip(d[i], d[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
        s = primitive_scale(d[i] + u[i])
        if s != 1:
            d[i] = [x * s for x in d[i]]
            u[i] = [x * s for x in u[i]]

    def col_op(i, j, q):
        # col_i -= q * col_j, then strip content to limit coefficient growth
        for row in d + v:
            row[i] = row[i] - q * row[j]
        s = primitive_scale([row[i] for row in d + v])
        if s != 1:
            for row in d + v:
                row[i] = row[i] * s

    def min_degree_entry(t):
        return min(((d[i][j].degree(), i, j) for i in range(t, nrows) for j in range(t, ncols)
                    if not d[i][j].is_zero), default=None)

    t = 0
    while t < min(nrows, ncols):
        found = min_degree_entry(t)
        if found is None:
            break
        while True:
            _, pi, pj = found
            for m in (d, u):
                m[t], m[pi] = m[pi], m[t]
            for row in d + v:
                row[t], row[pj] = row[pj], row[t]
            pivot = d[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if not d[i][t].is_zero:
                    q, r = poly_divmod(d[i][t], pivot)
                    row_op(i, t, q)
                    dirty = dirty or not r.is_zero
            for j in range(t + 1, ncols):
                if not d[t][j].is_zero:
                    q, r = poly_divmod(d[t][j], pivot)
                    col_op(j, t, q)
                    dirty = dirty or not r.is_zero
            if dirty:
                found = min_degree_entry(t)
                continue
            # Row and column are clear; pull in any entry the pivot misses.
            misses = (
                i for i in range(t + 1, nrows) for j in range(t + 1, ncols)
                if not d[i][j].is_zero and not poly_divmod(d[i][j], pivot)[1].is_zero
            )
            offender = next(misses, None)
            if offender is None:
                break
            row_op(t, offender, Polynomial.constant(1, -1))
            found = min_degree_entry(t)
        t += 1

    # Monic normalization, applied to U so U*A*V = D is preserved.
    for i in range(min(nrows, ncols)):
        lead = 1 if d[i][i].is_zero else d[i][i].terms[(d[i][i].degree(),)]
        if lead != 1:
            inv = 1 / lead
            d[i], u[i] = [x * inv for x in d[i]], [x * inv for x in u[i]]

    for i in range(min(nrows, ncols) - 1):
        a, b = d[i][i], d[i + 1][i + 1]
        if not b.is_zero:
            _, r = poly_divmod(b, a)
            if a.is_zero or not r.is_zero:
                raise AssertionError("divisibility chain violated")
    return u, d, v


def invariant_factors(matrix: Sequence[Sequence]) -> list:
    """Nonzero diagonal entries of the Smith normal form, in order."""
    _, d, _ = smith_normal_form(matrix)
    diagonal = (d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))
    return [entry for entry in diagonal if not entry.is_zero]
