"""Exact arithmetic foundation.

Rationals, multivariate polynomials in the torus variables u_1..u_n (graded by
twice the polynomial degree, so each u_i sits in cohomological degree 2),
rational functions with cross-multiplication equality, and Smith normal form
over the univariate ring Q[u].

All exact linear algebra (ranks, solutions for many right-hand sides, kernels,
determinants) goes through one sparse, row-incremental, fraction-free
(Bareiss) echelon core, ``Echelon``, over two coefficient domains: Q with
Fraction entries, and Q[u_1..u_n] with Polynomial entries, into which rows over
the fraction field are cleared.  ``rank_rational``, ``solve_rational``,
``rank_and_solve`` and ``determinant`` are entry points over it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import truediv
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction

#: Default seed for specialization draws; override per call or, for the CLI,
#: with the EQUICART_SEED environment variable.
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


class Polynomial:
    """Multivariate polynomial over Q with exact coefficients.

    Terms map exponent tuples of length ``torus_rank`` to nonzero rational
    coefficients; zero coefficients are never stored.  The cohomological
    degree of a monomial is twice its polynomial degree.
    """

    __slots__ = ("torus_rank", "terms")

    def __init__(self, torus_rank: int, terms: Optional[dict] = None):
        if torus_rank < 0:
            raise ValueError("torus_rank must be >= 0")
        clean: dict = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != torus_rank:
                raise ValueError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {torus_rank}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = _as_fraction(coeff)
            if coeff != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "torus_rank", torus_rank)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, torus_rank: int, clean: dict) -> "Polynomial":
        """Internal: wrap an already-normalized term dict (valid exponent
        tuples, nonzero Fraction coefficients) without re-validating."""
        out = object.__new__(cls)
        object.__setattr__(out, "torus_rank", torus_rank)
        object.__setattr__(out, "terms", clean)
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, torus_rank: int) -> "Polynomial":
        return cls(torus_rank, {})

    @classmethod
    def one(cls, torus_rank: int) -> "Polynomial":
        return cls.constant(torus_rank, Fraction(1))

    @classmethod
    def constant(cls, torus_rank: int, value: Union[int, Fraction]) -> "Polynomial":
        return cls(torus_rank, {(0,) * torus_rank: _as_fraction(value)})

    @classmethod
    def variable(cls, torus_rank: int, index: int) -> "Polynomial":
        if not 0 <= index < torus_rank:
            raise ValueError(f"variable index {index} out of range for rank {torus_rank}")
        exps = tuple(1 if i == index else 0 for i in range(torus_rank))
        return cls(torus_rank, {exps: Fraction(1)})

    @classmethod
    def linear(cls, coeffs: Sequence[Union[int, Fraction]]) -> "Polynomial":
        """The linear form sum_i coeffs[i] * u_i."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = _as_fraction(c)
            if c != 0:
                terms[tuple(1 if j == i else 0 for j in range(n))] = c
        return cls(n, terms)

    @classmethod
    def monomial(
        cls, torus_rank: int, exps: Sequence[int], coeff: Union[int, Fraction] = 1
    ) -> "Polynomial":
        return cls(torus_rank, {tuple(exps): _as_fraction(coeff)})

    # -- ring structure --------------------------------------------------

    def _check_rank(self, other: "Polynomial") -> None:
        if self.torus_rank != other.torus_rank:
            raise ValueError(
                f"rank mismatch: {self.torus_rank} vs {other.torus_rank}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.torus_rank, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = terms.get(exps, 0) + coeff
            if total == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = total
        return Polynomial._raw(self.torus_rank, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(
            self.torus_rank, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.torus_rank, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = terms.get(exps, 0) - coeff
            if total == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = total
        return Polynomial._raw(self.torus_rank, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero(self.torus_rank)
            factor = _as_fraction(other)
            return Polynomial._raw(
                self.torus_rank, {e: c * factor for e, c in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_rank(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                total = terms.get(e, 0) + c1 * c2
                if total == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = total
        return Polynomial._raw(self.torus_rank, terms)

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
        return self.torus_rank == other.torus_rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.torus_rank, frozenset(self.terms.items())))

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0,) * self.torus_rank, Fraction(0))

    def degree(self) -> int:
        """Polynomial degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def cohomological_degree(self) -> Optional[int]:
        """2 * polynomial degree for nonzero homogeneous input, else None."""
        if self.is_zero or not self.is_homogeneous():
            return None
        return 2 * self.degree()

    def lex_leading(self) -> tuple:
        """(exponents, coefficient) of the lexicographically largest term."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        if self.is_zero:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    # -- maps ------------------------------------------------------------

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute u_i -> images[i]; images live in a common target ring."""
        if len(images) != self.torus_rank:
            raise ValueError("one image per variable required")
        if self.torus_rank == 0:
            target = 0
        else:
            target = images[0].torus_rank
            for img in images:
                if img.torus_rank != target:
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
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(point, exps):
                val *= _as_fraction(x) ** e
            total += val
        return total

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                name = "u" if self.torus_rank == 1 else f"u{i + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                text = str(coeff)
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff}*{body}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# -- univariate and exact-division helpers --------------------------------


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple:
    """Euclidean division a = q*b + r in Q[u] (torus rank 1 only)."""
    if a.torus_rank != 1 or b.torus_rank != 1:
        raise UnsupportedRankError("polynomial division requires torus rank 1")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    da, db = a.degree(), b.degree()
    if da < db:
        return Polynomial.zero(1), a
    # dense synthetic division: rank-1 coefficient lists are tiny
    ca = [Fraction(0)] * (da + 1)
    for (e,), c in a.terms.items():
        ca[e] = c
    cb = [Fraction(0)] * (db + 1)
    for (e,), c in b.terms.items():
        cb[e] = c
    lead_b = cb[db]
    q = [Fraction(0)] * (da - db + 1)
    for k in range(da - db, -1, -1):
        coeff = ca[db + k] / lead_b
        if coeff:
            q[k] = coeff
            for i in range(db + 1):
                if cb[i]:
                    ca[i + k] -= coeff * cb[i]
    quotient = Polynomial._raw(1, {(e,): c for e, c in enumerate(q) if c})
    remainder = Polynomial._raw(1, {(e,): c for e, c in enumerate(ca[:db]) if c})
    return quotient, remainder


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd in Q[u] (torus rank 1 only)."""
    if a.torus_rank != 1 or b.torus_rank != 1:
        raise UnsupportedRankError("polynomial gcd requires torus rank 1")
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    lead = a.terms[(a.degree(),)]
    return a * (1 / lead)


def poly_exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact quotient a/b in any rank; raises if b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    a._check_rank(b)
    n = a.torus_rank
    q = Polynomial.zero(n)
    r = a
    lead_e, lead_c = b.lex_leading()
    while not r.is_zero:
        re, rc = r.lex_leading()
        te = tuple(x - y for x, y in zip(re, lead_e))
        if any(e < 0 for e in te):
            raise ValueError(f"{b} does not divide {a}")
        t = Polynomial.monomial(n, te, rc / lead_c)
        q = q + t
        r = r - t * b
    return q


class RationalFunction:
    """Element of the fraction field of Q[u_1..u_n].

    Normalization keeps the denominator integer-content-free with positive
    lexicographic leading coefficient, and fully reduces by the gcd at torus
    rank 1; equality is always decided by cross-multiplication, so the partial
    normalization at higher rank is sound.
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
        if numerator.is_zero:
            denominator = Polynomial.one(numerator.torus_rank)
        elif numerator.torus_rank == 1:
            g = poly_gcd(numerator, denominator)
            if g.degree() > 0:
                numerator = poly_exact_div(numerator, g)
                denominator = poly_exact_div(denominator, g)
        scale = denominator.content()
        _, lead = denominator.lex_leading()
        if lead < 0:
            scale = -scale
        numerator = numerator * (1 / scale)
        denominator = denominator * (1 / scale)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, torus_rank: int) -> "RationalFunction":
        return cls(Polynomial.zero(torus_rank))

    @classmethod
    def one(cls, torus_rank: int) -> "RationalFunction":
        return cls(Polynomial.one(torus_rank))

    @classmethod
    def constant(cls, torus_rank: int, value: Union[int, Fraction]) -> "RationalFunction":
        return cls(Polynomial.constant(torus_rank, value))

    @classmethod
    def coerce(cls, value, torus_rank: int) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            if value.torus_rank != torus_rank:
                raise ValueError("rank mismatch")
            return value
        if isinstance(value, Polynomial):
            return cls(value)
        return cls.constant(torus_rank, value)

    @property
    def torus_rank(self) -> int:
        return self.numerator.torus_rank

    # -- field structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(self.torus_rank, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(
            self.numerator * other.denominator, self.denominator * other.numerator
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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
        """True when the normalized denominator is the constant 1.

        Exact at ranks 0 and 1; at higher rank a hidden common factor can
        remain, so False is conservative there.
        """
        return self.denominator == Polynomial.one(self.torus_rank)

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise ValueError(f"{self} is not a polynomial")
        return self.numerator

    def substitute(self, images: Sequence[Polynomial]) -> "RationalFunction":
        den = self.denominator.substitute(images)
        if den.is_zero:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return RationalFunction(self.numerator.substitute(images), den)

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
        r = len(rows)
        c = len(rows[0]) if rows else 0
        return cls(r, c, tuple(tuple(row) for row in rows))

    def row_lists(self) -> list:
        return [list(row) for row in self.entries]

    def transpose(self) -> "MatrixF":
        return MatrixF(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def matmul(a: Sequence[Sequence], b: Sequence[Sequence], zero):
    """Matrix product over any exact coefficient type that multiplies only
    nonzero entries of both factors; each entry still sums its products in
    increasing order of the inner index, as the dense product would."""
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    b_rows = [[(j, y) for j, y in enumerate(row) if y != 0] for row in b]
    out = []
    for row_a in a:
        row = [zero] * cb
        for k, x in enumerate(row_a):
            if x == 0:
                continue
            for j, y in b_rows[k]:
                row[j] = row[j] + x * y
        out.append(row)
    return out


def identity_matrix(n: int, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


# -- the exact echelon core ----------------------------------------------------


class Echelon:
    """Sparse, row-incremental, fraction-free echelon form (Bareiss 1968).

    The one elimination of the library.  It runs over Q (``torus_rank``
    None: Fraction entries, exact division ``/``) or over Q[u_1..u_n]
    (Polynomial entries, exact division ``poly_exact_div``); a row with
    RationalFunction entries is cleared into Q[u] by the product of its
    distinct denominators.

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
    takes the scale of the steps since then.  Back substitution uses each
    pivot row as reduced, before that scale, whose entries are smaller.
    """

    def __init__(self, ncols: int, torus_rank: Optional[int] = None, nrhs: int = 0):
        self.ncols = ncols
        self.nrhs = nrhs
        self.torus_rank = torus_rank
        if torus_rank is None:
            self._zero, self._one, self._div = Fraction(0), Fraction(1), truediv
        else:
            self._zero, self._one = Polynomial.zero(torus_rank), Polynomial.one(torus_rank)
            self._div = poly_exact_div
        self._field_zero = self._field(self._zero)
        self._pivots: list = []  # (pivot column, row, row as reduced), in order
        self._last = self._one  # pivot of the newest pivot row
        self._cleared = self._one  # product of the scales that cleared rows
        self._inconsistent: set = set()  # right-hand sides a dependent row kept
        self._rows_added = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, row) -> bool:
        """Reduce a row (dict or sequence of width ncols + nrhs) against the
        pivot rows; True when it extends the span and becomes a pivot row."""
        self._rows_added += 1
        v = self._entries(row)
        zero, div, prev = self._zero, self._div, self._one
        for col, pivot_row, _ in self._pivots:
            head = v.pop(col, None)
            if head is None:
                continue
            p = pivot_row[col]
            out = {}
            for j, x in v.items():
                y = pivot_row.get(j)
                if y is None:
                    out[j] = div(p * x, prev)
                else:
                    t = p * x - head * y
                    if t != zero:
                        out[j] = div(t, prev)
            for j, y in pivot_row.items():
                if j != col and j not in v:
                    out[j] = div(-(head * y), prev)
            v, prev = out, p
        lead = min((j for j in v if j < self.ncols), default=None)
        if lead is None:
            self._inconsistent.update(v)
            return False
        scaled = v
        if prev is not self._last:
            scaled = {j: div(x * self._last, prev) for j, x in v.items()}
        self._pivots.append((lead, scaled, v))
        self._last = scaled[lead]
        return True

    def _entries(self, row) -> dict:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        n = self.torus_rank
        if n is None:
            return {j: _as_fraction(x) for j, x in items if x != 0}
        out: dict = {}
        denominators: dict = {}  # distinct, in order of appearance
        for j, x in items:
            if isinstance(x, (Polynomial, RationalFunction)):
                if x.torus_rank != n:
                    raise ValueError(f"rank mismatch: {x.torus_rank} vs {n}")
                if x.is_zero:
                    continue
                if isinstance(x, RationalFunction) and not x.is_polynomial:
                    denominators[x.denominator] = None
            else:
                x = _as_fraction(x)
                if x == 0:
                    continue
                x = Polynomial.constant(n, x)
            out[j] = x
        scale = self._one
        for d in denominators:
            scale = scale * d
        if denominators:
            self._cleared = self._cleared * scale
        return {
            j: x.numerator * poly_exact_div(scale, x.denominator)
            if isinstance(x, RationalFunction)
            else x * scale
            for j, x in out.items()
        }

    def _field(self, x):
        return x if self.torus_rank is None else RationalFunction(x)

    def _back_substitute(self, x: dict, rhs: Optional[int]) -> tuple:
        """Complete x, which holds the free variables, so that every pivot
        row holds with right-hand-side column ``rhs`` (None: zero).  A pivot
        row is zero on the pivot columns of the rows added before it, so the
        newest row goes first."""
        for col, _, row in reversed(self._pivots):
            known = [j for j in row if j in x]
            if rhs not in row and not known:
                continue  # this variable is zero
            acc = self._field(row[rhs]) if rhs in row else self._field_zero
            for j in known:
                acc = acc - self._field(row[j]) * x[j]
            x[col] = acc / self._field(row[col])
        return tuple(x.get(j, self._field_zero) for j in range(self.ncols))

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
        pivot_cols = {item[0] for item in self._pivots}
        return [
            self._back_substitute({free: self._field(self._one)}, None)
            for free in range(self.ncols)
            if free not in pivot_cols
        ]

    def det(self):
        """Determinant of the square matrix made of the added rows."""
        if self._rows_added != self.ncols:
            raise ValueError("determinant requires a square matrix")
        if self.rank < self.ncols:
            return self._field_zero
        cols = [item[0] for item in self._pivots]
        inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
        value = self._last if inversions % 2 == 0 else -self._last
        if self.torus_rank is None:
            return value
        return RationalFunction(value, self._cleared)


def rank_rational(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of Fractions."""
    echelon = Echelon(len(rows[0]) if rows else 0)
    for row in rows:
        echelon.add_row(row)
    return echelon.rank


def solve_rational(
    rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[list]:
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
    for e in entries:
        if isinstance(e, (Polynomial, RationalFunction)):
            return e.torus_rank
    return None


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


def determinant(matrix: Sequence[Sequence], torus_rank: Optional[int] = None):
    """Exact determinant over the fraction field (square input)."""
    n_rows = len(matrix)
    if any(len(r) != n_rows for r in matrix):
        raise ValueError("determinant requires a square matrix")
    if torus_rank is None:
        torus_rank = _entry_rank(e for row in matrix for e in row) or 0
    echelon = Echelon(n_rows, torus_rank)
    for row in matrix:
        echelon.add_row(row)
    return echelon.det()


# -- specialization ----------------------------------------------------------


def random_rational_point(rng: random.Random, torus_rank: int) -> list:
    """A seeded random point with numerators in [-10^4, 10^4] and
    denominators in [1, 100]."""
    return [
        Fraction(
            rng.randint(-_SPECIALIZE_NUM_BOUND, _SPECIALIZE_NUM_BOUND),
            rng.randint(1, _SPECIALIZE_DEN_BOUND),
        )
        for _ in range(torus_rank)
    ]


def generic_specialized_rank(
    matrix: Sequence[Sequence[Polynomial]], seed: int = DEFAULT_SEED
) -> int:
    """Rank via evaluation at seeded random rational points.

    Two independent draws; a disagreement triggers a third, and three mutually
    distinct values raise SpecializationError listing all draws.  The largest
    observed value is returned (specializing can only lower the rank).
    """
    rows = [list(r) for r in matrix]
    flat = [e for row in rows for e in row]
    n = _entry_rank(flat)
    if n is None or n < 1:
        raise UnsupportedRankError("generic_specialized_rank requires torus rank >= 1")
    rng = random.Random(seed)

    def draw() -> int:
        point = random_rational_point(rng, n)
        return rank_rational([[e.evaluate(point) for e in row] for row in rows])

    r1 = draw()
    r2 = draw()
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
        out = []
        for e in row:
            if isinstance(e, RationalFunction):
                e = e.as_polynomial()
            if isinstance(e, Polynomial):
                if e.torus_rank != 1:
                    raise UnsupportedRankError(
                        "smith_normal_form requires univariate (torus rank 1) entries"
                    )
            else:
                e = Polynomial.constant(1, _as_fraction(e))
            out.append(e)
        rows.append(out)
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
    u = identity_matrix(nrows, one, zero)
    v = identity_matrix(ncols, one, zero)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def primitive_scale(polys):
        # Reciprocal of the rational content, or None for an all-zero slice.
        num_gcd, den_lcm = 0, 1
        for p in polys:
            for c in p.terms.values():
                num_gcd = gcd(num_gcd, abs(c.numerator))
                den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        if num_gcd == 0:
            return None
        return Fraction(den_lcm, num_gcd)

    def row_op(i, j, q):
        # row_i -= q * row_j, then strip content to limit coefficient growth
        d[i] = [a - q * b for a, b in zip(d[i], d[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
        s = primitive_scale(d[i] + u[i])
        if s is not None and s != 1:
            d[i] = [x * s for x in d[i]]
            u[i] = [x * s for x in u[i]]

    def col_op(i, j, q):
        # col_i -= q * col_j, then strip content to limit coefficient growth
        for row in d:
            row[i] = row[i] - q * row[j]
        for row in v:
            row[i] = row[i] - q * row[j]
        s = primitive_scale([row[i] for row in d] + [row[i] for row in v])
        if s is not None and s != 1:
            for row in d:
                row[i] = row[i] * s
            for row in v:
                row[i] = row[i] * s

    def min_degree_entry(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j].is_zero:
                    continue
                key = (d[i][j].degree(), i, j)
                if best is None or key < best:
                    best = key
        return best

    t = 0
    while t < min(nrows, ncols):
        found = min_degree_entry(t)
        if found is None:
            break
        while True:
            _, pi, pj = found
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
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
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if d[i][j].is_zero:
                        continue
                    _, r = poly_divmod(d[i][j], pivot)
                    if not r.is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, Polynomial.constant(1, -1))
            found = min_degree_entry(t)
        t += 1

    # Monic normalization, applied to U so U*A*V = D is preserved.
    for i in range(min(nrows, ncols)):
        pv = d[i][i]
        if pv.is_zero:
            continue
        lead = pv.terms[(pv.degree(),)]
        if lead != 1:
            inv = 1 / lead
            d[i] = [x * inv for x in d[i]]
            u[i] = [x * inv for x in u[i]]

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
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if not d[i][i].is_zero:
            out.append(d[i][i])
    return out
