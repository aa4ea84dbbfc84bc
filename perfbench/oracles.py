"""Answer checks that do not depend on the equicart code being timed.

Every expected value here comes from a closed formula (binomial Hilbert
series, Kunneth products of fixed-point counts, substitution into a known
rank-1 Gysin matrix) or from this module's own small exact arithmetic
(univariate polynomials over Q, Gauss elimination over Q).  Library results
are only *read*: a rational function is evaluated from its numerator and
denominator term dictionaries, a printed polynomial is parsed from its text.

Each ``check_*`` function returns ``None`` when the answer is right and a
one-line reason when it is wrong.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

# Generic rank of a factor over the fraction field, split (even, odd).  By the
# localization theorem it is the total Betti number of the fixed-point set:
# two poles for the rotated sphere, the origin for a weighted plane and a
# point, the whole circle (Betti 1, 1) for a trivially acted-on circle.
FACTOR_GENERIC_RANKS = {
    "s2": (2, 0),
    "c_alpha": (1, 0),
    "point": (1, 0),
    "circle_trivial": (1, 1),
}

# Underlying Betti numbers by degree, for the equivariantly formal factors.
FACTOR_BETTI = {
    "s2": (1, 0, 1),
    "point": (1,),
    "circle_trivial": (1, 1),
}


# -- closed formulas -------------------------------------------------------


def kunneth(*factors: Tuple[int, int]) -> Tuple[int, int]:
    """(even, odd) generic ranks of a tensor product of factors."""
    even, odd = 1, 0
    for e, o in factors:
        even, odd = even * e + odd * o, even * o + odd * e
    return even, odd


def betti_product(*factors: Sequence[int]) -> List[int]:
    """Underlying Betti numbers of a product (Kunneth over Q)."""
    out = [1]
    for b in factors:
        nxt = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(b):
                nxt[i + j] += x * y
        out = nxt
    return out


def hilbert_formal(
    betti: Sequence[int], torus_rank: int, cutoff: int, shift: int = 0
) -> List[int]:
    """Degreewise dimensions 0..cutoff of a free module over Q[u_1..u_r]
    (deg u_i = 2) on generators counted by ``betti`` and shifted by
    ``shift`` degrees: sum_k betti[k] t^(k+shift) / (1 - t^2)^r."""
    table = [0] * (cutoff + 1)
    for k, b in enumerate(betti):
        if not b:
            continue
        for j in range(cutoff + 1):
            degree = k + shift + 2 * j
            if degree > cutoff:
                break
            table[degree] += b * comb(j + torus_rank - 1, torus_rank - 1)
    return table


def hilbert_point(torus_rank: int, cutoff: int) -> List[int]:
    """dim H^(2j) = C(j + r - 1, r - 1); odd degrees vanish."""
    return hilbert_formal((1,), torus_rank, cutoff)


# -- univariate polynomials over Q: tuples of coefficients, low degree first --


def _trim(p: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def p_add(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def p_neg(a):
    return tuple(-c for c in a)


def p_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def p_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1] / lead
        quot[shift] = c
        if c:
            for j, y in enumerate(b):
                rem[shift + j] -= c * y
    return _trim(quot), _trim(rem[: len(b) - 1])


def p_monic(a):
    return tuple(c / a[-1] for c in a) if a else ()


def p_gcd(a, b):
    while b:
        a, b = b, p_divmod(a, b)[1]
    return p_monic(a)


def p_det(m: List[List[tuple]]):
    """Determinant by Laplace expansion along the first row (sizes <= 5)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = ()
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = p_mul(m[0][j], p_det(minor))
        total = p_add(total, term if j % 2 == 0 else p_neg(term))
    return total


def invariant_factors_oracle(matrix: List[List[tuple]]) -> List[tuple]:
    """Monic invariant factors over Q[u] from determinantal divisors:
    D_k = gcd of all k x k minors, d_k = D_k / D_(k-1)."""
    rows, cols = len(matrix), len(matrix[0])
    factors = []
    previous = (Fraction(1),)
    for k in range(1, min(rows, cols) + 1):
        g = ()
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                g = p_gcd(g, p_det([[matrix[r][c] for c in ci] for r in ri]))
        if not g:
            break
        quotient, remainder = p_divmod(g, previous)
        if remainder:
            raise ArithmeticError("determinantal divisors do not form a chain")
        factors.append(quotient)
        previous = g
    return factors


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(u(?:\^(\d+))?)?$")


def parse_poly1(text: str) -> tuple:
    """Parse a printed univariate polynomial such as 'u^2 - 3/2*u + 1'."""
    compact = text.replace(" ", "")
    if compact in ("", "0"):
        return ()
    coeffs: Dict[int, Fraction] = {}
    for chunk in compact.replace("-", "+-").split("+"):
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        match = _TERM.match(chunk)
        if not match or (match.group(1) is None and match.group(2) is None):
            raise ValueError(f"cannot parse polynomial term {chunk!r} in {text!r}")
        coeff = Fraction(match.group(1)) if match.group(1) else Fraction(1)
        exp = (int(match.group(3)) if match.group(3) else 1) if match.group(2) else 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
    top = max(coeffs)
    return _trim(coeffs.get(i, Fraction(0)) for i in range(top + 1))


def format_poly1(p: tuple) -> str:
    """Inverse of parse_poly1 in the CLI's matrix syntax ('3/2*u^2-u+1')."""
    if not p:
        return "0"
    out = ""
    for exp in range(len(p) - 1, -1, -1):
        c = p[exp]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = "" if exp == 0 else ("u" if exp == 1 else f"u^{exp}")
        if not body:
            term = str(mag)
        elif mag == 1:
            term = body
        else:
            term = f"{mag}*{body}"
        out += ("-" if sign == "-" else ("+" if out else "")) + term
    return out


# -- reading library values without calling library code ---------------------


def evaluate(value, point: Sequence[Fraction]) -> Fraction:
    """Value of a Fraction, Polynomial or RationalFunction at a point, read
    from the term dictionaries only."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if hasattr(value, "numerator") and hasattr(value, "denominator") and hasattr(
        value.numerator, "terms"
    ):
        den = evaluate(value.denominator, point)
        if den == 0:
            raise ZeroDivisionError("evaluation point is a pole")
        return evaluate(value.numerator, point) / den
    total = Fraction(0)
    for exps, coeff in value.terms.items():
        term = Fraction(coeff)
        for x, e in zip(point, exps):
            term *= x ** e
        total += term
    return total


def rank_q(rows: List[List[Fraction]]) -> int:
    """Rank over Q by Gauss elimination."""
    m = [list(r) for r in rows]
    rank, col = 0, 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def matrix_entries(matrix) -> List[List]:
    """Rows of a MatrixF (``rows``, ``cols`` and ``(i, j)`` indexing)."""
    return [[matrix[(i, j)] for j in range(matrix.cols)] for i in range(matrix.rows)]


# Points chosen away from the poles of every denominator the workloads meet
# (products of small integer linear forms).
SAMPLE_POINTS = {
    1: ((Fraction(7, 3),), (Fraction(-11, 5),)),
    2: ((Fraction(7, 3), Fraction(5, 11)), (Fraction(-13, 4), Fraction(17, 6))),
}


# -- checks ------------------------------------------------------------------


def check_equal(actual, expected, what: str) -> Optional[str]:
    if actual != expected:
        return f"{what}: got {actual!r}, expected {expected!r}"
    return None


def check_validation(report) -> Optional[str]:
    if not report.ok or report.issues:
        return f"valid by construction, but validate_model reported {len(report.issues)} issue(s)"
    return None


def check_generic(result, expected: Tuple[int, int]) -> Optional[str]:
    return check_equal((result.even_rank, result.odd_rank), expected, "generic (even, odd) rank")


def check_duality(report, total: int) -> Optional[str]:
    got = (report.pairing_rank, report.generic_betti_total, report.perfect)
    return check_equal(got, (total, total, True), "(pairing rank, Betti total, perfect)")


def check_pairing(pairing, total: int, torus_rank: int) -> Optional[str]:
    """Nondegenerate: full rank at every sample point."""
    rows = matrix_entries(pairing.matrix)
    if len(rows) != total or any(len(r) != total for r in rows):
        return f"pairing matrix is {pairing.matrix.rows}x{pairing.matrix.cols}, expected {total}x{total}"
    for point in SAMPLE_POINTS[torus_rank]:
        r = rank_q([[evaluate(e, point) for e in row] for row in rows])
        if r != total:
            return f"pairing has rank {r} at u={list(map(str, point))}, expected {total}"
    return None


def check_classification(c, free_degrees: Sequence[int]) -> Optional[str]:
    got = (c.free_rank, tuple(sorted(c.free_degrees)), len(c.divisors))
    want = (len(free_degrees), tuple(sorted(free_degrees)), 0)
    return check_equal(got, want, "(free rank, free degrees, torsion blocks)")


def check_matrix_values(
    matrix, expected, torus_rank: int, what: str
) -> Optional[str]:
    """``expected(point)`` gives the rows of exact values at a point."""
    rows = matrix_entries(matrix)
    for point in SAMPLE_POINTS[torus_rank]:
        want = expected(point)
        got = [[evaluate(e, point) for e in row] for row in rows]
        if got != want:
            return f"{what} at u={list(map(str, point))}: got {got}, expected {want}"
    return None


def check_gysin_identity(g, total: int, torus_rank: int) -> Optional[str]:
    if g.degree_shift != 0:
        return f"identity Gysin degree shift {g.degree_shift}, expected 0"
    ident = [[Fraction(int(i == j)) for j in range(total)] for i in range(total)]
    return check_matrix_values(g.matrix, lambda _p: ident, torus_rank, "identity Gysin matrix")


def check_polynomial_value(value, expected: str) -> Optional[str]:
    """Atiyah-Bott: the localization sum is a polynomial and prints as one."""
    text = str(value)
    if text != expected:
        return f"localization prints {text!r}, expected the polynomial {expected!r}"
    return None


def check_localization(items, expected: Dict[str, str]) -> Optional[str]:
    got = {item.class_name: str(item.localized) for item in items}
    if got != expected:
        return f"localized values {got}, expected {expected}"
    bad = [item.class_name for item in items if not item.ok]
    if bad:
        return f"localization disagrees with integration for {bad}"
    return None


def check_projection(report) -> Optional[str]:
    if not report.ok:
        return "projection formula residuals are not all zero"
    return None
