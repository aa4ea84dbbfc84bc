"""Smith normal form over Q[u] against sympy, an independent implementation.

A seeded sample of small matrices whose entries are homogeneous (zero or
c * u^k): the invariant factors of ``smith_normal_form``, made monic, equal
sympy's over QQ[u], made monic, factor by factor.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from equicart.algebra import Polynomial, smith_normal_form

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

u = sympy.symbols("u")


def _homogeneous_matrix(rng: random.Random):
    """At most 4 x 4; each entry zero with probability 0.3, else c * u^k with
    k <= 3 and c = p / q, p in [-6, 6] nonzero, q in [1, 4]."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    matrix = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.3:
                row.append(Polynomial.zero(1))
            else:
                coeff = Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 4))
                row.append(Polynomial.monomial(1, (rng.randint(0, 3),), coeff))
        matrix.append(row)
    return matrix


def _to_sympy(p: Polynomial):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * u ** e for (e,), c in p.terms.items())
    )


def _monic(expr) -> str:
    return str(sympy.Poly(expr, u, domain="QQ").monic().as_expr())


_rng = random.Random(20261018)
SAMPLE = [_homogeneous_matrix(_rng) for _ in range(30)]


@pytest.mark.parametrize("index", range(len(SAMPLE)))
def test_invariant_factors_match_sympy(index):
    matrix = SAMPLE[index]
    _, d, _ = smith_normal_form(matrix)
    ours = [
        _monic(_to_sympy(d[i][i]))
        for i in range(min(len(d), len(d[0])))
        if not d[i][i].is_zero
    ]
    theirs = sympy_snf(
        sympy.Matrix([[_to_sympy(x) for x in row] for row in matrix]),
        domain=sympy.QQ[u],
    )
    diagonal = [theirs[i, i] for i in range(min(theirs.shape))]
    assert ours == [_monic(x) for x in diagonal if x != 0]
