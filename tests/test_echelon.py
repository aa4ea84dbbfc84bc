"""The exact echelon core against sympy, an independent implementation.

On seeded, generated sparse matrices over Q and over Q(u) at torus ranks 1
to 3: the rank, the pivot columns and the rank growth row by row, and the
reduced-echelon particular solution and nullspace basis.  And the same rows
over Q given as ints and as Fractions, which the core takes as they are and
clears, against each other.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from equicart.algebra import Echelon, Polynomial, RationalFunction

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

U = sympy.symbols("u1 u2 u3")


def to_sympy(x):
    if isinstance(x, RationalFunction):
        return to_sympy(x.numerator) / to_sympy(x.denominator)
    if isinstance(x, Polynomial):
        return sympy.Add(
            *(
                to_sympy(c) * sympy.Mul(*(v**e for v, e in zip(U, exps)))
                for exps, c in x.terms.items()
            )
        )
    return sympy.Rational(x.numerator, x.denominator)


def oracle(rows, rhs, ncols, domain):
    """pivot columns, prefix ranks, free-variables-zero solutions (None when
    inconsistent) and the unit-free-variable nullspace basis, from sympy's
    reduced echelon form over ``domain``."""

    def matrix(rs, width):
        return DomainMatrix(
            [[domain.from_sympy(to_sympy(x)) for x in r] for r in rs], (len(rs), width), domain
        )

    def rref(rs, width):
        reduced, pivots = matrix(rs, width).rref()
        return reduced.to_Matrix(), pivots

    prefix_ranks = [matrix(rows[: i + 1], ncols).rank() for i in range(len(rows))]
    reduced, pivots = rref(rows, ncols)
    nullspace = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [sympy.Integer(0)] * ncols
        x[free] = sympy.Integer(1)
        for i, c in enumerate(pivots):
            x[c] = -reduced[i, free]
        nullspace.append(x)
    solutions = []
    for b in rhs:
        reduced_b, pivots_b = rref([r + [bi] for r, bi in zip(rows, b)], ncols + 1)
        if ncols in pivots_b:
            solutions.append(None)
            continue
        x = [sympy.Integer(0)] * ncols
        for i, c in enumerate(pivots_b):
            x[c] = reduced_b[i, ncols]
        solutions.append(x)
    return pivots, prefix_ranks, solutions, nullspace


def same(ours, theirs) -> bool:
    if theirs is None or ours is None:
        return ours is None and theirs is None
    return len(ours) == len(theirs) and all(
        sympy.cancel(to_sympy(a) - b) == 0 for a, b in zip(ours, theirs)
    )


@st.composite
def systems(draw, entries, max_size):
    """A sparse matrix (with a dependent row now and then) and right-hand
    sides, one of them in the column span."""
    nrows = draw(st.integers(1, max_size))
    ncols = draw(st.integers(1, max_size))
    rows = [
        [draw(entries) if draw(st.integers(0, 2)) == 0 else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows >= 2 and nrows < max_size and draw(st.booleans()):
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])
    x = [draw(entries) for _ in range(ncols)]
    in_span = [sum((a * b for a, b in zip(r, x)), 0 * x[0]) for r in rows]
    free = [draw(entries) if draw(st.booleans()) else 0 for _ in rows]
    return rows, [in_span, free]


def check_against_sympy(rows, rhs, torus_rank, domain):
    ncols = len(rows[0])
    echelon = Echelon(ncols, torus_rank, nrhs=len(rhs))
    grew = [
        echelon.add_row(row + [b[i] for b in rhs]) for i, row in enumerate(rows)
    ]
    pivots, prefix_ranks, solutions, nullspace = oracle(rows, rhs, ncols, domain)
    assert echelon.rank == len(pivots)
    assert set(echelon.pivots) == set(pivots)
    assert grew == [r > q for r, q in zip(prefix_ranks, [0] + prefix_ranks)]
    assert all(same(a, b) for a, b in zip(echelon.solve(), solutions))
    kernel = echelon.kernel()
    assert len(kernel) == len(nullspace)
    assert all(same(a, b) for a, b in zip(kernel, nullspace))
    return kernel


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@seed(20261017)
@settings(max_examples=40)
@given(systems(small_fractions, max_size=6))
def test_echelon_over_q_matches_sympy(system):
    rows, rhs = system
    kernel = check_against_sympy(rows, rhs, None, sympy.QQ)
    expected = sympy.Matrix([[to_sympy(x) for x in row] for row in rows]).nullspace()
    assert [list(v) for v in expected] == [[to_sympy(x) for x in v] for v in kernel]


@st.composite
def ring_elements(draw, torus_rank):
    """Sparse polynomials of degree <= 2, now and then divided by a linear
    form, so that rows need clearing into Q[u]."""
    terms = {
        tuple(draw(st.integers(0, 1)) for _ in range(torus_rank)): draw(small_fractions)
        for _ in range(draw(st.integers(1, 2)))
    }
    p = Polynomial(torus_rank, terms)
    if p.is_zero:
        p = Polynomial.one(torus_rank)
    if draw(st.integers(0, 3)) == 0:
        denominator = Polynomial.linear([draw(st.integers(1, 2)) for _ in range(torus_rank)])
        return RationalFunction(p, denominator + draw(st.integers(0, 1)))
    return p


@pytest.mark.parametrize("torus_rank", [1, 2, 3])
def test_echelon_over_polynomials_matches_sympy(torus_rank):
    domain = sympy.QQ.frac_field(*U[:torus_rank])

    @seed(torus_rank)
    @settings(max_examples=15)
    @given(systems(ring_elements(torus_rank), max_size=4))
    def check(system):
        rows, rhs = system
        check_against_sympy(rows, rhs, torus_rank, domain)

    check()


def _outcomes(rows, rhs):
    """rank, pivots, solutions and kernel of the rows (lists) with these
    right-hand sides."""
    echelon = Echelon(len(rows[0]), nrhs=len(rhs))
    for i, row in enumerate(rows):
        echelon.add_row(row + [b[i] for b in rhs])
    return echelon.rank, echelon.pivots, echelon.solve(), echelon.kernel()


nonzero_fractions = small_fractions.filter(bool)


@seed(20261020)
@settings(max_examples=60)
@given(
    systems(st.integers(-4, 4), max_size=6),
    st.lists(nonzero_fractions, min_size=7, max_size=7),
)
def test_integer_rows_eliminate_as_the_same_rows_of_fractions(system, scales):
    # an all-int row is taken as it is and a row with Fractions is cleared:
    # the same rational rows give the same answers either way, and so does
    # each row and its right-hand sides times a nonzero constant
    rows, rhs = system
    as_ints = _outcomes(rows, rhs)
    assert all(type(x) is int for row in rows for x in row)
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    mixed = [row if i % 2 else as_fractions[i] for i, row in enumerate(rows)]
    assert as_ints == _outcomes(as_fractions, rhs) == _outcomes(mixed, rhs)
    scaled = _outcomes(
        [[x * s for x in row] for row, s in zip(rows, scales)],
        [[x * s for x, s in zip(b, scales)] for b in rhs],
    )
    assert scaled == as_ints
