from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from equicart.algebra import (
    MatrixF,
    Polynomial,
    RationalFunction,
    UnsupportedRankError,
    generic_specialized_rank,
    invariant_factors,
    matmul,
    poly_divmod,
    poly_gcd,
    rank_and_solve,
    rank_rational,
    smith_normal_form,
    solve_rational,
)
from equicart.euler import LinearRepresentation

U = Polynomial.variable(1, 0)
ONE = Polynomial.one(1)


def _load_snf_stress():
    script = Path(__file__).resolve().parent.parent / "scripts" / "snf_stress.py"
    spec = importlib.util.spec_from_file_location("snf_stress", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


snf_stress = _load_snf_stress()


def fractions(max_num=9, max_den=5):
    return st.builds(
        Fraction, st.integers(-max_num, max_num), st.integers(1, max_den)
    )


@st.composite
def polynomials(draw, rank=1, max_exp=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(
            draw(st.integers(0, max_exp)) for _ in range(rank)
        )
        terms[exps] = draw(fractions())
    return Polynomial(rank, terms)


@st.composite
def nonzero_polynomials(draw, rank=1):
    p = draw(polynomials(rank=rank))
    if p.is_zero:
        p = p + Polynomial.one(rank)
    return p


# -- polynomial ring laws --------------------------------------------------


@given(polynomials(), polynomials(), polynomials())
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero(1) == a
    assert a * Polynomial.one(1) == a


@given(polynomials(rank=2), polynomials(rank=2))
def test_polynomial_rank2_laws(a, b):
    assert a * b == b * a
    assert (a + b) - b == a


@given(nonzero_polynomials(), nonzero_polynomials())
def test_rational_function_field_laws(p, q):
    x = RationalFunction(p, q)
    assert x - x == RationalFunction.zero(1)
    inverse = RationalFunction(q, p)
    assert x * inverse == RationalFunction.one(1)
    y = RationalFunction(q, ONE)
    assert (x + y) * q == x * q + y * q


@given(polynomials(), nonzero_polynomials())
def test_rational_function_coercion_round_trip(p, q):
    x = RationalFunction(p * q, q)
    assert x.is_polynomial
    assert x.as_polynomial() == p


# -- division and gcd --------------------------------------------------------


@given(polynomials(), nonzero_polynomials())
def test_poly_divmod_contract(a, b):
    quotient, remainder = poly_divmod(a, b)
    assert quotient * b + remainder == a
    assert remainder.is_zero or remainder.degree() < b.degree()


@given(nonzero_polynomials(), nonzero_polynomials())
def test_poly_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert poly_divmod(a, g)[1].is_zero
    assert poly_divmod(b, g)[1].is_zero
    # monic normalization
    assert g.terms[(g.degree(),)] == 1


def test_poly_divmod_rejects_rank_2():
    p = Polynomial.one(2)
    with pytest.raises(UnsupportedRankError):
        poly_divmod(p, p)


@pytest.mark.parametrize("build", [
    lambda: Polynomial(-1, {}),
    lambda: Polynomial.zero(-2),
    lambda: Polynomial.one(-1),
    lambda: Polynomial.constant(-1, 3),
    lambda: LinearRepresentation(-1, 0, ()),
])
def test_a_negative_torus_rank_is_refused(build):
    with pytest.raises(ValueError, match=r"^torus_rank must be >= 0$"):
        build()


# -- linear algebra over the rationals ----------------------------------------


def test_solve_rational_hand_oracle():
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    solution = solve_rational(rows, [Fraction(5), Fraction(6)])
    assert solution == [Fraction(-4), Fraction(9, 2)]


def test_solve_rational_inconsistent_returns_none():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_rational(rows, [Fraction(0), Fraction(1)]) is None


def test_rank_and_solve_kernel_members_annihilate():
    rows = [[Fraction(1), Fraction(2), Fraction(3)]]
    result = rank_and_solve(rows)
    assert result.rank == 1
    assert len(result.kernel) == 2
    for vector in result.kernel:
        assert sum(r * v for r, v in zip(rows[0], vector)) == 0


@given(
    st.lists(
        st.lists(fractions(max_num=4, max_den=3), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_rank_matches_specialized_rank_for_constants(rows):
    exact = rank_rational([list(r) for r in rows])
    as_polys = [
        [Polynomial.constant(1, x) for x in row] for row in rows
    ]
    if all(p.is_zero for row in as_polys for p in row):
        assert exact == 0
    else:
        assert generic_specialized_rank(as_polys, seed=11) == exact


# -- Smith normal form ----------------------------------------------------------


def test_snf_hand_oracle():
    matrix = [[U, U], [Polynomial.zero(1), U * U]]
    factors = invariant_factors(matrix)
    assert factors == [U, U * U]


def test_snf_of_unit_matrix():
    matrix = [[ONE, U], [Polynomial.zero(1), ONE]]
    factors = invariant_factors(matrix)
    assert factors == [ONE, ONE]


def _random_polynomial(rng: random.Random, max_degree: int) -> Polynomial:
    terms = {}
    for exp in range(max_degree + 1):
        if rng.random() < 0.4:
            num = rng.randint(-6, 6)
            if num:
                terms[(exp,)] = Fraction(num, rng.randint(1, 4))
    return Polynomial(1, terms)


def _check_snf_contract(matrix) -> None:
    rows = len(matrix)
    cols = len(matrix[0])
    u_mat, d_mat, v_mat = smith_normal_form(matrix)
    zero = Polynomial.zero(1)

    product = matmul(matmul(u_mat, matrix, zero), v_mat, zero)
    assert all(
        product[i][j] == d_mat[i][j] for i in range(rows) for j in range(cols)
    )
    assert snf_stress.has_polynomial_inverse(u_mat)
    assert snf_stress.has_polynomial_inverse(v_mat)
    diagonal = [d_mat[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diagonal, diagonal[1:]):
        if a.is_zero:
            assert b.is_zero
        elif not b.is_zero:
            assert poly_divmod(b, a)[1].is_zero
    assert all(
        d_mat[i][j].is_zero
        for i in range(rows)
        for j in range(cols)
        if i != j
    )


def test_snf_contract_on_seeded_random_matrices():
    rng = random.Random(421)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        matrix = [
            [_random_polynomial(rng, 3) for _ in range(cols)]
            for _ in range(rows)
        ]
        _check_snf_contract(matrix)
        if any(not e.is_zero for row in matrix for e in row):
            snf_rank = len(invariant_factors(matrix))
            assert generic_specialized_rank(matrix, seed=5) == snf_rank


@pytest.mark.parametrize(
    "square, unimodular",
    [
        ([[ONE, U], [Polynomial.zero(1), ONE]], True),
        ([[Polynomial.constant(1, 2)]], True),
        ([[U, ONE], [ONE, Polynomial.zero(1)]], True),
        ([[U]], False),  # inverse 1/u
        ([[Polynomial.zero(1)]], False),  # singular
        ([[ONE, U], [ONE, U]], False),  # singular
        ([[U, ONE], [Polynomial.zero(1), U]], False),  # determinant u^2
    ],
)
def test_polynomial_inverse_decides_unimodularity(square, unimodular):
    assert snf_stress.has_polynomial_inverse(square) is unimodular


def test_snf_stress_script_passes_on_seeded_samples():
    rng = random.Random(1729)
    for _ in range(20):
        snf_stress.check_sample(rng, rng.randint(1, 5), rng.randint(1, 5), 3)


def test_matrixf_round_trip_and_indexing():
    rows = [
        [RationalFunction.coerce(1, 1), RationalFunction.coerce(U, 1)],
    ]
    matrix = MatrixF.from_rows(rows)
    assert matrix.rows == 1 and matrix.cols == 2
    assert matrix[(0, 1)] == RationalFunction.coerce(U, 1)
    assert matrix.row_lists() == rows
