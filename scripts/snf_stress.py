#!/usr/bin/env python3
"""Stress the Smith normal form on seeded random matrices over Q[u].

Checks, for every sample: U*A*V == D exactly, U and V have inverses over
Q[u] (unimodular), the diagonal divisibility chain holds, and the SNF rank
agrees with the exact rank over Q(u).

Run from the repository root:  python3 scripts/snf_stress.py [--count N]
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from equicart.algebra import (  # noqa: E402
    Echelon,
    Polynomial,
    invariant_factors,
    matmul,
    poly_divmod,
    smith_normal_form,
)


def random_polynomial(rng: random.Random, max_degree: int) -> Polynomial:
    terms = {}
    for exp in range(max_degree + 1):
        if rng.random() < 0.4:
            num = rng.randint(-6, 6)
            den = rng.randint(1, 4)
            if num:
                terms[(exp,)] = Fraction(num, den)
    return Polynomial(1, terms)


def has_polynomial_inverse(square) -> bool:
    """True when the square matrix over Q[u] is unimodular: solved exactly
    over Q(u) against the identity, every column of its inverse exists and
    is polynomial (a rank-1 RationalFunction is in lowest terms)."""
    n = len(square)
    echelon = Echelon(n, torus_rank=1, nrhs=n)
    for i, row in enumerate(square):
        echelon.add_row({**dict(enumerate(row)), n + i: 1})
    return all(
        column is not None and all(x.is_polynomial for x in column)
        for column in echelon.solve()
    )


def check_sample(rng: random.Random, rows: int, cols: int, max_degree: int) -> None:
    matrix = [
        [random_polynomial(rng, max_degree) for _ in range(cols)]
        for _ in range(rows)
    ]
    u_mat, d_mat, v_mat = smith_normal_form(matrix)
    zero = Polynomial.zero(1)

    product = matmul(matmul(u_mat, matrix, zero), v_mat, zero)
    assert all(
        product[i][j] == d_mat[i][j] for i in range(rows) for j in range(cols)
    ), "U*A*V differs from D"

    for name, square in (("U", u_mat), ("V", v_mat)):
        assert has_polynomial_inverse(square), f"{name} is not unimodular"

    diag = [d_mat[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        if a.is_zero:
            assert b.is_zero, "zero before nonzero on the diagonal"
        elif not b.is_zero:
            _, remainder = poly_divmod(b, a)
            assert remainder.is_zero, f"divisibility fails: {a} does not divide {b}"

    off_diagonal = [
        d_mat[i][j]
        for i in range(rows)
        for j in range(cols)
        if i != j and not d_mat[i][j].is_zero
    ]
    assert not off_diagonal, "D is not diagonal"

    snf_rank = len(invariant_factors(matrix))
    echelon = Echelon(cols, torus_rank=1)
    for row in matrix:
        echelon.add_row(row)
    assert echelon.rank == snf_rank, f"rank mismatch: {echelon.rank} vs {snf_rank}"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--max-size", type=int, default=5)
    parser.add_argument("--max-degree", type=int, default=3)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    for k in range(args.count):
        rows = rng.randint(1, args.max_size)
        cols = rng.randint(1, args.max_size)
        check_sample(rng, rows, cols, args.max_degree)
        if (k + 1) % 50 == 0:
            print(f"  {k + 1}/{args.count} samples verified")
    print(f"all {args.count} samples passed (seed {args.seed})")


if __name__ == "__main__":
    main()
