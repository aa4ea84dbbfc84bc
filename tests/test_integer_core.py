"""The integer-coefficient core against sympy and a Fraction reference.

Polynomial stores integer coefficients over one positive denominator in a
canonical pair; these seeded tests check its arithmetic at torus ranks 0-3
with coefficient denominators 1-12 against sympy and against the same
arithmetic on {exponents: Fraction} dictionaries, that equal values build
equal pairs (== and hash), that ``terms`` and ``str()`` read as they did when
coefficients were stored as Fractions, and that the echelon core over Q
still returns Fraction solutions equal to sympy's reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from equicart.algebra import (
    Echelon,
    Polynomial,
    RationalFunction,
    poly_divmod,
    poly_exact_div,
    poly_gcd,
)

sympy = pytest.importorskip("sympy")

U = sympy.symbols("u1:4")
FAST = settings(max_examples=25, deadline=None)

coefficients = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


def term_dicts(rank: int, max_terms: int = 4, max_exp: int = 3):
    exps = st.tuples(*[st.integers(0, max_exp)] * rank)
    return st.dictionaries(exps, coefficients, max_size=max_terms).map(
        lambda d: {e: c for e, c in d.items() if c}
    )


# -- the Fraction reference ---------------------------------------------------


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_str(terms: dict, rank: int) -> str:
    """How a polynomial printed when its coefficients were Fractions."""
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, reverse=True):
        coeff = terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = "u" if rank == 1 else f"u{i + 1}"
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


def to_sympy(x):
    if isinstance(x, RationalFunction):
        return to_sympy(x.numerator) / to_sympy(x.denominator)
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(U, exps)))
        for exps, c in x.terms.items()
    ))


def poly1(x):
    return sympy.Poly(to_sympy(x), U[0], domain=sympy.QQ)


def assert_reads_as(p: Polynomial, terms: dict, rank: int) -> None:
    """p holds exactly these Fraction terms, in canonical form."""
    assert dict(p.terms) == terms
    assert all(type(c) is Fraction for c in p.terms.values())
    assert str(p) == ref_str(terms, rank)
    built = Polynomial(rank, terms)
    assert p == built and hash(p) == hash(built)


# -- polynomials ----------------------------------------------------------------


@seed(2024)
@FAST
@given(data=st.data())
def test_ring_operations_match_sympy_and_the_fraction_reference(data):
    rank = data.draw(st.integers(0, 3))
    a, b = data.draw(term_dicts(rank)), data.draw(term_dicts(rank))
    k = data.draw(coefficients)
    p, q = Polynomial(rank, a), Polynomial(rank, b)
    assert_reads_as(p, a, rank)
    assert_reads_as(p + q, ref_add(a, b), rank)
    assert_reads_as(p - q, ref_add(a, b, -1), rank)
    assert_reads_as(p * q, ref_mul(a, b), rank)
    assert_reads_as(p * k, ref_mul(a, {(0,) * rank: k}) if k else {}, rank)
    assert_reads_as(-p, ref_add({}, a, -1), rank)
    assert sympy.expand(to_sympy(p * q) - to_sympy(p) * to_sympy(q)) == 0
    assert sympy.expand(to_sympy(p - q) - (to_sympy(p) - to_sympy(q))) == 0
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)
    if a:
        content = sympy.Poly(to_sympy(p), *U, domain=sympy.QQ).primitive()[0]
        assert p.content() == Fraction(int(content.p), int(content.q))
    if b:
        assert poly_exact_div(p * q, q) == p


@seed(2025)
@FAST
@given(data=st.data())
def test_rank_one_division_and_gcd_match_sympy(data):
    a, b, c = (data.draw(term_dicts(1, max_exp=4)) for _ in range(3))
    p, q, r = Polynomial(1, a), Polynomial(1, b), Polynomial(1, c)
    if b:
        quotient, remainder = poly_divmod(p, q)
        want_q, want_r = sympy.div(poly1(p), poly1(q))
        assert (poly1(quotient), poly1(remainder)) == (want_q, want_r)
        assert quotient * q + remainder == p
    g = poly_gcd(p * r, q * r)
    want = sympy.gcd(poly1(p * r), poly1(q * r))  # monic over QQ
    assert poly1(g) == want
    assert_reads_as(g, dict(g.terms), 1)


@seed(2026)
@FAST
@given(data=st.data())
def test_rank_one_rational_functions_are_canonical(data):
    a, b, c = (data.draw(term_dicts(1, max_exp=3)) for _ in range(3))
    k = data.draw(coefficients.filter(bool))
    p, q, r = Polynomial(1, a), Polynomial(1, b), Polynomial(1, c)
    if not b or not c:
        return
    f = RationalFunction(p, q)
    num, den = f.numerator, f.denominator
    assert sympy.cancel(to_sympy(f) - to_sympy(p) / to_sympy(q)) == 0
    # reduced, with a content-free denominator of positive leading coefficient
    assert poly_gcd(num, den) == Polynomial.one(1) or num.is_zero
    assert den.content() == 1 and den.lex_leading()[1] > 0
    assert all(c.denominator == 1 for c in den.terms.values())
    if f.is_polynomial:
        assert den == Polynomial.one(1) and str(f) == str(num)
    else:
        assert str(f) == f"({ref_str(dict(num.terms), 1)}) / ({ref_str(dict(den.terms), 1)})"
    for same in (RationalFunction(p * r, q * r), RationalFunction(p * k, q * k),
                 -(-f), f * k / k, f + 0, f * 1):
        assert same == f and hash(same) == hash(f)
        assert (same.numerator, same.denominator) == (num, den)


# -- the echelon core over Q ----------------------------------------------------------


@seed(2027)
@FAST
@given(data=st.data())
def test_echelon_over_q_returns_fractions_equal_to_sympy_rref(data):
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entry = st.one_of(st.just(Fraction(0)), coefficients, st.integers(-5, 5))
    rows = [[data.draw(entry) for _ in range(ncols + 1)] for _ in range(nrows)]
    echelon = Echelon(ncols, nrhs=1)
    for row in rows:
        echelon.add_row(row)
    reduced, pivots = sympy.Matrix(rows).rref()
    assert echelon.rank == len([c for c in pivots if c < ncols])
    solution = echelon.solve()[0]
    if ncols in pivots:
        assert solution is None
    else:
        want = [Fraction(0)] * ncols
        for i, col in enumerate(pivots):
            want[col] = Fraction(int(reduced[i, ncols].p), int(reduced[i, ncols].q))
        assert all(type(x) is Fraction for x in solution)
        assert list(solution) == want
