from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from equicart.algebra import Echelon, Polynomial, RationalFunction, rank_and_solve, rank_rational
from equicart.gcomplex import (
    EquivariantElement,
    Generator,
    InvariantModel,
    MissingProductError,
    ModelStructureError,
    ValidationIssue,
    cartan_differential,
    cohomology_generic,
    cohomology_hilbert,
    element,
    element_product,
    evaluate_at_point,
    named_cocycle_element,
    predict_free_hilbert,
    scale_contractions,
    underlying_cohomology_dims,
    validate_model,
)
from equicart import algebra, gysin
from equicart.duality import classify_rank1
from equicart.euler import LinearRepresentation
from equicart.gysin import MapIssue, identity_map, restrict_map, restrict_subtorus, validate_map
from equicart.models import (
    builtin_map,
    builtin_map_names,
    builtin_names,
    builtin,
    circle_free,
    circle_trivial,
    load_model,
    point,
    s2_rotation,
    tensor_product,
)

MODELFILES = Path(__file__).resolve().parent.parent / "modelfiles"

U = Polynomial.variable(1, 0)


def _all_builtins():
    names = ["point(1)", "point(2)", "circle_trivial(1)", "circle_free",
             "rema_adj", "s2_rotation", "obstruction_pair",
             "c_alpha(1)", "c_alpha(1,0;0,1)", "c_alpha(1;1)"]
    return [builtin(name) for name in names]


# -- structural validation --------------------------------------------------


@pytest.mark.parametrize("model", _all_builtins(), ids=lambda m: m.name)
def test_builtins_satisfy_all_axioms(model):
    report = validate_model(model)
    assert report.ok, str(report)


def test_shape_mismatch_rejected_before_axioms():
    with pytest.raises(ModelStructureError):
        InvariantModel(
            name="bad",
            torus_rank=1,
            generators=(Generator("one", 0),),
            d=((Fraction(0), Fraction(0)),),  # not 1x1
            contractions=(((Fraction(0),),),),
            top_degree=0,
        )


def test_anticommutation_violation_is_witnessed():
    # d(t) = dt and c(dt) = t: (d o c + c o d)(t) = t
    model = InvariantModel(
        name="bad_anticommute",
        torus_rank=1,
        generators=(Generator("t", 1), Generator("dt", 2)),
        d=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
        contractions=(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),),
        top_degree=2,
    )
    report = validate_model(model)
    assert not report.ok
    axioms = {issue.axiom for issue in report.issues}
    assert axioms == {"d o c + c o d = 0"}
    assert any("t" in issue.witness for issue in report.issues)


def test_contraction_degree_violation_is_witnessed():
    # c(one) = a raises degree instead of lowering it
    model = InvariantModel(
        name="bad_degree",
        torus_rank=1,
        generators=(Generator("one", 0), Generator("a", 1)),
        d=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        contractions=(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),),
        top_degree=1,
    )
    report = validate_model(model)
    assert any(issue.axiom == "c_1 has degree -1" for issue in report.issues)


def test_degree_violations_are_reported_in_a_fixed_order():
    # a model's degree issues come column by column (d(a) before d(c)), a
    # map's row by row: the printed reports depend on both orders
    zero, one = Fraction(0), Fraction(1)
    d = [[zero] * 4 for _ in range(4)]
    d[1][0] = d[3][0] = d[0][2] = one  # d(a) = b + e, d(c) = a
    model = InvariantModel(
        name="bad_degrees",
        torus_rank=1,
        generators=(Generator("a", 0), Generator("b", 0), Generator("c", 1),
                    Generator("e", 2)),
        d=tuple(map(tuple, d)),
        contractions=(tuple((zero,) * 4 for _ in range(4)),),
        top_degree=2,
    )
    assert [str(issue) for issue in validate_model(model).issues] == [
        "[d has degree +1] at a -> b: degrees 0 -> 0",
        "[d has degree +1] at a -> e: degrees 0 -> 2",
        "[d has degree +1] at c -> a: degrees 1 -> 0",
        "[d o d = 0] at c: 1*b + 1*e",
    ]
    circle = circle_trivial(1)
    swap = gysin.ModelMap(
        name="swap", source=circle, target=circle, pullback=((zero, one), (one, zero))
    )
    assert [str(issue) for issue in validate_map(swap).issues] == [
        "[pullback has degree 0] at a -> one: degrees 1 -> 0",
        "[pullback has degree 0] at one -> a: degrees 0 -> 1",
    ]


def test_a_witness_lists_its_rows_in_ascending_order():
    # d(x) = y + w, d(y) = v, d(w) = z: d(d(x)) reaches v (through y) before
    # z (through w), and the witness still lists z first
    zero, one = Fraction(0), Fraction(1)
    d = [[zero] * 5 for _ in range(5)]
    d[1][0] = d[2][0] = d[4][1] = d[3][2] = one
    model = InvariantModel(
        name="d_squared",
        torus_rank=1,
        generators=(Generator("x", 0), Generator("y", 1), Generator("w", 1),
                    Generator("z", 2), Generator("v", 2)),
        d=tuple(map(tuple, d)),
        contractions=(tuple((zero,) * 5 for _ in range(5)),),
        top_degree=2,
    )
    assert [str(issue) for issue in validate_model(model).issues] == [
        "[d o d = 0] at x: 1*z + 1*v",
    ]


def test_contraction_anticommutation_between_variables():
    # c1(x) = y, c2(y) = z: (c1 c2 + c2 c1)(x) = z
    zero3 = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
    c1 = ((Fraction(0),) * 3, (Fraction(0), Fraction(0), Fraction(1)),
          (Fraction(0),) * 3)
    c2 = ((Fraction(0), Fraction(1), Fraction(0)), (Fraction(0),) * 3,
          (Fraction(0),) * 3)
    model = InvariantModel(
        name="bad_cc",
        torus_rank=2,
        generators=(Generator("z", 0), Generator("y", 1), Generator("x", 2)),
        d=zero3,
        contractions=(c1, c2),
        top_degree=2,
    )
    report = validate_model(model)
    assert any(
        issue.axiom == "c_i o c_j + c_j o c_i = 0" for issue in report.issues
    )


def _with_point_data(model, index=0, **changes):
    """The model with fields of its index-th fixed point replaced."""
    points = list(model.fixed_points)
    points[index] = dataclasses.replace(points[index], **changes)
    return dataclasses.replace(model, fixed_points=tuple(points))


def _with(model, field, entries):
    """The model with entries added to (or replaced in) a mapping field."""
    return dataclasses.replace(model, **{field: {**getattr(model, field), **entries}})


# one corruption of a builtin per auxiliary axiom, and the single issue it raises
AUXILIARY_AXIOM_CASES = {
    "degrees bounded": (
        lambda: dataclasses.replace(
            point(1), top_degree=-1, compact=False, integration={}, fixed_points=()
        ),
        ("generator degrees bounded by top_degree", "one", "degree 0 > -1"),
    ),
    "product degree additivity": (
        lambda: _with(s2_rotation(), "product_table", {(0, 3): {6: Fraction(1)}}),
        ("product degree additivity", "one * dt", "lands on vol of degree 2, expected 1"),
    ),
    "graded commutativity": (
        lambda: _with(
            s2_rotation(), "product_table", {(3, 3): {6: Fraction(0), 7: Fraction(-1)}}
        ),
        ("graded commutativity", "dt * dt", "odd generator has nonzero square"),
    ),
    "integration covers top degree": (
        lambda: dataclasses.replace(s2_rotation(), integration={6: Fraction(2)}),
        ("integration covers top degree", "tvol", "no integration entry"),
    ),
    "integration only on top degree": (
        lambda: _with(s2_rotation(), "integration", {0: Fraction(1)}),
        ("integration only on top degree", "one", "degree 0 != 2"),
    ),
    "named cocycles homogeneous": (
        lambda: _with(
            s2_rotation(), "named_cocycles",
            {"mixed": {0: Polynomial.one(1), 6: Polynomial.one(1), 1: U}},
        ),
        ("named cocycles homogeneous", "mixed", "mixed total degree"),
    ),
    "fixed-point tangent rank": (
        lambda: _with_point_data(point(1), tangent=LinearRepresentation(2)),
        ("fixed-point tangent rank", "pt", "rank 2 != 1"),
    ),
    "fixed-point tangent dimension": (
        lambda: _with_point_data(point(1), tangent=LinearRepresentation(1, 2)),
        ("fixed-point tangent dimension", "pt", "dim 2 != 0"),
    ),
    "evaluations name generators": (
        lambda: _with_point_data(point(1), evaluations={"one": Fraction(1), "zz": Fraction(0)}),
        ("fixed-point evaluations name generators", "pt", "unknown generator 'zz'"),
    ),
    "evaluations only in degree 0": (
        lambda: _with_point_data(
            s2_rotation(),
            evaluations={**s2_rotation().fixed_points[0].evaluations, "vol": Fraction(1)},
        ),
        ("fixed-point evaluations only in degree 0", "north", "'vol' has positive degree"),
    ),
    "restrictions match evaluations": (
        lambda: _with_point_data(
            s2_rotation(), 1,
            restrictions={**s2_rotation().fixed_points[1].restrictions, "w": 2 * U},
        ),
        ("restrictions match cocycle evaluations", "w at south", "declared 2*u, evaluated -u"),
    ),
}


@pytest.mark.parametrize("label", sorted(AUXILIARY_AXIOM_CASES))
def test_each_auxiliary_axiom_reports_its_exact_issue(label):
    corrupt, expected = AUXILIARY_AXIOM_CASES[label]
    issues = validate_model(corrupt()).issues
    assert [(i.axiom, i.where, i.witness) for i in issues] == [expected]


# -- the Cartan differential ---------------------------------------------------


@st.composite
def s2_elements(draw):
    model = s2_rotation()
    terms = {}
    for idx in draw(st.lists(st.integers(0, 7), max_size=4, unique=True)):
        exp = draw(st.integers(0, 3))
        num = draw(st.integers(-5, 5))
        if num:
            terms[idx] = Polynomial(1, {(exp,): Fraction(num)})
    return model, EquivariantElement(model, terms)


@given(s2_elements())
def test_cartan_differential_squares_to_zero(pair):
    model, x = pair
    assert cartan_differential(model, cartan_differential(model, x)).is_zero


@given(s2_elements(), s2_elements())
def test_cartan_differential_additive(pair_a, pair_b):
    model, a = pair_a
    _, b = pair_b
    b = EquivariantElement(model, dict(b.terms))
    left = cartan_differential(model, a + b)
    right = cartan_differential(model, a) + cartan_differential(model, b)
    assert left == right


def test_cartan_differential_on_each_generator_matches_matrices():
    model = s2_rotation()
    d_t = cartan_differential(model, element(model, {"t": 1}))
    assert d_t == element(model, {"dt": 1})
    d_s = cartan_differential(model, element(model, {"s": 1}))
    # d(s) = tvol plus the contraction term u * q
    assert d_s == EquivariantElement(model, {7: Polynomial.one(1), 2: U})


# -- products -------------------------------------------------------------------


def test_unit_law_in_product_table():
    model = s2_rotation()
    unit = element(model, {"one": 1})
    for gen in model.generators:
        x = element(model, {gen.name: 1})
        assert element_product(model, unit, x) == x


def test_missing_product_is_a_named_error():
    model = s2_rotation()
    t = element(model, {"t": 1})
    q = element(model, {"q": 1})
    with pytest.raises(MissingProductError) as info:
        element_product(model, t, q)
    assert info.value.left == "t"
    assert info.value.right == "q"


def test_graded_swap_sign_for_odd_generators():
    model = s2_rotation()
    t = element(model, {"t": 1})
    vol = element(model, {"vol": 1})
    # t and vol commute (degree 0 times degree 2)
    assert element_product(model, t, vol) == element_product(model, vol, t)
    # two odd generators of a product model anticommute, and their product
    # is stored for one order only
    model = tensor_product(circle_free(), circle_free())
    x = element(model, {"a.one": 1})
    y = element(model, {"one.a": 1})
    assert element_product(model, x, y) == element(model, {"a.a": 1})
    assert element_product(model, y, x) == element(model, {"a.a": -1})


def test_signs_stay_exact_with_a_negative_degree():
    # (-1) ** k is a float for k < 0: no graded sign may carry one
    zero = tuple((Fraction(0),) * 3 for _ in range(3))
    model = InvariantModel(
        name="e.a",
        torus_rank=1,
        generators=(Generator("one", 0), Generator("e", -1), Generator("a", 1)),
        d=zero,
        contractions=(zero,),
        top_degree=1,
        product_table={(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}},
    )
    assert validate_model(model).ok
    e, a = element(model, {"e": 1}), element(model, {"a": 1})
    assert element_product(model, a, e) == element(model, {"one": -1})
    product = tensor_product(model, circle_free())
    entries = [v for row in product.product_table.values() for v in row.values()]
    entries += [v for op in product._operator_columns for col in op for v in col.values()]
    assert not any(isinstance(v, float) for v in entries)
    assert cohomology_hilbert(product, 6) == _brute_force_hilbert(product, 6)


def test_volume_square_is_exact():
    model = s2_rotation()
    w = named_cocycle_element(model, "w")
    w_squared = element_product(model, w, w)
    u_squared_unit = EquivariantElement(model, {0: U * U})
    primitive = EquivariantElement(model, {5: 2 * U})  # 2u tensor s
    assert w_squared - u_squared_unit == cartan_differential(model, primitive)


def test_evaluate_at_fixed_points():
    model = s2_rotation()
    w = named_cocycle_element(model, "w")
    north, south = model.fixed_points
    assert evaluate_at_point(w, north) == U
    assert evaluate_at_point(w, south) == -U


# -- cohomology ------------------------------------------------------------------


def _brute_force_hilbert(model, cutoff):
    """Independent enumeration: assemble the degree-k slices of the Cartan
    complex from scratch, from slice -1 (into slice 0) on, and take ranks
    over Q."""
    n = model.torus_rank
    low = min([0] + model.degrees())

    def monomials_of(j):
        if n == 0:
            return [()] if j == 0 else []
        out = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                out.append(prefix + (remaining,))
                return
            for v in range(remaining + 1):
                rec(prefix + (v,), remaining - v, slots - 1)

        rec((), j, n)
        return out

    def basis(k):
        out = []
        for j in range((k - low) // 2 + 1):
            for exps in monomials_of(j):
                for idx, gen in enumerate(model.generators):
                    if gen.degree == k - 2 * j:
                        out.append((exps, idx))
        return out

    def matrix(k):
        rows_basis = basis(k + 1)
        cols_basis = basis(k)
        index = {key: r for r, key in enumerate(rows_basis)}
        rows = [[Fraction(0)] * len(cols_basis) for _ in rows_basis]
        for c, (exps, g) in enumerate(cols_basis):
            for h in range(len(model.generators)):
                if model.d[h][g] != 0:
                    rows[index[(exps, h)]][c] += model.d[h][g]
            for i in range(n):
                bumped = tuple(
                    e + (1 if pos == i else 0) for pos, e in enumerate(exps)
                )
                for h in range(len(model.generators)):
                    if model.contractions[i][h][g] != 0:
                        rows[index[(bumped, h)]][c] += model.contractions[i][h][g]
        return rows, len(cols_basis)

    dims = []
    rows, dim = matrix(-1)
    previous_rank = rank_rational(rows) if rows and dim else 0
    for k in range(cutoff + 1):
        rows, dim = matrix(k)
        rank = rank_rational(rows) if rows and dim else 0
        dims.append(dim - rank - previous_rank)
        previous_rank = rank
    return dims


def _with_negative_degree():
    """s2_rotation plus a generator e of degree -1 with d(e) = one."""
    base = s2_rotation()
    size = len(base.generators) + 1

    def grown(matrix, extra=None):
        rows = [list(row) + [Fraction(0)] for row in matrix] + [[Fraction(0)] * size]
        if extra is not None:
            rows[extra][size - 1] = Fraction(1)
        return tuple(map(tuple, rows))

    return dataclasses.replace(
        base,
        name="s2_rotation+e",
        generators=base.generators + (Generator("e", -1),),
        d=grown(base.d, extra=0),
        contractions=tuple(map(grown, base.contractions)),
    )


def _negative_pair(torus_rank: int = 1, scale: int = 1, degree: int = -1) -> InvariantModel:
    """e -> f with |e| = degree < 0, |f| = degree + 1, d(e) = scale * f
    and every c_i zero: valid, and acyclic unless scale is 0."""
    zero = ((Fraction(0),) * 2,) * 2
    return InvariantModel(
        name=f"e{degree}->{scale}f",
        torus_rank=torus_rank,
        generators=(Generator("e", degree), Generator("f", degree + 1)),
        d=(zero[0], (Fraction(scale), Fraction(0))),
        contractions=(zero,) * torus_rank,
        top_degree=0,
    )


def test_the_enumeration_counts_slice_minus_one():
    # the oracle itself: d(e) = f kills f in degree 0, and u^j e in degree
    # 2j - 1 is a class exactly when d(e) = 0
    assert _brute_force_hilbert(_negative_pair(), 4) == [0] * 5
    assert _brute_force_hilbert(_negative_pair(scale=0), 4) == [1, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "model",
    [_negative_pair(), _negative_pair(degree=-2),
     tensor_product(s2_rotation(), _negative_pair()),
     tensor_product(_negative_pair(2), builtin("c_alpha(1,0;0,1)"))],
    ids=lambda m: m.name,
)
def test_an_acyclic_model_with_negative_degrees_has_zero_tables(model):
    assert validate_model(model).ok
    cutoff = model.default_cutoff()
    assert cohomology_hilbert(model, cutoff) == [0] * (cutoff + 1)
    assert underlying_cohomology_dims(model) == [0] * (model.top_degree + 1)
    free = predict_free_hilbert(model)
    assert free.matches and set(free.predicted) == {0}
    assert cohomology_generic(model).total_rank == 0


@pytest.mark.parametrize(
    "model, predicted",
    [(_negative_pair(scale=0), (1,) * 7),
     (_negative_pair(scale=0, degree=-2), (1,) * 7),
     (tensor_product(s2_rotation(), _negative_pair(scale=0)), (1, 2, 2, 2, 2, 2, 2))],
    ids=lambda m: getattr(m, "name", None),
)
def test_the_free_prediction_counts_classes_in_negative_degrees(model, predicted):
    # H_T is free on H(C), whose classes in negative degrees reach degrees
    # >= 0 through powers of u
    assert validate_model(model).ok
    free = predict_free_hilbert(model, 6)
    assert free.predicted == free.actual == predicted
    assert free.matches and free.flag is None
    assert tuple(_brute_force_hilbert(model, 6)) == predicted
    assert len(underlying_cohomology_dims(model)) == max(model.degrees() + [model.top_degree]) + 1


@pytest.mark.parametrize(
    "model",
    [point(1), circle_free(), circle_trivial(1), s2_rotation(), builtin("rema_adj"),
     builtin("obstruction_pair"), builtin("c_alpha(2)"),
     tensor_product(circle_trivial(1), s2_rotation()), _with_negative_degree(),
     tensor_product(s2_rotation(), _negative_pair(scale=0)),
     tensor_product(_negative_pair(scale=2), circle_free())],
    ids=lambda m: m.name,
)
def test_hilbert_table_matches_independent_enumeration(model):
    # every cutoff up to 8 and to three times the top degree: at rank 1 the
    # ranks past the top degree repeat, and some cutoffs equal a generator
    # degree, the top one included
    for cutoff in range(max(8, 3 * max(model.degrees())) + 1):
        assert cohomology_hilbert(model, cutoff) == _brute_force_hilbert(model, cutoff)


FACTORS_BY_RANK = {
    1: ["point(1)", "circle_trivial(1)", "circle_free", "s2_rotation",
        "obstruction_pair", "c_alpha(1)", "c_alpha(2)"],
    2: ["point(2)", "circle_trivial(2)", "rema_adj", "c_alpha(1,0;0,1)"],
}


@st.composite
def derived_models(draw):
    """A builtin or a product of two, possibly times a pair e -> f in
    degrees -1 and 0, restricted to a torus of rank 0, 1 or 2, contractions
    possibly rescaled; points and trivial circles bring inert generators,
    and so do zero restriction columns."""
    n = draw(st.sampled_from(sorted(FACTORS_BY_RANK)))
    names = draw(st.lists(st.sampled_from(FACTORS_BY_RANK[n]), min_size=1, max_size=2))
    model = builtin(names[0])
    for name in names[1:]:
        model = tensor_product(model, builtin(name))
    if draw(st.booleans()):
        model = tensor_product(model, _negative_pair(n, draw(st.integers(0, 2))))
    r = draw(st.integers(0, 2))
    if r != n or draw(st.booleans()):
        weights = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(n)]
        model = restrict_subtorus(model, weights)
    if draw(st.booleans()):
        num = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        model = scale_contractions(model, Fraction(num, draw(st.integers(1, 3))))
    return model, draw(st.integers(0, 7))


@seed(20261018)
@settings(max_examples=40)
@given(derived_models())
def test_hilbert_table_matches_enumeration_on_derived_models(case):
    model, cutoff = case
    assert cohomology_hilbert(model, cutoff) == _brute_force_hilbert(model, cutoff)


@seed(20261019)
@settings(max_examples=40)
@given(derived_models().filter(lambda case: case[0].torus_rank == 1))
def test_rank_one_classification_agrees_with_the_engines_on_derived_models(case):
    model, _ = case
    c = classify_rank1(model)
    cutoff = model.default_cutoff()
    assert c.implied_hilbert(cutoff) == cohomology_hilbert(model, cutoff)
    assert c.free_rank == cohomology_generic(model).total_rank


def _dense_product(a, b):
    """Reference composition: every term of every entry, zeros included."""
    cols = len(b[0]) if b else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def _dense_residuals(rows, left, right=None, sign=1):
    """(column, witness) for each nonzero column of left + sign * right,
    every entry of every column read."""
    out = []
    for g in range(len(left[0]) if left else 0):
        col = [
            left[h][g] + (sign * right[h][g] if right is not None else 0)
            for h in range(len(left))
        ]
        if any(col):
            out.append((g, " + ".join(f"{v}*{rows[h].name}" for h, v in enumerate(col) if v)))
    return out


def _dense_degree_scan(matrix, row_degrees, col_degrees, shift):
    """(row, col) of every nonzero entry of the wrong degree, row by row."""
    return [
        (h, g)
        for h, row in enumerate(matrix)
        for g, value in enumerate(row)
        if value != 0 and row_degrees[h] != col_degrees[g] + shift
    ]


def _dense_model_issues(model):
    """The degree and operator-identity issues of validate_model, in its
    order (degrees column by column, then d o d, each d o c_i + c_i o d and
    each c_i o c_j + c_j o c_i), from dense matrices."""
    gens, degrees = model.generators, model.degrees()
    issues = []
    operators = [("d", model.d, 1)] + [
        (f"c_{i + 1}", c, -1) for i, c in enumerate(model.contractions)
    ]
    for label, matrix, shift in operators:
        scan = _dense_degree_scan(matrix, degrees, degrees, shift)
        for h, g in sorted(scan, key=lambda entry: entry[::-1]):
            issues.append(ValidationIssue(
                f"{label} has degree {shift:+d}",
                f"{gens[g].name} -> {gens[h].name}",
                f"degrees {degrees[g]} -> {degrees[h]}",
            ))

    def identity(axiom, where, left, right=None):
        issues.extend(
            ValidationIssue(axiom, where + gens[g].name, witness)
            for g, witness in _dense_residuals(gens, left, right)
        )

    d, cs = model.d, model.contractions
    identity("d o d = 0", "", _dense_product(d, d))
    for i, c in enumerate(cs):
        identity("d o c + c o d = 0", f"c_{i + 1} on ",
                 _dense_product(d, c), _dense_product(c, d))
    for i in range(len(cs)):
        for j in range(i, len(cs)):
            identity("c_i o c_j + c_j o c_i = 0", f"(c_{i + 1}, c_{j + 1}) on ",
                     _dense_product(cs[i], cs[j]), _dense_product(cs[j], cs[i]))
    return issues


def _dense_map_issues(f):
    """Every issue of validate_map, in its order (degrees row by row, then
    the commutation with d and with each c_i), from dense matrices."""
    src, tgt = f.source, f.target
    issues = [
        MapIssue(
            "pullback has degree 0",
            f"{tgt.generators[t].name} -> {src.generators[s].name}",
            f"degrees {tgt.generators[t].degree} -> {src.generators[s].degree}",
        )
        for s, t in _dense_degree_scan(f.pullback, src.degrees(), tgt.degrees(), 0)
    ]
    labels = ["d"] + [f"c_{i + 1}" for i in range(src.torus_rank)]
    for label, t_op, s_op in zip(
        labels, (tgt.d,) + tgt.contractions, (src.d,) + src.contractions
    ):
        lhs, rhs = _dense_product(f.pullback, t_op), _dense_product(s_op, f.pullback)
        issues.extend(
            MapIssue(f"pullback commutes with {label}", tgt.generators[t].name, witness)
            for t, witness in _dense_residuals(src.generators, lhs, rhs, -1)
        )
    return issues


MATRIX_AXIOMS = re.compile(r"(d|c_\d+) has degree|d o d|d o c|c_i o c_j")


def _corrupted(draw, matrix):
    """The matrix with one to three entries overwritten by small rationals
    (zero included, which deletes a term)."""
    rows = [list(row) for row in matrix]
    if rows and rows[0]:
        for _ in range(draw(st.integers(1, 3))):
            h = draw(st.integers(0, len(rows) - 1))
            g = draw(st.integers(0, len(rows[0]) - 1))
            rows[h][g] = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2)))
    return tuple(tuple(row) for row in rows)


@st.composite
def corrupted_models_and_maps(draw):
    """A derived model (at most 24 generators, so that the dense reference
    stays cheap) with d or one c_i corrupted, and a map with a corrupted
    pullback: the model's identity, or a builtin map restricted to a torus
    of rank 0, 1 or 2."""
    model, _ = draw(derived_models().filter(lambda case: len(case[0].generators) <= 24))
    which = draw(st.sampled_from(["d", "c", "pullback"]))
    if which == "d":
        model = dataclasses.replace(model, d=_corrupted(draw, model.d))
    elif which == "c" and model.torus_rank:
        contractions = list(model.contractions)
        i = draw(st.integers(0, model.torus_rank - 1))
        contractions[i] = _corrupted(draw, contractions[i])
        model = dataclasses.replace(model, contractions=tuple(contractions))
    if draw(st.booleans()):
        f = identity_map(model)
    else:
        f = builtin_map(draw(st.sampled_from(builtin_map_names())))
        r = draw(st.integers(0, 2))
        f = restrict_map(f, [[draw(st.integers(-2, 2)) for _ in range(r)]])
    if which == "pullback":
        f = dataclasses.replace(f, pullback=_corrupted(draw, f.pullback))
    return model, f


@seed(20261018)
@settings(max_examples=40)
@given(corrupted_models_and_maps())
def test_validators_match_a_dense_reference_product(case):
    # the reference is built here from dense products and dense scans, so
    # it shares no code with the validators' sparse column products
    model, f = case
    issues = validate_model(model).issues
    reference = _dense_model_issues(model)
    assert issues[: len(reference)] == tuple(reference)
    assert not any(MATRIX_AXIOMS.match(issue.axiom) for issue in issues[len(reference):])
    assert validate_map(f).issues == tuple(_dense_map_issues(f))


def test_validators_accept_the_largest_rank_one_product(count_calls):
    # 512 generators: about 1 s each with dense products, tens of
    # milliseconds with sparse columns; neither validator forms a dense product
    calls = count_calls(algebra.matmul)
    s2 = s2_rotation()
    for model in (tensor_product(s2, s2), tensor_product(tensor_product(s2, s2), s2)):
        assert validate_model(model).ok
        assert validate_map(identity_map(model)).ok
    assert calls == []


# -- the sparse d_T table ---------------------------------------------------------


def _dense_parity_blocks(model):
    """Reference A_eo and A_oe, entry by entry from d and each c_i."""
    n = model.torus_rank
    even, odd = model.parity_indices()

    def entry(h, g):
        p = Polynomial.constant(n, model.d[h][g])
        for i, c in enumerate(model.contractions):
            p = p + Polynomial.variable(n, i) * c[h][g]
        return p

    a_eo = [[entry(h, g) for g in even] for h in odd]
    a_oe = [[entry(h, g) for g in odd] for h in even]
    return even, odd, a_eo, a_oe


def _misplaced(draw, model, kind):
    """The model with one d or c_i entry put where the operator's degree
    rules it out: between generators of one parity ("parity"), or of the
    other parity but the wrong degree ("degree"); None when there is no
    such place."""
    degrees = model.degrees()
    operators = [("d", 1)] + [(i, -1) for i in range(model.torus_rank)]
    which, shift = draw(st.sampled_from(operators))
    places = [
        (h, g)
        for h, dh in enumerate(degrees)
        for g, dg in enumerate(degrees)
        if (dh - dg) % 2 == (0 if kind == "parity" else 1) and dh - dg != shift
    ]
    if not places:
        return None
    h, g = draw(st.sampled_from(places))
    value = Fraction(draw(st.sampled_from([-2, -1, 1, 2])), draw(st.integers(1, 2)))
    matrix = model.d if which == "d" else model.contractions[which]
    rows = [list(row) for row in matrix]
    rows[h][g] = value
    matrix = tuple(map(tuple, rows))
    if which == "d":
        return dataclasses.replace(model, d=matrix)
    contractions = list(model.contractions)
    contractions[which] = matrix
    return dataclasses.replace(model, contractions=tuple(contractions))


@st.composite
def cartan_cases(draw):
    """(clean, model, kind, cutoff): a derived model of at most 24
    generators, and the same model (kind None) or a copy with one entry
    misplaced as ``_misplaced`` does (kind "parity" or "degree")."""
    clean, cutoff = draw(derived_models().filter(lambda case: len(case[0].generators) <= 24))
    kind = draw(st.sampled_from([None, "parity", "degree"]))
    model = _misplaced(draw, clean, kind) if kind else None
    if model is None:
        return clean, clean, None, cutoff
    return clean, model, kind, cutoff


def _apply(block, vector, n):
    return [
        sum((RationalFunction.coerce(a, n) * x for a, x in zip(row, vector)),
            RationalFunction.zero(n))
        for row in block
    ]


@seed(20261018)
@settings(max_examples=50)
@given(cartan_cases())
def test_the_sparse_table_agrees_with_a_dense_reference(case):
    clean, model, kind, cutoff = case
    n = model.torus_rank
    # the Hilbert engine drops every entry of the wrong degree
    assert cohomology_hilbert(model, cutoff) == _brute_force_hilbert(clean, cutoff)
    even, odd, a_eo, a_oe = _dense_parity_blocks(model)
    r_eo = rank_and_solve(a_eo, torus_rank=n, cols=len(even)).rank
    r_oe = rank_and_solve(a_oe, torus_rank=n, cols=len(odd)).rank
    ranks = (len(even) - r_eo - r_oe, len(odd) - r_oe - r_eo)
    try:
        generic = cohomology_generic(model)
    except AssertionError:
        # only a model whose d_T does not square to zero may fail
        assert kind == "degree"
        return
    assert (generic.even_rank, generic.odd_rank) == ranks
    if kind == "parity":  # the generic engine drops an entry within a parity
        clean_reps = cohomology_generic(clean).representatives
        assert [(nm, str(el)) for nm, el in generic.representatives] == [
            (nm, str(el)) for nm, el in clean_reps
        ]
    for indices, outgoing, incoming, rank in (
        (even, a_eo, a_oe, ranks[0]), (odd, a_oe, a_eo, ranks[1])
    ):
        reps = [
            [RationalFunction.coerce(el.coefficient(g), n) for g in indices]
            for el in generic.elements()
            if all(i in indices for i in el.terms)
        ]
        assert len(reps) == rank
        for vector in reps:
            assert all(value.is_zero for value in _apply(outgoing, vector, n))
        image = [list(column) for column in zip(*incoming)] if incoming else []
        image_rank = rank_and_solve(image, torus_rank=n, cols=len(indices)).rank
        both = rank_and_solve(image + reps, torus_rank=n, cols=len(indices)).rank
        assert both == image_rank + rank


def test_a_replaced_model_gets_its_own_table():
    model = s2_rotation()
    u = Polynomial.variable(1, 0)
    table = model._cartan_table  # s -> u*q + tvol, t -> dt, ...
    assert model._cartan_table is table
    assert table[5] == {2: u, 7: Polynomial.one(1)}
    zero = tuple((Fraction(0),) * 8 for _ in range(8))
    plain = dataclasses.replace(model, d=zero)
    assert plain._cartan_table[5] == {2: u}
    assert model._cartan_table is table and table[1] == {3: Polynomial.one(1)}
    assert cohomology_hilbert(plain, 6) == _brute_force_hilbert(plain, 6)
    assert cohomology_hilbert(plain, 6) != cohomology_hilbert(model, 6)


def _tuple_matrix(matrix) -> bool:
    return type(matrix) is tuple and all(type(row) is tuple for row in matrix)


def _constructed_models():
    s2 = s2_rotation()
    models = _all_builtins() + [
        tensor_product(s2, s2),
        restrict_subtorus(s2, [[1, 2]]),
        scale_contractions(s2, Fraction(2)),
    ]
    models += [load_model(path) for path in sorted(MODELFILES.glob("*.json"))]
    return models


@pytest.mark.parametrize("model", _constructed_models(), ids=lambda m: m.name)
def test_every_constructor_stores_tuple_matrices(model):
    # the d_T table is cached on the model: its matrices must not change
    assert _tuple_matrix(model.d)
    assert type(model.contractions) is tuple
    assert all(_tuple_matrix(c) for c in model.contractions)


def test_generic_cohomology_eliminates_block_by_block(count_calls):
    # an image per parity of each of the 9 blocks and a kernel per parity
    # part that carries a class (4 even classes, each in its own block);
    # no elimination is wider than the largest block's parity part
    model = tensor_product(s2_rotation(), s2_rotation())
    degrees = model.degrees()
    widest = max(
        sum(degrees[g] % 2 == p for g in block) for block in model._blocks for p in (0, 1)
    )
    calls = count_calls(Echelon)
    generic = cohomology_generic(model)
    assert (generic.even_rank, generic.odd_rank) == (4, 0)
    assert len(calls) == 2 * 9 + 4
    assert max(args[0] for args in calls) == widest == 8


def test_computed_representatives_are_numbered_by_free_column_across_blocks():
    # d(x) = d(y) = z, w inert: block (0, 2, 3) has its free column at y,
    # after block (1,)'s free column w
    one, zero = Fraction(1), Fraction(0)
    d = [[zero] * 4 for _ in range(4)]
    d[3][0] = d[3][2] = one
    model = InvariantModel(
        name="two_blocks",
        torus_rank=1,
        generators=tuple(Generator(nm, k) for nm, k in (("x", 0), ("w", 0), ("y", 0), ("z", 1))),
        d=tuple(map(tuple, d)),
        contractions=(((zero,) * 4,) * 4,),
        top_degree=1,
    )
    assert validate_model(model).ok and model._blocks == ((0, 2, 3), (1,))
    generic = cohomology_generic(model)
    assert [(nm, str(el)) for nm, el in generic.representatives] == [
        ("even_0", "w"), ("even_1", "-1*x + y"),
    ]


def test_the_blocks_of_s2_and_of_products():
    s2 = s2_rotation()
    assert s2._blocks == ((0,), (1, 3, 6), (2, 4, 5, 7))
    for a, b in ((s2, s2), (s2, builtin("c_alpha(1)")), (builtin("obstruction_pair"), s2)):
        width = len(b.generators)
        expected = sorted(
            tuple(sorted(i * width + j for i in x for j in y))
            for x in a._blocks
            for y in b._blocks
        )
        assert tensor_product(a, b)._blocks == tuple(expected)


def test_rank_one_hilbert_work_does_not_grow_with_the_cutoff(count_calls):
    model = tensor_product(s2_rotation(), s2_rotation())
    calls = count_calls(Echelon)
    short = cohomology_hilbert(model, 40)
    built = len(calls)
    long = cohomology_hilbert(model, 400)
    assert built and len(calls) == 2 * built
    assert long[:41] == short and long[40:] == [4 * (k % 2 == 0) for k in range(40, 401)]
    # a model without a single term builds no elimination at all
    assert cohomology_hilbert(point(3), 20)[20] == comb(12, 2)
    assert len(calls) == 2 * built


def test_a_named_cocycle_across_two_components_names_its_class():
    # u*one + w: "one" spans block (0,), w lies in (1, 3, 6)
    base = s2_rotation()
    one = Polynomial.one(1)
    named = {"one": {0: one}, "w2": {0: U, 6: one, 1: U}}
    model = dataclasses.replace(base, named_cocycles=named, fixed_points=())
    assert validate_model(model).ok
    assert base._blocks[:2] == ((0,), (1, 3, 6))
    assert model._blocks == ((0, 1, 3, 6), (2, 4, 5, 7))
    generic = cohomology_generic(model)
    assert generic.names() == ["one", "w2"]
    assert str(generic.elements()[1]) == str(named_cocycle_element(model, "w2"))


@pytest.mark.parametrize("operator", ["d", "c_1"])
@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=repr)
def test_an_entry_that_is_not_int_or_fraction_is_refused(operator, bad):
    base = s2_rotation()
    matrix = base.d if operator == "d" else base.contractions[0]
    rows = [list(row) for row in matrix]
    rows[2][5] = bad  # one wrong entry; the float 0.0 elsewhere would be read as zero
    rows = tuple(map(tuple, rows))
    changes = {"d": rows} if operator == "d" else {"contractions": (rows,)}
    model = dataclasses.replace(base, named_cocycles={}, fixed_points=(), **changes)
    message = f"{operator} entry at row 2, column 5 is {bad!r} ({type(bad).__name__})"
    for query in (validate_model, cohomology_generic, cohomology_hilbert):
        with pytest.raises(ModelStructureError, match=re.escape(message)):
            query(model)


def test_point_hilbert_table_is_the_polynomial_ring():
    # 30 variables: slice 64 alone has C(61, 32) > 10^17 monomials
    model = point(30)
    table = cohomology_hilbert(model)
    assert len(table) == model.default_cutoff() + 1
    assert table == [
        comb(29 + k // 2, k // 2) if k % 2 == 0 else 0 for k in range(len(table))
    ]


def test_hilbert_oracles():
    assert cohomology_hilbert(point(1), 6) == [1, 0, 1, 0, 1, 0, 1]
    assert cohomology_hilbert(circle_free(), 6) == [1, 0, 0, 0, 0, 0, 0]
    assert cohomology_hilbert(s2_rotation(), 8) == [1, 0, 2, 0, 2, 0, 2, 0, 2]
    assert cohomology_hilbert(circle_trivial(1), 5) == [1, 1, 1, 1, 1, 1]


def test_generic_ranks_and_representatives():
    generic = cohomology_generic(s2_rotation())
    assert (generic.even_rank, generic.odd_rank) == (2, 0)
    assert generic.names() == ["one", "w"]

    assert cohomology_generic(circle_free()).total_rank == 0
    trivial = cohomology_generic(circle_trivial(1))
    assert (trivial.even_rank, trivial.odd_rank) == (1, 1)


def test_named_cocycles_must_be_independent_to_be_used():
    base = s2_rotation()
    doubled = {
        "one": {0: Polynomial.one(1)},
        "also_one": {0: 2 * Polynomial.one(1)},
    }
    import dataclasses

    model = dataclasses.replace(base, named_cocycles=doubled, fixed_points=())
    generic = cohomology_generic(model)
    # the dependent named set is rejected; computed representatives appear
    assert (generic.even_rank, generic.odd_rank) == (2, 0)
    assert generic.names() != ["one", "also_one"]


def test_an_element_cannot_be_changed():
    rep = cohomology_generic(s2_rotation()).elements()[0]
    before = str(rep)
    with pytest.raises(TypeError):
        rep.terms[0] = Polynomial.one(1)
    for name in ("terms", "model", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, {})
    assert str(rep) == before


def test_underlying_dims():
    assert underlying_cohomology_dims(s2_rotation()) == [1, 0, 1]
    assert underlying_cohomology_dims(circle_free()) == [1, 1]
    assert underlying_cohomology_dims(point(2)) == [1]


def test_free_prediction_flags_collapse():
    stable = predict_free_hilbert(s2_rotation())
    assert stable.matches and stable.flag is None

    collapsed = predict_free_hilbert(circle_free())
    assert not collapsed.matches
    assert collapsed.flag is not None
    assert collapsed.predicted[2] == 1 and collapsed.actual[2] == 0


def test_contraction_scaling_preserves_cohomology():
    model = s2_rotation()
    scaled = scale_contractions(model, Fraction(3))
    assert validate_model(scaled).ok
    assert cohomology_hilbert(scaled, 8) == cohomology_hilbert(model, 8)
    a = cohomology_generic(scaled)
    b = cohomology_generic(model)
    assert (a.even_rank, a.odd_rank) == (b.even_rank, b.odd_rank)


@pytest.mark.parametrize("factor", [0.5, 2.0, True, "2", None])
def test_contraction_scaling_refuses_a_factor_that_is_not_int_or_fraction(factor):
    # a float factor once stored floats in the contractions: validate_model
    # passed and every cohomology engine raised an untyped TypeError
    with pytest.raises(TypeError, match="scale factor must be an int or a Fraction"):
        scale_contractions(s2_rotation(), factor)
    with pytest.raises(ValueError, match="nonzero"):
        scale_contractions(s2_rotation(), Fraction(0))


def test_element_lookup_by_name_and_index():
    model = s2_rotation()
    by_name = element(model, {"t": Fraction(1, 2)})
    by_index = element(model, {1: Fraction(1, 2)})
    assert by_name == by_index
    with pytest.raises(KeyError):
        element(model, {"missing": 1})


def test_total_degree():
    model = s2_rotation()
    w = named_cocycle_element(model, "w")
    assert w.total_degree() == 2
    mixed = element(model, {"one": 1, "t": 1}) + EquivariantElement(
        model, {6: Polynomial.one(1)}
    )
    assert mixed.total_degree() is None
