from __future__ import annotations

import dataclasses
import random
import re
import time
from fractions import Fraction
from math import comb, prod
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from equicart.algebra import Echelon, Polynomial, RationalFunction
from equicart.gcomplex import (
    EquivariantElement,
    Generator,
    InvariantModel,
    MissingProductError,
    ModelStructureError,
    ValidationIssue,
    _cartan_column,
    apply_rational_matrix,
    cartan_differential,
    cohomology_generic,
    cohomology_hilbert,
    element,
    element_product,
    evaluate_at_point,
    graded_product,
    named_cocycle_element,
    predict_free_hilbert,
    scale_contractions,
    underlying_cohomology_dims,
    validate_model,
)
from equicart import algebra, gcomplex, gysin
from equicart.duality import (
    NonCompactModelError,
    classify_rank1,
    duality_check,
    integrate_product,
    is_torsion,
    pairing_matrix,
)
from equicart.euler import LinearRepresentation
from equicart.gysin import MapIssue, identity_map, restrict_map, restrict_subtorus, validate_map
from equicart.models import (
    builtin_map,
    builtin_maps,
    builtin_map_names,
    builtin_names,
    builtin,
    c_alpha,
    circle_free,
    circle_trivial,
    load_model,
    load_model_file,
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


def _dense(columns, height):
    """The rows of a height-row matrix stored by its columns: the dense
    form that the reference computations below read, built here rather
    than by the library."""
    rows = [[Fraction(0)] * len(columns) for _ in range(height)]
    for g, column in enumerate(columns):
        for h, value in column.items():
            rows[h][g] = value
    return rows


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
            d=({}, {}),  # two columns for one generator
            contractions=(({},),),
            top_degree=0,
        )


def test_anticommutation_violation_is_witnessed():
    # d(t) = dt and c(dt) = t: (d o c + c o d)(t) = t
    model = InvariantModel(
        name="bad_anticommute",
        torus_rank=1,
        generators=(Generator("t", 1), Generator("dt", 2)),
        d=({1: Fraction(1)}, {}),
        contractions=(({}, {0: Fraction(1)}),),
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
        d=({}, {}),
        contractions=(({1: Fraction(1)}, {}),),
        top_degree=1,
    )
    report = validate_model(model)
    assert any(issue.axiom == "c_1 has degree -1" for issue in report.issues)


def test_degree_violations_are_reported_in_a_fixed_order():
    # a model's degree issues come column by column (d(a) before d(c)), a
    # map's row by row: the printed reports depend on both orders
    one = Fraction(1)
    model = InvariantModel(
        name="bad_degrees",
        torus_rank=1,
        generators=(Generator("a", 0), Generator("b", 0), Generator("c", 1),
                    Generator("e", 2)),
        d=({1: one, 3: one}, {}, {0: one}, {}),  # d(a) = b + e, d(c) = a
        contractions=(({},) * 4,),
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
        name="swap", source=circle, target=circle, pullback=({1: one}, {0: one})
    )
    assert [str(issue) for issue in validate_map(swap).issues] == [
        "[pullback has degree 0] at a -> one: degrees 1 -> 0",
        "[pullback has degree 0] at one -> a: degrees 0 -> 1",
    ]


def test_a_witness_lists_its_rows_in_ascending_order():
    # d(x) = y + w, d(y) = v, d(w) = z: d(d(x)) reaches v (through y) before
    # z (through w), and the witness still lists z first
    one = Fraction(1)
    model = InvariantModel(
        name="d_squared",
        torus_rank=1,
        generators=(Generator("x", 0), Generator("y", 1), Generator("w", 1),
                    Generator("z", 2), Generator("v", 2)),
        d=({1: one, 2: one}, {4: one}, {3: one}, {}, {}),
        contractions=(({},) * 5,),
        top_degree=2,
    )
    assert [str(issue) for issue in validate_model(model).issues] == [
        "[d o d = 0] at x: 1*z + 1*v",
    ]


def test_contraction_anticommutation_between_variables():
    # c1(x) = y, c2(y) = z: (c1 c2 + c2 c1)(x) = z
    c1 = ({}, {}, {1: Fraction(1)})
    c2 = ({}, {0: Fraction(1)}, {})
    model = InvariantModel(
        name="bad_cc",
        torus_rank=2,
        generators=(Generator("z", 0), Generator("y", 1), Generator("x", 2)),
        d=({},) * 3,
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
    "named cocycles closed": (
        # vol alone is d-closed but not d_T-closed: d_T(vol) = u * c(vol)
        lambda: _with(s2_rotation(), "named_cocycles", {"vol": {6: Polynomial.one(1)}}),
        ("named cocycles closed", "vol", "-u*dt"),
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
    model = InvariantModel(
        name="e.a",
        torus_rank=1,
        generators=(Generator("one", 0), Generator("e", -1), Generator("a", 1)),
        d=({},) * 3,
        contractions=(({},) * 3,),
        top_degree=1,
        product_table={(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}},
    )
    assert validate_model(model).ok
    e, a = element(model, {"e": 1}), element(model, {"a": 1})
    assert element_product(model, a, e) == element(model, {"one": -1})
    product = tensor_product(model, circle_free())
    entries = [v for row in product.product_table.values() for v in row.values()]
    entries += [v for op in (product.d, *product.contractions) for col in op for v in col.values()]
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


def _rank(rows, ncols, torus_rank=None) -> int:
    """The rank of rows of width ncols over Q, or over Q(u) at a torus rank."""
    echelon = Echelon(ncols, torus_rank)
    for row in rows:
        assert len(row) == ncols
        echelon.add_row(row)
    return echelon.rank


def _brute_force_hilbert(model, cutoff):
    """Independent enumeration: assemble the degree-k slices of the Cartan
    complex from scratch, from slice -1 (into slice 0) on, and take ranks
    over Q."""
    n, size = model.torus_rank, len(model.generators)
    low = min([0] + model.degrees())
    d = _dense(model.d, size)
    contractions = [_dense(c, size) for c in model.contractions]

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
            for h in range(size):
                if d[h][g] != 0:
                    rows[index[(exps, h)]][c] += d[h][g]
            for i in range(n):
                bumped = tuple(
                    e + (1 if pos == i else 0) for pos, e in enumerate(exps)
                )
                for h in range(size):
                    if contractions[i][h][g] != 0:
                        rows[index[(bumped, h)]][c] += contractions[i][h][g]
        return rows, len(cols_basis)

    dims = []
    rows, dim = matrix(-1)
    previous_rank = _rank(rows, dim)
    for k in range(cutoff + 1):
        rows, dim = matrix(k)
        rank = _rank(rows, dim)
        dims.append(dim - rank - previous_rank)
        previous_rank = rank
    return dims


def _with_negative_degree():
    """s2_rotation plus a generator e of degree -1 with d(e) = one."""
    base = s2_rotation()

    def grown(columns, extra=None):
        return tuple(columns) + ({} if extra is None else {extra: Fraction(1)},)

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
    return InvariantModel(
        name=f"e{degree}->{scale}f",
        torus_rank=torus_rank,
        generators=(Generator("e", degree), Generator("f", degree + 1)),
        d=({1: Fraction(scale)}, {}),
        contractions=(({}, {}),) * torus_rank,
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


def _rank_two_with_degree_minus_two():
    """Rank 2: e, f, g of degrees -2, -1, 0 with d(e) = f and c_1(g) = f, so
    g - u_1 e is the class in degree 0.  A generator of degree -2 or less
    sends the rank >= 2 engine through every slice to the cutoff."""
    return InvariantModel(
        name="e-2,f-1,g0",
        torus_rank=2,
        generators=(Generator("e", -2), Generator("f", -1), Generator("g", 0)),
        d=({1: Fraction(1)}, {}, {}),
        contractions=(({}, {}, {1: Fraction(1)}), ({}, {}, {})),
        top_degree=0,
    )


@pytest.mark.parametrize(
    "model",
    [point(1), circle_free(), circle_trivial(1), s2_rotation(), builtin("rema_adj"),
     builtin("obstruction_pair"), builtin("c_alpha(2)"),
     tensor_product(circle_trivial(1), s2_rotation()), _with_negative_degree(),
     tensor_product(s2_rotation(), _negative_pair(scale=0)),
     tensor_product(_negative_pair(scale=2), circle_free()), builtin("c_alpha(1,0;0,1)"),
     _rank_two_with_degree_minus_two(),
     tensor_product(_rank_two_with_degree_minus_two(), restrict_subtorus(s2_rotation(), [[1, 2]]))],
    ids=lambda m: m.name,
)
def test_hilbert_table_matches_independent_enumeration(model):
    # every cutoff up to 8 and to three times the top degree: past the top
    # degree the ranks repeat at rank 1 and the table is the free one at rank
    # 2 when it is free up to there, and some cutoffs equal a generator
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
    possibly rescaled, and d possibly rescaled by a nonzero p/q (a valid
    model with d non-integral; named cocycles and fixed points dropped);
    points and trivial circles bring inert generators, and so do zero
    restriction columns."""
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
    if draw(st.booleans()):
        factor = Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 3)))
        model = dataclasses.replace(
            model,
            name=f"{model.name}(d*{factor})",
            d=tuple({h: v * factor for h, v in column.items()} for column in model.d),
            named_cocycles={},
            fixed_points=(),
        )
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


# the factors of FACTORS_BY_RANK, those with the most structure first
BASIS_FACTORS = {
    1: ["s2_rotation", "c_alpha(2)", "obstruction_pair", "circle_free", "c_alpha(1)",
        "circle_trivial(1)", "point(1)"],
    2: ["c_alpha(1,0;0,1)", "rema_adj", "circle_trivial(2)", "point(2)"],
}
FACTOR_MODELS = {name: builtin(name) for names in BASIS_FACTORS.values() for name in names}


def _unitriangular_inverse(p):
    """The inverse of an upper unitriangular matrix, by back substitution:
    row h of P X = I reads X[h] = e_h - sum over k > h of P[h][k] X[k]."""
    size = len(p)
    inverse = [[Fraction(int(h == g)) for g in range(size)] for h in range(size)]
    for h in reversed(range(size)):
        for k in range(h + 1, size):
            if p[h][k]:
                inverse[h] = [x - p[h][k] * y for x, y in zip(inverse[h], inverse[k])]
    return inverse


def _column_product(a, b):
    """A B for matrices given by their columns {row: entry}: column g of A B
    sums B[k][g] times column k of A."""
    product = []
    for column in b:
        out = {}
        for k, x in column.items():
            for h, y in a[k].items():
                out[h] = out.get(h, 0) + y * x
        product.append(out)
    return tuple(product)


def _conjugated_products(model, p, inverse):
    """The product table in the basis of P's columns: the pair (a, b), a <=
    b, is stored when every pair (h, k) with P[h][a] P[k][b] != 0 is, and
    its row is P^-1 of the sum of P[h][a] P[k][b] h k."""
    table = {}
    for b in range(len(p)):
        for a in range(b + 1):
            terms = [
                (x * y, graded_product(model, h, k))
                for h, x in p[a].items()
                for k, y in p[b].items()
            ]
            if any(found is None for _, found in terms):
                continue
            total = {}
            for scale, (row, sign) in terms:
                for i, value in row.items():
                    total[i] = total.get(i, 0) + sign * scale * value
            row = _column_product(inverse, [total])[0]
            table[(a, b)] = {i: value for i, value in row.items() if value}
    return table


@st.composite
def conjugated_models(draw):
    """(model, conjugate, P): a product of two builtins (a point factor leaves
    the other one as it is), of torus rank 1 or 2 and at most 24
    generators, restricted to a torus of rank 1 or 2 along a random integer
    matrix when the draw says so; and its conjugate by a drawn P
    (``_drawn_conjugate``)."""
    m = draw(st.sampled_from([1, 2]))
    names = draw(
        st.lists(st.sampled_from(BASIS_FACTORS[m]), min_size=2, max_size=2).filter(
            lambda names: prod(len(FACTOR_MODELS[name].generators) for name in names) <= 24
        )
    )
    model = tensor_product(*(FACTOR_MODELS[name] for name in names))
    n = draw(st.sampled_from([1, 2]))
    if n != m or draw(st.booleans()):
        model = restrict_subtorus(
            model, [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(m)]
        )
    conjugate, p = _drawn_conjugate(draw, model)
    return model, conjugate, p


MIX, MIXED_ENTRY = st.booleans(), st.integers(-2, 2)


def _drawn_conjugate(draw, model):
    """(conjugate, P): the model in the basis of the columns of an integer
    unitriangular P that mixes only generators of equal degree (entries
    -2..2, density 1/2): d and every c_i become P^-1 M P, each named
    cocycle P^-1 x, the integration functional i'(g) = sum over h of
    P[h][g] i(h) on every top-degree generator, and the product table as in
    ``_conjugated_products``; fixed points are dropped."""
    size, degrees = len(model.generators), model.degrees()
    p = [[Fraction(int(h == g)) for g in range(size)] for h in range(size)]
    for g in range(size):
        for h in range(g):
            if degrees[h] == degrees[g] and draw(MIX):
                p[h][g] = Fraction(draw(MIXED_ENTRY))
    inverse = _unitriangular_inverse(p)
    p, inverse = (
        tuple({h: row[g] for h, row in enumerate(matrix) if row[g]} for g in range(size))
        for matrix in (p, inverse)
    )

    def conjugated(columns):
        return _column_product(inverse, _column_product(columns, p))

    cocycles = {
        name: {g: c for g, c in _column_product(inverse, [raw])[0].items() if not c.is_zero}
        for name, raw in model.named_cocycles.items()
    }
    top = [g for g in range(size) if degrees[g] == model.top_degree]
    integration = {
        g: sum(x * model.integration[h] for h, x in p[g].items()) for g in top
    } if model.compact else {}
    conjugate = dataclasses.replace(
        model,
        name=f"{model.name}^P",
        d=conjugated(model.d),
        contractions=tuple(map(conjugated, model.contractions)),
        integration=integration,
        product_table=_conjugated_products(model, p, inverse),
        named_cocycles=cocycles,
        fixed_points=(),
    )
    return conjugate, p


def _duality_report(model):
    """(pairing rank, generic Betti total, perfect), or the refusal's type."""
    try:
        report = duality_check(model)
    except (NonCompactModelError, MissingProductError) as exc:
        return type(exc)
    return report.pairing_rank, report.generic_betti_total, report.perfect


def test_answers_do_not_depend_on_the_basis():
    # the blocks are components of the nonzero pattern, which belongs to the
    # basis; every answer must belong to the model
    mixed, merged, ranks, paired = [], [], set(), []

    @seed(20261020)
    @settings(max_examples=200)
    @given(conjugated_models())
    def check(case):
        model, conjugate, p = case
        assert validate_model(conjugate).ok
        generic = [cohomology_generic(m) for m in (model, conjugate)]
        assert (generic[0].even_rank, generic[0].odd_rank) == (
            generic[1].even_rank, generic[1].odd_rank
        )
        # predicted and actual Hilbert tables to degree 12
        assert predict_free_hilbert(model, 12) == predict_free_hilbert(conjugate, 12)
        assert underlying_cohomology_dims(model) == underlying_cohomology_dims(conjugate)
        if model.torus_rank == 1:
            assert classify_rank1(model) == classify_rank1(conjugate)
        assert is_torsion(model) == is_torsion(conjugate)
        reports = [_duality_report(m) for m in (model, conjugate)]
        # a partial table keeps fewer pairs in a basis that mixes
        # generators, so only the conjugate may miss a product
        if reports[1] is not MissingProductError:
            assert reports[0] == reports[1]
        paired.append((model.torus_rank, isinstance(reports[1], tuple)))
        if paired[-1][1]:
            # the conjugate's pairing is the original integral of the
            # products of its classes written back in the original basis
            pairing = pairing_matrix(conjugate)
            moved = [apply_rational_matrix(model, p, x) for x in pairing.classes]
            for i, a in enumerate(moved):
                for j, b in enumerate(moved):
                    value = integrate_product(model, a, b)
                    assert pairing.entry(i, j) == RationalFunction.coerce(value, model.torus_rank)
        mixed.append((conjugate.d, conjugate.contractions) != (model.d, model.contractions))
        merged.append(len(conjugate._blocks) < len(model._blocks))
        ranks.add(model.torus_rank)

    check()
    # most draws change the operators, many of them join blocks of the
    # original basis, both ranks are drawn, and most rank-1 draws and many
    # rank-2 draws compare two duality reports
    assert len(mixed) == 200 and sum(mixed) >= 80 and sum(merged) >= 30
    assert ranks == {1, 2} and sum(ok for n, ok in paired if n == 1) >= 60
    assert sum(ok for n, ok in paired if n == 2) >= 50


def _seeded_draw(seed_value):
    """A ``draw`` for ``_drawn_conjugate`` from ``random.Random``: it asks
    only for ``MIX`` (a boolean) and ``MIXED_ENTRY`` (an int in -2..2)."""
    rng = random.Random(seed_value)
    return lambda strategy: rng.random() < 0.5 if strategy is MIX else rng.randint(-2, 2)


@pytest.mark.parametrize("seed_value", [1, 2, 3])
def test_rank_two_generic_cohomology_finishes_in_a_mixed_basis(seed_value):
    # back substitution over Z[u] keeps the kernel entries small, where
    # adding them in Q(u) multiplied unreduced denominators at every step
    model = tensor_product(
        restrict_subtorus(s2_rotation(), [[1, 2]]), restrict_subtorus(s2_rotation(), [[1, 3]])
    )
    conjugate, _ = _drawn_conjugate(_seeded_draw(seed_value), model)
    assert (conjugate.d, conjugate.contractions) != (model.d, model.contractions)
    start = time.perf_counter()
    generic = cohomology_generic(conjugate)
    assert time.perf_counter() - start <= 1.0
    assert (generic.even_rank, generic.odd_rank) == (4, 0)


def test_rank_two_representatives_of_a_product_are_small_polynomials():
    model = tensor_product(builtin("c_alpha(1,1;1,2)"), restrict_subtorus(s2_rotation(), [[1, 2]]))
    for _, element in cohomology_generic(model).representatives:
        for coefficient in element.terms.values():
            value = RationalFunction.coerce(coefficient, 2)
            assert value.is_polynomial and value.numerator.degree() <= 3


# the factors of the rank-2 and rank-3 law, before their restriction
HIGHER_RANK_FACTORS = ["rema_adj", "c_alpha(1,0;0,1)", "circle_free", "s2_rotation",
                       "circle_trivial(1)", "point(1)"]


@st.composite
def higher_rank_cases(draw):
    """(model, cutoff) at torus rank 2 or 3, the cutoff 1 to 4 past the top
    generator degree.  The model is one or two builtins, each restricted
    along a random integer matrix, at most 18 generators (restricted
    circle_free, rema_adj and c_alpha have tables below the free one unless
    the weights cancel them), and when at most 9 possibly times a pair
    e -> f in degrees 0 and 1, acyclic unless d(e) = 0; and, when the draw
    says so, its conjugate from the change-of-basis law
    (``_drawn_conjugate``)."""
    n = draw(st.sampled_from([2, 3]))
    names = draw(
        st.lists(st.sampled_from(HIGHER_RANK_FACTORS), min_size=1, max_size=2).filter(
            lambda names: prod(len(FACTOR_MODELS[nm].generators) for nm in names) <= 18
        )
    )
    model = None
    for name in names:
        factor = FACTOR_MODELS[name]
        weights = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(factor.torus_rank)]
        factor = restrict_subtorus(factor, weights)
        model = factor if model is None else tensor_product(model, factor)
    if len(model.generators) <= 9 and draw(st.booleans()):
        model = tensor_product(model, _negative_pair(n, draw(st.integers(0, 2)), 0))
    if draw(st.integers(0, 3)) == 0:
        model = _drawn_conjugate(draw, model)[0]
    return model, max(model.degrees()) + draw(st.integers(1, 4))


def test_higher_rank_tables_past_the_top_degree_match_the_enumeration():
    # a table read from its slices up to the top degree T must equal the
    # enumeration past T, free or not
    free, ranks, conjugates = [], set(), []

    @seed(20261024)
    @settings(max_examples=40)
    @given(higher_rank_cases())
    def check(case):
        model, cutoff = case
        table = cohomology_hilbert(model, cutoff)
        assert table == _brute_force_hilbert(model, cutoff)
        free.append(predict_free_hilbert(model, cutoff).matches)
        ranks.add(model.torus_rank)
        conjugates.append(model.name.endswith("^P"))

    check()
    # both ranks, free and non-free tables, and conjugates are drawn
    assert ranks == {2, 3} and 8 <= sum(free) <= len(free) - 8 and any(conjugates)


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
    d = _dense(model.d, len(gens))
    cs = [_dense(c, len(gens)) for c in model.contractions]
    operators = [("d", d, 1)] + [(f"c_{i + 1}", c, -1) for i, c in enumerate(cs)]
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
    pullback = _dense(f.pullback, len(src.generators))
    issues = [
        MapIssue(
            "pullback has degree 0",
            f"{tgt.generators[t].name} -> {src.generators[s].name}",
            f"degrees {tgt.generators[t].degree} -> {src.generators[s].degree}",
        )
        for s, t in _dense_degree_scan(pullback, src.degrees(), tgt.degrees(), 0)
    ]
    labels = ["d"] + [f"c_{i + 1}" for i in range(src.torus_rank)]
    for label, t_op, s_op in zip(
        labels, (tgt.d,) + tgt.contractions, (src.d,) + src.contractions
    ):
        t_op, s_op = _dense(t_op, len(tgt.generators)), _dense(s_op, len(src.generators))
        lhs, rhs = _dense_product(pullback, t_op), _dense_product(s_op, pullback)
        issues.extend(
            MapIssue(f"pullback commutes with {label}", tgt.generators[t].name, witness)
            for t, witness in _dense_residuals(src.generators, lhs, rhs, -1)
        )
    return issues


MATRIX_AXIOMS = re.compile(r"(d|c_\d+) has degree|d o d|d o c|c_i o c_j")


def _corrupted(draw, matrix, height):
    """The height-row matrix, given by its columns, with one to three
    entries overwritten by small rationals (zero included, which deletes a
    term)."""
    columns = [dict(column) for column in matrix]
    if height and columns:
        for _ in range(draw(st.integers(1, 3))):
            h = draw(st.integers(0, height - 1))
            g = draw(st.integers(0, len(columns) - 1))
            columns[g][h] = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2)))
    return tuple(columns)


@st.composite
def corrupted_models_and_maps(draw):
    """A derived model (at most 24 generators, so that the dense reference
    stays cheap) with d or one c_i corrupted, and a map with a corrupted
    pullback: the model's identity, or a builtin map restricted to a torus
    of rank 0, 1 or 2."""
    model, _ = draw(derived_models().filter(lambda case: len(case[0].generators) <= 24))
    which = draw(st.sampled_from(["d", "c", "pullback"]))
    if which == "d":
        model = dataclasses.replace(model, d=_corrupted(draw, model.d, len(model.generators)))
    elif which == "c" and model.torus_rank:
        contractions = list(model.contractions)
        i = draw(st.integers(0, model.torus_rank - 1))
        contractions[i] = _corrupted(draw, contractions[i], len(model.generators))
        model = dataclasses.replace(model, contractions=tuple(contractions))
    if draw(st.booleans()):
        f = identity_map(model)
    else:
        f = builtin_map(draw(st.sampled_from(builtin_map_names())))
        r = draw(st.integers(0, 2))
        f = restrict_map(f, [[draw(st.integers(-2, 2)) for _ in range(r)]])
    if which == "pullback":
        f = dataclasses.replace(
            f, pullback=_corrupted(draw, f.pullback, len(f.source.generators))
        )
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
    n, size = model.torus_rank, len(model.generators)
    even, odd = model.parity_indices()
    d = _dense(model.d, size)
    contractions = [_dense(c, size) for c in model.contractions]

    def entry(h, g):
        p = Polynomial.constant(n, d[h][g])
        for i, c in enumerate(contractions):
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
    matrix = [dict(column) for column in matrix]
    matrix[g][h] = value
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
    r_eo = _rank(a_eo, len(even), n)
    r_oe = _rank(a_oe, len(odd), n)
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
        image_rank = _rank(image, len(indices), n)
        both = _rank(image + reps, len(indices), n)
        assert both == image_rank + rank


def test_a_replaced_model_gets_its_own_blocks_and_analysis():
    model = s2_rotation()
    u, one = Polynomial.variable(1, 0), Polynomial.one(1)
    blocks, analysis = model._blocks, model._analysis
    assert model._blocks is blocks and model._analysis is analysis
    assert _cartan_column(model, 5) == {2: u, 7: one}  # d_T(s) = u*q + tvol
    plain = dataclasses.replace(model, d=({},) * 8)
    assert _cartan_column(plain, 5) == {2: u}
    assert plain._blocks == ((0,), (1, 3, 6), (2, 5), (4, 7)) != blocks
    assert plain._analysis is not analysis and plain._analysis.model is plain
    assert model._blocks is blocks and model._analysis is analysis
    assert _cartan_column(model, 1) == {3: one}
    assert cohomology_hilbert(plain, 6) == _brute_force_hilbert(plain, 6)
    assert cohomology_hilbert(plain, 6) != cohomology_hilbert(model, 6)


def _in_stored_form(columns, height) -> bool:
    """Stored as the library promises: a tuple of read-only columns, each
    with its rows ascending and in range, and no zero entry; an entry is an
    int exactly when it is integral, and a Fraction otherwise."""
    return type(columns) is tuple and all(
        type(column) is MappingProxyType
        and list(column) == sorted(column)
        and all(0 <= h < height for h in column)
        and all(column.values())
        and all(type(v) is (int if v.denominator == 1 else Fraction) for v in column.values())
        for column in columns
    )


def _constructed_models():
    s2 = s2_rotation()
    models = _all_builtins() + [
        tensor_product(s2, s2),
        restrict_subtorus(s2, [[1, 2]]),
        scale_contractions(s2, Fraction(2)),
        scale_contractions(tensor_product(s2, s2), Fraction(3, 2)),
        restrict_subtorus(
            scale_contractions(builtin("c_alpha(1,2;3,1)"), Fraction(1, 2)), [[2], [2]]
        ),
    ]
    models += [load_model(path) for path in sorted(MODELFILES.glob("*.json"))]
    return models


@pytest.mark.parametrize("model", _constructed_models(), ids=lambda m: m.name)
def test_every_constructor_stores_read_only_columns(model):
    # the blocks and the analysis are stored on the model: its operators
    # must not change
    size = len(model.generators)
    assert len(model.d) == size and _in_stored_form(model.d, size)
    assert type(model.contractions) is tuple
    assert all(len(c) == size and _in_stored_form(c, size) for c in model.contractions)


def _constructed_maps():
    s2, table = s2_rotation(), builtin_maps()
    north = table["s2_north_inclusion"]
    files = [load_model_file(path) for path in sorted(MODELFILES.glob("*.json"))]
    return list(table.values()) + [
        identity_map(tensor_product(s2, s2)),
        gysin.compose_maps(table["s2_to_point"], north),
        restrict_map(north, [[2]]),
        gysin.ModelMap(name="half", source=s2, target=s2, pullback=({0: Fraction(1, 2)},) * 8),
    ] + [f for loaded in files for f in loaded.maps.values()]


@pytest.mark.parametrize("f", _constructed_maps(), ids=lambda f: f.name)
def test_every_map_constructor_stores_read_only_columns(f):
    assert len(f.pullback) == len(f.target.generators)
    assert _in_stored_form(f.pullback, len(f.source.generators))


@pytest.mark.parametrize("which", ["d", "c_1", "pullback"])
def test_an_integral_fraction_is_stored_as_the_int(which):
    # Fraction(2) and 2 build equal operators, stored alike as ints; a
    # model's columns are read-only mappings, so a model has no hash, but
    # its operators' entries hash alike
    columns = _s2_operator(which)
    built = [
        _s2_with(which, [{h: factor * v for h, v in column.items()} for column in columns])
        for factor in (2, Fraction(2), Fraction(1, 2))
    ]
    assert built[0] == built[1] != built[2]
    stored = [_s2_operator(which, f) for f in built]
    entries = [tuple(tuple(c.items()) for c in op) for op in stored[:2]]
    assert hash(entries[0]) == hash(entries[1])
    assert all(type(v) is int for op in stored[:2] for c in op for v in c.values())
    assert all(type(v) is Fraction for c in stored[2] for v in c.values())


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
    one = Fraction(1)
    model = InvariantModel(
        name="two_blocks",
        torus_rank=1,
        generators=tuple(Generator(nm, k) for nm, k in (("x", 0), ("w", 0), ("y", 0), ("z", 1))),
        d=({3: one}, {}, {3: one}, {}),
        contractions=(({},) * 4,),
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


def test_a_free_table_past_the_top_degree_costs_no_more_slices(count_calls):
    # free at rank 2: the slices up to the top generator degree T decide the
    # table, so a longer cutoff eliminates nothing more
    s2 = s2_rotation()
    model = tensor_product(restrict_subtorus(s2, [[1, 2]]), restrict_subtorus(s2, [[2, -1]]))
    top = max(model.degrees())
    echelons = count_calls(gcomplex._echelon)
    short = cohomology_hilbert(model, top + 2)
    built = len(echelons)
    long = cohomology_hilbert(model, 3 * top)
    assert built and len(echelons) == 2 * built
    # Q[u_1, u_2] tensor H(S^2 x S^2): 1, then 2k in every even degree k > 0
    assert long[: top + 3] == short and long == [1] + [2 * k * (k % 2 == 0) for k in range(1, 13)]
    # a model without a single term builds nothing and needs no H(C)
    underlying = count_calls(gcomplex._underlying_dims)
    assert cohomology_hilbert(point(3), 20)[20] == comb(12, 2)
    assert len(echelons) == 2 * built and not underlying


def test_the_identity_c_alpha_of_rank_five_is_polynomial_from_degree_ten():
    # 3^5 generators at the default cutoff, free: Q[u_1..u_5] shifted to
    # degree 10
    model = c_alpha([[int(i == j) for j in range(5)] for i in range(5)])
    cutoff = model.default_cutoff()
    assert cohomology_hilbert(model) == [
        comb(4 + (k - 10) // 2, 4) if k >= 10 and k % 2 == 0 else 0 for k in range(cutoff + 1)
    ]


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
    matrix = [dict(column) for column in (base.d if operator == "d" else base.contractions[0])]
    matrix[5][2] = bad  # one wrong entry, refused when the model is built
    changes = {"d": matrix} if operator == "d" else {"contractions": (matrix,)}
    message = f"{operator} entry at row 2, column 5 is {bad!r} ({type(bad).__name__})"
    with pytest.raises(ModelStructureError, match=re.escape(message)):
        dataclasses.replace(base, named_cocycles={}, fixed_points=(), **changes)


def _s2_with(which, matrix):
    """s2_rotation with d or c_1 replaced by the matrix, or the map s2 -> s2
    with it as the pullback."""
    s2 = s2_rotation()
    if which == "pullback":
        return gysin.ModelMap(name="f", source=s2, target=s2, pullback=matrix)
    changes = {"d": matrix} if which == "d" else {"contractions": (matrix,)}
    return dataclasses.replace(s2, named_cocycles={}, fixed_points=(), **changes)


def _s2_operator(which, built=None):
    """d or c_1 of s2_rotation, or the pullback of its identity map; of the
    model or map built, when one is given."""
    if which == "pullback":
        return (built or identity_map(s2_rotation())).pullback
    model = built or s2_rotation()
    return model.d if which == "d" else model.contractions[0]


def _bad_shapes(columns):
    """(matrix, message) for each malformed 8 x 8 matrix made from the
    columns: written densely, a row out of range either way, a column
    short."""
    dense = tuple(tuple(column.get(h, Fraction(0)) for column in columns) for h in range(8))
    out_of_range = [dict(column) for column in columns]
    out_of_range[3][8] = Fraction(1)
    negative = [dict(column) for column in columns]
    negative[0][-1] = Fraction(1)
    return [
        (dense, ": column 0 is a tuple, not a mapping {row: entry}"),
        (out_of_range, ": row 8 of column 3 is not in range(8)"),
        (negative, ": row -1 of column 0 is not in range(8)"),
        (columns[:-1], " must be a tuple of 8 columns"),
    ]


@pytest.mark.parametrize("which", ["d", "c_1", "pullback"])
def test_a_malformed_matrix_is_refused_at_construction(which):
    error = gysin.MapStructureError if which == "pullback" else ModelStructureError
    for matrix, message in _bad_shapes(_s2_operator(which)):
        with pytest.raises(error, match=re.escape(which + message)):
            _s2_with(which, matrix)


@pytest.mark.parametrize("which", ["d", "c_1", "pullback"])
def test_explicit_zero_entries_are_not_stored(which):
    columns = _s2_operator(which)
    # a zero on the diagonal of every column, int and Fraction alike
    padded = [{g: 0 if g % 2 else Fraction(0), **column} for g, column in enumerate(columns)]
    built = _s2_with(which, padded)
    assert built == _s2_with(which, columns)
    stored = _s2_operator(which, built)
    assert stored == tuple(columns) and _in_stored_form(stored, 8)


def test_a_stored_column_cannot_be_changed():
    s2 = s2_rotation()
    columns = [dict(column) for column in s2.d]
    model = dataclasses.replace(s2, d=columns)
    columns[1][3] = Fraction(5)  # the caller's dict is not the stored column
    assert model.d[1] == {3: 1}
    for column in (model.d[1], s2.contractions[0][5], identity_map(s2).pullback[0]):
        with pytest.raises(TypeError):
            column[0] = Fraction(2)
    with pytest.raises(TypeError):
        model.d[1] = {}


def test_a_negative_torus_rank_is_refused():
    with pytest.raises(ModelStructureError, match=re.escape("torus rank must be >= 0, got -1")):
        InvariantModel(
            name="negative", torus_rank=-1, generators=(), d=(), contractions=(), top_degree=0
        )


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
