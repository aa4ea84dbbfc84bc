from __future__ import annotations

import contextlib
import dataclasses
import io
import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from equicart import cli, duality, gcomplex
from equicart import gysin as gysin_module
from equicart.algebra import Polynomial, RationalFunction, UnsupportedRankError
from equicart.duality import (
    NonCompactModelError,
    classify_rank1,
    duality_check,
    pairing_matrix,
    presentation_from_model,
)
from equicart.gcomplex import (
    cartan_differential,
    cohomology_generic,
    cohomology_hilbert,
    element,
    named_cocycle_element,
    underlying_cohomology_dims,
    validate_model,
)
from equicart.gysin import (
    DecompositionError,
    MapStructureError,
    ModelMap,
    ObstructionError,
    adjunction_residuals,
    compose_maps,
    decompose_in_basis,
    decompose_many,
    gysin_localized,
    identity_map,
    projection_formula_check,
    pullback_cohomology,
    pullback_element,
    restrict_map,
    restrict_subtorus,
    thom_extend,
    validate_map,
)
from equicart.models import (
    builtin,
    builtin_map,
    builtin_maps,
    circle_free,
    circle_trivial,
    point,
    s2_chain,
    s2_rotation,
    tensor_product,
)

U = Polynomial.variable(1, 0)


def rf(value, rank=1):
    return RationalFunction.coerce(value, rank)


# -- map validation -------------------------------------------------------------


@pytest.mark.parametrize("name", ["point_identity", "s2_identity",
                                  "s2_north_inclusion", "s2_south_inclusion",
                                  "s2_to_point"])
def test_builtin_maps_are_valid(name):
    report = validate_map(builtin_map(name))
    assert report.ok, str(report)


def test_map_shape_mismatch_is_structural():
    chain = s2_chain()
    with pytest.raises(MapStructureError):
        ModelMap(
            name="bad_shape",
            source=chain.point,
            target=chain.sphere,
            pullback=({0: Fraction(1)},),  # needs 8 columns, one per sphere generator
        )


def test_nonequivariant_pullback_is_witnessed():
    # q -> one breaks contraction-commutation at s; dq -> one breaks both
    # the degree law and d-commutation at q
    chain = s2_chain()
    bad = ModelMap(
        name="bad_map",
        source=chain.point,
        target=chain.sphere,
        pullback=tuple({0: Fraction(1)} if t in (0, 2, 4) else {} for t in range(8)),
    )
    report = validate_map(bad)
    assert not report.ok
    laws = {issue.law for issue in report.issues}
    assert "pullback has degree 0" in laws
    assert "pullback commutes with d" in laws
    assert "pullback commutes with c_1" in laws
    assert "violation" in str(report)


def test_commutation_violation_names_the_generator():
    # pull t back to nothing but dt to the unit: breaks d-commutation at t
    chain = s2_chain()
    bad = ModelMap(
        name="bad_dt",
        source=chain.point,
        target=chain.sphere,
        # one -> one, and dt -> one, degree-violating and d-breaking
        pullback=tuple({0: Fraction(1)} if t in (0, 3) else {} for t in range(8)),
    )
    report = validate_map(bad)
    d_issues = [i for i in report.issues if i.law == "pullback commutes with d"]
    assert any(issue.where == "t" for issue in d_issues)


def test_the_identity_pullback_is_its_diagonal_columns():
    model = tensor_product(s2_rotation(), s2_rotation())
    f = identity_map(model)
    assert f.pullback == tuple({g: Fraction(1)} for g in range(64))
    assert validate_map(f).ok


def test_compose_requires_matching_endpoints():
    north = builtin_map("s2_north_inclusion")
    fresh_identity = identity_map(s2_rotation())  # distinct instance
    with pytest.raises(MapStructureError):
        compose_maps(north, fresh_identity)


def test_composition_of_builtin_chain():
    maps = builtin_maps()
    loop = compose_maps(maps["s2_to_point"], maps["s2_north_inclusion"])
    assert validate_map(loop).ok
    assert loop.source is maps["s2_north_inclusion"].source
    assert loop.target is maps["s2_to_point"].target


# -- pullbacks ------------------------------------------------------------------


def test_pullback_cohomology_of_north_inclusion():
    north = builtin_map("s2_north_inclusion")
    matrix = pullback_cohomology(north)
    # rows: source (point) classes; columns: target (s2) classes one, w
    assert (matrix.rows, matrix.cols) == (1, 2)
    assert matrix[0, 0] == rf(1)
    assert matrix[0, 1] == rf(U)


def test_pullback_cohomology_of_south_inclusion():
    south = builtin_map("s2_south_inclusion")
    matrix = pullback_cohomology(south)
    assert matrix[0, 1] == rf(-U)


def test_pullback_element_is_a_ring_map_on_samples():
    north = builtin_map("s2_north_inclusion")
    s2 = north.target
    w = named_cocycle_element(s2, "w")
    pulled = pullback_element(north, w)
    assert pulled == element(north.source, {"one": 1}).scaled(U)


def test_decomposition_batch_recovers_coordinates_of_both_parities():
    model = tensor_product(circle_trivial(1), s2_rotation())
    basis = cohomology_generic(model).elements()  # even_0, even_1, odd_0, odd_1
    want_even = [rf(1) / rf(U + 1), rf(U), rf(0), rf(0)]
    want_odd = [rf(0), rf(0), rf(3), rf(-1) / rf(U - 2)]
    want_other = [rf(U * U), rf(2), rf(0), rf(0)]

    def combine(coords, exact_part):
        out = cartan_differential(model, exact_part)
        for coeff, b in zip(coords, basis):
            out = out + b.scaled(coeff)
        return out

    x_even = combine(want_even, element(model, {"one.dt": 1, "a.t": 2}).scaled(U))
    x_odd = combine(want_odd, element(model, {"one.q": 1, "a.s": -1}))
    x_other = combine(want_other, element(model, {}))
    zero = element(model, {})
    got = decompose_many(model, basis, [x_even, zero, x_odd, x_other])
    assert got == [want_even, [rf(0)] * 4, want_odd, want_other]
    assert decompose_in_basis(model, basis, x_odd) == want_odd
    # one right-hand side outside the span refuses the whole batch
    with pytest.raises(DecompositionError):
        decompose_many(model, basis, [x_even, element(model, {"one.t": 1})])


def _sphere_square():
    """s2 x s2, its basis of classes (each in its own d_T block, 9 blocks in
    all) and a combination of all of them plus a coboundary, spread over
    many blocks."""
    s2 = s2_rotation()
    model = tensor_product(s2, s2)
    basis = cohomology_generic(model).elements()
    coords = [rf(3), rf(U) / rf(U + 2), rf(-1), rf(U * U - 1)]
    x = cartan_differential(
        model, element(model, {"one.dt": 1, "t.dq": U, "dt.vol": 2, "s.one": -1})
    )
    for coeff, b in zip(coords, basis):
        x = x + b.scaled(coeff)
    return model, basis, coords, x


def test_decomposition_spans_several_blocks():
    model, basis, coords, x = _sphere_square()
    block_of = {g: b for b, block in enumerate(model._blocks) for g in block}
    assert len({block_of[g] for b in basis for g in b.terms}) == len(basis)
    assert len({block_of[g] for g in x.terms}) > len(basis)
    assert decompose_many(model, basis, [x, basis[2]]) == [coords, [rf(0), rf(0), rf(1), rf(0)]]
    # a class spread over two blocks joins them: x = 3 (b0 + b1) + (c1 - 3) b1 + ...
    spread = [basis[0] + basis[1]] + basis[1:]
    assert decompose_in_basis(model, spread, x) == [coords[0], coords[1] - coords[0]] + coords[2:]


def test_decomposition_keeps_a_zero_basis_class_at_zero():
    model, basis, coords, x = _sphere_square()
    zero = element(model, {})
    padded = [zero] + basis[:2] + [zero] + basis[2:]
    assert decompose_in_basis(model, padded, x) == [rf(0)] + coords[:2] + [rf(0)] + coords[2:]


def test_the_rank_two_identity_decomposes_on_unit_pivots():
    # each class pivots on its coefficient 1, so no entry carries a
    # polynomial over itself, as (u1 + 2*u2) / (u1 + 2*u2) at rank 2
    f = identity_map(restrict_subtorus(s2_rotation(), [[1, 2]]))
    for matrix in (pullback_cohomology(f), gysin_localized(f).matrix):
        assert [[str(x) for x in row] for row in matrix.entries] == [["1", "0"], ["0", "1"]]


def test_a_cocycle_outside_the_span_does_not_decompose():
    model, basis, _, x = _sphere_square()
    # every other block still decomposes; the block of the dropped class
    # holds a cocycle that is not a coboundary
    with pytest.raises(DecompositionError, match="does not decompose"):
        decompose_many(model, basis[:3], [basis[0], x])
    assert decompose_many(model, basis[:3], [x - basis[3].scaled(rf(U * U - 1))]) == [
        [rf(3), rf(U) / rf(U + 2), rf(-1)]
    ]


# -- Gysin morphisms ---------------------------------------------------------------


def test_gysin_north_inclusion():
    gysin = gysin_localized(builtin_map("s2_north_inclusion"))
    assert gysin.degree_shift == -2
    assert gysin.source_basis == ("one",)
    assert gysin.target_basis == ("one", "w")
    assert gysin.matrix[0, 0] == rf(Polynomial(1, {(1,): Fraction(1, 2)}))
    assert gysin.matrix[1, 0] == rf(Fraction(1, 2))


def test_gysin_south_inclusion():
    gysin = gysin_localized(builtin_map("s2_south_inclusion"))
    assert gysin.matrix[0, 0] == rf(Polynomial(1, {(1,): Fraction(-1, 2)}))
    assert gysin.matrix[1, 0] == rf(Fraction(1, 2))


def test_gysin_collapse_integrates_over_the_fiber():
    gysin = gysin_localized(builtin_map("s2_to_point"))
    assert gysin.degree_shift == 2
    assert gysin.matrix[0, 0] == rf(0)
    assert gysin.matrix[0, 1] == rf(2)


def test_gysin_of_identity_is_identity():
    gysin = gysin_localized(builtin_map("s2_identity"))
    assert gysin.matrix[0, 0] == rf(1)
    assert gysin.matrix[1, 1] == rf(1)
    assert gysin.matrix[0, 1] == rf(0)
    assert gysin.matrix[1, 0] == rf(0)


def test_gysin_functoriality_collapse_after_inclusion():
    maps = builtin_maps()
    loop = compose_maps(maps["s2_to_point"], maps["s2_north_inclusion"])
    gysin = gysin_localized(loop)
    assert (gysin.matrix.rows, gysin.matrix.cols) == (1, 1)
    assert gysin.matrix[0, 0] == rf(1)


def test_self_intersection_reproduces_the_tangent_euler_class():
    from equicart.euler import euler_linear

    north = builtin_map("s2_north_inclusion")
    gysin = gysin_localized(north)
    pullback = pullback_cohomology(north)
    # i^* i_!(1) = sum_k pullback[0, k] * gysin[k, 0]
    value = sum(
        (pullback[0, k] * gysin.matrix[k, 0] for k in range(2)),
        rf(0),
    )
    # normal data of the embedded point: the tangent representation stored
    # at the corresponding fixed point of the sphere
    tangent = north.target.fixed_points[0].tangent
    assert value == rf(euler_linear(tangent))


@pytest.mark.parametrize("name", ["point_identity", "s2_identity",
                                  "s2_north_inclusion", "s2_south_inclusion",
                                  "s2_to_point"])
def test_adjunction_residuals_vanish(name):
    f = builtin_map(name)
    gysin = gysin_localized(f)
    for _, _, residual in adjunction_residuals(f, gysin):
        assert residual.is_zero


def test_gysin_to_torsion_target_has_empty_basis():
    model = circle_free()
    f = identity_map(model)
    gysin = gysin_localized(f)
    assert gysin.matrix.rows == 0
    assert gysin.matrix.cols == 0
    assert adjunction_residuals(f, gysin) == []


def test_gysin_refuses_degenerate_duality():
    import dataclasses

    broken = dataclasses.replace(
        s2_rotation(), integration={6: Fraction(0), 7: Fraction(0)}
    )
    with pytest.raises(DecompositionError):
        gysin_localized(identity_map(broken))


# -- projection formula ------------------------------------------------------------


@pytest.mark.parametrize("name", ["s2_identity", "s2_north_inclusion",
                                  "s2_south_inclusion", "s2_to_point"])
def test_projection_formula(name):
    report = projection_formula_check(builtin_map(name))
    assert report.ok, str(report)
    assert report.entries


def test_projection_formula_report_text():
    report = projection_formula_check(builtin_map("s2_to_point"))
    assert "all zero" in str(report)


def test_a_gysin_matrix_that_is_no_module_map_fails_the_projection_formula():
    # swapping the rows of G keeps the adjunction's shape but not the
    # module structure; scaling G would not do, the formula is homogeneous in G
    f = identity_map(s2_rotation())
    gysin = gysin_localized(f)
    rows = gysin.matrix.entries
    f._analysis.gysin = dataclasses.replace(
        gysin, matrix=dataclasses.replace(gysin.matrix, entries=(rows[1], rows[0]))
    )
    report = projection_formula_check(f)
    assert not report.ok
    assert str(report).splitlines() == [
        "projection formula for 'identity:s2_rotation': NONZERO RESIDUALS",
        "  (one, one): [0, 0]",
        "  (one, w): [0, 0]",
        "  (w, one): [-u^2 + 1, 0]",
        "  (w, w): [0, u^2 - 1]",
    ]


CHECKED_ONCE = {
    "identity": lambda: identity_map(s2_rotation()),
    "inclusion": lambda: builtin_map("s2_north_inclusion"),
}


@pytest.mark.parametrize("label", sorted(CHECKED_ONCE))
def test_the_projection_formula_maps_each_class_once(count_calls, label):
    f = CHECKED_ONCE[label]()
    gysin_localized(f)  # the held parts the check reads
    pulled = count_calls(gysin_module.pullback_element)
    pushed = count_calls(gysin_module._gysin_image)
    decomposed = count_calls(gysin_module.decompose_many)
    report = projection_formula_check(f)
    t = len(cohomology_generic(f.target).elements())
    s = len(cohomology_generic(f.source).elements())
    assert len(report.entries) == t * s > 1
    # one decomposition per side of the formula
    assert (len(pulled), len(pushed), len(decomposed)) == (t, s, 2)


GYSIN_CONSTANTS = {
    "s2_identity": (lambda: builtin_map("s2_identity"), 4),
    "identity circle_trivial(1)xs2": (
        lambda: identity_map(tensor_product(circle_trivial(1), s2_rotation())), 26
    ),
}


@pytest.mark.parametrize("label", sorted(GYSIN_CONSTANTS))
def test_the_gysin_products_test_zeros_without_building_one(monkeypatch, label):
    # the product of the Gysin solve skips zero entries by their own test;
    # comparing with 0 would build a constant per entry
    build, expected = GYSIN_CONSTANTS[label]
    f = build()
    calls = []
    constant = RationalFunction.constant.__func__

    def counted(cls, *args):
        calls.append(args)
        return constant(cls, *args)

    monkeypatch.setattr(RationalFunction, "constant", classmethod(counted))
    gysin_localized(f)
    assert len(calls) == expected


PROJECTION_MAPS = {
    **builtin_maps(),
    "north|[[1, 2]]": restrict_map(builtin_map("s2_north_inclusion"), [[1, 2]]),
    "identity circle_trivial(1)xs2": identity_map(
        tensor_product(circle_trivial(1), s2_rotation())
    ),
}


@seed(20261020)
@settings(max_examples=40)
@given(st.data())
def test_sampled_pairs_read_the_full_report(data):
    # any subset, repeats, any order: each entry is the full report's entry
    f = PROJECTION_MAPS[data.draw(st.sampled_from(sorted(PROJECTION_MAPS)))]
    full = projection_formula_check(f)
    t = len(cohomology_generic(f.target).elements())
    s = len(cohomology_generic(f.source).elements())
    samples = data.draw(
        st.lists(st.tuples(st.integers(0, t - 1), st.integers(0, s - 1)), max_size=12)
    )
    report = projection_formula_check(f, samples=samples)
    assert report.entries == tuple(full.entries[i * s + j] for i, j in samples)


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (2, 0), (0, 2), (5, 0)])
def test_a_sample_outside_the_bases_is_refused(pair):
    f = identity_map(s2_rotation())
    with pytest.raises(ValueError, match=re.escape(f"sample {pair}")) as refused:
        projection_formula_check(f, samples=[(0, 0), pair])
    assert "0 <= i < 2 (target classes) and 0 <= j < 2" in str(refused.value)


# -- one analysis per model and per map -----------------------------------------------


def _run_cli_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0


# the generic elimination runs once per distinct model a call touches
ONE_ANALYSIS_CALLS = {
    "gysin of the identity": (lambda: gysin_localized(identity_map(s2_rotation())), 1),
    "gysin of an inclusion": (lambda: gysin_localized(builtin_map("s2_north_inclusion")), 2),
    "projection formula": (lambda: projection_formula_check(identity_map(s2_rotation())), 1),
    "cli gysin": (lambda: _run_cli_quietly(["gysin", "--map", "builtin:s2_identity"]), 1),
    "cli duality": (lambda: _run_cli_quietly(["duality", "--model", "builtin:s2_rotation"]), 1),
}


@pytest.mark.parametrize("label", sorted(ONE_ANALYSIS_CALLS))
def test_each_model_cohomology_is_computed_once_per_call(count_calls, label):
    call, expected = ONE_ANALYSIS_CALLS[label]
    calls = count_calls(gcomplex._cohomology_generic)
    call()
    assert len(calls) == expected


def test_counting_a_function_no_module_binds_fails(count_calls):
    def unbound():
        pass

    with pytest.raises(pytest.fail.Exception, match="no equicart module binds"):
        count_calls(unbound)


def _six_queries(model):
    return (
        cohomology_generic(model),
        pairing_matrix(model),
        duality_check(model),
        classify_rank1(model),
        gysin_localized(identity_map(model)),
        projection_formula_check(identity_map(model)),
    )


def test_a_model_is_analysed_once_across_calls(count_calls):
    generic = count_calls(gcomplex._cohomology_generic)
    classified = count_calls(duality._classification)
    model = s2_rotation()
    first = _six_queries(model)
    again = _six_queries(model)
    assert (len(generic), len(classified)) == (1, 1)
    # the held parts themselves are handed out again; each identity map is
    # a new map, so its Gysin matrix is recomputed, from the held analyses
    assert all(a is b for a, b in zip(first[:4], again[:4]))
    assert presentation_from_model(model) is presentation_from_model(model)
    assert first[4] == again[4] and str(first[5]) == str(again[5])
    f = identity_map(model)
    assert gysin_localized(f) is gysin_localized(f)
    assert f._analysis.source is f._analysis.target is model._analysis


def test_a_replaced_model_is_analysed_afresh(count_calls):
    calls = count_calls(gcomplex._cohomology_generic)
    model = s2_rotation()
    cohomology_generic(model)
    copy = dataclasses.replace(model, name="copy")
    assert cohomology_generic(copy) is not cohomology_generic(model)
    assert len(calls) == 2


def test_a_refusal_is_raised_on_every_call(count_calls):
    generic = count_calls(gcomplex._cohomology_generic)
    classified = count_calls(duality._classification)
    open_sphere = dataclasses.replace(s2_rotation(), compact=False, integration={})
    for _ in range(2):
        with pytest.raises(NonCompactModelError):
            pairing_matrix(open_sphere)
        with pytest.raises(NonCompactModelError):
            duality_check(open_sphere)
    assert len(generic) == 1  # the cohomology the pairing needs is held
    rank2 = point(2)
    for _ in range(2):
        with pytest.raises(UnsupportedRankError):
            classify_rank1(rank2)
    assert len(classified) == 2


# -- Thom-style extensions ------------------------------------------------------------


def test_extending_the_volume_form_recovers_the_named_cocycle():
    model = s2_rotation()
    vol = element(model, {"vol": 1})
    extended = thom_extend(model, vol)
    assert extended == named_cocycle_element(model, "w")
    assert cartan_differential(model, extended).is_zero


def test_extending_the_weighted_plane_top_class():
    model = builtin("c_alpha(1,0;0,1)")
    top = [g.name for g in model.generators if g.degree == model.top_degree]
    assert len(top) == 1
    extended = thom_extend(model, element(model, {top[0]: 1}))
    assert extended == named_cocycle_element(model, "thom")


def test_extension_rejects_bad_inputs():
    model = s2_rotation()
    with pytest.raises(ValueError):
        thom_extend(model, element(model, {"s": 1}))  # not d-closed
    with pytest.raises(ValueError):
        thom_extend(model, element(model, {"one": 1, "s": 1}))  # mixed degree
    with pytest.raises(ValueError):
        thom_extend(model, element(model, {"vol": U}))  # non-constant coefficient


def test_obstructed_extension_names_the_degree():
    model = builtin("obstruction_pair")
    top = element(model, {"a": 1})
    with pytest.raises(ObstructionError) as info:
        thom_extend(model, top)
    assert info.value.component_degree == -1


# -- torus restriction ---------------------------------------------------------------


def test_restricting_the_two_torus_to_its_acting_circle():
    model = builtin("rema_adj")
    restricted = restrict_subtorus(model, [[0], [1]])
    assert restricted.torus_rank == 1
    assert validate_model(restricted).ok
    reference = circle_free()
    assert restricted.d == reference.d
    assert restricted.contractions == reference.contractions
    assert cohomology_hilbert(restricted, 6) == cohomology_hilbert(reference, 6)


def test_restriction_to_rank_zero_gives_underlying_cohomology():
    model = s2_rotation()
    plain = restrict_subtorus(model, [[]])
    assert plain.torus_rank == 0
    assert validate_model(plain).ok
    assert cohomology_hilbert(plain, 2) == underlying_cohomology_dims(model)
    # the volume class survives with its polynomial part truncated
    assert set(plain.named_cocycles["w"]) == {6}
    north = plain.fixed_points[0]
    assert north.tangent.trivial_real_multiplicity == 2
    assert north.tangent.weights == ()


def test_restriction_along_a_diagonal_embedding():
    model = builtin("rema_adj")
    restricted = restrict_subtorus(model, [[1], [1]])
    assert restricted.torus_rank == 1
    assert validate_model(restricted).ok


def test_restriction_transports_tangent_weights():
    from equicart.euler import Weight

    model = builtin("c_alpha(1,0;0,1)")
    restricted = restrict_subtorus(model, [[1], [0]])
    tangent = restricted.fixed_points[0].tangent
    # the (0,1) weight dies into the trivial part, the (1,0) weight survives
    assert tangent.trivial_real_multiplicity == 2
    assert tangent.weights == ((Weight((1,)), 1),)
    assert tangent.real_dimension == model.fixed_points[0].tangent.real_dimension


def test_restriction_matrix_shape_errors():
    model = s2_rotation()
    with pytest.raises(ValueError):
        restrict_subtorus(model, [])
    with pytest.raises(ValueError):
        restrict_subtorus(builtin("rema_adj"), [[1], [1, 0]])


@pytest.mark.parametrize("entry", [1.5, Fraction(3, 2)], ids=["float", "fraction"])
def test_restriction_refuses_a_non_integral_entry(entry):
    # it once truncated the entry and restricted along [[1, 2]]
    message = re.escape(f"entry {entry!r} at row 1, column 1 is not an integer")
    with pytest.raises(ValueError, match=message):
        restrict_subtorus(s2_rotation(), [[entry, 2]])
    with pytest.raises(ValueError, match="column 2 is not an integer"):
        restrict_map(builtin_map("s2_identity"), [[1, entry]])


def test_restriction_accepts_integral_entries_of_any_exact_type():
    along = restrict_subtorus(s2_rotation(), [[1, 2]])
    for a in ([[Fraction(1), 2]], [[1.0, Fraction(4, 2)]]):
        assert restrict_subtorus(s2_rotation(), a) == along


def test_restriction_commutes_with_gysin_for_the_identity_reparametrization():
    north = builtin_map("s2_north_inclusion")
    restricted = restrict_map(north, [[1]])
    assert validate_map(restricted).ok
    gysin = gysin_localized(restricted)
    reference = gysin_localized(north)
    assert gysin.matrix[0, 0] == reference.matrix[0, 0]
    assert gysin.matrix[1, 0] == reference.matrix[1, 0]


def test_restriction_commutes_with_gysin_for_the_circle_flip():
    # u |-> -v: the localized pushforward transports by the same substitution
    north = builtin_map("s2_north_inclusion")
    flipped = restrict_map(north, [[-1]])
    assert validate_map(flipped).ok
    gysin = gysin_localized(flipped)
    assert gysin.matrix[0, 0] == rf(Polynomial(1, {(1,): Fraction(-1, 2)}))
    assert gysin.matrix[1, 0] == rf(Fraction(1, 2))


RANK2_FACTORS = {
    name: builtin(name)
    for name in ["point(2)", "circle_trivial(2)", "rema_adj", "c_alpha(1,2)",
                 "c_alpha(1,0;0,1)", "c_alpha(1,1;1,2)"]
}


def _integer_matrix(draw, rows, cols):
    return [[draw(st.integers(-2, 2)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def restriction_chains(draw):
    """A rank-2 builtin or a product of two (at most 24 generators), an
    integer 2 x k matrix A with k >= 1 and a k x r matrix B with r >= 0.
    No intermediate has rank 0: A would be two empty rows and B the list
    of 0 rows [], which cannot carry the column count r."""
    names = draw(
        st.lists(st.sampled_from(sorted(RANK2_FACTORS)), min_size=1, max_size=2).filter(
            lambda names: prod(len(RANK2_FACTORS[n].generators) for n in names) <= 24
        )
    )
    model = RANK2_FACTORS[names[0]]
    for name in names[1:]:
        model = tensor_product(model, RANK2_FACTORS[name])
    k, r = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return model, _integer_matrix(draw, 2, k), _integer_matrix(draw, k, r)


@seed(20261021)
@settings(max_examples=150)
@given(restriction_chains())
def test_restricting_twice_is_restricting_along_the_product(case):
    # every field agrees (operators, products, integration, named cocycles,
    # fixed points with their tangent weights), only the name differs
    model, a, b = case
    along_identity = restrict_subtorus(model, [[1, 0], [0, 1]])
    assert dataclasses.replace(along_identity, name=model.name) == model
    product = [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(len(b[0]))]
               for row in a]
    once = restrict_subtorus(model, product)
    twice = restrict_subtorus(restrict_subtorus(model, a), b)
    assert twice.torus_rank == len(b[0])
    assert dataclasses.replace(twice, name=once.name) == once


def test_restrict_map_keeps_the_pullback_matrix():
    collapse = builtin_map("s2_to_point")
    restricted = restrict_map(collapse, [[-1]])
    assert restricted.pullback == collapse.pullback
    assert restricted.source.torus_rank == 1
