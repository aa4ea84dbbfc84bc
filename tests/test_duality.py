from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from equicart.algebra import Polynomial, RationalFunction, UnsupportedRankError
from equicart.duality import (
    DecompositionError,
    ModelAnalysis,
    ModuleClassification,
    ModulePresentation,
    NonCompactModelError,
    _classify_component,
    classify_presentation,
    classify_rank1,
    duality_check,
    ext_rank1,
    integrate,
    integrate_product,
    is_torsion,
    pairing_matrix,
    presentation_from_model,
)
from equicart.gcomplex import (
    MissingProductError,
    cohomology_generic,
    cohomology_hilbert,
    element,
    element_product,
)
from equicart.gysin import restrict_subtorus
from equicart.models import (
    builtin,
    c_alpha,
    circle_free,
    circle_trivial,
    point,
    s2_rotation,
    tensor_product,
)

U = Polynomial.variable(1, 0)
ONE = Polynomial.one(1)


def rf(value):
    return RationalFunction.coerce(value, 1)


# -- classification oracles -----------------------------------------------------


def test_point_is_free_rank_one():
    c = classify_rank1(point(1))
    assert (c.free_rank, c.free_degrees) == (1, (0,))
    assert c.is_free and not c.is_torsion


def test_circle_free_is_pure_torsion():
    c = classify_rank1(circle_free())
    assert c.free_rank == 0
    assert c.divisors == (U,)
    assert c.torsion_degrees == (0,)
    assert c.is_torsion and not c.is_free


def test_circle_trivial_is_free_on_two_generators():
    c = classify_rank1(circle_trivial(1))
    assert (c.free_rank, c.free_degrees) == (2, (0, 1))
    assert c.is_free


def test_s2_is_free_in_even_degrees():
    c = classify_rank1(s2_rotation())
    assert (c.free_rank, c.free_degrees) == (2, (0, 2))


def test_weighted_plane_is_free_shifted_by_two():
    c = classify_rank1(builtin("c_alpha(1)"))
    assert (c.free_rank, c.free_degrees) == (1, (2,))


@pytest.mark.parametrize(
    "model",
    [point(1), circle_free(), circle_trivial(1), s2_rotation(),
     builtin("c_alpha(1)"), builtin("c_alpha(3)"), builtin("obstruction_pair")],
    ids=lambda m: m.name,
)
def test_implied_hilbert_matches_computed(model):
    cutoff = 9
    c = classify_rank1(model)
    assert c.implied_hilbert(cutoff) == cohomology_hilbert(model, cutoff)


def test_classification_with_mixed_free_and_torsion():
    # coker of the single column (u^2, -u): change of basis splits off
    # Q[u]/(u) generated in degree 2 plus a free generator in degree 0
    p = ModulePresentation(
        torus_rank=1,
        generator_degrees=(0, 2),
        relations=((U * U,), (-U,)),
    )
    c = classify_presentation(p)
    assert c.free_rank == 1
    assert c.free_degrees == (0,)
    assert c.divisors == (U,)
    assert c.torsion_degrees == (2,)


def test_presentation_rejects_inhomogeneous_relations():
    with pytest.raises(ValueError):
        ModulePresentation(
            torus_rank=1,
            generator_degrees=(0, 0),
            relations=((U,), (ONE,)),
        )
    with pytest.raises(ValueError):
        ModulePresentation(
            torus_rank=1,
            generator_degrees=(0,),
            relations=((U + ONE,),),
        )


def test_classification_requires_rank_one():
    with pytest.raises(UnsupportedRankError):
        classify_rank1(builtin("rema_adj"))
    with pytest.raises(UnsupportedRankError):
        classify_presentation(
            ModulePresentation(torus_rank=2, generator_degrees=(), relations=())
        )


# -- duals ---------------------------------------------------------------------


def test_torsion_module_has_vanishing_dual():
    ext = ext_rank1(presentation_from_model(circle_free()))
    assert ext.dual_hom_vanishes
    assert len(ext.ext1) == 1
    divisor, twist = ext.ext1[0]
    assert divisor == U and twist == 2


def test_free_module_has_free_dual_and_no_ext1():
    ext = ext_rank1(presentation_from_model(s2_rotation()))
    assert ext.ext1 == ()
    assert ext.ext0.free_degrees == (-2, 0)


# -- pairing and duality ----------------------------------------------------------


def test_s2_pairing_matrix():
    pairing = pairing_matrix(s2_rotation())
    assert tuple(pairing.names) == ("one", "w")
    assert pairing.entry(0, 0) == rf(0)
    assert pairing.entry(0, 1) == rf(2)
    assert pairing.entry(1, 0) == rf(2)
    assert pairing.entry(1, 1) == rf(0)


def test_weighted_plane_pairing_matrix():
    pairing = pairing_matrix(builtin("c_alpha(1)"))
    assert pairing.matrix.rows == 1
    assert pairing.entry(0, 0) == rf(2 * U)


@pytest.mark.parametrize(
    "model",
    [point(1), point(2), circle_trivial(1), s2_rotation(),
     builtin("c_alpha(1)"), builtin("c_alpha(1,0;0,1)")],
    ids=lambda m: m.name,
)
def test_compact_builtins_have_perfect_duality(model):
    report = duality_check(model)
    assert report.perfect, str(report)
    assert "perfect" in str(report)


@pytest.mark.parametrize(
    "left, ranks",
    [(None, (4, 0)), ([[1, 1], [1, 2]], (2, 0))],
    ids=["s2|[[1,2]]^2", "c_alpha(1,1;1,2)xs2|[[1,2]]"],
)
def test_rank_two_products_follow_kunneth_and_duality(left, ranks):
    # rows over Q(u1, u2) whose entries share unreduced denominators once
    # crashed the elimination
    sphere = restrict_subtorus(s2_rotation(), [[1, 2]])
    factor = sphere if left is None else c_alpha(left)
    a, b = cohomology_generic(factor), cohomology_generic(sphere)
    kunneth = (
        a.even_rank * b.even_rank + a.odd_rank * b.odd_rank,
        a.even_rank * b.odd_rank + a.odd_rank * b.even_rank,
    )
    assert kunneth == ranks
    product = tensor_product(factor, sphere)
    generic = cohomology_generic(product)
    assert (generic.even_rank, generic.odd_rank) == ranks
    report = duality_check(product)
    assert report.perfect, str(report)


def test_duality_flags_a_broken_integration_functional():
    base = s2_rotation()
    broken = dataclasses.replace(
        base, integration={6: Fraction(0), 7: Fraction(0)}
    )
    report = duality_check(broken)
    assert not report.perfect
    assert report.pairing_rank == 0
    assert "DEGENERATE" in str(report)


def test_model_analysis_inverts_the_pairing_from_the_duality_elimination():
    analysis = ModelAnalysis(tensor_product(s2_rotation(), circle_trivial(1)))
    assert analysis.duality == duality_check(analysis.model)
    pairing = analysis.pairing.matrix.row_lists()
    inverse = analysis.inverse_pairing
    size = len(pairing)
    for i in range(size):
        for j in range(size):
            entry = sum((inverse[i][k] * pairing[k][j] for k in range(size)), rf(0))
            assert entry == rf(int(i == j))


def test_model_analysis_refuses_to_invert_a_singular_pairing():
    broken = dataclasses.replace(
        s2_rotation(), integration={6: Fraction(0), 7: Fraction(0)}
    )
    analysis = ModelAnalysis(broken)
    assert analysis.duality.pairing_rank == 0
    with pytest.raises(DecompositionError, match="singular"):
        analysis.inverse_pairing


def test_integration_oracles():
    model = s2_rotation()
    assert integrate(model, element(model, {"vol": 1})) == Fraction(2)
    assert integrate(model, element(model, {"one": 1})) == Fraction(0)
    # integration projects onto the top-degree components
    mixed = element(model, {"one": 1, "vol": 3})
    assert integrate(model, mixed) == Fraction(6)


def test_integrate_refuses_non_compact_models():
    model = builtin("obstruction_pair")
    assert not model.compact
    with pytest.raises(NonCompactModelError):
        integrate(model, element(model, {"b": 1}))


def test_pairing_refuses_non_compact_models_with_classes():
    open_circle = dataclasses.replace(
        circle_trivial(1), compact=False, integration={}
    )
    with pytest.raises(NonCompactModelError):
        pairing_matrix(open_circle)


# -- torsion detection --------------------------------------------------------------


def test_is_torsion():
    assert is_torsion(circle_free())
    assert is_torsion(builtin("rema_adj"))
    assert is_torsion(builtin("obstruction_pair"))
    assert not is_torsion(s2_rotation())
    assert not is_torsion(point(1))


def test_classification_pretty_printing():
    assert "zero module" in str(ModuleClassification(0, (), (), ()))
    assert "free rank 2" in str(classify_rank1(s2_rotation()))
    assert "torsion" in str(classify_rank1(circle_free()))


# -- the integration form ------------------------------------------------------------


def outcome(call):
    """The value of a call, or the type and text of what it raised."""
    try:
        return call()
    except (MissingProductError, NonCompactModelError) as exc:
        return type(exc), str(exc)


def composed(model, a, b):
    return outcome(lambda: integrate(model, element_product(model, a, b)))


def test_integral_of_a_product_reads_the_integration_form():
    model = s2_rotation()
    w = element(model, {"vol": 1, "t": U})
    one = element(model, {"one": 1})
    assert integrate_product(model, one, w) == composed(model, one, w) == 2
    assert integrate_product(model, w, w) == composed(model, w, w) == 0
    x = element(model, {"one": U, "t": 1})
    assert integrate_product(model, x, w) == composed(model, x, w) == 2 * U
    # (one.a) * (a.one) is stored; the swapped pair of odd generators
    # carries the graded sign
    circles = tensor_product(circle_trivial(1), circle_trivial(1))
    first, second = element(circles, {"one.a": 1}), element(circles, {"a.one": 1})
    assert circles._integration_form[1][2] == -circles._integration_form[2][1] == -1
    assert integrate_product(circles, first, second) == composed(circles, first, second) == -1
    assert integrate_product(circles, second, first) == composed(circles, second, first) == 1


def test_integral_names_the_first_missing_product_before_compactness():
    s2 = s2_rotation()
    # (q, q) and (t, q) have no stored product; q comes first in a's support
    a = element(s2, {"q": 1, "t": U})
    b = element(s2, {"one": 1, "q": 1})
    for model in (s2, dataclasses.replace(s2, compact=False, integration={})):
        x, y = element(model, a.terms), element(model, b.terms)
        with pytest.raises(MissingProductError) as caught:
            integrate_product(model, x, y)
        assert (caught.value.left, caught.value.right) == ("q", "q")
        assert outcome(lambda: integrate_product(model, x, y)) == composed(model, x, y)
        with pytest.raises(MissingProductError, match=r"\(t, q\)"):
            integrate_product(model, element(model, {"t": 1}), y)


def test_integral_refuses_a_model_without_integration():
    model = dataclasses.replace(circle_trivial(1), compact=False, integration={})
    one = element(model, {"one": 1})
    with pytest.raises(NonCompactModelError, match="no integration functional"):
        integrate_product(model, one, one)
    assert outcome(lambda: integrate_product(model, one, one)) == composed(model, one, one)


def test_integral_refuses_a_surviving_term_with_no_integration_entry():
    # tvol has no integration entry: t * vol lands on it
    model = dataclasses.replace(s2_rotation(), integration={6: Fraction(2)})
    assert model._integration_form[1][6] is None
    t, vol = element(model, {"t": 1, "one": 1}), element(model, {"vol": 1})
    with pytest.raises(NonCompactModelError, match="no integration entry for 'tvol'"):
        integrate_product(model, t, vol)
    assert outcome(lambda: integrate_product(model, t, vol)) == composed(model, t, vol)
    # store t * tvol = 0; then the two tvol terms of this product cancel
    table = dict(model.product_table)
    table[1, 7] = {}
    model = dataclasses.replace(model, product_table=table)
    a = element(model, {"one": 1, "t": 1})
    b = element(model, {"vol": 1, "tvol": -1})
    assert integrate_product(model, a, b) == composed(model, a, b) == 2


def _integral_models():
    s2 = s2_rotation()
    return [
        tensor_product(s2, s2),
        tensor_product(s2, c_alpha([[2]])),
        tensor_product(
            restrict_subtorus(s2, [[1, 2]]), restrict_subtorus(s2, [[1, 3]])
        ),
        # odd generators that pair into the top degree: a swapped pair's sign
        tensor_product(circle_trivial(1), circle_trivial(1)),
    ]


def _integrating_pairs(model):
    """The pairs of generators, in both orders, whose stored product has a
    term on a generator with a nonzero integral."""
    pairs = set()
    for (i, j), row in model.product_table.items():
        if any(model.integration.get(k) for k in row):
            pairs.update({(i, j), (j, i)})
    return sorted(pairs)


@st.composite
def coefficients(draw, torus_rank):
    """A small polynomial of degree <= 1, now and then divided by a linear
    form."""
    coeff = Polynomial(
        torus_rank,
        {
            tuple(draw(st.integers(0, 1)) for _ in range(torus_rank)): draw(
                st.integers(-3, 3)
            )
            for _ in range(draw(st.integers(1, 2)))
        },
    )
    if draw(st.integers(0, 3)) == 0:
        return RationalFunction(coeff, Polynomial.linear([1] * torus_rank) + 1)
    return coeff


@st.composite
def factor_pairs(draw, model):
    """Two elements of one to three terms each: the first terms of the two
    pair into a nonzero integral, the others lie anywhere."""
    n, size = model.torus_rank, len(model.generators)
    pair = draw(st.sampled_from(_integrating_pairs(model)))
    out = []
    for first in pair:
        terms = {first: draw(coefficients(n))}
        for _ in range(draw(st.integers(0, 2))):
            terms[draw(st.integers(0, size - 1))] = draw(coefficients(n))
        out.append(element(model, terms))
    return out


@pytest.mark.parametrize("model", _integral_models(), ids=lambda m: m.name)
def test_integral_of_a_product_equals_the_composition(model):
    @seed(20261018)
    @settings(max_examples=40)
    @given(factor_pairs(model))
    def check(pair):
        a, b = pair
        assert outcome(lambda: integrate_product(model, a, b)) == composed(model, a, b)

    check()


# -- classification block by block ----------------------------------------------------

RANK_ONE_BUILTINS = [
    "point(1)", "circle_trivial(1)", "circle_free", "s2_rotation",
    "obstruction_pair", "c_alpha(1)", "c_alpha(2)", "c_alpha(3)", "c_alpha(1;2)",
]


def _rank_one_models():
    factors = [builtin(name) for name in RANK_ONE_BUILTINS]
    products = [
        tensor_product(a, b)
        for i, a in enumerate(factors)
        for b in factors[i:]
    ]
    return factors + products


@pytest.mark.parametrize("model", _rank_one_models(), ids=lambda m: m.name)
def test_classification_agrees_with_the_cohomology_engines(model):
    c = classify_rank1(model)
    cutoff = model.default_cutoff()
    assert c.implied_hilbert(cutoff) == cohomology_hilbert(model, cutoff)
    assert c.free_rank == cohomology_generic(model).total_rank


def test_a_block_diagonal_presentation_classifies_as_one_matrix():
    zero = Polynomial.zero(1)
    # two components, the first with the larger divisor: (u^2) on generator
    # 0 and (u^2, -u) on generators 1, 2; generator 3 is in no relation
    p = ModulePresentation(
        torus_rank=1,
        generator_degrees=(4, 0, 2, 1),
        relations=(
            (U * U, zero, zero),
            (zero, U * U, zero),
            (zero, -U, zero),
            (zero, zero, zero),
        ),
    )
    free, torsion = _classify_component(
        [list(row) for row in p.relations], list(p.generator_degrees)
    )
    torsion.sort(key=lambda block: (block[0].degree(), block[1]))
    whole = ModuleClassification(
        len(free), tuple(sorted(free)),
        tuple(d for d, _ in torsion), tuple(b for _, b in torsion),
    )
    assert classify_presentation(p) == whole
    assert str(whole) == (
        "free rank 2 in degrees [0, 1] + torsion Q[u]/(u) from degree 2"
        " + torsion Q[u]/(u^2) from degree 4"
    )
