from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from equicart.algebra import Polynomial, RationalFunction, UnsupportedRankError
from equicart.duality import (
    DecompositionError,
    ModelAnalysis,
    ModuleClassification,
    ModulePresentation,
    NonCompactModelError,
    classify_presentation,
    classify_rank1,
    duality_check,
    ext_rank1,
    integrate,
    is_torsion,
    pairing_matrix,
    presentation_from_model,
)
from equicart.gcomplex import cohomology_generic, cohomology_hilbert, element
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
