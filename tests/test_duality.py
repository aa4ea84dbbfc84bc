from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from equicart.algebra import (
    Echelon,
    Polynomial,
    RationalFunction,
    UnsupportedRankError,
    invariant_factors,
)
from equicart.duality import (
    DecompositionError,
    ModelAnalysis,
    ModuleClassification,
    ModulePresentation,
    NonCompactModelError,
    _graded_pairs,
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
    Generator,
    InvariantModel,
    MissingProductError,
    cohomology_generic,
    cohomology_hilbert,
    element,
    element_product,
    validate_model,
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
    whole = classify_presentation(p)
    factors = invariant_factors([list(row) for row in p.relations])
    assert [f.degree() for f in factors if f.degree() > 0] == [1, 2]
    assert str(whole) == (
        "free rank 2 in degrees [0, 1] + torsion Q[u]/(u) from degree 2"
        " + torsion Q[u]/(u^2) from degree 4"
    )


# -- the graded column reduction against independent oracles -------------------------

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "rank1_classifications.json").read_text(encoding="utf-8")
)


def _record(c):
    ext = c.dual
    return {
        "classification": str(c),
        "dual": {"ext0": str(ext.ext0), "ext1": [[str(p), twist] for p, twist in ext.ext1]},
    }


@pytest.mark.parametrize("model", _rank_one_models(), ids=lambda m: m.name)
def test_classification_matches_the_recorded_golden_file(model):
    c = classify_rank1(model)
    assert _record(c) == GOLDEN[model.name]
    assert ext_rank1(presentation_from_model(model)) == c.dual


def test_the_golden_file_covers_every_rank_one_model():
    assert sorted(GOLDEN) == sorted(m.name for m in _rank_one_models())


@pytest.mark.parametrize("model", _rank_one_models()[::6], ids=lambda m: m.name)
def test_the_model_presentation_is_minimal(model):
    c = classify_rank1(model)
    p = presentation_from_model(model)
    assert p.generator_degrees == c.free_degrees + c.torsion_degrees
    assert p.relation_count == len(c.divisors)
    assert classify_presentation(p) == c


@st.composite
def presentations(draw):
    """A homogeneous presentation over Q[u]: one to five generators in
    degrees -2..4 and up to five relations of total degree -2..10, each entry
    c * u^k present at random where the degrees allow it, so k reaches 6."""
    degrees = draw(st.lists(st.integers(-2, 4), min_size=1, max_size=5))
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        total = draw(st.integers(-2, 10))
        columns.append([
            Polynomial.monomial(1, [(total - b) // 2], draw(st.integers(-3, 3)))
            if total >= b and (total - b) % 2 == 0 and draw(st.booleans())
            else Polynomial.zero(1)
            for b in degrees
        ])
    relations = tuple(tuple(column[i] for column in columns) for i in range(len(degrees)))
    return ModulePresentation(1, tuple(degrees), relations)


def _cokernel_dims(p, cutoff):
    """dim over Q of the presented module in each degree 0..cutoff: the
    monomials u^m * e_i of that degree less the Q-rank of the multiples of
    the relations that land there."""
    s, dims = len(p.generator_degrees), []
    for k in range(cutoff + 1):
        basis = {
            (i, (k - b) // 2): n
            for n, (i, b) in enumerate(
                (i, b) for i, b in enumerate(p.generator_degrees) if k >= b and (k - b) % 2 == 0
            )
        }
        rows = []
        for j in range(p.relation_count):
            row = [Fraction(0)] * len(basis)
            for i in range(s):
                for (e,), c in p.relations[i][j].terms.items():
                    # u^m times this entry lands on u^(e + m) e_i in degree k
                    twice_m = k - p.generator_degrees[i] - 2 * e
                    if twice_m >= 0 and twice_m % 2 == 0:
                        row[basis[i, e + twice_m // 2]] = c
            rows.append(row)
        echelon = Echelon(len(basis))
        for row in rows:
            echelon.add_row(row)
        dims.append(len(basis) - echelon.rank)
    return dims


def test_presentation_classification_agrees_with_independent_oracles():
    powers = []

    @seed(20261019)
    @settings(max_examples=150)
    @given(presentations())
    def check(p):
        c = classify_presentation(p)
        matrix = [list(row) for row in p.relations]
        factors = invariant_factors(matrix) if p.relation_count else []
        assert sorted(d.degree() for d in c.divisors) == sorted(
            f.degree() for f in factors if f.degree() > 0
        )
        assert all(d == Polynomial.monomial(1, [d.degree()]) for d in c.divisors)
        echelon = Echelon(p.relation_count, torus_rank=1)
        for row in matrix:
            echelon.add_row(row)
        assert c.free_rank == len(p.generator_degrees) - echelon.rank
        assert c.implied_hilbert(12) == _cokernel_dims(p, 12)
        powers.extend(d.degree() for d in c.divisors)

    check()
    # the draws reach torsion u^k with k >= 2
    assert max(powers) >= 3 and sum(k >= 2 for k in powers) >= 20


def _hopf_s3():
    """S^3 under the free Hopf circle action: one, theta, omega and
    theta_omega in degrees 0..3, d(theta) = omega, c(theta) = one and
    c(theta_omega) = omega, so H_T = Q[u]/(u^2)."""

    def matrix(entries):
        return tuple(
            {h: Fraction(v) for (h, col), v in entries.items() if col == g} for g in range(4)
        )

    products = {(0, g): {g: Fraction(1)} for g in range(4)}
    # theta * omega = theta_omega; every other product of two positive-degree
    # generators is zero
    products.update({(i, j): {} for i in range(1, 4) for j in range(i, 4)})
    products[1, 2] = {3: Fraction(1)}
    return InvariantModel(
        name="hopf_s3",
        torus_rank=1,
        generators=tuple(
            Generator(name, k) for k, name in enumerate(("one", "theta", "omega", "theta_omega"))
        ),
        d=matrix({(2, 1): 1}),
        contractions=(matrix({(0, 1): 1, (2, 3): 1}),),
        top_degree=3,
        compact=True,
        integration={3: Fraction(1)},
        product_table=products,
    )


@pytest.mark.parametrize(
    "model, summary",
    [
        (_hopf_s3(), "torsion Q[u]/(u^2) from degree 0"),
        (tensor_product(_hopf_s3(), s2_rotation()),
         "torsion Q[u]/(u^2) from degree 0 + torsion Q[u]/(u^2) from degree 2"),
        (tensor_product(_hopf_s3(), _hopf_s3()),
         "torsion Q[u]/(u^2) from degree 0 + torsion Q[u]/(u^2) from degree 3"),
        (tensor_product(_hopf_s3(), circle_free()),
         "torsion Q[u]/(u) from degree 0 + torsion Q[u]/(u) from degree 3"),
    ],
    ids=lambda x: getattr(x, "name", None),
)
def test_the_hopf_sphere_classifies_with_torsion_u_squared(model, summary):
    assert validate_model(model).ok
    c = classify_rank1(model)
    assert str(c) == summary
    cutoff = model.default_cutoff()
    assert c.implied_hilbert(cutoff) == cohomology_hilbert(model, cutoff)
    assert c.free_rank == cohomology_generic(model).total_rank == 0
    assert ext_rank1(presentation_from_model(model)) == c.dual


def test_the_reduction_stays_exact_on_int_entries():
    # a model's d and c_i may hold ints; int / int is a float, and in float
    # arithmetic the last column of this matrix never reduces to zero
    columns = [
        (0, {0: 5, 1: 2, 2: 9}), (0, {0: 6, 1: 9, 2: 4}),
        (0, {0: 9, 1: 5, 2: 8}), (0, {0: 2, 1: 7, 2: 6}),
    ]
    assert _graded_pairs(columns, [0, 0, 0]) == ([(2, 0), (1, 1), (0, 2)], [3])


def test_a_non_monomial_cartan_entry_is_an_internal_fault():
    # d and c both reach one from theta: d_T(theta) = 1 + u is no monomial
    hopf = _hopf_s3()
    d = [dict(column) for column in hopf.d]
    d[1][0] = Fraction(1)
    broken = dataclasses.replace(hopf, d=d)
    with pytest.raises(AssertionError, match="not a monomial"):
        classify_rank1(broken)
