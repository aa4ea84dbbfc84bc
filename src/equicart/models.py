"""Builtin model library and the on-disk model format.

Every builtin is constructed from an explicit invariant-forms reduction,
documented in its factory docstring, and is self-certifying: it passes
validate_model, duality_check where compact, and localization_consistency
where fixed points are declared (the test suite enforces all three).

The serialization is a single JSON schema with rationals as "p/q" strings
and matrices as sorted sparse triplets, so files are exact, diffable, and
round-trip byte-identically.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import Polynomial
from .euler import FixedPointDatum, LinearRepresentation, Weight
from .gcomplex import (
    Generator,
    InvariantModel,
    ValidationReport,
    graded_product,
    validate_model,
)
from .gysin import MapReport, ModelMap, identity_map, validate_map


class UnknownModelError(ValueError):
    """Requested builtin does not exist; the message lists what does."""


class ModelFileError(ValueError):
    """A model file failed to parse or validate."""


# -- small constructors --------------------------------------------------------


def _matrix(size: int, entries: Mapping[Tuple[int, int], Fraction]):
    m = [[Fraction(0)] * size for _ in range(size)]
    for (h, g), v in entries.items():
        m[h][g] = Fraction(v)
    return tuple(tuple(row) for row in m)


def _zero_matrices(torus_rank: int, size: int):
    return tuple(_matrix(size, {}) for _ in range(torus_rank))


def _unit_products(size: int, unit: int = 0) -> Dict[Tuple[int, int], Dict[int, Fraction]]:
    out: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for j in range(size):
        key = (unit, j) if unit <= j else (j, unit)
        out[key] = {j: Fraction(1)}
    return out


# -- builtins ------------------------------------------------------------------


def point(torus_rank: int = 1) -> InvariantModel:
    """A single fixed point.

    One generator of degree 0, all operators zero; integration is evaluation.
    Equivariant cohomology is the full polynomial ring, and the localization
    sum at the lone fixed point divides by the empty-product Euler class 1.
    """
    one = Polynomial.one(torus_rank)
    fixed = FixedPointDatum(
        name="pt",
        tangent=LinearRepresentation(torus_rank, 0, ()),
        evaluations={"one": Fraction(1)},
        restrictions={"one": one},
    )
    return InvariantModel(
        name=f"point({torus_rank})",
        torus_rank=torus_rank,
        generators=(Generator("one", 0),),
        d=_matrix(1, {}),
        contractions=_zero_matrices(torus_rank, 1),
        top_degree=0,
        compact=True,
        integration={0: Fraction(1)},
        product_table={(0, 0): {0: Fraction(1)}},
        fixed_points=(fixed,),
        named_cocycles={"one": {0: one}},
        notes=("single point; all operators vanish",),
    )


def circle_trivial(torus_rank: int = 1) -> InvariantModel:
    """A circle acted on trivially.

    Invariant forms reduce to the unit and the angular form; the differential
    and all contractions vanish, so the equivariant cohomology is the free
    module on one even and one odd class."""
    return InvariantModel(
        name=f"circle_trivial({torus_rank})",
        torus_rank=torus_rank,
        generators=(Generator("one", 0), Generator("a", 1)),
        d=_matrix(2, {}),
        contractions=_zero_matrices(torus_rank, 2),
        top_degree=1,
        compact=True,
        integration={1: Fraction(1)},
        product_table={**_unit_products(2), (1, 1): {}},
        named_cocycles={
            "one": {0: Polynomial.one(torus_rank)},
            "a": {1: Polynomial.one(torus_rank)},
        },
        notes=("trivial action: d = 0 and c = 0; cohomology stays free",),
    )


def circle_free() -> InvariantModel:
    """The circle rotating itself.

    Invariant forms are spanned by the unit and the invariant angular form a
    with contraction c(a) = 1 against the rotation field.  The Cartan
    differential sends a to u, so every positive-degree class dies: the
    equivariant cohomology is Q[u]/(u), a pure torsion module."""
    return InvariantModel(
        name="circle_free",
        torus_rank=1,
        generators=(Generator("one", 0), Generator("a", 1)),
        d=_matrix(2, {}),
        contractions=(_matrix(2, {(0, 1): 1}),),
        top_degree=1,
        compact=True,
        integration={1: Fraction(1)},
        product_table={**_unit_products(2), (1, 1): {}},
        notes=("free rotation: c(a) = 1 makes u exact",),
    )


def rema_adj() -> InvariantModel:
    """A rank-2 torus acting on a circle through its second factor.

    Same reduction as circle_free but with two variables: c_1 = 0 and
    c_2(a) = 1.  The equivariant cohomology is Q[u1, u2]/(u2) — torsion over
    the rank-2 ring, so the localized cohomology and the dual Hom both vanish
    even though the module itself does not."""
    return InvariantModel(
        name="rema_adj",
        torus_rank=2,
        generators=(Generator("one", 0), Generator("a", 1)),
        d=_matrix(2, {}),
        contractions=(_matrix(2, {}), _matrix(2, {(0, 1): 1})),
        top_degree=1,
        compact=True,
        integration={1: Fraction(1)},
        product_table={**_unit_products(2), (1, 1): {}},
        notes=("second factor rotates the circle, first acts trivially",),
    )


def s2_rotation() -> InvariantModel:
    """The 2-sphere spun around its vertical axis.

    Reduction of the rotation-invariant forms, with t the height function,
    q = (t^2 - 1)/2, s the invariant angular primitive with ds = t*vol, and
    vol the normalized volume form with total integral 2:

        d: t -> dt, q -> dq, s -> t*vol;   c: s -> q, vol -> -dt, tvol -> -dq.

    Signs and the integration constants are pinned jointly by requiring the
    fixed-point localization identity to hold for both stored cocycles; the
    tangent weights are +1 at the north pole and -1 at the south pole.  The
    product table is deliberately partial: it covers the unit, t*t = 1 + 2q,
    t*vol = tvol, and the products that vanish for degree reasons.  w denotes
    the degree-2 cocycle vol + u*t, the equivariant extension of the volume.
    """
    u = Polynomial.variable(1, 0)
    one = Polynomial.one(1)
    names = ("one", "t", "q", "dt", "dq", "s", "vol", "tvol")
    degrees = (0, 0, 0, 1, 1, 1, 2, 2)
    d = _matrix(8, {(3, 1): 1, (4, 2): 1, (7, 5): 1})
    c = _matrix(8, {(2, 5): 1, (3, 6): -1, (4, 7): -1})
    products: Dict[Tuple[int, int], Dict[int, Fraction]] = _unit_products(8)
    products[(1, 1)] = {0: Fraction(1), 2: Fraction(2)}
    products[(1, 6)] = {7: Fraction(1)}
    for pair in [(3, 3), (4, 4), (5, 5), (3, 4)]:
        products[pair] = {}
    for pair in [(3, 6), (3, 7), (4, 6), (4, 7), (6, 6), (6, 7), (7, 7)]:
        products[pair] = {}
    north = FixedPointDatum(
        name="north",
        tangent=LinearRepresentation.from_weights(1, [(1,)]),
        evaluations={"one": Fraction(1), "t": Fraction(1), "q": Fraction(0)},
        restrictions={"one": one, "w": u},
    )
    south = FixedPointDatum(
        name="south",
        tangent=LinearRepresentation.from_weights(1, [(-1,)]),
        evaluations={"one": Fraction(1), "t": Fraction(-1), "q": Fraction(0)},
        restrictions={"one": one, "w": -u},
    )
    return InvariantModel(
        name="s2_rotation",
        torus_rank=1,
        generators=tuple(Generator(n, k) for n, k in zip(names, degrees)),
        d=d,
        contractions=(c,),
        top_degree=2,
        compact=True,
        integration={6: Fraction(2), 7: Fraction(0)},
        product_table=products,
        fixed_points=(north, south),
        named_cocycles={"one": {0: one}, "w": {6: one, 1: u}},
        notes=(
            "rotation-invariant forms of the round 2-sphere",
            "w = vol + u*t extends the volume form equivariantly",
        ),
    )


def obstruction_pair() -> InvariantModel:
    """The minimal model whose top form does not extend equivariantly.

    Generators b (degree 0) and a (degree 1) with d = 0 and c(a) = b.  The
    Cartan differential of a is u*b, and since d vanishes identically u*b is
    not exact: extending a stalls at component degree -1.  This is the
    counterexample kept around to exercise the extension obstruction path.
    """
    return InvariantModel(
        name="obstruction_pair",
        torus_rank=1,
        generators=(Generator("b", 0), Generator("a", 1)),
        d=_matrix(2, {}),
        contractions=(_matrix(2, {(0, 1): 1}),),
        top_degree=1,
        compact=False,
        notes=("c(a) = b with d = 0; u*b is closed but never exact",),
    )


# -- compactly supported weighted planes ---------------------------------------


def _weight_block(weight: Weight) -> InvariantModel:
    """Compactly supported invariant forms of one weighted plane, truncated.

    h is a radial bump with h = 1 at the origin, dh its differential, v a
    normalized invariant volume form supported where h = 1.  Contractions:
    c_i(v) = -weight_i * dh.  The product table records h*h = h and h*v = v,
    the relations that hold on the support of v for this truncation.
    """
    n = weight.torus_rank
    c_list = []
    for i in range(n):
        c_list.append(_matrix(3, {(1, 2): Fraction(-weight.coeffs[i])}))
    origin = FixedPointDatum(
        name="origin",
        tangent=LinearRepresentation(n, 0, ((weight, 1),)),
        evaluations={"h": Fraction(1)},
        restrictions={"thom": weight.linear_form()},
    )
    return InvariantModel(
        name=f"c_alpha({','.join(str(c) for c in weight.coeffs)})",
        torus_rank=n,
        generators=(Generator("h", 0), Generator("dh", 1), Generator("v", 2)),
        d=_matrix(3, {(1, 0): 1}),
        contractions=tuple(c_list),
        top_degree=2,
        compact=True,
        integration={2: Fraction(1)},
        product_table={
            (0, 0): {0: Fraction(1)},
            (0, 2): {2: Fraction(1)},
            (1, 1): {},
            (1, 2): {},
            (2, 2): {},
        },
        fixed_points=(origin,),
        named_cocycles={
            "thom": {2: Polynomial.one(n), 0: weight.linear_form()}
        },
        notes=("one weighted plane with compact supports",),
    )


def tensor_product(a: InvariantModel, b: InvariantModel) -> InvariantModel:
    """Tensor product of two invariant models over the same torus.

    Differential and contractions follow the graded Leibniz rule; products
    carry the Koszul sign (x1⊗x2)(y1⊗y2) = (-1)^{|x2||y1|} x1y1 ⊗ x2y2 and
    exist only where both factor products exist.  Integration multiplies on
    the unique top-degree pairs.  Named cocycles and fixed points are left
    for the caller to supply."""
    if a.torus_rank != b.torus_rank:
        raise ValueError("tensor factors must share the torus rank")
    na, nb = len(a.generators), len(b.generators)

    def flat(i: int, j: int) -> int:
        return i * nb + j

    gens = []
    for ga in a.generators:
        for gb in b.generators:
            gens.append(Generator(f"{ga.name}.{gb.name}", ga.degree + gb.degree))
    size = na * nb

    def leibniz(ma, mb):
        """m(x (x) y) = m(x) (x) y + (-1)^{|x|} x (x) m(y)."""
        entries: Dict[Tuple[int, int], Fraction] = {}
        for g in range(na):
            sign = Fraction((-1) ** a.generators[g].degree)
            a_terms = [(h, ma[h][g]) for h in range(na) if ma[h][g] != 0]
            for l in range(nb):
                col = flat(g, l)
                for h, value in a_terms:
                    key = (flat(h, l), col)
                    entries[key] = entries.get(key, Fraction(0)) + value
                for k in range(nb):
                    if mb[k][l] != 0:
                        key = (flat(g, k), col)
                        entries[key] = entries.get(key, Fraction(0)) + sign * mb[k][l]
        return _matrix(size, entries)

    top = a.top_degree + b.top_degree
    integration: Dict[int, Fraction] = {}
    if a.compact and b.compact:
        for ia, va in a.integration.items():
            for ib, vb in b.integration.items():
                integration[flat(ia, ib)] = va * vb
        for idx, gen in enumerate(gens):
            if gen.degree == top and idx not in integration:
                integration[idx] = Fraction(0)

    products: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for p1 in range(na):
        for p2 in range(nb):
            for q1 in range(na):
                for q2 in range(nb):
                    left, right = flat(p1, p2), flat(q1, q2)
                    if left > right:
                        continue
                    r1 = graded_product(a, p1, q1)
                    r2 = graded_product(b, p2, q2)
                    if r1 is None or r2 is None:
                        continue
                    (row1, sign1), (row2, sign2) = r1, r2
                    outer = sign1 * sign2 * (-1) ** (
                        b.generators[p2].degree * a.generators[q1].degree
                    )
                    value: Dict[int, Fraction] = {}
                    for k1, v1 in row1.items():
                        for k2, v2 in row2.items():
                            idx = flat(k1, k2)
                            value[idx] = value.get(idx, Fraction(0)) + outer * v1 * v2
                    products[(left, right)] = {
                        k: v for k, v in value.items() if v != 0
                    }

    return InvariantModel(
        name=f"{a.name}(x){b.name}",
        torus_rank=a.torus_rank,
        generators=tuple(gens),
        d=leibniz(a.d, b.d),
        contractions=tuple(map(leibniz, a.contractions, b.contractions)),
        top_degree=top,
        compact=a.compact and b.compact,
        integration=integration,
        product_table=products,
        notes=a.notes + b.notes,
    )


def c_alpha(weights: Sequence[Sequence[int]]) -> InvariantModel:
    """Compactly supported model of a direct sum of weighted planes.

    One block per nonzero integer weight vector, tensored together.  The
    stored cocycle `thom` is the product of the per-block extensions
    v + <weight, u> h; its restriction to the origin is the product of the
    weight forms, the Euler class of the tangent representation."""
    if not weights:
        raise UnknownModelError("c_alpha needs at least one weight vector")
    ws = [Weight(tuple(int(x) for x in vec)) for vec in weights]
    n = ws[0].torus_rank
    for w in ws:
        if w.torus_rank != n:
            raise UnknownModelError("c_alpha weight vectors must share a rank")
        if w.is_zero:
            raise UnknownModelError("c_alpha weights must be nonzero")

    blocks = [_weight_block(w) for w in ws]
    model = blocks[0]
    for block in blocks[1:]:
        model = tensor_product(model, block)

    m = len(ws)
    euler = Polynomial.one(n)
    for w in ws:
        euler = euler * w.linear_form()

    # thom = product over blocks of (v + <w,u> h): iterate over {h,v}^m
    thom: Dict[int, Polynomial] = {}
    for mask in range(2 ** m):
        parts = []
        coeff = Polynomial.one(n)
        for bit in range(m):
            if (mask >> bit) & 1:
                parts.append("h")
                coeff = coeff * ws[bit].linear_form()
            else:
                parts.append("v")
        name = ".".join(parts)
        thom[model.generator_index(name)] = coeff

    all_h = ".".join(["h"] * m)
    origin = FixedPointDatum(
        name="origin",
        tangent=LinearRepresentation(n, 0, tuple((w, 1) for w in ws)),
        evaluations={all_h: Fraction(1)},
        restrictions={"thom": euler},
    )
    label = ";".join(",".join(str(c) for c in w.coeffs) for w in ws)
    return replace(
        model,
        name=f"c_alpha({label})",
        fixed_points=(origin,),
        named_cocycles={"thom": thom},
        notes=("compactly supported weighted planes",),
    )


# -- builtin registry -----------------------------------------------------------


_BUILTIN_PATTERN = re.compile(r"^([a-z_][a-z_0-9]*)(?:\((.*)\))?$")


def builtin_names() -> List[str]:
    return [
        "c_alpha(w1;w2;...)",
        "circle_free",
        "circle_trivial(n)",
        "obstruction_pair",
        "point(n)",
        "rema_adj",
        "s2_rotation",
    ]


def builtin(name: str) -> InvariantModel:
    """Builtin by name; integer arguments in parentheses, weight vectors for
    c_alpha as comma-separated integers with ';' between vectors."""
    match = _BUILTIN_PATTERN.match(name.strip().replace(" ", ""))
    if not match:
        raise UnknownModelError(
            f"cannot parse model name {name!r}; available: "
            + ", ".join(builtin_names())
        )
    base, args = match.group(1), match.group(2)
    try:
        if base == "point":
            return point(int(args) if args else 1)
        if base == "circle_trivial":
            return circle_trivial(int(args) if args else 1)
        if base in ("circle_free", "rema_adj", "s2_rotation", "obstruction_pair"):
            if args:
                raise UnknownModelError(f"{base} takes no arguments")
            factory = {
                "circle_free": circle_free,
                "rema_adj": rema_adj,
                "s2_rotation": s2_rotation,
                "obstruction_pair": obstruction_pair,
            }[base]
            return factory()
        if base == "c_alpha":
            if not args:
                raise UnknownModelError(
                    "c_alpha needs weight vectors, e.g. c_alpha(1;2)"
                )
            vectors = [
                [int(x) for x in chunk.split(",") if x != ""]
                for chunk in args.split(";")
            ]
            return c_alpha(vectors)
    except UnknownModelError:
        raise
    except ValueError as exc:
        raise UnknownModelError(f"bad arguments in {name!r}: {exc}") from exc
    raise UnknownModelError(
        f"unknown builtin model {base!r}; available: " + ", ".join(builtin_names())
    )


@dataclass(frozen=True)
class S2Chain:
    """The standard test chain point -> s2 -> point with shared instances."""

    point: InvariantModel
    sphere: InvariantModel
    north: ModelMap
    south: ModelMap
    collapse: ModelMap


def _inclusion_pullback(sphere: InvariantModel, t_value: Fraction):
    # pullback of each sphere generator along the evaluation at a pole
    entries = {}
    entries[(0, sphere.generator_index("one"))] = Fraction(1)
    entries[(0, sphere.generator_index("t"))] = Fraction(t_value)
    # q = (t^2 - 1)/2 evaluates to 0 at both poles
    m = [[Fraction(0)] * len(sphere.generators)]
    for (r, c), v in entries.items():
        m[r][c] = v
    return (tuple(m[0]),)


def s2_chain() -> S2Chain:
    """point --north/south--> s2_rotation --collapse--> point."""
    pt = point(1)
    sphere = s2_rotation()
    north = ModelMap(
        name="s2_north_inclusion",
        source=pt,
        target=sphere,
        pullback=_inclusion_pullback(sphere, Fraction(1)),
    )
    south = ModelMap(
        name="s2_south_inclusion",
        source=pt,
        target=sphere,
        pullback=_inclusion_pullback(sphere, Fraction(-1)),
    )
    collapse_matrix = [
        [Fraction(0)] for _ in range(len(sphere.generators))
    ]
    collapse_matrix[sphere.generator_index("one")][0] = Fraction(1)
    collapse = ModelMap(
        name="s2_to_point",
        source=sphere,
        target=pt,
        pullback=tuple(tuple(row) for row in collapse_matrix),
    )
    return S2Chain(point=pt, sphere=sphere, north=north, south=south, collapse=collapse)


def builtin_map_names() -> List[str]:
    return [
        "point_identity",
        "s2_identity",
        "s2_north_inclusion",
        "s2_south_inclusion",
        "s2_to_point",
    ]


def builtin_maps() -> Dict[str, ModelMap]:
    """All builtin maps built over one shared model chain, so that any two of
    them with matching endpoints can be composed."""
    chain = s2_chain()
    return {
        "s2_north_inclusion": chain.north,
        "s2_south_inclusion": chain.south,
        "s2_to_point": chain.collapse,
        "s2_identity": identity_map(chain.sphere),
        "point_identity": identity_map(chain.point),
    }


def builtin_map(name: str) -> ModelMap:
    table = builtin_maps()
    if name not in table:
        raise UnknownModelError(
            f"unknown builtin map {name!r}; available: "
            + ", ".join(builtin_map_names())
        )
    return table[name]


# -- serialization ---------------------------------------------------------------

SCHEMA_VERSION = 1


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _parse_frac(text, where: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFileError(f"bad rational {text!r} at {where}: {exc}") from exc


def _poly_to_json(p: Polynomial) -> list:
    return [
        [list(exps), _frac_str(coeff)]
        for exps, coeff in sorted(p.terms.items())
    ]


def _poly_from_json(data, torus_rank: int, where: str) -> Polynomial:
    terms = {}
    if not isinstance(data, list):
        raise ModelFileError(f"expected a monomial list at {where}")
    for item in data:
        if not (isinstance(item, list) and len(item) == 2):
            raise ModelFileError(f"expected [exponents, value] at {where}")
        exps, value = item
        if len(exps) != torus_rank or not all(
            isinstance(e, int) and e >= 0 for e in exps
        ):
            raise ModelFileError(f"bad exponent vector {exps!r} at {where}")
        key = tuple(exps)
        if key in terms:
            raise ModelFileError(f"duplicate monomial {exps!r} at {where}")
        terms[key] = _parse_frac(value, where)
    return Polynomial(torus_rank, terms)


def _triplets(matrix) -> list:
    out = []
    for h, row in enumerate(matrix):
        for g, value in enumerate(row):
            if value != 0:
                out.append([h, g, _frac_str(value)])
    return out


def _matrix_from_triplets(data, size: int, where: str):
    entries: Dict[Tuple[int, int], Fraction] = {}
    if not isinstance(data, list):
        raise ModelFileError(f"expected a triplet list at {where}")
    for item in data:
        if not (isinstance(item, list) and len(item) == 3):
            raise ModelFileError(f"expected [row, col, value] at {where}")
        h, g, value = item
        if not (isinstance(h, int) and isinstance(g, int)):
            raise ModelFileError(f"non-integer indices {item!r} at {where}")
        if not (0 <= h < size and 0 <= g < size):
            raise ModelFileError(f"indices {item!r} out of range at {where}")
        if (h, g) in entries:
            raise ModelFileError(f"duplicate entry ({h}, {g}) at {where}")
        entries[(h, g)] = _parse_frac(value, where)
    return _matrix(size, entries)


def model_to_dict(model: InvariantModel, maps: Optional[Mapping[str, ModelMap]] = None) -> dict:
    data = {
        "schema_version": SCHEMA_VERSION,
        "name": model.name,
        "torus_rank": model.torus_rank,
        "generators": [
            {"name": g.name, "degree": g.degree} for g in model.generators
        ],
        "top_degree": model.top_degree,
        "compact": model.compact,
        "d": _triplets(model.d),
        "contractions": [_triplets(c) for c in model.contractions],
        "integration": sorted(
            [idx, _frac_str(value)] for idx, value in model.integration.items()
        ),
        # pairs with an empty value list are declared-zero products, which
        # are different from absent pairs (those raise on use)
        "product_table": sorted(
            [i, j, [[k, _frac_str(v)] for k, v in sorted(value.items())]]
            for (i, j), value in model.product_table.items()
        ),
        "named_cocycles": {
            name: sorted(
                [idx, _poly_to_json(coeff)] for idx, coeff in raw.items()
            )
            for name, raw in model.named_cocycles.items()
        },
        "fixed_points": [
            {
                "name": p.name,
                "tangent": {
                    "trivial_real_multiplicity": p.tangent.trivial_real_multiplicity,
                    "weights": [
                        [list(w.coeffs), mult] for w, mult in p.tangent.weights
                    ],
                },
                "evaluations": {
                    gname: _frac_str(value)
                    for gname, value in p.evaluations.items()
                },
                "restrictions": {
                    cname: _poly_to_json(poly)
                    for cname, poly in p.restrictions.items()
                },
            }
            for p in model.fixed_points
        ],
        "notes": list(model.notes),
    }
    if maps:
        data["maps"] = {
            mname: {
                "source": _endpoint_ref(m.source, model),
                "target": _endpoint_ref(m.target, model),
                "proper": m.proper,
                "pullback": [
                    [s, t, _frac_str(v)]
                    for s, row in enumerate(m.pullback)
                    for t, v in enumerate(row)
                    if v != 0
                ],
            }
            for mname, m in maps.items()
        }
    return data


def _endpoint_ref(end: InvariantModel, model: InvariantModel) -> str:
    """Serialize a map endpoint: the file's own model or a builtin."""
    if end == model:
        return "self"
    try:
        candidate = builtin(end.name)
    except UnknownModelError:
        candidate = None
    if candidate == end:
        return f"builtin:{end.name}"
    raise ValueError(
        f"map endpoint {end.name!r} is neither the saved model nor a builtin; "
        "save it to its own file instead"
    )


def _model_from_dict(data: dict, where: str) -> Tuple[InvariantModel, ValidationReport]:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelFileError(
            f"{where}: unsupported schema_version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    try:
        torus_rank = int(data["torus_rank"])
        gen_items = data["generators"]
        generators = tuple(
            Generator(str(item["name"]), int(item["degree"])) for item in gen_items
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{where}: bad header fields: {exc}") from exc
    names = [g.name for g in generators]
    if len(set(names)) != len(names):
        raise ModelFileError(f"{where}: duplicate generator names")
    size = len(generators)
    d = _matrix_from_triplets(data.get("d", []), size, f"{where}:d")
    raw_contr = data.get("contractions", [])
    if len(raw_contr) != torus_rank:
        raise ModelFileError(
            f"{where}: expected {torus_rank} contraction blocks, got {len(raw_contr)}"
        )
    contractions = tuple(
        _matrix_from_triplets(block, size, f"{where}:contractions[{i}]")
        for i, block in enumerate(raw_contr)
    )
    integration = {}
    for item in data.get("integration", []):
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], int)):
            raise ModelFileError(f"{where}:integration: expected [index, value]")
        idx, value = item
        if idx in integration:
            raise ModelFileError(f"{where}:integration: duplicate index {idx}")
        integration[idx] = _parse_frac(value, f"{where}:integration[{idx}]")
    product_table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for item in data.get("product_table", []):
        if not (isinstance(item, list) and len(item) == 3 and isinstance(item[2], list)):
            raise ModelFileError(
                f"{where}:product_table: expected [i, j, [[k, value], ...]]"
            )
        i, j, entries = item
        if (i, j) in product_table:
            raise ModelFileError(f"{where}:product_table: duplicate pair ({i}, {j})")
        value: Dict[int, Fraction] = {}
        for pair in entries:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ModelFileError(
                    f"{where}:product_table[{i},{j}]: expected [k, value]"
                )
            k, raw = pair
            if k in value:
                raise ModelFileError(
                    f"{where}:product_table: duplicate ({i}, {j}, {k})"
                )
            value[int(k)] = _parse_frac(raw, f"{where}:product_table[{i},{j},{k}]")
        product_table[(int(i), int(j))] = value
    named = {}
    for cname, raw in data.get("named_cocycles", {}).items():
        coeffs = {}
        for item in raw:
            if not (isinstance(item, list) and len(item) == 2):
                raise ModelFileError(
                    f"{where}:named_cocycles[{cname}]: expected [index, polynomial]"
                )
            idx, poly = item
            coeffs[int(idx)] = _poly_from_json(
                poly, torus_rank, f"{where}:named_cocycles[{cname}]"
            )
        named[str(cname)] = coeffs
    points = []
    for p in data.get("fixed_points", []):
        tangent_data = p.get("tangent", {})
        weights = tuple(
            (Weight(tuple(int(x) for x in vec)), int(mult))
            for vec, mult in tangent_data.get("weights", [])
        )
        tangent = LinearRepresentation(
            torus_rank,
            int(tangent_data.get("trivial_real_multiplicity", 0)),
            weights,
        )
        points.append(
            FixedPointDatum(
                name=str(p["name"]),
                tangent=tangent,
                evaluations={
                    str(gname): _parse_frac(
                        value, f"{where}:fixed_points[{p['name']}]"
                    )
                    for gname, value in p.get("evaluations", {}).items()
                },
                restrictions={
                    str(cname): _poly_from_json(
                        poly, torus_rank, f"{where}:fixed_points[{p['name']}]"
                    )
                    for cname, poly in p.get("restrictions", {}).items()
                },
            )
        )
    try:
        model = InvariantModel(
            name=str(data.get("name", "unnamed")),
            torus_rank=torus_rank,
            generators=generators,
            d=d,
            contractions=contractions,
            top_degree=int(data.get("top_degree", 0)),
            compact=bool(data.get("compact", False)),
            integration=integration,
            product_table=product_table,
            fixed_points=tuple(points),
            named_cocycles=named,
            notes=tuple(str(s) for s in data.get("notes", [])),
        )
    except ValueError as exc:
        raise ModelFileError(f"{where}: {exc}") from exc
    report = validate_model(model)
    if not report.ok:
        raise ModelFileError(f"{where}: model rejected:\n{report}")
    return model, report


@dataclass(frozen=True)
class ModelFile:
    """A loaded model file, with the validation reports the loader computed
    for the model and each map (all ok: the loader refuses anything else)."""

    model: InvariantModel
    maps: Mapping[str, ModelMap]
    report: ValidationReport
    map_reports: Mapping[str, MapReport]


def _resolve_map_end(ref, own_model: InvariantModel, where: str) -> InvariantModel:
    if ref == "self":
        return own_model
    if isinstance(ref, str) and ref.startswith("builtin:"):
        return builtin(ref[len("builtin:"):])
    raise ModelFileError(
        f"{where}: map endpoints must be 'self' or 'builtin:NAME', got {ref!r}"
    )


def load_model_file(path: str) -> ModelFile:
    """Parse, rebuild, and fully validate a model file (model and maps)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}:{exc.lineno}:{exc.colno}: not valid JSON: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ModelFileError(f"{path}: top level must be an object")
    model, report = _model_from_dict(data, path)
    maps, map_reports = {}, {}
    for mname, raw in data.get("maps", {}).items():
        where = f"{path}:maps[{mname}]"
        source = _resolve_map_end(raw.get("source"), model, where)
        target = _resolve_map_end(raw.get("target"), model, where)
        entries: Dict[Tuple[int, int], Fraction] = {}
        for item in raw.get("pullback", []):
            if not (isinstance(item, list) and len(item) == 3):
                raise ModelFileError(f"{where}: expected [row, col, value]")
            s, t, value = item
            entries[(int(s), int(t))] = _parse_frac(value, where)
        pullback = [
            [Fraction(0)] * len(target.generators)
            for _ in range(len(source.generators))
        ]
        for (s, t), value in entries.items():
            if not (0 <= s < len(source.generators) and 0 <= t < len(target.generators)):
                raise ModelFileError(f"{where}: pullback indices out of range")
            pullback[s][t] = value
        try:
            model_map = ModelMap(
                name=str(mname),
                source=source,
                target=target,
                pullback=tuple(tuple(row) for row in pullback),
                proper=bool(raw.get("proper", True)),
            )
        except ValueError as exc:
            raise ModelFileError(f"{where}: {exc}") from exc
        map_report = validate_map(model_map)
        if not map_report.ok:
            raise ModelFileError(f"{where}: map rejected:\n{map_report}")
        maps[str(mname)] = model_map
        map_reports[str(mname)] = map_report
    return ModelFile(model=model, maps=maps, report=report, map_reports=map_reports)


def load_model(path: str) -> InvariantModel:
    return load_model_file(path).model


def save_model(
    model: InvariantModel,
    path: str,
    maps: Optional[Mapping[str, ModelMap]] = None,
) -> None:
    """Write the canonical serialization: sorted keys, sorted triplets, two
    spaces of indent, one trailing newline — byte-stable round trips."""
    data = model_to_dict(model, maps)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def resolve_model(selector: str) -> InvariantModel:
    """'builtin:NAME' or a path to a model file."""
    if selector.startswith("builtin:"):
        return builtin(selector[len("builtin:"):])
    return load_model(selector)
