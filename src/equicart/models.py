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
    Entry,
    Generator,
    InvariantModel,
    ValidationReport,
    _columns,
    graded_product,
    validate_model,
)
from .gysin import MapReport, ModelMap, identity_map, validate_map


class UnknownModelError(ValueError):
    """Requested builtin does not exist; the message lists what does."""


class ModelFileError(ValueError):
    """A model file failed to parse or validate."""


# -- small constructors --------------------------------------------------------


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
        d=_columns(1, {}),
        contractions=(_columns(1, {}),) * torus_rank,
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
        d=_columns(2, {}),
        contractions=(_columns(2, {}),) * torus_rank,
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
        d=_columns(2, {}),
        contractions=(_columns(2, {(0, 1): 1}),),
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
        d=_columns(2, {}),
        contractions=(_columns(2, {}), _columns(2, {(0, 1): 1})),
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
    d = _columns(8, {(3, 1): 1, (4, 2): 1, (7, 5): 1})
    c = _columns(8, {(2, 5): 1, (3, 6): -1, (4, 7): -1})
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
        d=_columns(2, {}),
        contractions=(_columns(2, {(0, 1): 1}),),
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
    ``c_alpha`` supplies the fixed point, the Thom cocycle and the notes of
    the product of its blocks.
    """
    return InvariantModel(
        name=f"c_alpha({','.join(str(c) for c in weight.coeffs)})",
        torus_rank=weight.torus_rank,
        generators=(Generator("h", 0), Generator("dh", 1), Generator("v", 2)),
        d=_columns(3, {(1, 0): 1}),
        contractions=tuple(_columns(3, {(1, 2): -c}) for c in weight.coeffs),
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

    def leibniz(ma, mb) -> List[Dict[int, Entry]]:
        """m(x (x) y) = m(x) (x) y + (-1)^{|x|} x (x) m(y), column by column
        from the factors' columns, as the product's columns (the model
        drops entries that cancel and sorts the rows)."""
        columns = []
        for g in range(na):
            sign = (-1) ** (a.generators[g].degree % 2)
            for l in range(nb):
                col: Dict[int, Entry] = {}
                for h, value in ma[g].items():
                    key = flat(h, l)
                    col[key] = col.get(key, 0) + value
                for k, value in mb[l].items():
                    key = flat(g, k)
                    col[key] = col.get(key, 0) + sign * value
                columns.append(col)
        return columns

    top = a.top_degree + b.top_degree
    integration: Dict[int, Fraction] = {}
    if a.compact and b.compact:
        for ia, va in a.integration.items():
            for ib, vb in b.integration.items():
                integration[flat(ia, ib)] = va * vb
        for idx, gen in enumerate(gens):
            if gen.degree == top and idx not in integration:
                integration[idx] = Fraction(0)

    def stored_pairs(m: InvariantModel):
        """(p, q, row, sign) for every ordered pair with a stored product."""
        out = []
        for i, j in m.product_table:
            for p, q in ((i, j), (j, i)) if i != j else ((i, j),):
                row, sign = graded_product(m, p, q)
                out.append((p, q, row, sign))
        return out

    # only pairs stored in both factors have a product; keys ascending, as
    # a loop over all pairs (left, right) would insert them
    products: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    right_pairs = stored_pairs(b)
    for p1, q1, row1, sign1 in stored_pairs(a):
        for p2, q2, row2, sign2 in right_pairs:
            left, right = flat(p1, p2), flat(q1, q2)
            if left > right:
                continue
            outer = sign1 * sign2 * (-1) ** (
                b.generators[p2].degree * a.generators[q1].degree % 2
            )
            value: Dict[int, Fraction] = {}
            for k1, v1 in row1.items():
                for k2, v2 in row2.items():
                    idx = flat(k1, k2)
                    value[idx] = value.get(idx, Fraction(0)) + outer * v1 * v2
            products[(left, right)] = {k: v for k, v in value.items() if v != 0}
    products = {key: products[key] for key in sorted(products)}
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


def s2_chain() -> S2Chain:
    """point --north/south--> s2_rotation --collapse--> point."""
    pt = point(1)
    sphere = s2_rotation()
    size = len(sphere.generators)
    one, t = sphere.generator_index("one"), sphere.generator_index("t")

    def inclusion(name: str, t_value: int) -> ModelMap:
        # pullback along the evaluation at a pole: one -> 1, t -> t_value, and
        # q = (t^2 - 1)/2 evaluates to 0 at both poles
        pullback = _columns(size, {(0, one): 1, (0, t): t_value})
        return ModelMap(name=name, source=pt, target=sphere, pullback=pullback)

    collapse = ModelMap(
        name="s2_to_point",
        source=sphere,
        target=pt,
        pullback=_columns(1, {(one, 0): 1}),
    )
    return S2Chain(
        point=pt,
        sphere=sphere,
        north=inclusion("s2_north_inclusion", 1),
        south=inclusion("s2_south_inclusion", -1),
        collapse=collapse,
    )


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


def _poly_to_json(p: Polynomial) -> list:
    return [
        [list(exps), _frac_str(coeff)]
        for exps, coeff in sorted(p.terms.items())
    ]


def _triplets(columns) -> list:
    """[h, g, value] for the nonzero entries of a matrix given by its sparse
    columns, row by row."""
    return sorted(
        [h, g, _frac_str(value)]
        for g, column in enumerate(columns)
        for h, value in column.items()
    )


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
                "pullback": _triplets(m.pullback),
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


# -- reading model files -------------------------------------------------------
#
# Every section goes through the readers below, which check the JSON shape
# and refuse anything else with a ModelFileError naming where it is.


def _object(data, where: str, *required: str) -> dict:
    """A JSON object that has every required key."""
    if not isinstance(data, dict):
        raise ModelFileError(f"{where}: expected an object, got {type(data).__name__}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ModelFileError(f"{where}: missing {', '.join(missing)}")
    return data


def _list(data, where: str, length: Optional[int] = None) -> list:
    """A JSON list, of the given length when one is given."""
    if not isinstance(data, list):
        raise ModelFileError(f"{where}: expected a list, got {type(data).__name__}")
    if length is not None and len(data) != length:
        raise ModelFileError(f"{where}: expected {length} items, got {len(data)}")
    return data


def _rows(data, n: int, where: str) -> List[list]:
    """A JSON list of n-element lists."""
    return [_list(item, where, n) for item in _list(data, where)]


def _int(value, where: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """A JSON integer (not a bool, string or float) with lo <= value < hi."""
    if type(value) is not int:
        raise ModelFileError(f"{where}: expected an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        raise ModelFileError(f"{where}: {value} is out of range")
    return value


def _exact(value, kind: type, where: str):
    """A JSON value of exactly this type (bool for a flag, str for a name),
    never converted: "false" is not a flag and 7 is not a name."""
    if type(value) is not kind:
        raise ModelFileError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def _rational(value, where: str) -> Fraction:
    """An exact rational: a "p/q" string or a JSON number, read from its text."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFileError(f"{where}: bad rational {value!r}: {exc}") from exc


def _sparse(data, bounds: Sequence[int], where: str, read=_rational) -> dict:
    """Entries [i, ..., value], one index below each bound and no index given
    twice, as {index: value} (with several bounds, {(i, ...): value})."""
    out = {}
    for item in _rows(data, len(bounds) + 1, where):
        key = tuple(_int(i, where, 0, bound) for i, bound in zip(item, bounds))
        key = key if len(key) > 1 else key[0]
        if key in out:
            raise ModelFileError(f"{where}: duplicate entry {key}")
        out[key] = read(item[-1], where)
    return out


def _poly(data, torus_rank: int, where: str) -> Polynomial:
    """A polynomial [[exponents, value], ...], no monomial given twice."""
    terms = {}
    for exps, value in _rows(data, 2, where):
        key = tuple(_int(e, where, 0) for e in _list(exps, where, torus_rank))
        if key in terms:
            raise ModelFileError(f"{where}: duplicate monomial {list(key)}")
        terms[key] = _rational(value, where)
    return Polynomial(torus_rank, terms)


def _build(where: str, constructor, *args, **kwargs):
    """constructor(*args, **kwargs), whose checks refuse as a ModelFileError."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as exc:
        raise ModelFileError(f"{where}: {exc}") from exc


def _fixed_point(raw, torus_rank: int, where: str) -> FixedPointDatum:
    p = _object(raw, where, "name")
    where = f"{where}[{p['name']}]"
    tangent = _object(p.get("tangent", {}), where)
    weights = tuple(
        (tuple(_int(c, where) for c in _list(vec, where)), _int(mult, where))
        for vec, mult in _rows(tangent.get("weights", []), 2, where)
    )
    trivial = _int(tangent.get("trivial_real_multiplicity", 0), where)
    return FixedPointDatum(
        name=_exact(p["name"], str, where),
        tangent=_build(where, LinearRepresentation, torus_rank, trivial, weights),
        evaluations={
            gname: _rational(value, where)
            for gname, value in _object(p.get("evaluations", {}), where).items()
        },
        restrictions={
            cname: _poly(poly, torus_rank, where)
            for cname, poly in _object(p.get("restrictions", {}), where).items()
        },
    )


def _model_from_dict(data: dict, where: str) -> Tuple[InvariantModel, ValidationReport]:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelFileError(
            f"{where}: unsupported schema_version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    _object(data, where, "torus_rank", "generators")
    torus_rank = _int(data["torus_rank"], f"{where}:torus_rank", 0)
    generators = tuple(
        Generator(
            _exact(item["name"], str, f"{where}:generators"),
            _int(item["degree"], f"{where}:generators"),
        )
        for item in (
            _object(raw, f"{where}:generators", "name", "degree")
            for raw in _list(data["generators"], f"{where}:generators")
        )
    )
    names = [g.name for g in generators]
    if len(set(names)) != len(names):
        raise ModelFileError(f"{where}: duplicate generator names")
    size = len(generators)
    square = (size, size)

    def matrix(raw, at: str):
        return _columns(size, _sparse(raw, square, f"{where}:{at}"))

    blocks = _list(data.get("contractions", []), f"{where}:contractions", torus_rank)
    model = _build(
        where,
        InvariantModel,
        name=_exact(data.get("name", "unnamed"), str, f"{where}:name"),
        torus_rank=torus_rank,
        generators=generators,
        d=matrix(data.get("d", []), "d"),
        contractions=tuple(
            matrix(block, f"contractions[{i}]") for i, block in enumerate(blocks)
        ),
        top_degree=_int(data.get("top_degree", 0), f"{where}:top_degree"),
        compact=_exact(data.get("compact", False), bool, f"{where}:compact"),
        integration=_sparse(
            data.get("integration", []), (size,), f"{where}:integration"
        ),
        # an empty value list declares a zero product
        product_table=_sparse(
            data.get("product_table", []),
            square,
            f"{where}:product_table",
            lambda row, at: _sparse(row, (size,), at),
        ),
        fixed_points=tuple(
            _fixed_point(p, torus_rank, f"{where}:fixed_points")
            for p in _list(data.get("fixed_points", []), f"{where}:fixed_points")
        ),
        named_cocycles={
            name: _sparse(
                raw,
                (size,),
                f"{where}:named_cocycles[{name}]",
                lambda poly, at: _poly(poly, torus_rank, at),
            )
            for name, raw in _object(
                data.get("named_cocycles", {}), f"{where}:named_cocycles"
            ).items()
        },
        notes=tuple(
            _exact(s, str, f"{where}:notes")
            for s in _list(data.get("notes", []), f"{where}:notes")
        ),
    )
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


def _map_from_dict(
    raw, name: str, model: InvariantModel, where: str
) -> Tuple[ModelMap, MapReport]:
    raw = _object(raw, where)
    source = _resolve_map_end(raw.get("source"), model, where)
    target = _resolve_map_end(raw.get("target"), model, where)
    rows, cols = len(source.generators), len(target.generators)
    entries = _sparse(raw.get("pullback", []), (rows, cols), f"{where}:pullback")
    model_map = _build(
        where,
        ModelMap,
        name=name,
        source=source,
        target=target,
        pullback=_columns(cols, entries),
        proper=_exact(raw.get("proper", True), bool, f"{where}:proper"),
    )
    report = validate_map(model_map)
    if not report.ok:
        raise ModelFileError(f"{where}: map rejected:\n{report}")
    return model_map, report


def _read_json(path) -> dict:
    """The top-level object of a model file; OSError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}:{exc.lineno}:{exc.colno}: not valid JSON: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # too long a number, too deep a nest
        raise ModelFileError(f"{path}: not readable as JSON: {exc}") from exc
    return _object(data, f"{path}: top level")


def load_model_file(path: str) -> ModelFile:
    """Parse, rebuild and validate a model file: the model and every map."""
    data = _read_json(path)
    model, report = _model_from_dict(data, path)
    maps, map_reports = {}, {}
    for name, raw in _object(data.get("maps", {}), f"{path}:maps").items():
        maps[name], map_reports[name] = _map_from_dict(
            raw, name, model, f"{path}:maps[{name}]"
        )
    return ModelFile(model=model, maps=maps, report=report, map_reports=map_reports)


def load_model(path: str) -> InvariantModel:
    """The validated model of a model file; its maps are not read."""
    return _model_from_dict(_read_json(path), path)[0]


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
