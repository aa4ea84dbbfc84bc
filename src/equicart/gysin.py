"""Model maps, pullbacks, localized Gysin morphisms, Thom extension, and
subtorus restriction.

A map of models is carried contravariantly by a degree-0 rational matrix on
generators that commutes with d and with every contraction.  Its Gysin
(wrong-way) morphism is the unique fraction-field matrix adjoint to the
pullback under the two Poincare pairings:

    <f* a_i, b_j>_source = <a_i, X b_j>_target   for all basis pairs,

solved as X = P_target^-1 * F^t * P_source and re-verified entry by entry
against integrals of products computed independently of the solver (from
each model's integration form).

Each map holds one MapAnalysis, which reads the analyses its two models
hold, so each part of the flow is computed once per model or per map.

Thom extension turns a closed top form into an equivariant cocycle by
solving one rational linear system per polynomial step; when a contraction
image fails to be exact the obstruction error names the component degree
where extension stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    Echelon,
    MatrixF,
    Polynomial,
    RationalFunction,
    matmul,
)
from .duality import DecompositionError, integrate_product
from .euler import FixedPointDatum
from .gcomplex import (
    EquivariantElement,
    InvariantModel,
    Columns,
    Entry,
    _cartan_column,
    _component_roots,
    _composed_column,
    _stored_columns,
    apply_rational_matrix,
    cartan_differential,
    degree_violations,
    element_product,
    operator_residuals,
    zero_element,
)


class MapStructureError(ValueError):
    """Shape or rank problems detected before any commutation check."""


class ThomInputError(ValueError):
    """Raised when the top form given to thom_extend is not a d-closed,
    homogeneous element of the model with constant rational coefficients."""


class ObstructionError(RuntimeError):
    """Thom extension hit a contraction image that is not exact."""

    def __init__(self, component_degree: int, detail: str):
        super().__init__(
            f"extension obstructed at component degree {component_degree}: {detail}"
        )
        self.component_degree = component_degree


@dataclass(frozen=True)
class ModelMap:
    """A map of spaces f: source -> target, stored through its pullback.

    The pullback is given by its columns, one per target generator:
    pullback[t] is the mapping {s: coefficient of source generator s in the
    pullback of target generator t} (an int or a Fraction).  It is stored
    like a model's operators (read-only columns, zeros dropped, rows
    ascending, an integral entry as an int, so the operator identities of
    validate_map compute on ints; a wrong shape or entry type is a
    MapStructureError); it has
    degree 0 and commutes with d and with every contraction (checked by
    validate_map).  ``_analysis`` (a MapAnalysis) is built on first use and
    kept.
    """

    name: str
    source: InvariantModel
    target: InvariantModel
    pullback: Columns
    proper: bool = True

    def __post_init__(self):
        if self.source.torus_rank != self.target.torus_rank:
            raise MapStructureError(
                f"map {self.name!r}: source rank {self.source.torus_rank} != "
                f"target rank {self.target.torus_rank}"
            )
        shape = (len(self.source.generators), len(self.target.generators))
        where = f"map {self.name!r}: pullback"
        pullback = _stored_columns(self.pullback, *shape, where, MapStructureError)
        object.__setattr__(self, "pullback", pullback)

    @cached_property
    def _analysis(self) -> "MapAnalysis":
        return MapAnalysis(self)


def identity_map(model: InvariantModel) -> ModelMap:
    return ModelMap(
        name=f"identity:{model.name}",
        source=model,
        target=model,
        pullback=tuple({g: 1} for g in range(len(model.generators))),
    )


def compose_maps(second: ModelMap, first: ModelMap) -> ModelMap:
    """The composite (second o first): source of first into target of second;
    pullbacks compose the other way round."""
    if first.target is not second.source:
        raise MapStructureError(
            f"cannot compose {second.name!r} after {first.name!r}: "
            "inner models differ"
        )
    product = [(first.pullback, second.pullback, 1)]
    return ModelMap(
        name=f"{second.name}*{first.name}",
        source=first.source,
        target=second.target,
        pullback=tuple(
            _composed_column(product, t) for t in range(len(second.target.generators))
        ),
        proper=first.proper and second.proper,
    )


@dataclass(frozen=True)
class MapIssue:
    law: str
    where: str
    witness: str

    def __str__(self) -> str:
        return f"[{self.law}] at {self.where}: {self.witness}"


@dataclass(frozen=True)
class MapReport:
    map_name: str
    issues: Tuple[MapIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return f"map {self.map_name!r}: pullback commutes with d and all c_i"
        lines = [f"map {self.map_name!r}: {len(self.issues)} violation(s)"]
        lines += [f"  - {issue}" for issue in self.issues]
        return "\n".join(lines)


def validate_map(f: ModelMap) -> MapReport:
    """Exact matrix identities: degree 0, pullback*d = d*pullback and
    pullback*c_i = c_i*pullback for every i, read from the sparse columns
    of the pullback and of both models' operators."""
    issues: List[MapIssue] = []
    src, tgt = f.source, f.target
    pullback = f.pullback
    for s, t in sorted(degree_violations(pullback, src.degrees(), tgt.degrees())):
        issues.append(
            MapIssue(
                law="pullback has degree 0",
                where=f"{tgt.generators[t].name} -> {src.generators[s].name}",
                witness=(
                    f"degrees {tgt.generators[t].degree} -> "
                    f"{src.generators[s].degree}"
                ),
            )
        )

    labels = ["d"] + [f"c_{i + 1}" for i in range(src.torus_rank)]
    for label, target_op, source_op in zip(
        labels, (tgt.d, *tgt.contractions), (src.d, *src.contractions)
    ):
        residuals = operator_residuals(
            src.generators, [(pullback, target_op, 1), (source_op, pullback, -1)]
        )
        issues.extend(
            MapIssue(
                law=f"pullback commutes with {label}",
                where=tgt.generators[t].name,
                witness=witness,
            )
            for t, witness in residuals
        )
    return MapReport(map_name=f.name, issues=tuple(issues))


def pullback_element(f: ModelMap, x: EquivariantElement) -> EquivariantElement:
    """Apply the pullback matrix S(t)-linearly to a target element."""
    if x.model is not f.target:
        raise ValueError("element does not live on the map's target")
    return apply_rational_matrix(f.source, f.pullback, x)


def _parity_of(x: EquivariantElement) -> int:
    parities = {x.model.generators[i].degree % 2 for i in x.terms}
    if len(parities) != 1:
        raise DecompositionError("element mixes parities")
    return parities.pop()


def decompose_in_basis(
    model: InvariantModel,
    basis: Sequence[EquivariantElement],
    x: EquivariantElement,
) -> List[RationalFunction]:
    """Coordinates of [x] in a cohomology basis, modulo Cartan coboundaries,
    over the fraction field.

    Solves x = sum_k coeff_k * basis_k + d_T(y) on the parity slice of x.
    """
    return decompose_many(model, basis, [x])[0]


def _decomposition_groups(
    model: InvariantModel, basis: Sequence[EquivariantElement]
) -> List[int]:
    """Per generator, its group: the model's blocks (``_blocks``), joined
    wherever one basis class has support in several of them, each group
    named by its first block.  The complex, the image of d_T and the span
    of the basis are direct sums over the groups."""
    block_of = [0] * len(model.generators)
    for b, block in enumerate(model._blocks):
        for g in block:
            block_of[g] = b
    supports = ([block_of[g] for g in x.terms] for x in basis)
    roots = _component_roots(len(model._blocks), supports)
    return [roots[b] for b in block_of]


def decompose_many(
    model: InvariantModel,
    basis: Sequence[EquivariantElement],
    elements: Sequence[EquivariantElement],
) -> List[List[RationalFunction]]:
    """``decompose_in_basis`` for each element, group by group.

    The complex and the image of d_T are direct sums over the model's
    blocks, and so is the span of a basis whose classes each lie in one
    block (blocks that one class spans are taken together as a group).  So
    [x] = sum_k coeff_k [basis_k] holds exactly when it holds for the piece
    of x in each group, against that group's classes and d_T columns: one
    elimination per group and parity that some element touches, with the
    pieces of those elements as right-hand sides."""
    n = model.torus_rank
    zero = RationalFunction.constant(n, 0)
    out = [[zero] * len(basis) for _ in elements]
    nonzero = [pos for pos, x in enumerate(elements) if not x.is_zero]
    if not nonzero:
        return out
    group = _decomposition_groups(model, basis)
    members: Dict[int, List[int]] = {}
    for g, g_id in enumerate(group):
        members.setdefault(g_id, []).append(g)
    touched: Dict[Tuple[int, int], List[int]] = {}  # (group, parity) -> positions
    for pos in nonzero:
        x = elements[pos]
        parity = _parity_of(x)
        for key in dict.fromkeys((group[g], parity) for g in x.terms):
            touched.setdefault(key, []).append(pos)
    classes: Dict[Tuple[int, int], List[int]] = {}  # (group, parity) -> classes
    for k, b in enumerate(basis):
        if not b.is_zero:
            classes.setdefault((group[next(iter(b.terms))], _parity_of(b)), []).append(k)
    degrees = model.degrees()
    for (g_id, parity), positions in touched.items():
        rows = [g for g in members[g_id] if degrees[g] % 2 == parity]
        own = classes.get((g_id, parity), [])
        boundary = [
            column
            for column in (
                {h: e for h, e in _cartan_column(model, g).items() if degrees[h] % 2 == parity}
                for g in members[g_id]
                if degrees[g] % 2 != parity
            )
            if column
        ]
        width = len(own) + len(boundary)
        columns = [basis[k].terms for k in own] + boundary
        columns += [elements[pos].terms for pos in positions]
        echelon = Echelon(width, n, nrhs=len(positions))
        # last generator first: a computed representative has coefficient 1
        # at the last generator of its support (its kernel vector's free
        # variable), so that row becomes its pivot and the newest pivot D,
        # the one divisor of back substitution, stays a constant
        for h in reversed(rows):
            echelon.add_row(
                {col: column[h] for col, column in enumerate(columns) if h in column}
            )
        for pos, solution in zip(positions, echelon.solve()):
            if solution is None:
                raise DecompositionError(
                    f"cocycle does not decompose in the basis of {model.name!r}"
                )
            for col, k in enumerate(own):
                out[pos][k] = solution[col]
    return out


def _matrix_with_shape(rows: List[list], nrows: int, ncols: int) -> MatrixF:
    """MatrixF that keeps explicit dimensions even when one of them is 0."""
    return MatrixF(nrows, ncols, tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class GysinMatrix:
    """f_* on generic cohomology bases, adjoint to the pullback.

    matrix[k][j]: coefficient of target class k in the image of source
    class j.  degree_shift records top(source) - top(target); it is the
    cohomological degree the morphism adds.
    """

    map_name: str
    source_basis: Tuple[str, ...]
    target_basis: Tuple[str, ...]
    matrix: MatrixF
    degree_shift: int


@dataclass(frozen=True)
class ProjectionFormulaReport:
    map_name: str
    entries: Tuple[Tuple[str, str, Tuple[RationalFunction, ...]], ...]

    @property
    def ok(self) -> bool:
        return all(
            all(value.is_zero for value in residual)
            for _, _, residual in self.entries
        )

    def __str__(self) -> str:
        status = "all zero" if self.ok else "NONZERO RESIDUALS"
        lines = [f"projection formula for {self.map_name!r}: {status}"]
        for alpha, beta, residual in self.entries:
            text = ", ".join(str(v) for v in residual)
            lines.append(f"  ({alpha}, {beta}): [{text}]")
        return "\n".join(lines)


def _gysin_image(
    f: ModelMap, gysin: GysinMatrix, target_classes, j: int
) -> EquivariantElement:
    """f_* of source basis class j, as a target element over the fraction
    field."""
    out = zero_element(f.target)
    for k in range(gysin.matrix.rows):
        coeff = gysin.matrix[k, j]
        if coeff.is_zero:
            continue
        out = out + target_classes[k].scaled(coeff)
    return out


def _polynomial_form(x: EquivariantElement) -> EquivariantElement:
    """x with each coefficient that is a polynomial held as a Polynomial, so
    that products multiply in Q[u]: the same values, without fraction-field
    arithmetic."""
    return EquivariantElement(x.model, {
        g: c.numerator if isinstance(c, RationalFunction) and c.is_polynomial else c
        for g, c in x.terms.items()
    })


class MapAnalysis:
    """What the pipeline derives from one map, each part computed on first
    use and then held: the pullback on cohomology and the verified Gysin
    matrix, from the analyses its source and target hold.  Each map holds
    one (``ModelMap._analysis``); a refusal is never held."""

    def __init__(self, f: ModelMap):
        self.map = f
        self.source = f.source._analysis
        self.target = f.target._analysis

    @cached_property
    def pullback(self) -> MatrixF:
        """The matrix of f* between generic cohomology bases: column i holds
        the source-basis coordinates of the pullback of target
        representative i."""
        f = self.map
        source_basis = self.source.cohomology.elements()
        columns = decompose_many(
            f.source,
            source_basis,
            [pullback_element(f, rep) for rep in self.target.cohomology.elements()],
        )
        rows = [
            [columns[j][i] for j in range(len(columns))]
            for i in range(len(source_basis))
        ]
        return _matrix_with_shape(rows, len(source_basis), len(columns))

    @cached_property
    def gysin(self) -> GysinMatrix:
        """Solve the adjunction for f_* and re-verify it independently.

        Both models must be compact with perfect pairings.  A torsion target
        has an empty localized basis; the matrix then has zero rows and the
        adjunction holds vacuously.
        """
        f = self.map
        for analysis in (self.source, self.target):
            report = analysis.duality
            if not report.perfect:
                raise DecompositionError(
                    f"model {analysis.model.name!r} fails duality ({report}); "
                    "Gysin is not determined"
                )
        source_pairing = self.source.pairing
        target_pairing = self.target.pairing
        pullback = self.pullback

        zero = RationalFunction.constant(f.source.torus_rank, 0)
        s_dim = len(source_pairing.names)
        t_dim = len(target_pairing.names)
        if t_dim == 0 or s_dim == 0:
            matrix = _matrix_with_shape([[] for _ in range(t_dim)], t_dim, s_dim)
        else:
            f_t = [
                [pullback[i, j] for i in range(pullback.rows)]
                for j in range(pullback.cols)
            ]  # transpose: t_dim x s_dim
            rhs = matmul(f_t, source_pairing.matrix.row_lists(), zero)
            x = matmul(self.target.inverse_pairing, rhs, zero)
            matrix = _matrix_with_shape(x, t_dim, s_dim)
        gysin = GysinMatrix(
            map_name=f.name,
            source_basis=tuple(source_pairing.names),
            target_basis=tuple(target_pairing.names),
            matrix=matrix,
            degree_shift=f.source.top_degree - f.target.top_degree,
        )
        bad = [entry for entry in self.residuals(gysin) if not entry[2].is_zero]
        if bad:
            i, j, value = bad[0]
            raise DecompositionError(
                f"adjunction residual nonzero at basis pair ({i}, {j}): {value}"
            )
        return gysin

    def residuals(
        self, gysin: GysinMatrix
    ) -> List[Tuple[int, int, RationalFunction]]:
        """<f* a_i, b_j>_source - <a_i, f_* b_j>_target for every basis pair,
        computed from integrals of products only (independent of the
        solver)."""
        f = self.map
        n = f.source.torus_rank
        source_classes = self.source.cohomology.elements()
        target_classes = self.target.cohomology.elements()
        pushed = [
            _gysin_image(f, gysin, target_classes, j) for j in range(len(source_classes))
        ]
        out = []
        for i, alpha in enumerate(target_classes):
            pulled = pullback_element(f, alpha)
            for j, beta in enumerate(source_classes):
                lhs = RationalFunction.coerce(integrate_product(f.source, pulled, beta), n)
                rhs = RationalFunction.coerce(
                    integrate_product(f.target, alpha, pushed[j]), n
                )
                out.append((i, j, lhs - rhs))
        return out

    def projection_formula(
        self, samples: Optional[Sequence[Tuple[int, int]]] = None
    ) -> ProjectionFormulaReport:
        """Residuals of f_*(f* a * b) - a * f_*(b) in target-basis
        coordinates, for sampled pairs (a = target class index, b = source
        class index); default samples every basis pair.  A pair outside the
        two bases is a ValueError.

        Each distinct pair is checked once: f* a once per target class and
        f_* b once per source class that a pair names, products in Q[u]
        where the coefficients are polynomials, one decomposition per side,
        and the Gysin matrix applied over its nonzero entries."""
        f = self.map
        gysin = self.gysin
        source_coh = self.source.cohomology
        target_coh = self.target.cohomology
        source_classes = source_coh.elements()
        target_classes = target_coh.elements()
        t, s = len(target_classes), len(source_classes)
        if samples is None:
            samples = [(i, j) for i in range(t) for j in range(s)]
        samples = [tuple(pair) for pair in samples]
        for i, j in samples:
            if not (0 <= i < t and 0 <= j < s):
                raise ValueError(
                    f"sample ({i}, {j}) is outside the bases of {f.name!r}: "
                    f"need 0 <= i < {t} (target classes) and 0 <= j < {s} "
                    "(source classes)"
                )
        pairs = list(dict.fromkeys(samples))
        sources = [_polynomial_form(b) for b in source_classes]
        targets = [_polynomial_form(a) for a in target_classes]
        pulled = {
            i: _polynomial_form(pullback_element(f, target_classes[i]))
            for i in {i for i, _ in pairs}
        }
        pushed = {
            j: _polynomial_form(_gysin_image(f, gysin, target_classes, j))
            for j in {j for _, j in pairs}
        }
        mixed = [element_product(f.source, pulled[i], sources[j]) for i, j in pairs]
        rhs = [element_product(f.target, targets[i], pushed[j]) for i, j in pairs]
        mixed_coords = decompose_many(f.source, source_classes, mixed)
        rhs_coords = decompose_many(f.target, target_classes, rhs)
        zero = RationalFunction.constant(f.source.torus_rank, 0)
        gysin_rows = [
            [(jj, g) for jj, g in enumerate(row) if not g.is_zero]
            for row in gysin.matrix.entries
        ]
        names_t, names_s = target_coh.names(), source_coh.names()
        checked = {}
        for (i, j), coords, rhs_k in zip(pairs, mixed_coords, rhs_coords):
            lhs = [sum((g * coords[jj] for jj, g in row), zero) for row in gysin_rows]
            residual = tuple(a - b for a, b in zip(lhs, rhs_k))
            checked[i, j] = (names_t[i], names_s[j], residual)
        return ProjectionFormulaReport(
            map_name=f.name, entries=tuple(checked[pair] for pair in samples)
        )


def pullback_cohomology(f: ModelMap) -> MatrixF:
    """The matrix of f* between generic cohomology bases (see
    MapAnalysis.pullback)."""
    return f._analysis.pullback


def gysin_localized(f: ModelMap) -> GysinMatrix:
    """The verified Gysin matrix of f (see MapAnalysis.gysin)."""
    return f._analysis.gysin


def adjunction_residuals(
    f: ModelMap, gysin: GysinMatrix
) -> List[Tuple[int, int, RationalFunction]]:
    """The adjunction residual of every basis pair (see
    MapAnalysis.residuals)."""
    return f._analysis.residuals(gysin)


def projection_formula_check(
    f: ModelMap, samples: Optional[Sequence[Tuple[int, int]]] = None
) -> ProjectionFormulaReport:
    """The projection-formula report of f (see
    MapAnalysis.projection_formula)."""
    return f._analysis.projection_formula(samples)


# -- Thom extension -----------------------------------------------------------


def _degree_slice(model: InvariantModel, degree: int) -> List[int]:
    return [i for i, g in enumerate(model.generators) if g.degree == degree]


def thom_extend(model: InvariantModel, phi_top: EquivariantElement) -> EquivariantElement:
    """Extend a closed top form to an equivariant cocycle.

    phi_top must have constant rational coefficients, be homogeneous of some
    generator degree k, and be d-closed.  The result Phi has top component
    phi_top, satisfies cartan_differential(Phi) = 0, and is built degree by
    degree: the coefficient of each monomial u^a with |a| = j solves

        d(x_j[a]) = - sum_i c_i(x_{j-1}[a - e_i])

    over Q.  If a right-hand side is not exact the extension is obstructed
    and the error names the component degree k - 2j where it happened.
    """
    if phi_top.model is not model:
        raise ThomInputError("phi_top does not belong to the given model")
    if phi_top.is_zero:
        return phi_top
    n = model.torus_rank
    top_vec: Dict[int, Fraction] = {}
    degrees = set()
    for idx, coeff in phi_top.terms.items():
        if isinstance(coeff, RationalFunction):
            if not coeff.is_polynomial:
                raise ThomInputError("phi_top coefficients must be rational constants")
            coeff = coeff.as_polynomial()
        cd = coeff.cohomological_degree()
        if cd != 0:
            raise ThomInputError("phi_top coefficients must be rational constants")
        top_vec[idx] = coeff.terms.get((0,) * n, Fraction(0))
        degrees.add(model.generators[idx].degree)
    if len(degrees) != 1:
        raise ThomInputError("phi_top must be homogeneous in generator degree")
    k = degrees.pop()

    if not apply_rational_matrix(model, model.d, phi_top).is_zero:
        raise ThomInputError("phi_top is not d-closed")

    # components[j] maps exponent tuple (|a| = j) -> generator vector over Q
    components: List[Dict[tuple, Dict[int, Fraction]]] = [
        {(0,) * n: dict(top_vec)}
    ]
    j = 1
    while True:
        prev = components[j - 1]
        rhs: Dict[tuple, Dict[int, Fraction]] = {}
        for exps, vec in prev.items():
            for i in range(n):
                bumped = tuple(e + 1 if v == i else e for v, e in enumerate(exps))
                target = rhs.setdefault(bumped, {})
                for g, value in vec.items():
                    for h, entry in model.contractions[i][g].items():
                        target[h] = target.get(h, 0) - entry * value
        rhs = {
            exps: {h: v for h, v in vec.items() if v != 0}
            for exps, vec in rhs.items()
        }
        rhs = {exps: vec for exps, vec in rhs.items() if vec}
        if not rhs:
            break
        component_degree = k - 2 * j
        domain = _degree_slice(model, component_degree) if component_degree >= 0 else []
        image_slice = _degree_slice(model, component_degree + 1)
        items = sorted(rhs.items())
        # one elimination of d: domain -> image slice for every monomial
        echelon = Echelon(len(domain), nrhs=len(items))
        for h in image_slice:
            echelon.add_row(
                [model.d[g].get(h, 0) for g in domain] + [vec.get(h, 0) for _, vec in items]
            )
        solved: Dict[tuple, Dict[int, Fraction]] = {}
        for (exps, vec), solution in zip(items, echelon.solve()):
            if any(h not in image_slice for h in vec):
                raise ObstructionError(
                    component_degree,
                    "contraction image leaves the expected degree slice",
                )
            if solution is None:
                raise ObstructionError(
                    component_degree,
                    "contraction image is not exact "
                    f"(monomial u^{exps})",
                )
            solved[exps] = {
                g: value for g, value in zip(domain, solution) if value != 0
            }
        components.append(solved)
        if not any(solved.values()):
            break
        j += 1

    terms: Dict[int, Polynomial] = {}
    for level in components:
        for exps, vec in level.items():
            for g, value in vec.items():
                mono = Polynomial.monomial(n, exps, value)
                terms[g] = terms[g] + mono if g in terms else mono
    result = EquivariantElement(model, terms)
    if not cartan_differential(model, result).is_zero:
        raise AssertionError("extension is not closed; internal solver bug")
    return result


# -- subtorus restriction ------------------------------------------------------


def _substitution_images(a: Sequence[Sequence[int]], r: int) -> List[Polynomial]:
    """u_i |-> sum_j a[i][j] v_j as rank-r polynomials."""
    return [Polynomial.linear(row) if r else Polynomial.zero(0) for row in a]


def _integer_rows(a: Sequence[Sequence]) -> List[List[int]]:
    """The restriction matrix as int rows; a non-integral entry is refused
    rather than truncated."""
    rows = []
    for i, row in enumerate(a):
        out = []
        for j, entry in enumerate(row):
            value = Fraction(entry)
            if value.denominator != 1:
                raise ValueError(
                    f"restriction matrix entry {entry!r} at row {i + 1}, column "
                    f"{j + 1} is not an integer"
                )
            out.append(int(value))
        rows.append(out)
    return rows


def restrict_subtorus(
    model: InvariantModel, a: Sequence[Sequence[int]]
) -> InvariantModel:
    """Restrict the torus along an integer matrix with one row per current
    variable and one column per new variable.

    New contractions are c'_j = sum_i a[i][j] c_i, summed column by column
    over the nonzero entries; polynomial data moves by the substitution
    u_i |-> sum_j a[i][j] v_j; tangent weights transport by the transpose
    action, with killed weights folded into the trivial part.  Zero columns
    (r = 0) produce the ordinary, nonequivariant complex.  An entry that is
    not an integer (1.5, Fraction(3, 2)) is a ValueError.
    """
    n = model.torus_rank
    if len(a) != n:
        raise ValueError(f"restriction matrix needs {n} rows, got {len(a)}")
    r = len(a[0]) if n and len(a) else 0
    for row in a:
        if len(row) != r:
            raise ValueError("ragged restriction matrix")
    a = _integer_rows(a)
    new_contractions = []
    for j in range(r):
        columns: List[Dict[int, Entry]] = [{} for _ in model.generators]
        for i in range(n):
            if a[i][j]:
                for g, column in enumerate(model.contractions[i]):
                    for h, value in column.items():
                        columns[g][h] = columns[g].get(h, 0) + a[i][j] * value
        new_contractions.append(columns)

    images = _substitution_images(a, r)
    named = {}
    for name, raw in model.named_cocycles.items():
        restricted = {idx: coeff.substitute(images) for idx, coeff in raw.items()}
        restricted = {idx: value for idx, value in restricted.items() if not value.is_zero}
        if restricted:
            named[name] = restricted

    points = []
    for p in model.fixed_points:
        points.append(
            FixedPointDatum(
                name=p.name,
                tangent=p.tangent.restricted(a),
                evaluations=dict(p.evaluations),
                restrictions={
                    cname: poly.substitute(images)
                    for cname, poly in p.restrictions.items()
                    if cname in named
                },
            )
        )

    return replace(
        model,
        name=f"{model.name}|restricted",
        torus_rank=r,
        contractions=tuple(new_contractions),
        named_cocycles=named,
        fixed_points=tuple(points),
    )


def restrict_map(f: ModelMap, a: Sequence[Sequence[int]]) -> ModelMap:
    """The same pullback matrix between the two restricted models."""
    return ModelMap(
        name=f"{f.name}|restricted",
        source=restrict_subtorus(f.source, a),
        target=restrict_subtorus(f.target, a),
        pullback=f.pullback,
        proper=f.proper,
    )
