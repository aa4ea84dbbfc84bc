"""Equivariant integration, the Poincare pairing, and module classification.

Integration extends the model's top-degree functional S(t)-linearly and kills
Cartan coboundaries; the pairing <a, b> = integral of a*b is perfect over the
fraction field exactly when its rank equals the generic Betti total.  Each
model holds the integral of every stored product of two generators (its
integration form), so an integral of a product is a sum over the two
supports and the product itself is never built.  At torus rank 1 the
coefficient ring is a graded principal ideal domain, so equivariant
cohomology decomposes exactly into a free part and monomial torsion blocks,
computed by Smith normal form one d_T block and parity at a time, and then
one connected component of the relation matrix at a time; the dual-module
ranks come from the same data (Ext of a torsion block against the ring is
the block again, with a degree twist).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Sequence, Tuple, Union

from .algebra import (
    Echelon,
    MatrixF,
    Polynomial,
    RationalFunction,
    UnsupportedRankError,
    smith_normal_form,
)
from .gcomplex import (
    EquivariantElement,
    GenericCohomology,
    InvariantModel,
    MissingProductError,
    _cohomology_generic,
    _component_roots,
    _same_model,
    element_product,
)

Coefficient = Union[Polynomial, RationalFunction]


class NonCompactModelError(ValueError):
    """Integration requested on a model with no integration functional."""


class DecompositionError(RuntimeError):
    """A cocycle failed to decompose in the stored cohomology basis, or a
    pairing that must be inverted is singular; this signals an inconsistent
    model or an internal bug, not bad user input."""


def integrate(model: InvariantModel, x: EquivariantElement) -> Coefficient:
    """S(t)-linear integration: apply the top-degree functional to the
    top-degree generator components and drop everything else.

    Returns a Polynomial for polynomial inputs and a RationalFunction when
    the element carries fraction-field coefficients.
    """
    if not model.compact:
        raise NonCompactModelError(
            f"model {model.name!r} carries no integration functional"
        )
    if x.model is not model:
        raise ValueError("element does not belong to the given model")
    total: Coefficient = Polynomial.zero(model.torus_rank)
    for idx, coeff in x.terms.items():
        if model.generators[idx].degree != model.top_degree:
            continue
        if idx not in model.integration:
            raise NonCompactModelError(
                f"model {model.name!r} has no integration entry for "
                f"{model.generators[idx].name!r}"
            )
        total = total + coeff * model.integration[idx]
    return total


_UNSTORED = object()  # a pair with no stored product in the integration form


def integrate_product(
    model: InvariantModel, a: EquivariantElement, b: EquivariantElement
) -> Coefficient:
    """integrate(model, element_product(model, a, b)) without the product:
    the sum of a_i * b_j * I[i, j] over the two supports, I the model's
    integration form (``_integration_form``).

    It refuses as that composition does, in the same order: a
    MissingProductError for the first pair of the two supports whose
    product is not stored, then a NonCompactModelError for a model without
    integration or for a top-degree term with no integration entry that
    survives in the product.  The last two take the composition itself.
    """
    _same_model(a, b)
    if a.model is not model:
        raise ValueError("element does not belong to the given model")
    if not model.compact:
        return integrate(model, element_product(model, a, b))
    form, generators = model._integration_form, model.generators
    total: Coefficient = Polynomial.zero(model.torus_rank)
    for i, ci in a.terms.items():
        row, inner = form[i], None
        for j, cj in b.terms.items():
            value = row.get(j, _UNSTORED)
            if value is _UNSTORED:
                raise MissingProductError(generators[i].name, generators[j].name)
            if value is None:
                return integrate(model, element_product(model, a, b))
            if value:
                inner = cj * value if inner is None else inner + cj * value
        if inner is not None:
            total = total + ci * inner
    return total


@dataclass(frozen=True)
class Pairing:
    """The Poincare pairing on the generic cohomology basis."""

    model_name: str
    names: Tuple[str, ...]
    classes: Tuple[EquivariantElement, ...]
    matrix: MatrixF

    def entry(self, i: int, j: int) -> RationalFunction:
        return self.matrix[i, j]


def pairing_matrix(model: InvariantModel) -> Pairing:
    """<rep_i, rep_j> = integrate(rep_i * rep_j) over the fraction field
    (see ModelAnalysis.pairing)."""
    return model._analysis.pairing


@dataclass(frozen=True)
class DualityReport:
    model_name: str
    pairing_rank: int
    generic_betti_total: int

    @property
    def perfect(self) -> bool:
        return self.pairing_rank == self.generic_betti_total

    def __str__(self) -> str:
        verdict = "perfect" if self.perfect else "DEGENERATE"
        return (
            f"model {self.model_name!r}: pairing rank {self.pairing_rank}, "
            f"generic Betti total {self.generic_betti_total} -> {verdict}"
        )


class ModelAnalysis:
    """What the pipeline derives from one model, each part computed on first
    use and then held: generic cohomology, the pairing on its basis, the
    duality report, the inverse pairing, and the rank-1 presentation and
    classification.  Each model holds one (``InvariantModel._analysis``),
    which every public entry point reads; a refusal is never held.  The
    rank in the report and the inverse come from one elimination of
    [pairing | identity].
    """

    def __init__(self, model: InvariantModel):
        self.model = model

    @cached_property
    def cohomology(self) -> GenericCohomology:
        return _cohomology_generic(self.model)

    @property
    def is_torsion(self) -> bool:
        """True iff the fraction-field cohomology vanishes entirely."""
        return self.cohomology.total_rank == 0

    @cached_property
    def pairing(self) -> Pairing:
        """Read from the integration form (``integrate_product``); a
        missing product raises MissingProductError naming it."""
        model, cohomology = self.model, self.cohomology
        classes = cohomology.elements()
        rows = [
            [RationalFunction.coerce(integrate_product(model, a, b), model.torus_rank)
             for b in classes]
            for a in classes
        ]
        matrix = MatrixF.from_rows(rows) if rows else MatrixF(0, 0, ())
        return Pairing(model.name, tuple(cohomology.names()), tuple(classes), matrix)

    @cached_property
    def _pairing_echelon(self) -> Echelon:
        size = self.pairing.matrix.rows
        echelon = Echelon(size, self.model.torus_rank, nrhs=size)
        for i, row in enumerate(self.pairing.matrix.row_lists()):
            echelon.add_row(row + [int(i == j) for j in range(size)])
        return echelon

    @cached_property
    def duality(self) -> DualityReport:
        """Perfect iff the pairing matrix has full rank on the generic basis.

        For a valid compact finite model this must hold; a failure indicates
        a defective model (wrong integration functional or product table)."""
        return DualityReport(
            model_name=self.model.name,
            pairing_rank=self._pairing_echelon.rank,
            generic_betti_total=self.cohomology.total_rank,
        )

    @cached_property
    def inverse_pairing(self) -> Tuple[Tuple[RationalFunction, ...], ...]:
        columns = self._pairing_echelon.solve()
        if any(column is None for column in columns):
            raise DecompositionError(
                f"pairing of {self.model.name!r} is singular; "
                "the model's integration or products are defective"
            )
        return tuple(zip(*columns))  # rows

    @cached_property
    def presentation(self) -> ModulePresentation:
        return _presentation(self.model)

    @cached_property
    def classification(self) -> ModuleClassification:
        return classify_presentation(self.presentation)


def duality_check(model: InvariantModel) -> DualityReport:
    """The duality report of the model (see ModelAnalysis.duality)."""
    return model._analysis.duality


def is_torsion(model: InvariantModel) -> bool:
    """True iff the fraction-field cohomology vanishes entirely."""
    return model._analysis.is_torsion


# -- rank-1 module classification ---------------------------------------------


@dataclass(frozen=True)
class ModulePresentation:
    """Cokernel presentation of a graded module over the rank-1 ring.

    rows of `relations` are indexed by generators, columns by relations;
    every relation column must be homogeneous for the generator degrees.
    """

    torus_rank: int
    generator_degrees: Tuple[int, ...]
    relations: Tuple[Tuple[Polynomial, ...], ...]

    def __post_init__(self):
        s = len(self.generator_degrees)
        if len(self.relations) != s:
            raise ValueError("relation matrix must have one row per generator")
        cols = len(self.relations[0]) if self.relations else 0
        for row in self.relations:
            if len(row) != cols:
                raise ValueError("ragged relation matrix")
        for j in range(cols):
            degs = set()
            for i in range(s):
                entry = self.relations[i][j]
                if entry.is_zero:
                    continue
                if not entry.is_homogeneous():
                    raise ValueError(f"relation {j} has a non-homogeneous entry")
                degs.add(2 * entry.degree() + self.generator_degrees[i])
            if len(degs) > 1:
                raise ValueError(
                    f"relation {j} mixes total degrees {sorted(degs)}"
                )

    @property
    def relation_count(self) -> int:
        return len(self.relations[0]) if self.relations else 0


@dataclass(frozen=True)
class ModuleClassification:
    """Exact decomposition: free part (with generator degrees) plus monomial
    torsion blocks Q[u]/(u^e) (with their generator degrees)."""

    free_rank: int
    free_degrees: Tuple[int, ...]
    divisors: Tuple[Polynomial, ...]
    torsion_degrees: Tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.divisors

    @property
    def is_free(self) -> bool:
        return not self.divisors

    @property
    def is_torsion_free(self) -> bool:
        # over a graded principal ideal domain these collapse
        return self.is_free

    @property
    def is_reflexive(self) -> bool:
        return self.is_free

    @property
    def is_torsion(self) -> bool:
        return self.free_rank == 0

    @property
    def dual(self) -> "ExtRank1":
        """Hom and Ext^1 into Q[u] of the classified module."""
        ext0 = ModuleClassification(
            free_rank=self.free_rank,
            free_degrees=tuple(sorted(-a for a in self.free_degrees)),
            divisors=(),
            torsion_degrees=(),
        )
        ext1 = tuple(
            (divisor, b + 2 * divisor.degree())
            for divisor, b in zip(self.divisors, self.torsion_degrees)
        )
        return ExtRank1(ext0=ext0, ext1=ext1)

    def implied_hilbert(self, cutoff: int) -> List[int]:
        """Dimension table 0..cutoff the decomposition predicts."""
        table = [0] * (cutoff + 1)
        for a in self.free_degrees:
            k = a
            while k <= cutoff:
                if k >= 0:
                    table[k] += 1
                k += 2
        for p, b in zip(self.divisors, self.torsion_degrees):
            e = p.degree()
            for step in range(e):
                k = b + 2 * step
                if 0 <= k <= cutoff:
                    table[k] += 1
        return table

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            degs = ", ".join(str(a) for a in self.free_degrees)
            parts.append(f"free rank {self.free_rank} in degrees [{degs}]")
        for p, b in zip(self.divisors, self.torsion_degrees):
            parts.append(f"torsion Q[u]/({p}) from degree {b}")
        return " + ".join(parts) if parts else "zero module"


def _column_degree(
    column: Sequence[Polynomial], generator_degrees: Sequence[int], what: str
) -> int:
    """Common total degree of a homogeneous column vector."""
    degs = set()
    for i, entry in enumerate(column):
        if entry.is_zero:
            continue
        if not entry.is_homogeneous():
            raise AssertionError(f"{what}: non-homogeneous entry {entry}")
        degs.add(2 * entry.degree() + generator_degrees[i])
    if len(degs) > 1:
        raise AssertionError(f"{what}: mixed total degrees {sorted(degs)}")
    return degs.pop() if degs else 0


def _kernel_basis_graded(
    matrix: List[List[Polynomial]], cols: int
) -> List[List[Polynomial]]:
    """Module basis of ker over Q[u]: the Smith-form V-columns past the rank."""
    if cols == 0:
        return []
    if not matrix:
        return [
            [Polynomial.one(1) if i == j else Polynomial.zero(1) for i in range(cols)]
            for j in range(cols)
        ]
    _, d, v = smith_normal_form(matrix)
    rank = sum(
        1
        for i in range(min(len(d), cols))
        if not d[i][i].is_zero
    )
    return [[v[i][j] for i in range(cols)] for j in range(rank, cols)]


def _solve_in_basis(
    basis: List[List[Polynomial]], targets: List[List[Polynomial]], length: int
) -> List[List[Polynomial]]:
    """Coordinates of each target (a vector of the given length) in a
    free-module basis; exact, must land in the polynomial ring."""
    echelon = Echelon(len(basis), torus_rank=1, nrhs=len(targets))
    for i in range(length):
        echelon.add_row([b[i] for b in basis] + [t[i] for t in targets])
    out = []
    for solution in echelon.solve():
        if solution is None:
            raise AssertionError("vector does not lie in the span of the basis")
        if not all(value.is_polynomial for value in solution):
            raise AssertionError("non-polynomial coordinate in a module basis")
        out.append([value.as_polynomial() for value in solution])
    return out


def _parity_presentation(
    model: InvariantModel, indices: List[int], others: List[int]
) -> Tuple[List[int], List[List[Polynomial]]]:
    """Generators (kernel of d_T out of the span of ``indices``) and
    relations (the image of d_T from the span of ``others``) of one parity
    of one block, as a graded presentation; ``others`` are the block's
    generators of the other parity."""
    table, zero = model._cartan_table, Polynomial.zero(1)
    gen_degrees = [model.generators[g].degree for g in indices]
    outgoing = [[table[g].get(h, zero) for g in indices] for h in others]
    kernel = _kernel_basis_graded(outgoing, len(indices))
    degrees = [
        _column_degree(col, gen_degrees, f"kernel column {j}")
        for j, col in enumerate(kernel)
    ]
    targets = [[table[h].get(g, zero) for g in indices] for h in others]
    targets = [t for t in targets if not all(entry.is_zero for entry in t)]
    relations: List[List[Polynomial]] = [[] for _ in kernel]
    for coords in _solve_in_basis(kernel, targets, len(indices)):
        for row, value in zip(relations, coords):
            row.append(value)
    return degrees, relations


def presentation_from_model(model: InvariantModel) -> ModulePresentation:
    """Graded presentation of H_T(model) over Q[u] (torus rank 1 only; see
    ModelAnalysis.presentation)."""
    return model._analysis.presentation


def _presentation(model: InvariantModel) -> ModulePresentation:
    """The computation behind ``presentation_from_model``.

    H_T is the direct sum over the model's blocks (``_blocks``) and the two
    parities, so each parity of each block is presented on its own: its
    generators are a kernel basis of d_T out of it, its relations express
    the image of d_T from the block's other parity in that basis.  The
    relation matrix is block diagonal: every even piece, block by block,
    then every odd one.
    """
    if model.torus_rank != 1:
        raise UnsupportedRankError(
            "module decomposition requires torus rank 1, got rank "
            f"{model.torus_rank}"
        )
    degrees = model.degrees()
    parts = [
        [[g for g in block if degrees[g] % 2 == p] for p in (0, 1)]
        for block in model._blocks
    ]
    pieces = [
        _parity_presentation(model, pair[p], pair[1 - p])
        for p in (0, 1)
        for pair in parts
        if pair[p]
    ]
    width = sum(len(relations[0]) for _, relations in pieces if relations)
    zero = Polynomial.zero(1)
    generator_degrees: List[int] = []
    rows: List[Tuple[Polynomial, ...]] = []
    offset = 0
    for piece_degrees, relations in pieces:
        generator_degrees.extend(piece_degrees)
        cols = len(relations[0]) if relations else 0
        for row in relations:
            rows.append((zero,) * offset + tuple(row) + (zero,) * (width - offset - cols))
        offset += cols
    return ModulePresentation(
        torus_rank=1,
        generator_degrees=tuple(generator_degrees),
        relations=tuple(rows),
    )


def _inverse_unimodular(u: List[List[Polynomial]]) -> List[List[Polynomial]]:
    size = len(u)
    echelon = Echelon(size, torus_rank=1, nrhs=size)
    for i, row in enumerate(u):
        echelon.add_row(list(row) + [int(i == j) for j in range(size)])
    columns = echelon.solve()
    if any(column is None for column in columns):
        raise AssertionError("unimodular matrix failed to invert")
    if not all(value.is_polynomial for column in columns for value in column):
        raise AssertionError("inverse of a unimodular matrix not polynomial")
    return [[columns[j][i].as_polynomial() for j in range(size)] for i in range(size)]


def _relation_components(p: ModulePresentation) -> List[Tuple[List[int], List[int]]]:
    """The connected components of the relation matrix's nonzero pattern:
    (generator rows, relation columns) per component, both ascending.  A
    generator in no relation is a component with no columns; a zero
    relation is in none."""
    s = len(p.generator_degrees)
    support = [
        [i for i in range(s) if not p.relations[i][j].is_zero]
        for j in range(p.relation_count)
    ]
    roots = _component_roots(s, support)
    components: Dict[int, Tuple[List[int], List[int]]] = {}
    for i, root in enumerate(roots):
        components.setdefault(root, ([], []))[0].append(i)
    for j, rows in enumerate(support):
        if rows:
            components[roots[rows[0]]][1].append(j)
    return list(components.values())


def _classify_component(
    relations: List[List[Polynomial]], generator_degrees: List[int]
) -> Tuple[List[int], List[Tuple[Polynomial, int]]]:
    """Free generator degrees and (divisor, generator degree) torsion blocks
    of one presented module: Smith normal form of the relation matrix, unit
    factors cancel generators, nonunit factors are the torsion divisors, the
    rest is free; degrees are read off the transformed generator basis."""
    s = len(generator_degrees)
    u, d, _ = smith_normal_form(relations)
    u_inv = _inverse_unimodular(u)
    factors = [d[i][i] for i in range(min(s, len(relations[0]))) if not d[i][i].is_zero]
    basis_degree = [
        _column_degree(
            [u_inv[i][j] for i in range(s)],
            generator_degrees,
            f"transformed generator {j}",
        )
        for j in range(s)
    ]
    torsion = [
        (factor, basis_degree[i])
        for i, factor in enumerate(factors)
        if factor.degree() > 0
    ]
    return basis_degree[len(factors):], torsion


def classify_presentation(p: ModulePresentation) -> ModuleClassification:
    """Exact decomposition of a presented module, one connected component of
    the relation matrix's nonzero pattern at a time (the module is their
    direct sum): each component with relations is classified by its own
    Smith normal form.  Every divisor of a homogeneous presentation is a
    power of u, so the merged blocks form the decomposition of the whole:
    free degrees sorted, torsion ordered by (divisor degree, generator
    degree)."""
    if p.torus_rank != 1:
        raise UnsupportedRankError("classification requires torus rank 1")
    free_degrees: List[int] = []
    torsion: List[Tuple[Polynomial, int]] = []
    for rows, cols in _relation_components(p):
        degrees = [p.generator_degrees[i] for i in rows]
        if not cols:
            free_degrees.extend(degrees)
            continue
        free, blocks = _classify_component(
            [[p.relations[i][j] for j in cols] for i in rows], degrees
        )
        free_degrees.extend(free)
        torsion.extend(blocks)
    torsion.sort(key=lambda block: (block[0].degree(), block[1]))
    return ModuleClassification(
        free_rank=len(free_degrees),
        free_degrees=tuple(sorted(free_degrees)),
        divisors=tuple(divisor for divisor, _ in torsion),
        torsion_degrees=tuple(degree for _, degree in torsion),
    )


def classify_rank1(model: InvariantModel) -> ModuleClassification:
    """Exact decomposition of H_T(model) over Q[u] (see
    ModelAnalysis.classification)."""
    return model._analysis.classification


@dataclass(frozen=True)
class ExtRank1:
    """Dual-module data of a presented module over Q[u].

    ext0 describes Hom(M, Q[u]): the dual of the free part, with negated
    generator degrees.  ext1 lists (divisor, twist) pairs: each torsion block
    Q[u]/(u^e) generated in degree b contributes Ext^1 = Q[u]/(u^e) with
    twist b + 2e, read off the free resolution of the block.
    """

    ext0: ModuleClassification
    ext1: Tuple[Tuple[Polynomial, int], ...]

    @property
    def dual_hom_vanishes(self) -> bool:
        return self.ext0.is_zero


def ext_rank1(p: ModulePresentation) -> ExtRank1:
    return classify_presentation(p).dual
