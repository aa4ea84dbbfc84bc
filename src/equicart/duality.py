"""Equivariant integration, the Poincare pairing, and module classification.

Integration extends the model's top-degree functional S(t)-linearly and kills
Cartan coboundaries; the pairing <a, b> = integral of a*b is perfect over the
fraction field exactly when its rank equals the generic Betti total.  At torus
rank 1 the coefficient ring is a graded principal ideal domain, so equivariant
cohomology decomposes exactly into a free part and monomial torsion blocks,
computed by Smith normal form of the parity boundary matrices; the dual-module
ranks come from the same data (Ext of a torsion block against the ring is the
block again, with a degree twist).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

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
    cartan_parity_matrices,
    cohomology_generic,
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


@dataclass(frozen=True)
class Pairing:
    """The Poincare pairing on the generic cohomology basis."""

    model_name: str
    names: Tuple[str, ...]
    classes: Tuple[EquivariantElement, ...]
    matrix: MatrixF

    def entry(self, i: int, j: int) -> RationalFunction:
        return self.matrix[i, j]


def pairing_matrix(
    model: InvariantModel, cohomology: Optional[GenericCohomology] = None
) -> Pairing:
    """<rep_i, rep_j> = integrate(rep_i * rep_j) over the fraction field.

    Needs every product of representative components in the product table;
    a missing pair raises MissingProductError naming it.
    """
    if cohomology is None:
        cohomology = cohomology_generic(model)
    classes = cohomology.elements()
    n = model.torus_rank
    rows = []
    for a in classes:
        row = []
        for b in classes:
            value = integrate(model, element_product(model, a, b))
            row.append(RationalFunction.coerce(value, n))
        rows.append(row)
    if rows:
        matrix = MatrixF.from_rows(rows)
    else:
        matrix = MatrixF(0, 0, ())
    return Pairing(
        model_name=model.name,
        names=tuple(cohomology.names()),
        classes=tuple(classes),
        matrix=matrix,
    )


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
    duality report and the inverse pairing.

    The rank in the report and the inverse come from one elimination of
    [pairing | identity].  Nothing is shared between analyses: a caller that
    needs several parts for one model builds one analysis and asks it.
    """

    def __init__(self, model: InvariantModel):
        self.model = model

    @cached_property
    def cohomology(self) -> GenericCohomology:
        return cohomology_generic(self.model)

    @property
    def is_torsion(self) -> bool:
        """True iff the fraction-field cohomology vanishes entirely."""
        return self.cohomology.total_rank == 0

    @cached_property
    def pairing(self) -> Pairing:
        return pairing_matrix(self.model, self.cohomology)

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
    def inverse_pairing(self) -> List[List[RationalFunction]]:
        columns = self._pairing_echelon.solve()
        if any(column is None for column in columns):
            raise DecompositionError(
                f"pairing of {self.model.name!r} is singular; "
                "the model's integration or products are defective"
            )
        size = len(columns)
        return [[columns[j][i] for j in range(size)] for i in range(size)]


def duality_check(model: InvariantModel) -> DualityReport:
    """Perfect iff the pairing matrix has full rank on the generic basis
    (see ModelAnalysis.duality)."""
    return ModelAnalysis(model).duality


def is_torsion(model: InvariantModel) -> bool:
    """True iff the fraction-field cohomology vanishes entirely."""
    return ModelAnalysis(model).is_torsion


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
    model: InvariantModel,
    indices: List[int],
    a_out: List[List[Polynomial]],
    a_in: List[List[Polynomial]],
    in_count: int,
) -> Tuple[List[int], List[List[Polynomial]]]:
    """Generators (kernel of a_out) and relations (image of a_in) of one
    parity piece of equivariant cohomology, as a graded presentation."""
    gen_degrees = [model.generators[i].degree for i in indices]
    kernel = _kernel_basis_graded(a_out, len(indices))
    degrees = [
        _column_degree(col, gen_degrees, f"kernel column {j}")
        for j, col in enumerate(kernel)
    ]
    targets = [[a_in[i][j] for i in range(len(indices))] for j in range(in_count)]
    targets = [t for t in targets if not all(entry.is_zero for entry in t)]
    relations: List[List[Polynomial]] = [[] for _ in kernel]
    for coords in _solve_in_basis(kernel, targets, len(indices)):
        for row, value in zip(relations, coords):
            row.append(value)
    return degrees, relations


def presentation_from_model(model: InvariantModel) -> ModulePresentation:
    """Graded presentation of H_T(model) over Q[u] (torus rank 1 only):
    parity by parity, generators are a kernel basis of the outgoing Cartan
    matrix and relations express the incoming image in that basis."""
    if model.torus_rank != 1:
        raise UnsupportedRankError(
            "module decomposition requires torus rank 1, got rank "
            f"{model.torus_rank}"
        )
    even, odd, a_eo, a_oe = cartan_parity_matrices(model)
    even_degrees, even_relations = _parity_presentation(
        model, even, a_eo, a_oe, len(odd)
    )
    odd_degrees, odd_relations = _parity_presentation(
        model, odd, a_oe, a_eo, len(even)
    )
    degrees = even_degrees + odd_degrees
    e_cols = len(even_relations[0]) if even_relations else 0
    o_cols = len(odd_relations[0]) if odd_relations else 0
    zero = Polynomial.zero(1)
    rows: List[Tuple[Polynomial, ...]] = []
    for row in even_relations:
        rows.append(tuple(row) + (zero,) * o_cols)
    for row in odd_relations:
        rows.append((zero,) * e_cols + tuple(row))
    return ModulePresentation(
        torus_rank=1,
        generator_degrees=tuple(degrees),
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


def classify_presentation(p: ModulePresentation) -> ModuleClassification:
    """Smith normal form of the relation matrix; unit factors cancel
    generators, nonunit factors are the torsion divisors, the rest is free.
    Degrees are read off the transformed generator basis."""
    if p.torus_rank != 1:
        raise UnsupportedRankError("classification requires torus rank 1")
    s = len(p.generator_degrees)
    if s == 0:
        return ModuleClassification(0, (), (), ())
    if p.relation_count == 0:
        return ModuleClassification(
            s, tuple(sorted(p.generator_degrees)), (), ()
        )
    u, d, _ = smith_normal_form([list(row) for row in p.relations])
    u_inv = _inverse_unimodular(u)
    factors = []
    for i in range(min(s, p.relation_count)):
        if not d[i][i].is_zero:
            factors.append(d[i][i])
    rank = len(factors)
    basis_degree = [
        _column_degree(
            [u_inv[i][j] for i in range(s)],
            list(p.generator_degrees),
            f"transformed generator {j}",
        )
        for j in range(s)
    ]
    divisors = []
    torsion_degrees = []
    for i, factor in enumerate(factors):
        if factor.degree() == 0:
            continue
        divisors.append(factor)
        torsion_degrees.append(basis_degree[i])
    free_degrees = sorted(basis_degree[j] for j in range(rank, s))
    return ModuleClassification(
        free_rank=s - rank,
        free_degrees=tuple(free_degrees),
        divisors=tuple(divisors),
        torsion_degrees=tuple(torsion_degrees),
    )


def classify_rank1(model: InvariantModel) -> ModuleClassification:
    """Exact decomposition of H_T(model) over Q[u]."""
    return classify_presentation(presentation_from_model(model))


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
