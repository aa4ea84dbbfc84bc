"""Equivariant integration, the Poincare pairing, and module classification.

Integration extends the model's top-degree functional S(t)-linearly and kills
Cartan coboundaries; the pairing <a, b> = integral of a*b is perfect over the
fraction field exactly when its rank equals the generic Betti total.  Each
model holds the integral of every stored product of two generators (its
integration form), so an integral of a product is a sum over the two
supports and the product itself is never built.  At torus rank 1 the
coefficient ring is a graded principal ideal domain and every entry of d_T
is a monomial c * u^k, so equivariant cohomology decomposes exactly into a
free part and torsion blocks Q[u]/(u^k), read off one d_T block at a time by
a column reduction with Q coefficients alone (``_graded_pairs``, as in
persistent homology, run on the library's one echelon core); a presented
module is classified by the same reduction of its relation columns.  The
dual-module ranks come from the same data (Ext of a torsion block against
the ring is the block again, with a degree twist).
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
)
from .gcomplex import (
    Entry,
    EquivariantElement,
    GenericCohomology,
    InvariantModel,
    MissingProductError,
    _cohomology_generic,
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
    duality report, the inverse pairing, and the rank-1 classification and
    the minimal presentation it implies.  Each model holds one
    (``InvariantModel._analysis``), which every public entry point reads; a
    refusal is never held.  The rank in the report and the inverse come
    from one elimination of [pairing | identity].
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
    def classification(self) -> ModuleClassification:
        return _classification(self.model)

    @cached_property
    def presentation(self) -> ModulePresentation:
        return _minimal_presentation(self.classification)


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


def presentation_from_model(model: InvariantModel) -> ModulePresentation:
    """The minimal graded presentation of H_T(model) over Q[u] (torus rank 1
    only; see ModelAnalysis.presentation)."""
    return model._analysis.presentation


def _graded_pairs(
    columns: Sequence[Tuple[int, Dict[int, Entry]]], row_degrees: Sequence[int]
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Column reduction of a homogeneous matrix over Q[u] with Q coefficients
    alone (Zomorodian and Carlsson, Computing persistent homology, 2005).

    Column j is (degree_j, {row r: c}), standing for the entries c *
    u^((degree_j - row_degrees[r]) / 2), so u^m times a column is the same
    dictionary.  Columns are taken in (degree, index) order; a column's
    pivot is its row of largest (degree, index), its entry of least power
    of u, and an earlier column with the same pivot clears it.  Returns the
    (pivot row, column) pairs and the columns that reduce to zero.  The
    pivots are distinct, so the cokernel is Q[u]/(u^k) on each pivot row r
    of a column j, k = (degree_j - row_degrees[r]) / 2, plus a free summand
    on every other row.
    """
    # one Echelon over Z with a row per column, its columns the rows in
    # descending (degree, index) order: a new row's leading column is then
    # its row of largest (degree, index) left after reduction, set by the
    # ranks of sub-matrices and so the persistence pivot
    rows = sorted(
        {r for _, column in columns for r in column},
        key=lambda r: (row_degrees[r], r),
        reverse=True,
    )
    position = {r: k for k, r in enumerate(rows)}
    echelon = Echelon(len(rows))
    pairs: List[Tuple[int, int]] = []
    zeros: List[int] = []
    for j in sorted(range(len(columns)), key=lambda j: (columns[j][0], j)):
        if echelon.add_row({position[r]: c for r, c in columns[j][1].items()}):
            pairs.append((rows[echelon.pivots[-1]], j))
        else:
            zeros.append(j)
    return pairs, zeros


def _decomposition(
    free_degrees: List[int], torsion: List[Tuple[int, int]]
) -> ModuleClassification:
    """The classification with these free degrees and a summand Q[u]/(u^k)
    from degree b per (k, b) in ``torsion`` with k > 0 (k = 0 cancels): free
    degrees sorted, torsion ordered by (k, b)."""
    torsion = sorted(summand for summand in torsion if summand[0])
    return ModuleClassification(
        free_rank=len(free_degrees),
        free_degrees=tuple(sorted(free_degrees)),
        divisors=tuple(Polynomial.monomial(1, [k]) for k, _ in torsion),
        torsion_degrees=tuple(degree for _, degree in torsion),
    )


def _classification(model: InvariantModel) -> ModuleClassification:
    """The computation behind ``classify_rank1``: d_T reduced by
    ``_graded_pairs`` one block (``_blocks``) at a time, H_T being the direct
    sum of the blocks' cohomologies.  Column g has degree |g| + 1 and holds
    d[h][g] on each h of degree |g| + 1 and c[h][g] (times u) on each h of
    degree |g| - 1, read from the columns of d and c; an entry anywhere else
    would make d_T's entry no monomial of that degree.  A pair (h, g) is
    Q[u]/(u^k) from degree |h|, k = (|g| + 1 - |h|) / 2, which cancels when
    k = 0; a column that reduces to zero and is no pair's row is a free
    summand in degree |g|."""
    if model.torus_rank != 1:
        raise UnsupportedRankError(
            "module decomposition requires torus rank 1, got rank "
            f"{model.torus_rank}"
        )
    degrees, operators = model.degrees(), (model.d, *model.contractions)
    free: List[int] = []
    torsion: List[Tuple[int, int]] = []
    for block in model._blocks:
        columns = []
        for g in block:
            column: Dict[int, Entry] = {}
            for operator, shift in zip(operators, (1, -1)):
                for h, value in operator[g].items():
                    if degrees[h] != degrees[g] + shift:
                        raise AssertionError(
                            f"d_T of {model.generators[g].name}: the entry at "
                            f"{model.generators[h].name} is not a monomial of "
                            f"degree {degrees[g] + 1}"
                        )
                    column[h] = value
            columns.append((degrees[g] + 1, column))
        pairs, zeros = _graded_pairs(columns, degrees)
        torsion.extend(((columns[j][0] - degrees[h]) // 2, degrees[h]) for h, j in pairs)
        rows = {h for h, _ in pairs}
        free.extend(degrees[block[j]] for j in zeros if block[j] not in rows)
    return _decomposition(free, torsion)


def _minimal_presentation(c: ModuleClassification) -> ModulePresentation:
    """One generator per summand of the classification, free ones first, and
    one relation u^k per torsion summand."""
    degrees = c.free_degrees + c.torsion_degrees
    zero = Polynomial.zero(1)
    relations = tuple(
        tuple(divisor if i == c.free_rank + j else zero for j, divisor in enumerate(c.divisors))
        for i in range(len(degrees))
    )
    return ModulePresentation(torus_rank=1, generator_degrees=degrees, relations=relations)


def classify_presentation(p: ModulePresentation) -> ModuleClassification:
    """Exact decomposition of a presented module: ``_graded_pairs`` on its
    relation columns.  A pair (generator i, relation j) is Q[u]/(u^k) from
    the degree of i, with k the power of u in the pivot entry, and cancels
    generator i when k = 0; a generator that is no pair's row is free."""
    if p.torus_rank != 1:
        raise UnsupportedRankError("classification requires torus rank 1")
    degrees = p.generator_degrees
    columns = []
    for j in range(p.relation_count):
        column: Dict[int, Fraction] = {}
        degree = 0
        for i, row in enumerate(p.relations):
            # a nonzero homogeneous entry over Q[u] is one term c * u^e
            for (e,), c in row[j].terms.items():
                column[i], degree = c, degrees[i] + 2 * e
        columns.append((degree, column))
    pairs, _ = _graded_pairs(columns, degrees)
    rows = {i for i, _ in pairs}
    return _decomposition(
        [b for i, b in enumerate(degrees) if i not in rows],
        [((columns[j][0] - degrees[i]) // 2, degrees[i]) for i, j in pairs],
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
