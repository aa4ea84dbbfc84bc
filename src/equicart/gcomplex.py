"""Finite invariant torus models and their equivariant cohomology.

A model is a finite graded complex with a degree +1 differential d and one
degree -1 contraction operator per torus variable, subject to d*d = 0,
d*c_i + c_i*d = 0 and c_i*c_j + c_j*c_i = 0.  The associated equivariant
complex has underlying space S(t) tensor C with the differential

    d_T(P tensor g) = P tensor d(g) + sum_i (u_i * P) tensor c_i(g),

and its cohomology is computed two ways: exactly degree by degree over Q
(Hilbert table), and generically over the fraction field, where the grading
collapses to parity because the degree-2 variables become invertible.

A model stores d and each c_i in one form, by their sparse columns: per
generator g the nonzero entries {h: value} of column g, h ascending, each
column read-only.  Every reader works on them:

- d_T: column g of d_T holds h -> d[h][g] + sum_i u_i c_i[h][g]
  (``_cartan_column`` builds these Q[u] entries for the columns a caller
  needs); ``cartan_differential`` applies it to an element's support, the
  generic engine feeds its entries between the two parities of each block
  to the eliminations column by column (image) or transposed (kernel), and
  the Hilbert engine reads the d and c_i terms straight from the columns;
- validation: degree checks walk the nonzero entries, and each operator
  identity composes columns (column g of A o B is the sum of B[k][g] times
  column k of A over the nonzero entries of B's column g), so a check costs
  the products of nonzero entries, not g^3;
- the blocks: the connected components of the nonzero pattern of d_T, with
  the support of each named cocycle joined.  C is their direct sum as a
  complex and H_T the direct sum of their cohomologies, so both engines,
  the rank-1 module presentation and the decomposition of classes
  eliminate block by block; a product of models has one block per pair of
  factor blocks, and elimination that never mixes them keeps the
  fraction-free coefficients from growing across blocks.

At torus rank 1 the Hilbert table is periodic past the top generator
degree (multiplication by u maps each slice onto the slice two above), and
at any other rank a table that is free up to that degree is free to the
cutoff, so in both cases its cost depends on the top degree, not on the
cutoff.

Whether a model faithfully truncates the invariant forms of an actual group
action is the caller's assertion; the model IS the input.  The builtin
library documents its derivations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from math import comb, lcm
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .algebra import Echelon, Polynomial, RationalFunction, _poly
from .euler import FixedPointDatum

Coefficient = Union[Polynomial, RationalFunction]
Entry = Union[int, Fraction]  # of d, a c_i or a pullback: an int when integral
Columns = Sequence[Mapping[int, Entry]]  # a matrix by its sparse columns
_ENTRY_TYPES = frozenset({int, Fraction})  # of the entries of d and the c_i


class ModelStructureError(ValueError):
    """Dimension or schema problems detected before any axiom check."""


class MissingProductError(KeyError):
    """A needed generator product is absent from the partial table."""

    def __init__(self, left: str, right: str):
        super().__init__((left, right))
        self.left = left
        self.right = right

    def __str__(self) -> str:
        return f"product table has no entry for ({self.left}, {self.right})"


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


@dataclass(frozen=True)
class InvariantModel:
    """A finite invariant model; immutable after construction.

    d and each contraction are given by their columns, one per generator:
    d[g] is the mapping {h: coefficient of generator h in d(g)} (an int or a
    Fraction), and likewise for each contraction.  The constructor refuses a
    wrong column count, a row out of range or another entry type with a
    ModelStructureError, and stores each column read-only, zeros dropped and
    rows ascending, so ``==`` compares the operators' values.  An integral
    entry is stored as an int (``Fraction(2)`` as ``2``, which is equal and
    hashes alike), so the operator identities compute on ints and the rows
    that the eliminations read from the columns need no denominators
    cleared.  The product
    table is stored on canonical index pairs (i, j) with i <= j; the swapped
    product carries the graded sign (-1)^{|i||j|}.  Integration assigns a
    rational to every generator of degree top_degree when the model is
    compact.

    Every view and analysis derived from the model is computed on first use
    and stored on the instance: ``_blocks``, ``_integration_form`` and
    ``_analysis`` (duality.ModelAnalysis).  A refusal is not stored;
    ``dataclasses.replace`` makes a new model.
    """

    name: str
    torus_rank: int
    generators: Tuple[Generator, ...]
    d: Columns
    contractions: Tuple[Columns, ...]
    top_degree: int
    compact: bool = False
    integration: Mapping[int, Fraction] = field(default_factory=dict)
    product_table: Mapping[Tuple[int, int], Mapping[int, Fraction]] = field(
        default_factory=dict
    )
    fixed_points: Tuple[FixedPointDatum, ...] = ()
    named_cocycles: Mapping[str, Mapping[int, Polynomial]] = field(
        default_factory=dict
    )
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        g = len(self.generators)
        where = f"model {self.name!r}"
        if self.torus_rank < 0:
            raise ModelStructureError(
                f"{where}: torus rank must be >= 0, got {self.torus_rank}"
            )
        if len(self.contractions) != self.torus_rank:
            raise ModelStructureError(
                f"{where}: expected {self.torus_rank} contraction "
                f"matrices, got {len(self.contractions)}"
            )
        object.__setattr__(
            self, "d", _stored_columns(self.d, g, g, f"{where}: d", ModelStructureError)
        )
        object.__setattr__(self, "contractions", tuple(
            _stored_columns(c, g, g, f"{where}: c_{i + 1}", ModelStructureError)
            for i, c in enumerate(self.contractions)
        ))
        for key in self.integration:
            if not 0 <= key < g:
                raise ModelStructureError(
                    f"model {self.name!r}: integration entry for unknown generator {key}"
                )
        for (i, j) in self.product_table:
            if not (0 <= i < g and 0 <= j < g):
                raise ModelStructureError(
                    f"model {self.name!r}: product entry for unknown pair ({i}, {j})"
                )
            if i > j:
                raise ModelStructureError(
                    f"model {self.name!r}: product keys must satisfy i <= j, got ({i}, {j})"
                )

    # -- lookups ----------------------------------------------------------

    def generator_index(self, name: str) -> int:
        for i, gen in enumerate(self.generators):
            if gen.name == name:
                return i
        raise KeyError(f"model {self.name!r} has no generator {name!r}")

    def degrees(self) -> List[int]:
        return [g.degree for g in self.generators]

    def parity_indices(self) -> Tuple[List[int], List[int]]:
        even = [i for i, g in enumerate(self.generators) if g.degree % 2 == 0]
        odd = [i for i, g in enumerate(self.generators) if g.degree % 2 == 1]
        return even, odd

    def default_cutoff(self) -> int:
        return 2 * self.top_degree + 2 * self.torus_rank + 4

    @cached_property
    def _blocks(self) -> Tuple[Tuple[int, ...], ...]:
        """The generators split into the connected components of d_T's
        nonzero pattern: every nonzero entry of d or a c_i joins its row and
        its column, wrong-degree entries included, so each block is stable
        under d and every c_i.
        The support of each named cocycle is joined too, so every named
        cocycle lies in one block.  Blocks are ordered by their smallest
        generator, each ascending.  C is the direct sum of its blocks as a
        complex, and H_T the direct sum of their cohomologies."""
        entries = (
            (g, h)
            for operator in (self.d, *self.contractions)
            for g, column in enumerate(operator)
            for h in column
        )
        supports = (list(raw) for raw in self.named_cocycles.values())
        roots = _component_roots(len(self.generators), chain(entries, supports))
        blocks: Dict[int, List[int]] = {}
        for g, root in enumerate(roots):
            blocks.setdefault(root, []).append(g)
        return tuple(map(tuple, blocks.values()))

    @cached_property
    def _integration_form(self) -> Tuple[Dict[int, Optional[Fraction]], ...]:
        """The integral of every stored product of two generators, read
        once from the product table and ``integration``: per generator i,
        {j: integral of g_i * g_j} over every j whose product with i is
        stored, in either order (a swapped pair carries the graded sign).
        Exact, and nonzero only where the product reaches the top degree.
        None marks a product with a nonzero term on a top-degree generator
        that has no integration entry: only the whole product of two
        elements can tell whether that term survives."""
        top, degrees = self.top_degree, self.degrees()
        form: List[Dict[int, Optional[Fraction]]] = [{} for _ in self.generators]
        for (i, j), row in self.product_table.items():
            value: Optional[Fraction] = Fraction(0)
            for k, entry in row.items():
                if degrees[k] != top or not entry:
                    continue
                if k not in self.integration:
                    value = None
                    break
                value += entry * self.integration[k]
            form[i][j] = value
            if i != j:
                odd = value is not None and degrees[i] * degrees[j] % 2
                form[j][i] = -value if odd else value
        return tuple(form)

    @cached_property
    def _analysis(self):
        from .duality import ModelAnalysis  # duality imports this module

        return ModelAnalysis(self)


def _component_roots(count: int, links: Iterable[Sequence[int]]) -> List[int]:
    """Per element of 0..count-1, the smallest element of its connected
    component, where each link joins all of its members (union-find)."""
    root = list(range(count))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for link in links:
        for y in link[1:]:
            a, b = find(link[0]), find(y)
            root[max(a, b)] = min(a, b)
    return [find(x) for x in range(count)]


def _stored_columns(
    columns, height: int, width: int, where: str, error: type
) -> Tuple[Mapping[int, Entry], ...]:
    """A height x width matrix, given as a tuple or list of columns {row:
    entry}, in its stored form: per column, a read-only {row: entry} over the
    nonzero entries, rows ascending, an integral entry as an int and any
    other as a Fraction.  A wrong column count, a column that is not a
    mapping, a row that is not an int in range(height) and an entry that is
    not an int or a Fraction are each an ``error``."""
    if type(columns) not in (tuple, list) or len(columns) != width:
        raise error(f"{where} must be a tuple of {width} columns")
    stored = []
    for g, column in enumerate(columns):
        if not isinstance(column, Mapping):
            raise error(
                f"{where}: column {g} is a {type(column).__name__}, "
                "not a mapping {row: entry}"
            )
        for h, value in column.items():
            if type(h) is not int or not 0 <= h < height:
                raise error(f"{where}: row {h!r} of column {g} is not in range({height})")
            if type(value) not in _ENTRY_TYPES:
                raise error(
                    f"{where} entry at row {h}, column {g} is {value!r} "
                    f"({type(value).__name__}), not an int or a Fraction"
                )
        stored.append(
            MappingProxyType({h: _integral(column[h]) for h in sorted(column) if column[h]})
        )
    return tuple(stored)


def _integral(value: Entry) -> Entry:
    """An integral entry as an int, any other as its Fraction."""
    return value.numerator if value.denominator == 1 else value


def _columns(width: int, entries: Mapping[Tuple[int, int], Entry]) -> List[dict]:
    """The ``width`` columns of the matrix with these entries {(h, g):
    value}: per column g, {h: value}."""
    columns: List[dict] = [{} for _ in range(width)]
    for (h, g), v in entries.items():
        columns[g][h] = v
    return columns


def _cartan_column(model: InvariantModel, g: int) -> Dict[int, Polynomial]:
    """Column g of d_T over Q[u]: {h: d[h][g] + sum_i u_i c_i[h][g]} over its
    nonzero entries, h ascending; entries of the wrong degree or parity are
    kept, each caller filters its own."""
    n = model.torus_rank
    terms: Dict[int, dict] = {}
    for i, operator in enumerate((model.d, *model.contractions)):
        exps = tuple(int(j == i - 1) for j in range(n))
        for h, value in operator[g].items():
            terms.setdefault(h, {})[exps] = value
    column = {}
    for h in sorted(terms):
        # over the lcm of the reduced denominators, the canonical pair
        den = lcm(*[v.denominator for v in terms[h].values()])
        num = {e: v.numerator * (den // v.denominator) for e, v in terms[h].items()}
        column[h] = _poly(n, num, den)
    return column


@dataclass(frozen=True)
class EquivariantElement:
    """Finite sum of coefficient tensor generator terms; immutable, its
    ``terms`` read-only, so a stored result can be shared.

    Coefficients are Polynomial for genuine Cartan-complex elements and may be
    RationalFunction for localized (fraction-field) representatives.
    """

    model: InvariantModel
    terms: Mapping[int, Coefficient]

    def __post_init__(self):
        clean = {}
        for idx, coeff in self.terms.items():
            if not 0 <= idx < len(self.model.generators):
                raise ValueError(f"unknown generator index {idx}")
            if isinstance(coeff, (int, Fraction)):
                coeff = Polynomial.constant(self.model.torus_rank, coeff)
            if coeff.torus_rank != self.model.torus_rank:
                raise ValueError("coefficient rank does not match the model")
            if not coeff.is_zero:
                clean[idx] = coeff
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, index: int) -> Coefficient:
        return self.terms.get(index, Polynomial.zero(self.model.torus_rank))

    def __add__(self, other: "EquivariantElement") -> "EquivariantElement":
        _same_model(self, other)
        terms = dict(self.terms)
        for idx, coeff in other.terms.items():
            terms[idx] = terms.get(idx, 0) + coeff if idx in terms else coeff
        return EquivariantElement(self.model, terms)

    def __neg__(self) -> "EquivariantElement":
        return EquivariantElement(self.model, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "EquivariantElement") -> "EquivariantElement":
        return self + (-other)

    def scaled(self, factor) -> "EquivariantElement":
        return EquivariantElement(
            self.model, {i: c * factor for i, c in self.terms.items()}
        )

    def total_degree(self) -> Optional[int]:
        """Common total degree 2*polydeg + |g| of all terms, or None."""
        degs = set()
        for idx, coeff in self.terms.items():
            if isinstance(coeff, RationalFunction):
                if not coeff.is_polynomial:
                    return None
                coeff = coeff.as_polynomial()
            cd = coeff.cohomological_degree()
            if cd is None:
                return None
            degs.add(cd + self.model.generators[idx].degree)
        if len(degs) != 1:
            return None
        return degs.pop()

    def __eq__(self, other):
        if not isinstance(other, EquivariantElement):
            return NotImplemented
        if self.model is not other.model:
            return False
        keys = set(self.terms) | set(other.terms)
        n = self.model.torus_rank
        for k in keys:
            a = RationalFunction.coerce(self.coefficient(k), n)
            b = RationalFunction.coerce(other.coefficient(k), n)
            if a != b:
                return False
        return True

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for idx in sorted(self.terms):
            coeff = self.terms[idx]
            name = self.model.generators[idx].name
            text = str(coeff)
            if text == "1":
                parts.append(name)
            else:
                wrapped = text if ("+" not in text and " - " not in text) else f"({text})"
                parts.append(f"{wrapped}*{name}")
        return " + ".join(parts)


def _same_model(a: EquivariantElement, b: EquivariantElement) -> None:
    if a.model is not b.model:
        raise ValueError(
            f"element of model {a.model.name!r} combined with {b.model.name!r}"
        )


def element(model: InvariantModel, terms: Mapping) -> EquivariantElement:
    """Build an element from {generator name or index: coefficient}."""
    resolved = {}
    for key, coeff in terms.items():
        idx = key if isinstance(key, int) else model.generator_index(key)
        resolved[idx] = resolved.get(idx, 0) + coeff if idx in resolved else coeff
    return EquivariantElement(model, resolved)


def zero_element(model: InvariantModel) -> EquivariantElement:
    return EquivariantElement(model, {})


def named_cocycle_element(model: InvariantModel, name: str) -> EquivariantElement:
    if name not in model.named_cocycles:
        raise KeyError(f"model {model.name!r} has no named cocycle {name!r}")
    return EquivariantElement(model, dict(model.named_cocycles[name]))


def apply_rational_matrix(
    model: InvariantModel,
    columns: Sequence[Mapping[int, object]],
    x: EquivariantElement,
) -> EquivariantElement:
    """Extend a generator-space matrix, given by its sparse columns,
    S(t)-linearly to elements: sum over the terms P tensor g of x of
    P * entry tensor h over the nonzero entries {h: entry} of column g."""
    terms: Dict[int, Coefficient] = {}
    for g, coeff in x.terms.items():
        for h, entry in columns[g].items():
            add = coeff * entry
            terms[h] = terms[h] + add if h in terms else add
    return EquivariantElement(model, terms)


def cartan_differential(
    model: InvariantModel, x: EquivariantElement
) -> EquivariantElement:
    """d_T(P tensor g) = P tensor d(g) + sum_i (u_i P) tensor c_i(g), one
    pass over the columns of d_T on the support of x."""
    if x.model is not model:
        raise ValueError("element does not belong to the given model")
    return apply_rational_matrix(model, {g: _cartan_column(model, g) for g in x.terms}, x)


def graded_product(
    model: InvariantModel, i: int, j: int
) -> Optional[Tuple[Mapping[int, Fraction], int]]:
    """(row, sign): the table row stored for generators i * j under the
    canonical key (min, max), and the graded sign (-1)^{|i||j|} the product
    carries when i > j; None when the partial table has no entry."""
    if i <= j:
        row, sign = model.product_table.get((i, j)), 1
    else:
        row = model.product_table.get((j, i))
        sign = (-1) ** (model.generators[i].degree * model.generators[j].degree % 2)
    return None if row is None else (row, sign)


def element_product(
    model: InvariantModel, x: EquivariantElement, y: EquivariantElement
) -> EquivariantElement:
    """Product through the partial table; missing needed pairs raise
    MissingProductError naming the generator pair."""
    _same_model(x, y)
    terms: Dict[int, Coefficient] = {}
    for i, ci in x.terms.items():
        for j, cj in y.terms.items():
            found = graded_product(model, i, j)
            if found is None:
                raise MissingProductError(
                    model.generators[i].name, model.generators[j].name
                )
            row, sign = found
            for k, val in row.items():
                add = ci * cj * (val * sign)
                terms[k] = terms[k] + add if k in terms else add
    return EquivariantElement(model, terms)


def evaluate_at_point(x: EquivariantElement, datum: FixedPointDatum) -> Coefficient:
    """Restriction of an element to a fixed point: positive-degree generators
    die, degree-0 generators take their recorded values."""
    model = x.model
    total: Coefficient = Polynomial.zero(model.torus_rank)
    for idx, coeff in x.terms.items():
        gen = model.generators[idx]
        if gen.degree > 0:
            continue
        value = datum.evaluations.get(gen.name, Fraction(0))
        total = total + coeff * value
    return total


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    axiom: str
    where: str
    witness: str

    def __str__(self) -> str:
        return f"[{self.axiom}] at {self.where}: {self.witness}"


@dataclass(frozen=True)
class ValidationReport:
    model_name: str
    issues: Tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return f"model {self.model_name!r}: all axioms hold"
        lines = [f"model {self.model_name!r}: {len(self.issues)} violation(s)"]
        lines += [f"  - {issue}" for issue in self.issues]
        return "\n".join(lines)


def _composed_column(
    products: Sequence[Tuple[Columns, Columns, int]], g: int
) -> Dict[int, Fraction]:
    """Column g of the sum of sign * (outer o inner) over the products
    (outer, inner, sign), each operator given by its sparse columns: column
    g of outer o inner is the sum of inner[k][g] times column k of outer
    over the nonzero entries of inner's column g.  Entries that cancel are
    kept as zeros."""
    col: Dict[int, Fraction] = {}
    for outer, inner, sign in products:
        for k, b in inner[g].items():
            b = b if sign > 0 else -b
            for h, a in outer[k].items():
                col[h] = col[h] + a * b if h in col else a * b
    return col


def operator_residuals(
    rows: Sequence[Generator], products: Sequence[Tuple[Columns, Columns, int]]
) -> Iterator[Tuple[int, str]]:
    """(column, witness) for each column of sum of sign * (outer o inner)
    over the products (outer, inner, sign) that is not zero (see
    ``_composed_column``).  Rows are indexed by ``rows`` and the witness
    lists the column's nonzero entries, rows ascending, as "value*name"
    joined by " + "."""
    for g in range(len(products[0][1]) if products else 0):
        col = _composed_column(products, g)
        nonzero = sorted(h for h, value in col.items() if value)
        if nonzero:
            yield g, " + ".join(f"{col[h]}*{rows[h].name}" for h in nonzero)


def degree_violations(
    columns: Columns, row_degrees: Sequence[int], col_degrees: Sequence[int], shift: int = 0
) -> List[Tuple[int, int]]:
    """(row, col) of every nonzero entry, read from the matrix's sparse
    columns, whose row degree is not its column degree plus shift; column
    by column, rows ascending within a column."""
    return [
        (h, g)
        for g, column in enumerate(columns)
        for h in column
        if row_degrees[h] != col_degrees[g] + shift
    ]


def validate_model(model: InvariantModel) -> ValidationReport:
    """Check every structural axiom; an empty report means the model is a
    valid invariant g-complex with consistent auxiliary data."""
    issues: List[ValidationIssue] = []
    gens = model.generators
    size = len(gens)
    degrees = model.degrees()
    d, contractions = model.d, model.contractions

    def check_degree_shift(columns, shift: int, label: str):
        # column by column: the issues of one generator's image stay together
        for h, g in degree_violations(columns, degrees, degrees, shift):
            issues.append(
                ValidationIssue(
                    axiom=f"{label} has degree {shift:+d}",
                    where=f"{gens[g].name} -> {gens[h].name}",
                    witness=f"degrees {degrees[g]} -> {degrees[h]}",
                )
            )

    check_degree_shift(d, +1, "d")
    for i, c in enumerate(contractions):
        check_degree_shift(c, -1, f"c_{i + 1}")

    def operator_identity(axiom: str, where: str, *products):
        issues.extend(
            ValidationIssue(axiom=axiom, where=where + gens[g].name, witness=witness)
            for g, witness in operator_residuals(gens, products)
        )

    operator_identity("d o d = 0", "", (d, d, 1))
    for i, c in enumerate(contractions):
        operator_identity("d o c + c o d = 0", f"c_{i + 1} on ", (d, c, 1), (c, d, 1))
    for i, ci in enumerate(contractions):
        for j, cj in enumerate(contractions[i:], i):
            operator_identity(
                "c_i o c_j + c_j o c_i = 0",
                f"(c_{i + 1}, c_{j + 1}) on ",
                (ci, cj, 1),
                (cj, ci, 1),
            )

    for g in range(size):
        if degrees[g] > model.top_degree:
            issues.append(
                ValidationIssue(
                    axiom="generator degrees bounded by top_degree",
                    where=gens[g].name,
                    witness=f"degree {degrees[g]} > {model.top_degree}",
                )
            )

    for (i, j), value in model.product_table.items():
        expected = degrees[i] + degrees[j]
        for k, coeff in value.items():
            if coeff != 0 and degrees[k] != expected:
                issues.append(
                    ValidationIssue(
                        axiom="product degree additivity",
                        where=f"{gens[i].name} * {gens[j].name}",
                        witness=f"lands on {gens[k].name} of degree {degrees[k]},"
                        f" expected {expected}",
                    )
                )
        if i == j and degrees[i] % 2 == 1:
            # odd square must vanish by graded commutativity
            if any(coeff != 0 for coeff in value.values()):
                issues.append(
                    ValidationIssue(
                        axiom="graded commutativity",
                        where=f"{gens[i].name} * {gens[i].name}",
                        witness="odd generator has nonzero square",
                    )
                )

    if model.compact:
        for g in range(size):
            if degrees[g] == model.top_degree and g not in model.integration:
                issues.append(
                    ValidationIssue(
                        axiom="integration covers top degree",
                        where=gens[g].name,
                        witness="no integration entry",
                    )
                )
    for g in model.integration:
        if degrees[g] != model.top_degree:
            issues.append(
                ValidationIssue(
                    axiom="integration only on top degree",
                    where=gens[g].name,
                    witness=f"degree {degrees[g]} != {model.top_degree}",
                )
            )

    for name, raw in model.named_cocycles.items():
        x = EquivariantElement(model, dict(raw))
        if x.total_degree() is None:
            issues.append(
                ValidationIssue(
                    axiom="named cocycles homogeneous",
                    where=name,
                    witness="mixed total degree",
                )
            )
        dx = cartan_differential(model, x)
        if not dx.is_zero:
            issues.append(
                ValidationIssue(
                    axiom="named cocycles closed",
                    where=name,
                    witness=str(dx),
                )
            )

    gen_names = {g.name for g in gens}
    degree0 = {g.name for g in gens if g.degree == 0}
    for p in model.fixed_points:
        if p.tangent.torus_rank != model.torus_rank:
            issues.append(
                ValidationIssue(
                    axiom="fixed-point tangent rank",
                    where=p.name,
                    witness=f"rank {p.tangent.torus_rank} != {model.torus_rank}",
                )
            )
        elif p.tangent.real_dimension != model.top_degree:
            issues.append(
                ValidationIssue(
                    axiom="fixed-point tangent dimension",
                    where=p.name,
                    witness=f"dim {p.tangent.real_dimension} != {model.top_degree}",
                )
            )
        for gname in p.evaluations:
            if gname not in gen_names:
                issues.append(
                    ValidationIssue(
                        axiom="fixed-point evaluations name generators",
                        where=p.name,
                        witness=f"unknown generator {gname!r}",
                    )
                )
            elif gname not in degree0:
                issues.append(
                    ValidationIssue(
                        axiom="fixed-point evaluations only in degree 0",
                        where=p.name,
                        witness=f"{gname!r} has positive degree",
                    )
                )
        for cname, restriction in p.restrictions.items():
            if cname in model.named_cocycles:
                expected = evaluate_at_point(
                    named_cocycle_element(model, cname), p
                )
                got = RationalFunction.coerce(restriction, model.torus_rank)
                if RationalFunction.coerce(expected, model.torus_rank) != got:
                    issues.append(
                        ValidationIssue(
                            axiom="restrictions match cocycle evaluations",
                            where=f"{cname} at {p.name}",
                            witness=f"declared {restriction}, evaluated {expected}",
                        )
                    )
    return ValidationReport(model_name=model.name, issues=tuple(issues))


# -- generic (fraction-field) cohomology --------------------------------------


def _parity_columns(
    model: InvariantModel, sources: Sequence[int], targets: Sequence[int]
) -> List[Dict[int, Polynomial]]:
    """The entries of d_T from the sources into the targets (the generators
    of the other parity), column by column: per source generator, {target
    position: entry}, positions ascending.  Entries into a generator of the
    source's own parity lie outside the 2-periodic complex and are dropped."""
    position = {h: k for k, h in enumerate(targets)}
    return [
        {position[h]: entry for h, entry in _cartan_column(model, g).items() if h in position}
        for g in sources
    ]


def _transposed(columns: Sequence[Mapping[int, Polynomial]], height: int) -> List[dict]:
    """The rows of a block given by its columns, keys ascending."""
    rows: List[dict] = [{} for _ in range(height)]
    for g, column in enumerate(columns):
        for h, entry in column.items():
            rows[h][g] = entry
    return rows


@dataclass(frozen=True)
class GenericCohomology:
    """Ranks and representatives over the fraction field."""

    even_rank: int
    odd_rank: int
    representatives: Tuple[Tuple[str, EquivariantElement], ...]

    @property
    def total_rank(self) -> int:
        return self.even_rank + self.odd_rank

    def names(self) -> List[str]:
        return [name for name, _ in self.representatives]

    def elements(self) -> List[EquivariantElement]:
        return [el for _, el in self.representatives]


def _echelon(rows, width: int, torus_rank: Optional[int]) -> Echelon:
    echelon = Echelon(width, torus_rank)
    for row in rows:
        echelon.add_row(row)
    return echelon


@dataclass
class _Part:
    """One parity of one block of the 2-periodic complex: its generators,
    the columns of d_T out of them into the block's other parity, the
    elimination of the image of d_T into them, and its generic rank."""

    indices: List[int]
    outgoing: List[Dict[int, Polynomial]]
    image: Echelon
    rank: int = 0


def cohomology_generic(model: InvariantModel) -> GenericCohomology:
    """Even and odd ranks of the localized 2-periodic complex, plus
    representative cocycles independent modulo the image (held by the
    model's analysis)."""
    return model._analysis.cohomology


def _cohomology_generic(model: InvariantModel) -> GenericCohomology:
    """The computation behind ``cohomology_generic``.

    The complex is the direct sum of the model's blocks (``_blocks``), so
    every elimination runs on one parity of one block: the image into it
    (the columns of d_T from the block's other parity) and, for computed
    representatives, the kernel of d_T out of it (the rows).  The model's
    named cocycles are used as representatives when they span, each
    checked against the image of the block that holds it; an image is
    rebuilt only when named cocycles extended it and were then not used.
    Otherwise representatives come from the blocks' kernel bases, each
    taken greedily modulo its block's image and numbered in the order of
    its free column over the whole parity.
    """
    n = model.torus_rank
    degrees = model.degrees()
    parts: List[Tuple[_Part, _Part]] = []  # (even, odd) per block
    for block in model._blocks:
        even = [g for g in block if degrees[g] % 2 == 0]
        odd = [g for g in block if degrees[g] % 2 == 1]
        into_odd = _parity_columns(model, even, odd)
        into_even = _parity_columns(model, odd, even)
        pair = (
            _Part(even, into_odd, _echelon(into_even, len(even), n)),
            _Part(odd, into_even, _echelon(into_odd, len(odd), n)),
        )
        image_ranks = pair[0].image.rank + pair[1].image.rank
        for part in pair:
            part.rank = len(part.indices) - image_ranks
            if part.rank < 0:
                raise AssertionError("negative generic rank; model invalid")
        parts.append(pair)
    even_rank, odd_rank = (sum(pair[p].rank for pair in parts) for p in (0, 1))

    named = list(model.named_cocycles.items())
    if named:
        by_parity = [
            [(nm, raw) for nm, raw in named if all(degrees[i] % 2 == p for i in raw)]
            for p in (0, 1)
        ]
        if (len(by_parity[0]), len(by_parity[1])) == (even_rank, odd_rank):
            block_of = {g: b for b, block in enumerate(model._blocks) for g in block}
            extended = set()  # (block, parity) of each image a cocycle extended
            for p, raw in ((p, raw) for p in (0, 1) for _, raw in by_parity[p]):
                # the image of a cocycle's own block decides (a direct sum);
                # the zero cocycle extends none
                b = block_of[next(iter(raw))] if raw else None
                if b is None or not parts[b][p].image.add_row(
                    {k: raw[g] for k, g in enumerate(parts[b][p].indices) if g in raw}
                ):
                    break
                extended.add((b, p))
            else:
                reps = [
                    (nm, EquivariantElement(model, dict(raw)))
                    for nm, raw in by_parity[0] + by_parity[1]
                ]
                return GenericCohomology(even_rank, odd_rank, tuple(reps))
            for b, p in extended:
                part, other = parts[b][p], parts[b][1 - p]
                part.image = _echelon(other.outgoing, len(part.indices), n)

    reps: List[Tuple[str, EquivariantElement]] = []
    for p, prefix in ((0, "even_"), (1, "odd_")):
        found = []  # (free generator, terms) per chosen kernel vector
        for pair in parts:
            part, other = pair[p], pair[1 - p]
            if not part.rank:
                continue
            kernel = _echelon(
                _transposed(part.outgoing, len(other.indices)), len(part.indices), n
            ).kernel()
            # greedily, the kernel vectors that extend the image
            independent = (vector for vector in kernel if part.image.add_row(vector))
            for vector in islice(independent, part.rank):
                # the free variable is 1 and every pivot variable after it
                # is 0, so the free column is the last nonzero entry
                free = max(k for k, x in enumerate(vector) if not x.is_zero)
                terms = {g: x for g, x in zip(part.indices, vector) if not x.is_zero}
                found.append((part.indices[free], terms))
        found.sort(key=lambda item: item[0])
        reps.extend(
            (f"{prefix}{count}", EquivariantElement(model, terms))
            for count, (_, terms) in enumerate(found)
        )
    if len(reps) != even_rank + odd_rank:
        raise AssertionError("failed to assemble independent representatives")
    return GenericCohomology(even_rank, odd_rank, tuple(reps))


# -- exact degreewise cohomology ----------------------------------------------


def _monomial_count(torus_rank: int, degree: int) -> int:
    """Number of monomials of the given degree in torus_rank variables."""
    return comb(torus_rank - 1 + degree, degree) if torus_rank else int(degree == 0)


def _monomials_by_degree(torus_rank: int, top: int) -> List[List[tuple]]:
    """Entry j: the exponent tuples of total degree j <= top, in descending
    lexicographic order."""
    layer = [[()]] + [[] for _ in range(top)]
    for _ in range(torus_rank):
        layer = [
            [(head,) + tail for head in range(j, -1, -1) for tail in layer[j - head]]
            for j in range(top + 1)
        ]
    return layer


def _convolved(torus_rank: int, counts: Iterable[Tuple[int, int]], cutoff: int) -> List[int]:
    """Per degree 0..cutoff, the dimension of S(t) tensor a graded space
    given by (degree, dimension) pairs: u^e shifts degree a to a + 2|e|."""
    table = [0] * (cutoff + 1)
    for deg, count in counts:
        for j in range(max(0, (1 - deg) // 2), (cutoff - deg) // 2 + 1):
            table[deg + 2 * j] += count * _monomial_count(torus_rank, j)
    return table


def cohomology_hilbert(model: InvariantModel, cutoff: Optional[int] = None) -> List[int]:
    """dim_Q of the degree-k equivariant cohomology for 0 <= k <= cutoff.

    Slice k of S(t) tensor C has basis u^e tensor g with 2|e| + |g| = k; its
    dimension is counted, not enumerated.  The rank of d_T from slice k to
    slice k+1, from k = -1 when a generator has negative degree, is the sum
    of its ranks on the model's blocks (``_blocks``), each taken over the
    rows of generators with a term only: an inert generator (empty columns
    of d and every c_i) spans part of the kernel, and a block without a row
    in the slice builds nothing.  The terms are read from the columns of d
    (the constant part of d_T) and of each c_i (the coefficient of u_i); a
    term of the wrong degree has no target in the next slice and is dropped.

    Only the slices up to the top generator degree T (at least 0) are
    eliminated when that decides the rest:

    - at torus rank 1, multiplication by u maps slices k and k+1 onto slices
      k+2 and k+3 and commutes with d_T once no generator has degree k+2 or
      k+3, so every later rank repeats the rank two slices below;
    - at any other rank, when the table through T equals the free table
      S(t) tensor H(C) (``predict_free_hilbert``), it is that table to the
      cutoff, and otherwise the slices go on to the cutoff.  By the
      homological perturbation lemma (Crainic, arXiv math/0403266), the
      Cartan complex is homotopy equivalent to (S(t) tensor H(C), delta)
      with every entry of delta in the ideal (u), so the table is the free
      one less the ranks of delta into and out of each slice.  A class h of
      degree a with delta(1 tensor h) != 0 lowers entries a and a + 1, and
      -1 <= a <= T when no generator has a degree below -1; so a table
      that matches through T has delta = 0.  A model with a generator of
      degree -2 or less slices to the cutoff.
    """
    if cutoff is None:
        cutoff = model.default_cutoff()
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    n, degrees = model.torus_rank, model.degrees()
    dims = _convolved(n, ((deg, 1) for deg in degrees), cutoff)
    # per source generator: the terms (variable index or None for d, h, entry)
    # that land in the next slice; a generator alone in its block has none,
    # since an entry off the diagonal would join its row to the block
    operators = (model.d, *model.contractions)
    terms: Dict[int, list] = {}
    for g in (g for block in model._blocks if len(block) > 1 for g in block):
        found = terms[g] = []
        for i, operator in enumerate(operators):
            for h, value in operator[g].items():
                if degrees[h] == degrees[g] + (-1 if i else 1):
                    found.append((i - 1 if i else None, h, value))
    active = [
        [g for g in block if terms.get(g) and degrees[g] <= cutoff]
        for block in model._blocks
    ]
    blocks = [block for block in active if block]
    if not blocks:  # d_T is zero on every slice
        return dims
    first = -1 if min(degrees) < 0 else 0
    ranks = [0] * (first + 1)  # ranks[k + 1]: the rank of d_T out of slice k

    def eliminate(last: int) -> None:
        """Append the rank of d_T out of every slice from the next one to last."""
        top = max((last - degrees[g]) // 2 for block in blocks for g in block)
        monomials = _monomials_by_degree(n, top)
        for k in range(len(ranks) - 1, last + 1):
            rank = 0
            for block in blocks:
                rows = []
                columns: Dict[tuple, int] = {}  # (exponents, h) -> column, on first sight
                for g in block:
                    j, odd = divmod(k - degrees[g], 2)
                    if odd or j < 0:
                        continue
                    for exps in monomials[j]:
                        row = {}
                        for shift, h, entry in terms[g]:
                            target = exps
                            if shift is not None:
                                target = exps[:shift] + (exps[shift] + 1,) + exps[shift + 1:]
                            row[columns.setdefault((target, h), len(columns))] = entry
                        rows.append(row)
                if rows:
                    rank += _echelon(rows, len(columns), None).rank
            ranks.append(rank)

    def table(last: int) -> List[int]:
        return [dims[k] - ranks[k + 1] - ranks[k] for k in range(last + 1)]

    last = min(cutoff, max([0] + degrees))
    if n != 1 and min(degrees) < -1:
        last = cutoff  # a class could hide below degree 0
    eliminate(last)
    if n == 1:
        for k in range(last + 1, cutoff + 1):  # the period
            ranks.append(ranks[k - 1])  # the rank out of slice k - 2
    elif last < cutoff:
        free = _free_table(model, cutoff)
        if table(last) == free[: last + 1]:
            return free
        eliminate(cutoff)
    found = table(cutoff)
    if any(v < 0 for v in found):
        raise AssertionError("negative Hilbert entry; model invalid")
    return found


@dataclass(frozen=True)
class FreeComparison:
    """predicted S(t) tensor h(C) table against the actual table."""

    predicted: Tuple[int, ...]
    actual: Tuple[int, ...]

    @property
    def matches(self) -> bool:
        return self.predicted == self.actual

    @property
    def flag(self) -> Optional[str]:
        if self.matches:
            return None
        return "not even-concentrated / torsion present"


def _underlying_dims(model: InvariantModel) -> Tuple[int, List[int]]:
    """(low, dims): the dims of the ordinary cohomology of (C, d) per degree
    low..top, low the lowest generator degree or 0, whichever is smaller;
    the rank of d out of each degree is read from the columns of d."""
    degrees = model.degrees()
    low, top = min([0] + degrees), max([model.top_degree] + degrees)
    by_degree = {k: [i for i, d in enumerate(degrees) if d == k] for k in range(low, top + 2)}
    ranks = {low - 1: 0}
    for k in range(low, top + 1):
        position = {h: i for i, h in enumerate(by_degree[k + 1])}
        rows = [
            {position[h]: value for h, value in model.d[g].items() if h in position}
            for g in by_degree[k]
        ]
        ranks[k] = _echelon(rows, len(position), None).rank
    return low, [len(by_degree[k]) - ranks[k] - ranks[k - 1] for k in range(low, top + 1)]


def underlying_cohomology_dims(model: InvariantModel) -> List[int]:
    """Dims of the ordinary cohomology of (C, d) per degree 0..top_degree."""
    low, dims = _underlying_dims(model)
    return dims[-low:]


def _free_table(model: InvariantModel, cutoff: int) -> List[int]:
    """S(t) tensor H(C) per degree 0..cutoff: h(C), from its lowest degree,
    convolved with the Hilbert function of S(t)."""
    low, h_c = _underlying_dims(model)
    return _convolved(model.torus_rank, enumerate(h_c, low), cutoff)


def predict_free_hilbert(
    model: InvariantModel, cutoff: Optional[int] = None
) -> FreeComparison:
    """The free table S(t) tensor H(C) against the actual table; a mismatch
    is reported as a flag, never an error."""
    if cutoff is None:
        cutoff = model.default_cutoff()
    return FreeComparison(
        predicted=tuple(_free_table(model, cutoff)),
        actual=tuple(cohomology_hilbert(model, cutoff)),
    )


def scale_contractions(model: InvariantModel, factor: Fraction) -> InvariantModel:
    """The same model with every contraction scaled by a nonzero int or
    Fraction; used to exercise torus reparametrization invariance."""
    if isinstance(factor, bool) or not isinstance(factor, (int, Fraction)):
        raise TypeError(
            f"scale factor must be an int or a Fraction, got {type(factor).__name__}"
        )
    if factor == 0:
        raise ValueError("scale factor must be nonzero")
    scaled = tuple(
        tuple({h: v * factor for h, v in column.items()} for column in c)
        for c in model.contractions
    )
    return replace(
        model,
        name=f"{model.name}(c*{factor})",
        contractions=scaled,
        named_cocycles={},
        fixed_points=(),
    )
