"""Weights, equivariant Euler classes of linear torus representations,
fixed-point localization sums, and Lefschetz numbers.

A weight is an integer vector in the character lattice of the torus, realized
as the linear form sum_i a_i * u_i of cohomological degree 2.  The Euler class
of a linear representation is the product of its nonzero weight forms, and is
zero exactly when a trivial summand is present.  The empty representation has
Euler class 1 (empty product).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

from .algebra import Polynomial, RationalFunction


class FixedPointDataError(ValueError):
    """Missing or malformed fixed-point data."""


class NonIsolatedFixedPointError(ValueError):
    """A fixed point whose tangent Euler class vanishes is not isolated."""


@dataclass(frozen=True)
class Weight:
    """Integer character-lattice vector of length torus_rank."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(c, int) for c in self.coeffs):
            raise ValueError("weights must be integral")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def torus_rank(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def linear_form(self) -> Polynomial:
        return Polynomial.linear([Fraction(c) for c in self.coeffs])

    def restricted(self, a: Sequence[Sequence[int]]) -> "Weight":
        """Transport along a subtorus inclusion matrix a (n rows, r columns)."""
        if len(a) != self.torus_rank:
            raise ValueError("restriction matrix has wrong number of rows")
        r = len(a[0]) if len(a) > 0 else 0
        return Weight(
            tuple(
                sum(self.coeffs[i] * int(a[i][j]) for i in range(self.torus_rank))
                for j in range(r)
            )
        )

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


@dataclass(frozen=True)
class LinearRepresentation:
    """R^{m0} plus a multiset of weighted planes, as (weight, multiplicity)."""

    torus_rank: int
    trivial_real_multiplicity: int = 0
    weights: Tuple[Tuple[Weight, int], ...] = ()

    def __post_init__(self):
        if self.torus_rank < 0:
            raise ValueError("torus_rank must be >= 0")
        if self.trivial_real_multiplicity < 0:
            raise ValueError("trivial multiplicity must be >= 0")
        pairs = []
        for w, mult in self.weights:
            if not isinstance(w, Weight):
                w = Weight(tuple(w))
            if w.torus_rank != self.torus_rank:
                raise ValueError(f"weight {w} has wrong rank")
            if w.is_zero:
                raise ValueError("zero weight belongs in the trivial part")
            if mult < 1:
                raise ValueError("weight multiplicities must be positive")
            pairs.append((w, int(mult)))
        object.__setattr__(
            self, "weights", tuple(sorted(pairs, key=lambda p: p[0].coeffs))
        )

    @classmethod
    def from_weights(
        cls, torus_rank: int, weight_vectors: Sequence[Sequence[int]], trivial: int = 0
    ) -> "LinearRepresentation":
        counts: dict = {}
        for vec in weight_vectors:
            w = Weight(tuple(int(x) for x in vec))
            counts[w] = counts.get(w, 0) + 1
        return cls(torus_rank, trivial, tuple(counts.items()))

    @property
    def real_dimension(self) -> int:
        return self.trivial_real_multiplicity + 2 * sum(m for _, m in self.weights)

    def direct_sum(self, other: "LinearRepresentation") -> "LinearRepresentation":
        if other.torus_rank != self.torus_rank:
            raise ValueError("rank mismatch in direct sum")
        counts: dict = {}
        for w, m in self.weights + other.weights:
            counts[w] = counts.get(w, 0) + m
        return LinearRepresentation(
            self.torus_rank,
            self.trivial_real_multiplicity + other.trivial_real_multiplicity,
            tuple(counts.items()),
        )

    def restricted(self, a: Sequence[Sequence[int]]) -> "LinearRepresentation":
        """Transport along a subtorus matrix; weights that die become trivial."""
        r = len(a[0]) if len(a) > 0 else 0
        trivial = self.trivial_real_multiplicity
        counts: dict = {}
        for w, m in self.weights:
            rw = w.restricted(a)
            if rw.is_zero:
                trivial += 2 * m
            else:
                counts[rw] = counts.get(rw, 0) + m
        return LinearRepresentation(r, trivial, tuple(counts.items()))


@dataclass(frozen=True)
class FixedPointDatum:
    """An isolated fixed point: tangent representation, the values of the
    degree-0 generators at the point, and the restrictions of the named
    cohomology classes."""

    name: str
    tangent: LinearRepresentation
    evaluations: Mapping[str, Fraction] = field(default_factory=dict)
    restrictions: Mapping[str, Polynomial] = field(default_factory=dict)


@dataclass(frozen=True)
class LocalizationSum:
    """Exact localization sum with a polynomial-form flag."""

    value: RationalFunction
    is_polynomial: bool

    def as_polynomial(self) -> Polynomial:
        return self.value.as_polynomial()


def euler_linear(rep: LinearRepresentation) -> Polynomial:
    """Equivariant Euler class of a linear representation: zero when a
    trivial summand exists, else the product of the weight forms."""
    n = rep.torus_rank
    if rep.trivial_real_multiplicity > 0:
        return Polynomial.zero(n)
    out = Polynomial.one(n)
    for w, mult in rep.weights:
        out = out * w.linear_form() ** mult
    return out


def localize_integral(
    points: Sequence[FixedPointDatum], class_name: str
) -> LocalizationSum:
    """Sum of restriction / Euler class over isolated fixed points.

    Every point must carry a nonzero tangent Euler class (isolation) and a
    restriction entry for the named class.
    """
    if not points:
        raise FixedPointDataError("no fixed points supplied")
    n = points[0].tangent.torus_rank
    total = RationalFunction.zero(n)
    for p in points:
        eu = euler_linear(p.tangent)
        if eu.is_zero:
            raise NonIsolatedFixedPointError(
                f"fixed point {p.name!r} has vanishing Euler class; not isolated"
            )
        if class_name not in p.restrictions:
            raise FixedPointDataError(
                f"fixed point {p.name!r} has no restriction for class {class_name!r}"
            )
        total = total + RationalFunction(p.restrictions[class_name], eu)
    return LocalizationSum(value=total, is_polynomial=total.is_polynomial)


@dataclass(frozen=True)
class ConsistencyItem:
    class_name: str
    localized: RationalFunction
    integrated: RationalFunction
    residual: RationalFunction

    @property
    def ok(self) -> bool:
        return self.residual.is_zero


def localization_consistency(model) -> list:
    """Compare the fixed-point localization sum against direct equivariant
    integration for every named cocycle of a compact model; every residual
    must be exactly zero."""
    from . import duality  # local import sidesteps the module cycle
    from . import gcomplex

    if not model.fixed_points:
        raise FixedPointDataError(f"model {model.name!r} declares no fixed points")
    items = []
    for name in model.named_cocycles:
        element = gcomplex.named_cocycle_element(model, name)
        integrated = RationalFunction.coerce(
            duality.integrate(model, element), model.torus_rank
        )
        localized = localize_integral(model.fixed_points, name).value
        items.append(
            ConsistencyItem(
                class_name=name,
                localized=localized,
                integrated=integrated,
                residual=localized - integrated,
            )
        )
    return items


def lefschetz_number(action: Sequence[Sequence[Sequence[Fraction]]]) -> Fraction:
    """Alternating trace sum over one square matrix per degree 0..d."""
    total = Fraction(0)
    for k, mat in enumerate(action):
        size = len(mat)
        for row in mat:
            if len(row) != size:
                raise ValueError(f"degree-{k} action matrix is not square")
        trace = sum((Fraction(mat[i][i]) for i in range(size)), Fraction(0))
        total += (-1) ** k * trace
    return total


def nested_euler_check(
    inner: LinearRepresentation, mid_extra: LinearRepresentation
) -> bool:
    """Multiplicativity of the linear Euler class under direct sum: the
    linearized statement of the nested-class formula."""
    combined = euler_linear(inner.direct_sum(mid_extra))
    return combined == euler_linear(inner) * euler_linear(mid_extra)
