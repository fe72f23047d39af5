"""Singularity types: parsing, group-element enumeration, ages and heights.

A type string like ``1/12(1,2,3,6)`` or a product
``1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)`` describes a finite abelian group
acting diagonally on C^r.  Every group element is indexed by a tuple
(j_1,...,j_k), one exponent per cyclic factor, and carries a residue vector
delta, a lattice point delta/exp_G, an age and a height.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod

DEFAULT_BUDGET = 10**7


class TypeError_(ValueError):
    """Invalid singularity type string or data."""


class NotGorenstein(TypeError_):
    """A factor's weights do not sum to 0 mod its order, so G is not in SL(r,C)."""


class BudgetError(RuntimeError):
    """Enumeration would exceed the configured element budget."""


@dataclass(frozen=True)
class QuotientType:
    """An abelian quotient-singularity type.

    factors: tuple of (q, weights) with 0 <= weight < q and gcd(q, *weights)=1.
    order: the order of the generated subgroup of (Q/Z)^r (not naively the
    product of the q's, since factors may overlap).
    """

    factors: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def r(self) -> int:
        return len(self.factors[0][1])

    @property
    def kappa(self) -> int:
        return len(self.factors)

    @property
    def exp_g(self) -> int:
        return lcm(*(q for q, _ in self.factors))

    @property
    def xi(self) -> tuple[int, ...]:
        e = self.exp_g
        return tuple(e // q for q, _ in self.factors)

    @cached_property
    def order(self) -> int:
        # index of Z^r in N_G, via HNF of the scaled generator matrix
        from .lattice import _generator_matrix, hnf

        e, r = self.exp_g, self.r
        h, _ = hnf(_generator_matrix(self))
        det = prod(h[i][i] for i in range(r))
        if e**r % det != 0:
            raise RuntimeError(f"HNF determinant {det} of {self} does not divide {e}^{r}")
        return e**r // det

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """All group elements, computed once per type.  Library functions
        read them here; input from outside goes through enumerate_elements
        first, which checks the element budget."""
        return _group_elements(self)

    @property
    def is_cyclic(self) -> bool:
        return self.kappa == 1

    def __str__(self) -> str:
        return "x".join(
            "1/%d(%s)" % (q, ",".join(map(str, w))) for q, w in self.factors
        )


@dataclass(frozen=True)
class GroupElement:
    """One group element: index tuple, residue vector, age and height."""

    index: tuple[int, ...]
    delta: tuple[int, ...]
    exp_g: int

    @property
    def age(self) -> int:
        s = sum(self.delta)
        if s % self.exp_g:
            raise TypeError_(f"age of {self.delta}/{self.exp_g} is not an integer (non-Gorenstein element)")
        return s // self.exp_g

    @property
    def height(self) -> int:
        return sum(1 for d in self.delta if d != 0)

    @property
    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, self.exp_g) for d in self.delta)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, d in enumerate(self.delta) if d != 0)

    @property
    def is_identity(self) -> bool:
        return all(d == 0 for d in self.delta)


@dataclass(frozen=True)
class JuniorPoint:
    """A point of the junior configuration: a vertex e_i or an age-1 point."""

    point: tuple[Fraction, ...]
    kind: str  # "vertex" | "junior"
    carrier: frozenset[int]  # smallest face of s_G containing it in its
    # relative interior, as a set of vertex indices


@dataclass(frozen=True)
class StructureReport:
    is_gorenstein: bool
    splitting_codim: int
    is_msc: bool
    is_isolated: bool
    age_histogram: tuple[int, ...]  # counts for ages 1..r-1


_FACTOR_RE = re.compile(r"^1/(\d+)\(([-\d,\s]*)\)$")


def parse_type(text: str) -> QuotientType:
    """Parse ``1/q(a_1,...,a_r)`` factors joined by ``x``.  The one check
    of the standing hypothesis G in SL(r,C): every other function takes
    a parsed type or its msc core (which drops only zero weights)."""
    parts = text.replace(" ", "").split("x")
    factors = []
    for part in parts:
        m = _FACTOR_RE.match(part)
        if not m:
            raise TypeError_(f"cannot parse factor {part!r}")
        q = int(m.group(1))
        if q < 2:
            raise TypeError_(f"factor order {q} < 2 in {part!r}")
        try:
            weights = tuple(int(s) for s in m.group(2).split(","))
        except ValueError:
            raise TypeError_(f"bad weight list in {part!r}") from None
        weights = tuple(w % q for w in weights)
        if gcd(q, *weights) != 1:
            raise TypeError_(f"non-faithful factor {part!r}")
        factors.append((q, weights))
    rs = {len(w) for _, w in factors}
    if len(rs) != 1:
        raise TypeError_(f"factors have mismatched dimensions {sorted(rs)}")
    r = rs.pop()
    if r < 2:
        raise TypeError_(f"dimension {r} < 2")
    if len(set(factors)) != len(factors):
        raise TypeError_("duplicate factors")
    if len(factors) > r - 1:
        raise TypeError_(f"{len(factors)} factors exceed the r-1 = {r-1} bound")
    t = QuotientType(tuple(factors))
    if 2 * t.kappa > t.order:
        raise TypeError_(f"{t.kappa} factors generate a group of order {t.order} < {2 * t.kappa}")
    if not is_gorenstein(t):
        raise NotGorenstein(f"{t} is not Gorenstein (weights of some factor do not sum to 0 mod its order)")
    return t


def is_gorenstein(t: QuotientType) -> bool:
    return all(sum(w) % q == 0 for q, w in t.factors)


def enumerate_elements(t: QuotientType, budget: int = DEFAULT_BUDGET) -> tuple[GroupElement, ...]:
    """All group elements, one per distinct residue vector.

    When factors overlap, several index tuples yield the same element; the
    lexicographically smallest index tuple is kept.  Raises BudgetError when
    the index space exceeds the budget.  This is the only budget check:
    the CLI calls it once where a type is read, and `run_pipeline` on its
    input; every other function reads `t.elements`, the same enumeration
    cached on the type.
    """
    n_tuples = prod(q for q, _ in t.factors)
    if n_tuples > budget:
        raise BudgetError(f"{n_tuples} index tuples exceed budget {budget}")
    return t.elements


def _group_elements(t: QuotientType) -> tuple[GroupElement, ...]:
    e, xi = t.exp_g, t.xi
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for index in itertools.product(*(range(q) for q, _ in t.factors)):
        delta = tuple(
            sum(j * x * w[i] for j, x, (_, w) in zip(index, xi, t.factors)) % e
            for i in range(t.r)
        )
        if delta not in seen:
            seen[delta] = index
    elements = [GroupElement(idx, d, e) for d, idx in seen.items()]
    elements.sort(key=lambda g: g.index)
    if len(elements) != t.order:
        raise RuntimeError(f"{len(elements)} elements enumerated for {t} of order {t.order}")
    return tuple(elements)


def inverse(t: QuotientType, g: GroupElement) -> GroupElement:
    """The group inverse: the negated index and the negated residues."""
    index = tuple((-j) % q for j, (q, _) in zip(g.index, t.factors))
    return GroupElement(index, tuple((-d) % g.exp_g for d in g.delta), g.exp_g)


def junior_config(t: QuotientType) -> list[JuniorPoint]:
    """Vertices e_1..e_r plus the lattice points of the age-1 elements.

    Each point is labeled by the smallest face of the junior simplex whose
    relative interior contains it (for a junior point: its support).
    """
    r = t.r
    pts = [
        JuniorPoint(
            tuple(Fraction(1 if i == j else 0) for i in range(r)),
            "vertex",
            frozenset([j]),
        )
        for j in range(r)
    ]
    for g in t.elements:
        if g.age == 1:
            pts.append(JuniorPoint(g.point, "junior", g.support))
    return pts


def structure_report(t: QuotientType) -> StructureReport:
    elements = t.elements
    r = t.r
    zero_coords = sum(
        1 for i in range(r) if all(g.delta[i] == 0 for g in elements)
    )
    codim = r - zero_coords
    hist = [0] * (r - 1)
    isolated = True
    for g in elements:
        if g.is_identity:
            continue
        if g.height < r:
            isolated = False
        if 1 <= g.age <= r - 1:
            hist[g.age - 1] += 1
    return StructureReport(
        is_gorenstein=is_gorenstein(t),
        splitting_codim=codim,
        is_msc=codim == r,
        is_isolated=isolated,
        age_histogram=tuple(hist),
    )


def msc_core(t: QuotientType) -> tuple[QuotientType, tuple[int, ...]]:
    """Drop coordinates on which every element acts trivially.

    Returns the reduced type and the surviving coordinate indices.
    """
    elements = t.elements
    keep = tuple(
        i for i in range(t.r) if any(g.delta[i] != 0 for g in elements)
    )
    if len(keep) == t.r:
        return t, keep
    if len(keep) < 2:
        raise TypeError_("group acts trivially on all but <2 coordinates")
    factors = tuple(
        (q, tuple(w[i] for i in keep)) for q, w in t.factors
    )
    return QuotientType(factors), keep
