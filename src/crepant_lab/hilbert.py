"""Hilbert basis of the positive orthant cone w.r.t. N_G, and the first
necessary existence condition: every Hilbert-basis element must be a
vertex or a junior lattice point of the junior simplex.

Every point of the cone decomposes as a point of the half-open
parallelepiped Par(sigma_0) plus a non-negative integer combination of
the e_i, so {e_1..e_r} together with the n_g (g != id) is a complete
candidate set, and irreducibility only needs to be tested against it:
if n = p + q with p, q nonzero in the monoid, then some candidate c
satisfies c <= n componentwise with n - c still in the monoid.  The
candidates componentwise below n are the AND of one prefix bitset per
coordinate, so the whole test costs O((l + e) r) big-int ORs to build
the bitsets and r big-int ANDs per candidate, each on integers of at
most l bits (e = exp_G), instead of a general Hilbert-basis algorithm
(cone membership is co-NP-complete in general).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import or_

from .grouptype import QuotientType


@dataclass(frozen=True)
class HilbertBasis:
    """Minimal generating set of the monoid sigma_0 /\\ N_G.

    Elements are exact rational vectors; vertices e_i come first, then
    the surviving group-element points sorted by (age, delta).
    """

    elements: tuple[tuple[Fraction, ...], ...]
    is_vertex: tuple[bool, ...]
    ages: tuple[int, ...]

    @property
    def witnesses(self) -> list[tuple[Fraction, ...]]:
        """The elements of age >= 2, which lie outside the junior simplex."""
        return [p for p, age in zip(self.elements, self.ages) if age >= 2]


def hilbert_basis(t: QuotientType) -> HilbertBasis:
    """Exact Hilbert basis of sigma_0 /\\ N_G.

    Candidate deltas lie in [0, exp_G)^r, so subtracting a vertex from a
    candidate always leaves the cone; a candidate n_g is reducible iff
    some other candidate is componentwise <= it (the difference is again
    an N_G point of the cone, nonzero).  below[i][v] is the bitset of the
    candidates whose coordinate i is at most v, so the AND of
    below[i][delta_i] over i holds the candidate itself and exactly the
    other candidates componentwise <= it.  Every vertex e_i is
    irreducible: a candidate supported on coordinate i alone would have
    0 < delta_i < exp_G and delta_i = 0 mod exp_G, which the Gorenstein
    condition rules out.
    """
    e, r = t.exp_g, t.r
    candidates = [g for g in t.elements if not g.is_identity]
    by_value = [[0] * e for _ in range(r)]
    for n, g in enumerate(candidates):
        bit = 1 << n
        for column, d in zip(by_value, g.delta):
            column[d] |= bit
    below = [list(accumulate(column, or_)) for column in by_value]

    kept = []
    for n, g in enumerate(candidates):
        mask = -1
        for masks, d in zip(below, g.delta):
            mask &= masks[d]
        if mask == 1 << n:
            kept.append(g)
    kept.sort(key=lambda g: (g.age, g.delta))

    elements = [
        tuple(Fraction(1 if i == j else 0) for i in range(r)) for j in range(r)
    ]
    is_vertex = [True] * r
    ages = [0] * r
    for g in kept:
        elements.append(g.point)
        is_vertex.append(False)
        ages.append(g.age)
    return HilbertBasis(tuple(elements), tuple(is_vertex), tuple(ages))


def first_criterion(t: QuotientType) -> tuple[bool, list[tuple[Fraction, ...]]]:
    """Necessary condition: Hilbert basis contained in the junior simplex.

    Fails exactly when some basis element has age >= 2; those elements
    are returned as witnesses.
    """
    witnesses = hilbert_basis(t).witnesses
    return not witnesses, witnesses
