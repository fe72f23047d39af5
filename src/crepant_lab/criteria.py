"""Second necessary existence condition.

If the junior simplex has a basic triangulation, the group order l is
bounded above by the facet count of a cyclic polytope on the lattice
points of the simplex, corrected by the points on its boundary.  For
r = 4 cyclic msc types the bound collapses to a closed gcd expression.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .grouptype import QuotientType
from .counting import b_counts, ehrhart_eval


@dataclass(frozen=True)
class CriterionReport:
    l: int
    point_count: int  # b = #(junior simplex /\ N_G)
    boundary_count: int  # b' = vertices + boundary junior points
    bound: int
    passed: bool  # l <= bound
    variant: str  # "r4_sharp" | "general" | "vacuous"
    conjectural_bound: int | None  # informational only, never decides


def cyclic_polytope_facets(d: int, k: int) -> int:
    """Facet count of the cyclic d-polytope on k vertices."""
    if k <= d:
        raise ValueError(f"need k > d, got d={d}, k={k}")
    return comb(k - (d + 1) // 2, d // 2) + comb(
        k - 1 - d // 2, (d - 1) // 2
    )


def ball_bound(d: int, b: int, b_prime: int) -> int:
    """Upper bound for the number of d-cells of a simplicial d-ball with
    b vertices, b_prime of them on the boundary."""
    if not b >= b_prime >= d + 1:
        raise ValueError(f"need b >= b' >= d+1, got {b}, {b_prime}, {d}")
    return cyclic_polytope_facets(d + 1, b) - (b_prime - d)


def second_criterion(t: QuotientType) -> CriterionReport:
    """Upper bound on l assuming a basic triangulation exists.

    r = 4: bound = f_3(CycP_4(b)) - 2#B(1,2) - #B(1,3) - 1; for cyclic
    msc types this equals the closed form
    b(b-3)/2 - (1/2) sum_i gcd(a_i,l) - sum_{i<j} gcd(a_i,a_j,l) + 7,
    which is used (and cross-checked against the counted form).
    r >= 5: bound = f_{r-1}(CycP_r(b)) - sum_k #B(1,k) - 1, the ball
    bound with b' = r + sum_k #B(1,k) boundary vertices.
    r = 3: always satisfiable; reported as vacuous pass.
    The tighter conjectural bound with (r-k) weights is reported for
    information only and never decides the verdict.
    """
    r, l = t.r, t.order
    b = ehrhart_eval(t, 1)
    bc = b_counts(t)
    bk = {
        k: sum(v for (i, kk), v in bc.totals.items() if i == 1 and kk == k)
        for k in range(2, r)
    }
    b_prime = r + sum(bk.values())

    if r < 4:
        return CriterionReport(l, b, b_prime, l, True, "vacuous", None)

    if b == r:
        # no points besides the vertices: the only triangulation is the
        # simplex itself, so a basic one forces l = 1
        return CriterionReport(l, b, b_prime, 1, l <= 1, "general", None)

    if r == 4:
        bound = cyclic_polytope_facets(4, b) - 2 * bk[2] - bk[3] - 1
        variant = "general"
        if t.is_cyclic and all(wi != 0 for wi in t.factors[0][1]):
            w = t.factors[0][1]
            closed = (
                Fraction(b * (b - 3), 2)
                - Fraction(sum(gcd(wi, l) for wi in w), 2)
                - sum(gcd(w[i], w[j], l) for i, j in combinations(range(4), 2))
                + 7
            )
            if closed != bound:
                raise RuntimeError(f"gcd form {closed} disagrees with counted bound {bound}")
            variant = "r4_sharp"
    else:
        bound = ball_bound(r - 1, b, b_prime)
        variant = "general"
    conj = cyclic_polytope_facets(r, b) - sum(
        (r - k) * v for k, v in bk.items()
    ) - 1
    return CriterionReport(l, b, b_prime, bound, l <= bound, variant, conj)
