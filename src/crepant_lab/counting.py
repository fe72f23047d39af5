"""Lattice-point counting for the junior simplex.

Ehrhart evaluations via the age decomposition, exact Ehrhart polynomial
and h*-vector, Dedekind sums with the Mordell-Pommersheim closed formula
for r = 4, and gcd-based counts of elements by (age, height, support).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .grouptype import QuotientType, TypeError_


class CountingError(AssertionError):
    """A closed counting formula disagreed with direct enumeration, or an
    exact identity of the counts failed."""


@dataclass(frozen=True)
class EhrhartData:
    """Ehrhart polynomial of the junior simplex.

    coefficients[j] is the (rational) coefficient of nu^j; evaluations are
    Ehr(0), ..., Ehr(r-1); hstar is the integer h*-vector of length r.
    """

    coefficients: tuple[Fraction, ...]
    evaluations: tuple[int, ...]
    hstar: tuple[int, ...]


@dataclass(frozen=True)
class BCounts:
    """Element counts by (age i, height k) and by support.

    totals maps (i, k) to a count; by_support maps (i, k, nu) with nu a
    sorted tuple of 1-based coordinate indices.  gcd_checked records
    whether the closed gcd formula was verified against the enumeration.
    """

    totals: dict[tuple[int, int], int]
    by_support: dict[tuple[int, int, tuple[int, ...]], int]
    gcd_checked: bool


def ehrhart_eval(t: QuotientType, nu: int) -> int:
    """#(nu * junior simplex, intersected with N_G).

    Each group element g contributes the lattice points n_g + (Z_{>=0})^r
    summing to at most nu; there are C(nu - age(g) + r - 1, r - 1) of them.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    r = t.r
    total = 0
    for g in t.elements:
        if g.age <= nu:
            total += comb(nu - g.age + r - 1, r - 1)
    return total


def _interpolate(values: list[int]) -> list[Fraction]:
    """Coefficients (by increasing degree) of the polynomial with
    p(i) = values[i] for i = 0..len(values)-1, via Newton's forward form."""
    n = len(values)
    diffs = [Fraction(v) for v in values]
    newton = [diffs[0]]
    for k in range(1, n):
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
        newton.append(diffs[0] / Fraction(1))
    # p(x) = sum_k newton[k]/k! * x(x-1)...(x-k+1)
    coeffs = [Fraction(0)] * n
    falling = [Fraction(1)]  # coefficients of the falling factorial
    fact = 1
    for k in range(n):
        if k > 0:
            fact *= k
            # multiply by (x - (k-1))
            new = [Fraction(0)] * (len(falling) + 1)
            for d, c in enumerate(falling):
                new[d + 1] += c
                new[d] -= c * (k - 1)
            falling = new
        for d, c in enumerate(falling):
            coeffs[d] += newton[k] * c / fact
    return coeffs


def ehrhart_poly(t: QuotientType) -> EhrhartData:
    """Exact Ehrhart polynomial and h*-vector of the junior simplex.

    Coefficients by interpolation on the r values Ehr(0..r-1); the
    h*-vector as the integer linear combination
    h*_i = sum_j (sum_{k=0}^i (-1)^k C(d+1,k) (i-k)^j) a_j with d = r-1.
    """
    r = t.r
    evals = [ehrhart_eval(t, nu) for nu in range(r)]
    coeffs = _interpolate(evals)
    d = r - 1
    hstar = []
    for i in range(r):
        acc = Fraction(0)
        for j in range(r):
            # note (i-k)**j follows the 0**0 = 1 convention
            w = sum(
                (-1) ** k * comb(d + 1, k) * (i - k) ** j for k in range(i + 1)
            )
            acc += w * coeffs[j]
        if acc.denominator != 1:
            raise CountingError(f"non-integral h*_{i} = {acc} for {t}")
        hstar.append(int(acc))
    if hstar[0] != 1 or sum(hstar) != t.order:
        raise CountingError(f"h* = {hstar} of {t} does not start at 1 and sum to {t.order}")
    return EhrhartData(tuple(coeffs), tuple(evals), tuple(hstar))


def cohomology_dims(t: QuotientType) -> tuple[tuple[int, ...], int]:
    """(dim H^{2i} for i = 0..r-1, Euler characteristic = l).

    For a crepant resolution the odd cohomology vanishes and
    dim H^{2i} equals the i-th h*-coordinate (= age histogram with a
    leading 1).
    """
    hstar = ehrhart_poly(t).hstar
    return hstar, t.order


def dedekind_sum(p: int, q: int) -> Fraction:
    """DS(p,q) = sum_{j=1}^{q-1} ((j/q)) ((pj/q)), exactly."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if gcd(p, q) != 1:
        raise ValueError(f"gcd({p},{q}) != 1")

    def saw(num: int, den: int) -> Fraction:
        if num % den == 0:
            return Fraction(0)
        return Fraction(num % den, den) - Fraction(1, 2)

    return sum((saw(j, q) * saw(p * j, q) for j in range(1, q)), Fraction(0))


def dedekind_measure(p: int, q: int) -> Fraction:
    """1/4 - DS(p,q)."""
    return Fraction(1, 4) - dedekind_sum(p, q)


def _require_cyclic_msc(t: QuotientType, r: int | None = None) -> tuple[int, tuple[int, ...]]:
    if not t.is_cyclic:
        raise TypeError_(f"{t} is not cyclic")
    if r is not None and t.r != r:
        raise TypeError_(f"{t} has r = {t.r}, expected {r}")
    l, w = t.factors[0]
    if any(wi == 0 for wi in w):
        raise TypeError_(f"{t} is not msc (zero weight)")
    return l, w


def mp_count_r4(t: QuotientType) -> tuple[int, tuple[Fraction, ...]]:
    """Mordell-Pommersheim lattice-point count of the junior tetrahedron.

    For a Gorenstein cyclic msc type 1/l(a_1..a_4):
      a_3 = l/6, a_2 = (1/4) sum gcd(a_i, l),
      a_1 = sum over pairs {i,j} with complement {i',j'} of
            (gcd(a_i',l)^2 + gcd(a_j',l)^2) / (36 l)
            + (1/4 - DS(p_ij, q_ij)) * gcd(a_i', a_j', l),
    with q_ij = l gcd(a_i',a_j',l) / (gcd(a_i',l) gcd(a_j',l)) and
    p_ij = [(-gamma_j') a_i' / gcd(a_i',l)] mod q_ij, gamma from the
    extended Euclid representation gcd(a_i,l) = gamma_i a_i + ghat_i l.
    (Since q_ij divides l/gcd(a_j',l), any Euclid representation of
    gamma_j' yields the same p_ij.)  Returns (count, (a_0, a_1, a_2, a_3)).
    """
    l, w = _require_cyclic_msc(t, 4)
    g = [gcd(wi, l) for wi in w]
    # gamma_i from extended Euclid: g[i] = gamma_i * w[i] + ghat_i * l
    gammas = []
    for wi in w:
        old_r, rr = wi, l
        old_s, s = 1, 0
        while rr:
            qq = old_r // rr
            old_r, rr = rr, old_r - qq * rr
            old_s, s = s, old_s - qq * s
        gammas.append(old_s if old_r > 0 else -old_s)
    for i in range(4):
        if (gammas[i] * w[i]) % l != g[i] % l:
            raise CountingError(f"Euclid coefficient {gammas[i]} of {w[i]} mod {l} is wrong")

    a3 = Fraction(l, 6)
    a2 = Fraction(sum(g), 4)
    a1 = Fraction(0)
    for i in range(4):
        for j in range(i + 1, 4):
            ip, jp = [c for c in range(4) if c not in (i, j)]
            gij = gcd(w[ip], w[jp], l)
            q, rem = divmod(l * gij, g[ip] * g[jp])
            if rem:
                raise CountingError(f"q_{i}{j} = {l * gij}/{g[ip] * g[jp]} is not an integer")
            p = (-gammas[jp]) * (w[ip] // g[ip]) % q
            a1 += Fraction(g[ip] ** 2 + g[jp] ** 2, 36 * l)
            a1 += dedekind_measure(p, q) * gij
    count = 1 + a1 + a2 + a3
    if count.denominator != 1:
        raise CountingError(f"non-integral MP count {count} for {t}")
    return int(count), (Fraction(1), a1, a2, a3)


def _gcd_formula_height_total(
    w: tuple[int, ...], l: int, nu: tuple[int, ...]
) -> int:
    """Closed form for #{g : ht(g) = k, support = nu} (1-based nu),
    for a cyclic msc type; valid for 2 <= k <= r-1.

    gcd(w restricted to a complement, l) - 1 counts the non-identity
    elements whose support is CONTAINED in the face; the exact-support
    count follows by Moebius inversion over the subsets of nu.  (A plain
    subtraction of the strictly-smaller-support counts, without the
    alternating signs, double-counts elements whose support misses nu by
    two or more indices -- first seen at r = 5, height 4, e.g. for
    1/4(1,1,2,2,2) -- because Gorenstein elements always have height
    >= 2 it coincides with the signed version up to height 3.)"""
    r, k = len(w), len(nu)
    from itertools import combinations

    total = 0
    for y in range(0, k - 1):
        sign = -1 if y % 2 else 1
        for rho in combinations(nu, y):
            comp = [c + 1 for c in range(r) if c + 1 not in nu or c + 1 in rho]
            total += sign * (gcd(*(w[c - 1] for c in comp), l) - 1)
    return total


def b_counts(t: QuotientType) -> BCounts:
    """Counts of group elements by age and height (and by support).

    Always computed by direct enumeration; for cyclic msc types the
    gcd closed formula for the per-support height totals (and its r = 4
    specializations for heights 2 and 3) is evaluated as well and any
    disagreement raises CountingError.
    """
    r = t.r
    totals: dict[tuple[int, int], int] = {}
    by_support: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for g in t.elements:
        if g.is_identity:
            continue
        i, k = g.age, g.height
        if k <= i:
            raise CountingError(f"height {k} of {g.delta} does not exceed its age {i}")
        nu = tuple(sorted(c + 1 for c in g.support))
        totals[(i, k)] = totals.get((i, k), 0) + 1
        by_support[(i, k, nu)] = by_support.get((i, k, nu), 0) + 1

    gcd_checked = False
    if t.is_cyclic and all(wi != 0 for wi in t.factors[0][1]):
        from itertools import combinations

        l, w = t.factors[0]
        for k in range(2, r):
            for nu in combinations(range(1, r + 1), k):
                enum_total = sum(
                    by_support.get((i, k, nu), 0) for i in range(1, k)
                )
                formula = _gcd_formula_height_total(w, l, nu)
                if formula != enum_total:
                    raise CountingError(
                        f"gcd formula {formula} != enumeration {enum_total} "
                        f"for ht {k}, support {nu} of {t}"
                    )
        if r == 4:
            for nu in combinations(range(1, 5), 2):
                n3, n4 = (c for c in range(1, 5) if c not in nu)
                expect = gcd(w[n3 - 1], w[n4 - 1], l) - 1
                if by_support.get((1, 2, nu), 0) != expect:
                    raise CountingError(f"ht-2 pair formula failed at {nu}")
            for nu in combinations(range(1, 5), 3):
                (n4,) = (c for c in range(1, 5) if c not in nu)
                g4 = gcd(w[n4 - 1], l)
                val = Fraction(
                    g4 - sum(gcd(w[n4 - 1], w[c - 1], l) for c in nu), 2
                ) + 1
                if val.denominator != 1:
                    raise CountingError(f"non-integral facet count {val} at {nu}")
                if by_support.get((1, 3, nu), 0) != int(val):
                    raise CountingError(f"facet formula failed at {nu}")
        gcd_checked = True
    return BCounts(totals, by_support, gcd_checked)

