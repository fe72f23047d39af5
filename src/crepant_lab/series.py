"""Special singularity series with known resolution answers.

Hypersurface quotients (staircase triangulations of dilated simplices),
one- and two-parameter cyclic series with their arithmetic criteria
(residues, continued fractions), and the geometric-progression series
with its explicit basic coherent triangulation, whose coherence
certificate is in closed form: 0 on the vertex images and a constant
plus the staircase ramp function on the inner points, checked exactly
against the wall constraints with no LP.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, gcd
from typing import Callable, Sequence

from .grouptype import QuotientType, parse_type
from .lattice import affine_coordinates, det_int
from .triangulate import PointConfig, Triangulation, simplex_volume


@dataclass(frozen=True)
class SeriesMatch:
    kind: str  # "hypersurface" | "one_param" | "two_param" | "gp" | "none"
    verdict: str  # "resolvable" | "not_resolvable" | "inapplicable"
    parameters: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)


_NO_MATCH = SeriesMatch("none", "inapplicable")


# ---------------------------------------------------------------------------
# hypersurface quotients

def _iroot(n: int, e: int) -> int:
    """The largest integer x >= 0 with x**e <= n, for n >= 0."""
    lo, hi = 0, 1 << (n.bit_length() // e + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**e <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def hypersurface_cohomology(r: int, k: int) -> tuple[int, ...]:
    """dim H^{2i} of any crepant resolution of C^r/G(r;k)."""
    return tuple(
        sum(
            (-1) ** j * comb(r, j) * comb(k * (i - j) + r - 1, r - 1)
            for j in range(i + 1)
            if k * (i - j) + r - 1 >= 0
        )
        for i in range(r)
    )


def hypersurface_check(t: QuotientType) -> SeriesMatch:
    """Quotients embeddable as hypersurfaces z_0^k = z_1 ... z_r.

    These are exactly the groups generated by the r-1 diagonal matrices
    with zeta_k at position i and its inverse at i+1 (up to permuting
    coordinates).  Always resolvable: the junior simplex is a dilated
    basic simplex carrying the staircase triangulation.
    """
    r, l = t.r, t.order
    if r < 3:
        return _NO_MATCH
    # |G(r;k)| = k^(r-1); recover k or bail out early
    k = _iroot(l, r - 1)
    if k < 2 or k ** (r - 1) != l:
        return _NO_MATCH
    # G(r;k) is every v/k with v in (Z/k)^r and sum(v) = 0 mod k, a
    # permutation-invariant set of l = k^(r-1) points, so the identity
    # matches iff every delta/exp_g has denominator dividing k (the sum
    # condition is the integer age)
    e = t.exp_g
    if any(k * d % e for g in t.elements for d in g.delta):
        return _NO_MATCH
    return SeriesMatch(
        "hypersurface",
        "resolvable",
        {"r": r, "k": k},
        {
            "permutation": list(range(r)),
            "cohomology": list(hypersurface_cohomology(r, k)),
        },
    )


def heaviside_support(x: Sequence[Fraction]) -> Fraction:
    """Strictly upper convex support function of the triangulation of
    R^d induced by the hyperplanes x_i = kappa and x_i - x_j = kappa
    (kappa integral): one ramp term per hyperplane crossed between the
    origin and x, with x_0 := 0."""
    xs = [Fraction(0)] + [Fraction(v) for v in x]
    total = Fraction(0)
    for i, j in combinations(range(len(xs)), 2):
        a = abs(xs[i] - xs[j])
        n = int(a)  # floor, a >= 0
        total += (n + 1) * a - Fraction(n * (n + 1), 2)
    return -total


def staircase_triangulation(
    d: int, k: int
) -> tuple[PointConfig, Triangulation, Callable[[Sequence[Fraction]], Fraction]]:
    """The arrangement-induced triangulation of k * {0<=x_d<=...<=x_1<=k}.

    k^d unimodular simplices: each unit cube cut along the order cones
    of the fractional parts; restriction to the staircase simplex keeps
    exactly those cells whose vertices satisfy the chain inequalities.
    """
    if d < 1 or k < 2:
        raise ValueError("need d >= 1 and k >= 2")

    def in_region(p: tuple[int, ...]) -> bool:
        return all(p[i] >= p[i + 1] for i in range(d - 1)) and 0 <= p[d - 1] and p[0] <= k

    pts: set[tuple[int, ...]] = set()
    cells = []
    for base in product(range(k), repeat=d):
        for perm in permutations(range(d)):
            vs = [tuple(base)]
            cur = list(base)
            for i in perm:
                cur[i] += 1
                vs.append(tuple(cur))
            if all(in_region(v) for v in vs):
                cells.append(vs)
                pts.update(vs)
    order = sorted(pts)
    index = {p: i for i, p in enumerate(order)}
    cfg = PointConfig(
        d,
        tuple(order),
        tuple("point" for _ in order),
        tuple(frozenset() for _ in order),
    )
    tri = Triangulation.of([[index[v] for v in vs] for vs in cells])
    if len(tri.simplices) != k ** d:
        raise RuntimeError(f"staircase has {len(tri.simplices)} cells, expected {k ** d}")
    return cfg, tri, heaviside_support


# ---------------------------------------------------------------------------
# one- and two-parameter cyclic series

def _normalized_weights(t: QuotientType, copies: int) -> tuple[int, ...] | None:
    """Rescale a cyclic type by a unit so that some weight value with
    multiplicity >= copies becomes 1; returns sorted-by-multiplicity
    weights (the `copies` ones first) or None."""
    if not t.is_cyclic:
        return None
    l = t.order
    w = list(t.factors[0][1])
    for c in sorted(set(w)):
        if w.count(c) < copies or gcd(c, l) != 1:
            continue
        inv = pow(c, -1, l)
        scaled = sorted((wi * inv) % l for wi in w)
        ones = [x for x in scaled if x == 1]
        rest = [x for x in scaled if x != 1]
        if len(ones) >= copies:
            return tuple(ones + rest)
    return None


def one_param_check(t: QuotientType) -> SeriesMatch:
    """Types 1/l(1,...,1,l-(r-1)) with r-1 equal unit weights.

    A unique maximal coherent triangulation always exists; it is basic
    (full crepant resolution) iff l = 0 or 1 mod (r-1).
    """
    r, l = t.r, t.order
    if r < 3 or l < r:
        return _NO_MATCH
    w = _normalized_weights(t, r - 1)
    if w is None or w[: r - 1] != tuple([1] * (r - 1)):
        return _NO_MATCH
    b = w[r - 1] if len(w) > r - 1 else 1
    if b != l - (r - 1):
        return _NO_MATCH
    residue = l % (r - 1)
    ok = residue in (0, 1)
    return SeriesMatch(
        "one_param",
        "resolvable" if ok else "not_resolvable",
        {"r": r, "l": l, "b": b},
        {
            "residue": residue,
            "isolated": gcd(l, r - 1) == 1,
            "divisor_count": l // (r - 1) if ok else None,
        },
    )


def _continued_fraction(q: int, p: int) -> tuple[list[int], bool]:
    """Plus-sign continued fraction of q/p, tail-normalized so the last
    quotient is never 1; second component tells whether all quotients
    are >= 2 (the form the chain conditions are stated for)."""
    if p == 0:
        return [], True
    cf = []
    a, b = q, p
    while b:
        cf.append(a // b)
        a, b = b, a % b
    if len(cf) > 1 and cf[-1] == 1:
        cf.pop()
        cf[-1] += 1
    return cf, all(x >= 2 for x in cf)


def two_param_check(t: QuotientType) -> SeriesMatch:
    """Types 1/l(1,...,1,a,b) with r-2 equal unit weights.

    Crepant projective resolutions exist iff the Hilbert-basis condition
    holds, which for these types reduces to the gcd/continued-fraction
    chain conditions below (join branch / chain branch).
    """
    r, l = t.r, t.order
    if r < 3 or l < r:
        return _NO_MATCH
    if not t.is_cyclic or any(wi == 0 for wi in t.factors[0][1]):
        return _NO_MATCH
    w = _normalized_weights(t, r - 2)
    if w is None or w[: r - 2] != tuple([1] * (r - 2)):
        return _NO_MATCH
    tail = w[r - 2 :]
    if sum(tail) != l - (r - 2):
        return _NO_MATCH
    a, b = tail
    tt = gcd(b, l)
    tp = gcd(a, l)
    if tt != gcd(a + (r - 2), l):
        raise RuntimeError(f"gcd(b, l) = {tt} differs from gcd(a + r - 2, l) for {t}")
    g = gcd(a, b, l)
    m = r - 2
    join_branch = g == m
    chain_branch = False
    trace = {"t": tt, "t_prime": tp, "gcd_abl": g}
    if g == 1:
        # chain branch: the continued-fraction data is well defined here
        # because gcd(t, t') | gcd(a, b, l) = 1, so t t' divides l
        if l % (tt * tp):
            raise RuntimeError(f"t t' = {tt * tp} does not divide l = {l}")
        # minimal nu_2 >= 1 with nu_2 (a + r - 2) = t mod l
        nu1 = nu2 = None
        for cand in range(1, l // tt + 1):
            val = cand * (a + (r - 2)) - tt
            if val % l == 0:
                nu1, nu2 = val // l, cand
                break
        if nu2 is None:
            raise RuntimeError(f"no nu_2 solves nu_2 (a + r - 2) = t mod l for {t}")
        p_bar, rem = divmod(nu2 * a - nu1 * l, tp)
        if rem:
            raise RuntimeError(f"t' = {tp} does not divide nu_2 a - nu_1 l for {t}")
        q = l // (tt * tp)
        p = p_bar % q
        cf, cf_ok = _continued_fraction(q, p)

        def chain_of(pb: int) -> bool:
            # the (p - p_bar)/q congruence is vacuous in the degenerate
            # q = 1 case (p = 0, empty fraction); the quotient
            # congruences are evaluated on the tail-normalized regular
            # expansion even when interior quotients equal 1 -- this is
            # the reading that agrees with the census-based ground truth
            pp = pb % q
            c, _ = _continued_fraction(q, pp)
            kap = len(c)
            return (
                tt % m == 1
                and tp % m == 1
                and (q == 1 or ((pp - pb) // q) % m == 0)
                and all(c[i - 1] % m == 0 for i in range(2, kap) if i % 2 == 0)
                and (kap == 0 or kap % 2 != 0 or c[-1] % m == 1)
            )

        chain_branch = chain_of(p_bar)
        # the congruence solution (nu_1, nu_2) is pinned to the minimal
        # one; the next solution must give the same answer
        nu2b = nu2 + l // tt
        nu1b = (nu2b * (a + (r - 2)) - tt) // l
        if chain_of((nu2b * a - nu1b * l) // tp) != chain_branch:
            raise RuntimeError(f"the chain conditions of {t} depend on the choice of (nu_1, nu_2)")
        trace.update(
            nu=(nu1, nu2),
            p_bar=p_bar,
            q=q,
            p=p,
            cf=cf,
            cf_all_ge2=cf_ok,
        )
    trace["join_branch"] = join_branch
    trace["chain_branch"] = chain_branch
    ok = join_branch or chain_branch
    return SeriesMatch(
        "two_param",
        "resolvable" if ok else "not_resolvable",
        {"r": r, "l": l, "a": a, "b": b},
        trace,
    )


# ---------------------------------------------------------------------------
# geometric-progression series

def gp_check(t: QuotientType) -> SeriesMatch:
    """Types 1/l(1,k,...,k^{r-1}) with l = (k^r-1)/(k-1), up to a unit
    rescaling; always resolvable via the explicit basic coherent
    triangulation built by gp_triangulation."""
    r, l = t.r, t.order
    if r < 3 or not t.is_cyclic:
        return _NO_MATCH
    # k^(r-1) < l = 1 + k + ... + k^(r-1) < (k+1)^(r-1) for r >= 3
    k = _iroot(l, r - 1)
    if k < 2 or (k ** r - 1) // (k - 1) != l:
        return _NO_MATCH
    target = sorted(pow(k, i, l) for i in range(r))
    w = t.factors[0][1]
    for c in w:
        if gcd(c, l) != 1:
            continue
        u = pow(c, -1, l)
        if sorted(wi * u % l for wi in w) == target:
            return SeriesMatch("gp", "resolvable", {"r": r, "k": k, "l": l}, {"unit": u})
    return _NO_MATCH


def gp_construct(r: int, k: int) -> tuple[QuotientType, list[list[int]], list[list[int]]]:
    """Type 1/l(1,k,...,k^{r-1}) with l = (k^r-1)/(k-1), its Gram-type
    weight-product matrix W and the scaled inverse W_inv with
    W @ W_inv = l(k-1) Id."""
    if r < 3 or k < 2:
        raise ValueError("need r >= 3 and k >= 2")
    l = (k ** r - 1) // (k - 1)
    t = parse_type("1/%d(%s)" % (l, ",".join(str(pow(k, i, l)) for i in range(r))))
    w_mat = [[pow(k, i + j, l) for j in range(r)] for i in range(r)]
    if abs(det_int(w_mat)) != (k ** r - 1) ** (r - 1):
        raise RuntimeError(f"|det W| != (k^r - 1)^(r-1) for r = {r}, k = {k}")
    w_inv = [[0] * r for _ in range(r)]
    w_inv[0][0], w_inv[0][r - 1] = -1, k
    for i in range(1, r):
        w_inv[i][r - 1 - i] = k
        w_inv[i][r - i] = -1
    scale = l * (k - 1)
    for i in range(r):
        for j in range(r):
            if sum(w_mat[i][x] * w_inv[x][j] for x in range(r)) != (scale if i == j else 0):
                raise RuntimeError(f"W W_inv != l(k-1) Id at ({i}, {j}) for r = {r}, k = {k}")
    # the lattice image of the group generator is integral with
    # coordinate sum divisible by k-1
    gen = [Fraction(pow(k, i, l), l) for i in range(r)]
    img = [sum(Fraction(w_inv[i][j]) * gen[j] for j in range(r)) for i in range(r)]
    if any(x.denominator != 1 for x in img) or sum(img) % (k - 1):
        raise RuntimeError(f"generator image {img} is not integral with sum divisible by k-1")
    return t, w_mat, w_inv


def _gp_points(r: int, k: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Vertex images and interior-simplex lattice points in the
    coordinates of the transformed junior simplex (last coordinate of
    the level-(k-1) slice dropped)."""
    d = r - 1
    verts = []
    for j in range(1, r + 1):
        v = [0] * d
        if j == 1:
            v[0] = -1
        elif j < r:
            v[j - 2] = k
            v[j - 1] = -1
        else:
            v[r - 2] = k
        verts.append(tuple(v))
    inner = [
        p
        for p in product(range(k), repeat=d)
        if sum(p) <= k - 1
    ]
    return verts, sorted(inner)


def gp_triangulation(
    r: int, k: int
) -> tuple[PointConfig, Triangulation, list[Fraction]]:
    """Basic coherent triangulation of the GP junior simplex with
    exactly l = (k^r-1)/(k-1) unimodular cells.

    The dilated inner simplex (all non-vertex lattice points) carries
    the staircase triangulation; the shell between it and the vertex
    simplex is filled by joins of vertex subsets with staircase faces
    on the complementary inner facets.  Returns (config, triangulation,
    height certificate) with the certificate verifying the local strict
    upper-convexity constraints exactly.
    """
    t, _, _ = gp_construct(r, k)
    l, d = t.order, r - 1
    verts, inner = _gp_points(r, k)
    points = list(verts) + inner
    index = {p: i for i, p in enumerate(points)}

    # inner staircase triangulation, mapped from chain coordinates
    # (x_1 >= ... >= x_d) to the corner simplex (sum x_i <= k-1) by the
    # unimodular difference map
    def from_chain(x: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(x[i] - (x[i + 1] if i + 1 < d else 0) for i in range(d))

    inner_cells: list[list[tuple[int, ...]]] = []
    if k == 2:
        inner_cells.append([p for p in inner])  # the unit corner simplex
    else:
        s_cfg, s_tri, _ = staircase_triangulation(d, k - 1)
        for s in s_tri.simplices:
            inner_cells.append([from_chain(s_cfg.points[i]) for i in s])
    if len(inner_cells) != (k - 1) ** d:
        raise RuntimeError(f"inner staircase has {len(inner_cells)} cells, expected {(k - 1) ** d}")

    def lam(p: tuple[int, ...]) -> tuple[int, ...]:
        return p + (k - 1 - sum(p),)

    cells: list[list[int]] = [[index[p] for p in c] for c in inner_cells]
    for rho in range(1, r):
        for nu in combinations(range(r), rho):
            on_face = {
                p for p in inner if all(lam(p)[j] == 0 for j in nu)
            }
            faces: set[frozenset[tuple[int, ...]]] = set()
            for c in inner_cells:
                f = frozenset(p for p in c if p in on_face)
                if len(f) == r - rho:
                    faces.add(f)
            want = (k - 1) ** (r - rho - 1)
            if len(faces) != want:
                raise RuntimeError(f"{len(faces)} staircase faces opposite {nu}, expected {want}")
            for f in faces:
                cells.append([index[verts[j]] for j in nu] + [index[p] for p in f])
    if len(cells) != l:
        raise RuntimeError(f"{len(cells)} cells built, expected l = {l}")

    cfg = PointConfig(
        d,
        tuple(points),
        tuple(["vertex"] * r + ["junior"] * len(inner)),
        tuple(_gp_carriers(verts, points)),
    )
    tri = Triangulation.of(cells)
    if len(tri.simplices) != l:
        raise RuntimeError(f"{len(tri.simplices)} distinct cells, expected l = {l}")
    if any(simplex_volume(cfg, s) != 1 for s in tri.simplices):
        raise RuntimeError(f"GP triangulation for r = {r}, k = {k} has a non-unimodular cell")
    return cfg, tri, _gp_certificate(cfg, tri)


def _gp_carriers(
    verts: list[tuple[int, ...]], points: list[tuple[int, ...]]
) -> list[frozenset[int]]:
    """Support of the barycentric coordinates w.r.t. the simplex spanned
    by the vertex images."""
    out = []
    for p in points:
        eta = affine_coordinates(verts, p)
        if eta is None or min(eta) < 0:
            raise RuntimeError(f"point {p} outside the GP vertex simplex")
        out.append(frozenset(j for j, x in enumerate(eta) if x != 0))
    return out


def _gp_certificate(cfg: PointConfig, tri: Triangulation) -> list[Fraction]:
    """Height certificate in closed form: 0 on the vertex images and
    scale + (the staircase ramp function) on every inner point.

    Under height 1 on the inner points alone, each wall row is at least
    1 on the walls between the coarse cells (a vertex subset joined with
    the opposite face of the inner simplex) and 0 on the walls the
    staircase draws inside them, where the ramp is strictly convex; a
    constant adds nothing there, since every wall row sums to 0.  So the
    scale is multiplied by 4 until every row is positive, which is
    checked exactly (regular subdivisions from heights: De Loera-
    Rambau-Santos, *Triangulations*, 2010, ch. 2 and 5)."""
    from .triangulate import coherence_constraints

    d = cfg.dim

    def to_chain(p: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(Fraction(sum(p[i:])) for i in range(d))

    ramp = [
        None if lab == "vertex" else heaviside_support(to_chain(p))
        for p, lab in zip(cfg.points, cfg.labels)
    ]
    rows = coherence_constraints(cfg, tri)
    scale = Fraction(1)
    for _ in range(64):
        w = [Fraction(0) if f is None else scale + f for f in ramp]
        if all(sum(c * wi for c, wi in zip(row, w)) > 0 for row in rows):
            return w
        scale *= 4
    raise RuntimeError("certificate scaling failed")
