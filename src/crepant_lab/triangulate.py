"""Lattice-triangulation engine over standardized point configurations.

Seeding by stellar subdivision, exact validity/basicness checks,
f/h-vectors, full-dimensional circuits and bistellar flips,
coherence testing by exact rational LP and flip-graph exploration.
All arithmetic is exact.

Each flip is built once, with its circuit, by `find_flips`.  The one
BFS, `explore`, lists its nodes in visit order.  Coherence heights are
nonnegative: every coherence row sums to 0, so a constant shift of all
heights changes no row value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .grouptype import QuotientType, junior_config
from .lattice import affine_coordinates, affine_dependence, det_int, standardize_junior

Point = tuple[int, ...]
Simplex = tuple[int, ...]  # sorted point indices, d+1 of them


@dataclass(frozen=True)
class PointConfig:
    """Integer points in dimension d with provenance labels."""

    dim: int
    points: tuple[Point, ...]
    labels: tuple[str, ...]  # "vertex" | "junior" | "point"
    carriers: tuple[frozenset[int], ...]  # face of the ambient simplex

    def __post_init__(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points")

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Triangulation:
    """A set of maximal simplices, canonically sorted."""

    simplices: tuple[Simplex, ...]

    @staticmethod
    def of(simplices: Iterable[Sequence[int]]) -> "Triangulation":
        return Triangulation(
            tuple(sorted(tuple(sorted(s)) for s in simplices))
        )

    @property
    def used_points(self) -> frozenset[int]:
        return frozenset(i for s in self.simplices for i in s)


@dataclass(frozen=True)
class Circuit:
    """A minimal affinely dependent set with its signed partition."""

    points: tuple[int, ...]
    plus: tuple[int, ...]
    minus: tuple[int, ...]


@dataclass
class ExploreResult:
    """The filtered census, sorted; the BFS `nodes` in visit order; and
    `flip_edges` keyed by index pairs (a, b), a < b, into `nodes`."""

    triangulations: list[Triangulation]
    complete: bool
    nodes: list[Triangulation]
    flip_edges: dict[tuple[int, int], Circuit] = field(default_factory=dict)

    @property
    def nodes_visited(self) -> int:
        return len(self.nodes)


def config_from_type(t: QuotientType) -> PointConfig:
    """The standardized junior configuration of a Gorenstein type."""
    cfg = junior_config(t)
    pts = standardize_junior(cfg, t)
    return PointConfig(
        t.r - 1,
        tuple(pts),
        tuple(jp.kind for jp in cfg),
        tuple(jp.carrier for jp in cfg),
    )


# ---------------------------------------------------------------------------
# exact geometry helpers

def _signed_volume(cfg: PointConfig, s: Sequence[int]) -> int:
    """Normalized volume of the simplex on the points s, signed by the
    orientation of their order."""
    p0 = cfg.points[s[0]]
    return det_int([[a - b for a, b in zip(cfg.points[i], p0)] for i in s[1:]])


def simplex_volume(cfg: PointConfig, s: Sequence[int]) -> int:
    """Normalized volume (unimodular simplex = 1); 0 if degenerate."""
    return abs(_signed_volume(cfg, s))


def _affine_coordinates(cfg: PointConfig, s: Sequence[int], p: int) -> list[Fraction] | None:
    """Barycentric coordinates of point p w.r.t. the simplex on the
    points s, or None if that simplex is degenerate."""
    return affine_coordinates([cfg.points[i] for i in s], cfg.points[p])


def _vertex_points(cfg: PointConfig) -> tuple[int, ...]:
    verts = tuple(i for i, lab in enumerate(cfg.labels) if lab == "vertex")
    if len(verts) != cfg.dim + 1:
        raise ValueError(
            f"expected {cfg.dim + 1} vertex points, found {len(verts)}"
        )
    return verts


def total_volume(cfg: PointConfig) -> int:
    """Normalized volume of conv(cfg) = the simplex on the vertex points
    (every other configuration point lies inside it)."""
    return simplex_volume(cfg, _vertex_points(cfg))


# ---------------------------------------------------------------------------
# exact feasibility LP (phase 1 of the simplex method, Bland's rule)

def _feasible_point(a: list[list[Fraction]]) -> list[Fraction] | None:
    """A vertex x >= 0 of {x : a x = 1}, or None if that set is empty.

    Phase 1 of the simplex method in exact arithmetic: one artificial
    variable per row, whose sum is minimized from the artificial basis.
    Bland's rule (the smallest column with negative reduced cost enters;
    the ratio test breaks ties by the smallest basic variable) makes it
    terminate.  The sum is bounded below by 0, so the ratio test always
    has a row, and the system is feasible iff the sum reaches 0."""
    m, n = len(a), len(a[0])
    rhs = n + m  # index of the right-hand-side column
    tab = [
        row + [Fraction(1 if k == r else 0) for k in range(m)] + [Fraction(1)]
        for r, row in enumerate(a)
    ]
    basis = [n + r for r in range(m)]
    cost = [Fraction(0)] * n + [Fraction(1)] * m
    while True:
        enter = next(
            (
                j for j in range(rhs)
                if j not in basis
                and cost[j] - sum(cost[basis[r]] * tab[r][j] for r in range(m)) < 0
            ),
            None,
        )
        if enter is None:
            break
        _, _, leave = min(
            (tab[r][rhs] / tab[r][enter], basis[r], r) for r in range(m) if tab[r][enter] > 0
        )
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for r in range(m):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[leave])]
        basis[leave] = enter
    if any(tab[r][rhs] for r in range(m) if basis[r] >= n):
        return None
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][rhs]
    return x


# ---------------------------------------------------------------------------
# seeding: stellar subdivision of the vertex simplex

def _carrier_face(cfg: PointConfig, s: Simplex, p: int) -> frozenset[int] | None:
    """The vertices of cell s on which point p has a positive barycentric
    coordinate, or None if p lies outside s."""
    lam = _affine_coordinates(cfg, s, p)
    if lam is None or min(lam) < 0:
        return None
    return frozenset(v for v, x in zip(s, lam) if x > 0)


def placing_triangulation(
    cfg: PointConfig, order: Sequence[int] | None = None
) -> Triangulation:
    """A coherent triangulation using every configuration point.

    Starts from the simplex on the vertex points and inserts the other
    points in `order` (index order by default; vertex points are
    skipped).  A point p in the relative interior of the face F replaces
    every cell S containing F by the cells (S \\ {v}) u {p}, v in F.  Such a
    stellar subdivision of a regular triangulation is regular (pull p
    slightly below the lifted surface), and each inserted point becomes
    a vertex, so the result is regular and fine by construction
    (De Loera-Rambau-Santos, *Triangulations*, 2010, ch. 4).
    """
    cells = {_vertex_points(cfg)}
    for p in range(cfg.n) if order is None else order:
        if cfg.labels[p] == "vertex":
            continue
        face = next(
            (f for f in (_carrier_face(cfg, s, p) for s in cells) if f is not None),
            None,
        )
        if face is None:
            raise ValueError(f"point {p} lies outside the vertex simplex")
        star = {s for s in cells if face <= set(s)}
        cells -= star
        cells |= {
            tuple(sorted((set(s) - {v}) | {p})) for s in star for v in face
        }
    tri = Triangulation.of(cells)
    if not is_valid(cfg, tri):
        raise RuntimeError("stellar subdivision failed the triangulation audit")
    return tri


# ---------------------------------------------------------------------------
# validity / basicness / vectors

def _facet_incidence(tri: Triangulation) -> dict[tuple[int, ...], list[Simplex]]:
    inc: dict[tuple[int, ...], list[Simplex]] = {}
    for s in tri.simplices:
        for v in s:
            f = tuple(x for x in s if x != v)
            inc.setdefault(f, []).append(s)
    return inc


def is_valid(cfg: PointConfig, tri: Triangulation) -> bool:
    """Exact audit that the cells triangulate the vertex simplex.

    The cells are distinct and full-dimensional, and their volumes sum
    to the volume of the vertex simplex.  Every facet lies in one or two
    cells: in one only on the boundary (its points' carriers miss a
    vertex), in two only with the opposite vertices strictly on
    opposite sides.  Then almost every point of the simplex lies in the
    same number of cells, one by the volume sum, and cells covering
    each point once with matched interior facets meet face to face
    (De Loera-Rambau-Santos, *Triangulations*, 2010, ch. 4).
    """
    if not tri.simplices or len(set(tri.simplices)) != len(tri.simplices):
        return False
    vols = [simplex_volume(cfg, s) for s in tri.simplices]
    if 0 in vols:
        return False
    if sum(vols) != total_volume(cfg):
        return False
    for f, inc in _facet_incidence(tri).items():
        if len(inc) == 1:
            if len(frozenset().union(*(cfg.carriers[i] for i in f))) > cfg.dim:
                return False
        elif len(inc) == 2:
            a, b = (next(x for x in s if x not in f) for s in inc)
            if _signed_volume(cfg, f + (a,)) * _signed_volume(cfg, f + (b,)) >= 0:
                return False
        else:
            return False
    return True


def basicness(cfg: PointConfig, tri: Triangulation) -> tuple[bool, list[Simplex]]:
    bad = [s for s in tri.simplices if simplex_volume(cfg, s) != 1]
    return not bad, bad


def fh_vectors(tri: Triangulation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(f, h) of the simplicial complex spanned by the maximal simplices.

    f = (f_-1, f_0, ..., f_d) starting with the empty face; h of length
    d+2 via the standard binomial transform.
    """
    faces: set[tuple[int, ...]] = set()
    top = max(len(s) for s in tri.simplices)
    for s in tri.simplices:
        for k in range(1, len(s) + 1):
            faces.update(combinations(s, k))
    f = [1] + [0] * top
    for fc in faces:
        f[len(fc)] += 1
    from math import comb

    dp1 = top  # d+1
    h = []
    for k in range(dp1 + 1):
        h.append(
            sum(
                (-1) ** (k - i) * comb(dp1 - i, k - i) * f[i]
                for i in range(k + 1)
            )
        )
    return tuple(f), tuple(h)


# ---------------------------------------------------------------------------
# circuits and flips

def _circuit_of(cfg: PointConfig, pts: Sequence[int]) -> Circuit | None:
    """The signed circuit inside a spanning (d+2)-subset.

    The affine dependence on such a subset is unique up to scale; its
    support is the circuit (coefficients may vanish when the subset
    contains a lower-dimensional dependent set, e.g. collinear points).
    Returns None if the subset has a dependence space of dimension > 1.
    """
    pts = sorted(pts)
    lam = affine_dependence([cfg.points[i] for i in pts])
    if lam is None:
        return None
    plus = tuple(i for i, x in zip(pts, lam) if x > 0)
    minus = tuple(i for i, x in zip(pts, lam) if x < 0)
    if len(plus) > len(minus) or (len(plus) == len(minus) and plus > minus):
        plus, minus = minus, plus
    support = tuple(sorted(plus + minus))
    return Circuit(support, plus, minus)


def _flip_patch(
    tri_set: set[Simplex], c: Circuit, side: tuple[int, ...]
) -> tuple[set[Simplex], frozenset[frozenset[int]]] | None:
    """Simplices of the triangulation realizing one side of the circuit.

    The side is present iff for every v on it, the maximal simplices
    containing C \\ {v} all have the form (C \\ {v}) u L with a common
    nonempty set of links L across the side.  Returns (patch, links)."""
    links: frozenset[frozenset[int]] | None = None
    patch: set[Simplex] = set()
    for v in side:
        face = frozenset(c.points) - {v}
        inc = [s for s in tri_set if face <= set(s)]
        if not inc:
            return None
        lv = frozenset(frozenset(s) - face for s in inc)
        if links is None:
            links = lv
        elif links != lv:
            return None
        patch.update(inc)
    if links is None:
        raise ValueError(f"circuit {c} has an empty side")
    return patch, links


def _flipped(tri_set: set[Simplex], c: Circuit) -> set[Simplex] | None:
    """The cells after the flip on c: the side of the circuit that sits
    in the triangulation is swapped for the other side, joined with the
    same links.  None if neither side sits there."""
    for side, other in ((c.plus, c.minus), (c.minus, c.plus)):
        got = _flip_patch(tri_set, c, side)
        if got is not None:
            patch, links = got
            return (tri_set - patch) | {
                tuple(sorted((frozenset(c.points) - {w}) | L))
                for w in other
                for L in links
            }
    return None


def find_flips(
    cfg: PointConfig,
    tri: Triangulation,
    keep_points: bool = True,
) -> list[tuple[Circuit, Triangulation]]:
    """The bistellar flips of the triangulation, each as its circuit
    and the neighbour it leads to.

    Candidates are the circuits spanned by pairs of maximal simplices
    sharing a facet; a flip exists when one side of the circuit sits in
    the triangulation with a common link, and it swaps that side for
    the other (an involution: the neighbour flips back on the same
    circuit).  With keep_points, flips that would drop a currently used
    vertex are suppressed (so exploration stays inside the maximal
    triangulations)."""
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    tri_set = set(tri.simplices)
    used = tri.used_points
    out = []
    for inc in _facet_incidence(tri).values():
        if len(inc) != 2:
            continue
        pts = tuple(sorted(set(inc[0]) | set(inc[1])))
        c = _circuit_of(cfg, pts)
        if c is None or (c.plus, c.minus) in seen:
            continue
        seen.add((c.plus, c.minus))
        flipped = _flipped(tri_set, c)
        if flipped is None:
            continue
        if keep_points and {i for s in flipped for i in s} != used:
            continue
        out.append((c, Triangulation.of(flipped)))
    return out


# ---------------------------------------------------------------------------
# coherence

def _lift_row(n: int, s: Simplex, bary: Sequence[Fraction], p: int) -> list[Fraction]:
    """The row c with c.w = (the affine function through the heights w
    on the cell s, at point p) - w_p, given p's barycentric coordinates
    on s.  Those sum to 1, so the row sums to 0."""
    row = [Fraction(0)] * n
    for lam, i in zip(bary, s):
        row[i] += lam
    row[p] -= 1
    return row


def coherence_constraints(cfg: PointConfig, tri: Triangulation) -> list[list[Fraction]]:
    """Rows c with the meaning: heights w are admissible iff c.w > 0.

    One row per interior wall (the opposite vertex of one side must lift
    strictly below the affine span of the other side -- local strict
    upper convexity, which over a convex support is equivalent to global
    regularity), and one row per unused point (it must lie strictly
    below the lifted surface of a simplex containing it).  Both kinds
    are `_lift_row`s, so every row sums to 0."""
    rows: list[list[Fraction]] = []
    for f, inc in _facet_incidence(tri).items():
        if len(inc) != 2:
            continue
        s1, s2 = inc
        v = next(x for x in s2 if x not in f)
        bary = _affine_coordinates(cfg, s1, v)
        if bary is None:
            raise RuntimeError(f"degenerate wall cell {s1}")
        rows.append(_lift_row(cfg.n, s1, bary, v))
    unused = set(range(cfg.n)) - set(tri.used_points)
    for p in unused:
        for s in tri.simplices:
            bary = _affine_coordinates(cfg, s, p)
            if bary is not None and all(x >= 0 for x in bary):
                rows.append(_lift_row(cfg.n, s, bary, p))
                break
        else:
            raise ValueError(f"point {p} outside the triangulated region")
    return rows


def is_coherent(cfg: PointConfig, tri: Triangulation) -> tuple[bool, list[Fraction] | None]:
    """Exact regularity test.  Returns (flag, certificate heights), the
    heights from one feasibility LP with every wall slack at least 1."""
    rows = coherence_constraints(cfg, tri)
    if not rows:
        return True, [Fraction(0)] * cfg.n
    w = strict_heights(rows)
    return (False, None) if w is None else (True, w)


def strict_heights(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """Heights w >= 0 with row.w >= 1 for every row, or None if none exist.

    Every row must sum to 0 (an affine interpolation minus one point, as
    `_lift_row` builds them); a row that does not raises RuntimeError.
    Then adding a constant to every height changes no row value, so
    nonnegative heights exist exactly when any heights do, and one exact
    LP decides it: R w - s = 1 with w, s >= 0, one column per height and
    one surplus per row.  The heights are re-checked against the rows."""
    for row in rows:
        if sum(row) != 0:
            raise RuntimeError("a coherence row does not sum to 0")
    m, n = len(rows), len(rows[0])
    a = [row + [Fraction(-1 if k == r else 0) for k in range(m)] for r, row in enumerate(rows)]
    x = _feasible_point(a)
    if x is None:
        return None
    w = x[:n]
    for row in rows:
        if sum(ci * wi for ci, wi in zip(row, w)) < 1:
            raise RuntimeError("coherence LP returned heights that violate a wall")
    return w


# ---------------------------------------------------------------------------
# exploration

DEFAULT_BUDGET_NODES = 100_000


def explore(
    cfg: PointConfig,
    seeds: Sequence[Triangulation] | None = None,
    *,
    maximal_only: bool = True,
    coherent_only: bool = False,
    basic_only: bool = False,
    budget_nodes: int = DEFAULT_BUDGET_NODES,
) -> ExploreResult:
    """BFS over the flip graph from coherent seeds (by default the one
    placing triangulation).

    All reachable triangulations are collected (coherence is filtered
    afterwards by the LP, so non-coherent nodes met en route are kept
    for the census when coherent_only is off).  With maximal_only, only
    point-preserving flips are used, so every node uses all points.
    `nodes` lists them in visit order, seeds first; the list is also the
    BFS queue, and `flip_edges` and the `--dot` ids of the CLI index
    into it.  At most budget_nodes nodes are visited; a search that
    meets one more is returned with complete False.

    One regular seed reaches every regular fine triangulation by
    point-preserving flips (Gelfand-Kapranov-Zelevinsky; De Loera-
    Rambau-Santos, *Triangulations*, 2010, ch. 5).  The heights w under
    which every point is a lower vertex form an open convex set: point p
    is one iff w_p < h_p(w), where h_p, the lower envelope of the other
    lifted points at p, is a minimum of linear functions of w and so
    concave.  A generic segment in that set, between heights inducing
    two regular fine triangulations, crosses only walls of the secondary
    fan, and each crossing is a flip between fine triangulations, which
    keeps every point.  So the coherent fine census is complete from a
    single seed, and further seeds add nothing.  (Without maximal_only
    the same holds for all regular triangulations, along the edges of
    the secondary polytope.  Non-regular ones need not be reachable.)
    """
    if seeds is None:
        seeds = [placing_triangulation(cfg)]
    nodes = list(dict.fromkeys(seeds))
    index = {t: i for i, t in enumerate(nodes)}
    edges: dict[tuple[int, int], Circuit] = {}
    complete = True
    # the loop reads nodes as a queue while it appends to them
    for a, cur in enumerate(nodes):
        for c, nxt in find_flips(cfg, cur, keep_points=maximal_only):
            if nxt not in index:
                if len(nodes) >= budget_nodes:
                    complete = False
                    break
                index[nxt] = len(nodes)
                nodes.append(nxt)
            b = index[nxt]
            edges[(min(a, b), max(a, b))] = c
        if not complete:
            break
    tris = nodes
    if basic_only:
        tris = [t for t in tris if basicness(cfg, t)[0]]
    if coherent_only:
        tris = [t for t in tris if is_coherent(cfg, t)[0]]
    return ExploreResult(sorted(tris, key=lambda t: t.simplices), complete, nodes, edges)

