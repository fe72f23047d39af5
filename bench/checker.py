"""Independent checks of crepant-lab outputs.

Nothing here imports crepant_lab.  The checker has its own type parser,
its own group-element enumeration with ages, its own exact determinant
and elimination, its own Upper Bound Theorem bound and Hilbert-basis
test, the circuit criterion for proper intersection and a lower-hull
certificate check.  Geometry is done in the checker's own coordinates:
a junior point delta/e is represented by its first r-1 numerators, an
affine image of the junior simplex in which normalized volumes are
ratios against the vertex simplex (volume l).

A rejected output raises Rejected; the benchmark counts it as a failed
operation.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd, lcm


class Rejected(Exception):
    """An output the checker does not accept."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise Rejected(what)


# ---------------------------------------------------------------------------
# groups

_FACTOR = re.compile(r"^1/(\d+)\(([\d,]+)\)$")


class Group:
    """A finite diagonal abelian group, as the set of its residue vectors.

    An element is a tuple delta in [0, e)^r standing for the point
    delta/e; e is the exponent of the group.  The elements are found by
    closing the set {0} under each generator, not by indexing tuples.
    """

    def __init__(self, r: int, e: int, deltas):
        self.r = r
        self.e = e
        self.deltas = tuple(sorted(deltas))
        self.l = len(self.deltas)
        self.nonzero = [d for d in self.deltas if any(d)]

    @staticmethod
    def parse(text: str) -> "Group":
        factors = []
        for part in text.replace(" ", "").split("x"):
            m = _FACTOR.match(part)
            require(m is not None, f"cannot parse factor {part!r}")
            factors.append((int(m.group(1)), [int(x) for x in m.group(2).split(",")]))
        r = len(factors[0][1])
        e = lcm(*(q for q, _ in factors))
        elems = {(0,) * r}
        for q, w in factors:
            gen = tuple(e // q * x % e for x in w)
            new = set()
            for a in elems:
                for j in range(q):
                    new.add(tuple((x + j * y) % e for x, y in zip(a, gen)))
            elems = new
        return Group(r, e, elems)

    def age(self, d) -> int:
        s = sum(d)
        require(s % self.e == 0, f"non-Gorenstein element {d}")
        return s // self.e

    def core(self) -> tuple["Group", tuple[int, ...]]:
        """The msc core: coordinates on which some element acts."""
        keep = tuple(i for i in range(self.r) if any(d[i] for d in self.deltas))
        if len(keep) == self.r:
            return self, keep
        return Group(len(keep), self.e, {tuple(d[i] for i in keep) for d in self.deltas}), keep

    def juniors(self) -> list[tuple[int, ...]]:
        return [d for d in self.nonzero if self.age(d) == 1]

    def canonical(self) -> tuple:
        """The element set up to a permutation of coordinates."""
        return min(
            tuple(sorted(tuple(d[i] for i in p) for d in self.deltas))
            for p in permutations(range(self.r))
        )


def integer_root(n: int, k: int) -> int | None:
    lo, hi = 1, max(2, n)
    while lo <= hi:
        mid = (lo + hi) // 2
        v = mid ** k
        if v == n:
            return mid
        lo, hi = (mid + 1, hi) if v < n else (lo, mid - 1)
    return None


def hypersurface_k(g: Group) -> int | None:
    """k when g is G(r;k), every diagonal matrix of k-th roots of unity
    with determinant 1; that set is symmetric, so no permutation is
    needed."""
    k = integer_root(g.l, g.r - 1) if g.r >= 3 else None
    if k is None or k < 2 or g.e != k:
        return None
    ok = all(sum(d) % k == 0 for d in g.deltas)
    return k if ok and len(set(g.deltas)) == k ** (g.r - 1) else None


def cyclic_facets(d: int, k: int) -> int:
    """Facets of the cyclic d-polytope with k vertices (Gale evenness)."""
    m = d // 2
    if d % 2 == 0:
        return k * comb(k - m, m) // (k - m)
    return 2 * comb(k - m - 1, m)


def order_bound(g: Group) -> tuple[int, int]:
    """(b, bound): b lattice points of the junior simplex, and the Upper
    Bound Theorem bound on l when a basic triangulation exists."""
    r = g.r
    juniors = g.juniors()
    b = r + len(juniors)
    boundary = {k: 0 for k in range(2, r)}
    for d in juniors:
        ht = sum(1 for x in d if x)
        if ht < r:
            boundary[ht] += 1
    if b == r:
        return b, 1
    if r == 4:
        return b, cyclic_facets(4, b) - 2 * boundary[2] - boundary[3] - 1
    return b, cyclic_facets(r, b) - sum(boundary.values()) - 1


def hilbert_witnesses(g: Group) -> set[tuple[int, ...]]:
    """Irreducible element points of age >= 2.

    An element point is reducible iff another nonzero element point lies
    below it componentwise; the elements below delta are found as the
    intersection of one bitset per coordinate."""
    elems = g.nonzero
    below = []  # below[i][v]: bitset of elements with coordinate i <= v
    for i in range(g.r):
        by_value = [0] * g.e
        for n, d in enumerate(elems):
            by_value[d[i]] |= 1 << n
        acc, masks = 0, []
        for v in range(g.e):
            acc |= by_value[v]
            masks.append(acc)
        below.append(masks)
    out = set()
    for n, d in enumerate(elems):
        if g.age(d) < 2:
            continue
        mask = -1
        for i in range(g.r):
            mask &= below[i][d[i]]
        if mask == 1 << n:
            out.add(d)
    return out


def series_kind(text: str) -> str | None:
    """The special series the msc core of a cyclic type belongs to, in
    the order the paper treats them: geometric progression,
    one-parameter, two-parameter."""
    m = _FACTOR.match(text.replace(" ", ""))
    if m is None:
        return None
    l = int(m.group(1))
    w = [x for x in (int(v) % l for v in m.group(2).split(",")) if x]
    r = len(w)
    if r < 3 or l < r:
        return None
    units = [c for c in set(w) if gcd(c, l) == 1]
    for k in range(2, l):
        s = (k ** r - 1) // (k - 1)
        if s > l:
            break
        if s == l:
            target = sorted(pow(k, i, l) for i in range(r))
            if any(sorted(x * pow(c, -1, l) % l for x in w) == target for c in units):
                return "gp"
    most = max((w.count(c) for c in units), default=0)
    if most >= r - 1:
        return "one_param"
    if most >= r - 2:
        return "two_param"
    return None


def screen_truth(text: str) -> tuple[str, int]:
    """(verdict, deciding step) from facts the checker derives itself.

    Returns step 5 when no step 0-4 decides; such types are not screen
    inputs."""
    g = Group.parse(text)
    c, _ = g.core()
    if c.r <= 3:
        return "RESOLVABLE", 0
    if hypersurface_k(c) is not None:
        return "RESOLVABLE", 1
    kind = series_kind(text)
    if kind == "gp":
        return "RESOLVABLE", 2
    if kind == "one_param":
        ok = c.l % (c.r - 1) in (0, 1)
        return ("RESOLVABLE" if ok else "NOT_RESOLVABLE"), 2
    if kind == "two_param":
        return ("NOT_RESOLVABLE" if hilbert_witnesses(c) else "RESOLVABLE"), 2
    _, bound = order_bound(c)
    if c.l > bound:
        return "NOT_RESOLVABLE", 3
    if hilbert_witnesses(c):
        return "NOT_RESOLVABLE", 4
    return "UNDECIDED", 5


# ---------------------------------------------------------------------------
# exact linear algebra

def det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n, out = len(m), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def solve(rows, rhs) -> list[Fraction] | None:
    """The unique solution of a square system, or None if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c] / aug[c][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def affine_dependences(pts) -> list[list[Fraction]]:
    """A basis of {c : sum c_i p_i = 0, sum c_i = 0}."""
    m = len(pts)
    rows = [[Fraction(p[k]) for p in pts] for k in range(len(pts[0]))]
    rows.append([Fraction(1)] * m)
    pivots = []
    for col in range(m):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    out = []
    for free in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free]
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# point configurations in the checker's own coordinates

class Config:
    """A junior configuration in the checker's own coordinates.

    coords[i] is the residue vector delta of point i (e * e_j for the
    vertices); points[i] drops its last coordinate, an affine image of
    the junior simplex."""

    def __init__(self, g: Group, coords):
        self.g = g
        self.coords = list(coords)
        self.n = len(self.coords)
        self.dim = g.r - 1
        self.points = [c[: self.dim] for c in self.coords]
        p0 = self.points[0]
        self.total = det([[p[k] - p0[k] for k in range(self.dim)] for p in self.points[1 : g.r]])

    @classmethod
    def of_group(cls, g: Group) -> "Config":
        verts = [tuple(g.e if i == j else 0 for i in range(g.r)) for j in range(g.r)]
        return cls(g, verts + sorted(g.juniors()))

    @classmethod
    def from_program(cls, g: Group, program_points) -> "Config":
        """Match the program's points, in its order, to the checker's.

        The barycentric coordinates of a program point with respect to
        the program's first r points must be delta/e of a junior point,
        each junior point must appear once, and the first r points must
        span normalized volume l, so the program's lattice is N_G."""
        r, e, dim = g.r, g.e, g.r - 1
        expect = cls.of_group(g).coords
        require(len(program_points) == len(expect),
                f"{len(program_points)} points, expected {r} vertices + {len(expect) - r} junior points")
        pts = [[Fraction(x) for x in p] for p in program_points]
        verts = pts[:r]
        require(abs(det([[v[k] - verts[0][k] for k in range(dim)] for v in verts[1:]])) == g.l,
                "vertex simplex does not have normalized volume l")
        coords = []
        for p in pts:
            bary = solve([[v[k] for v in verts] for k in range(dim)] + [[1] * r], p[:dim] + [1])
            require(bary is not None and all(x >= 0 for x in bary), f"point {p} outside the simplex")
            delta = [x * e for x in bary]
            require(all(x.denominator == 1 for x in delta), f"point {p} is not an element point")
            coords.append(tuple(int(x) for x in delta))
        require(coords[:r] == expect[:r], "the first r points are not e_1..e_r")
        require(sorted(coords[r:]) == expect[r:], "points differ from the junior configuration")
        return cls(g, coords)

    def volume(self, cell) -> Fraction:
        """Normalized volume: l times the share of the vertex simplex."""
        p0 = self.points[cell[0]]
        v = det([[self.points[i][k] - p0[k] for k in range(self.dim)] for i in cell[1:]])
        return abs(v) * self.g.l / abs(self.total)

    def circuits(self) -> list[tuple[frozenset, frozenset]]:
        out = []
        for k in range(2, self.dim + 3):
            for z in combinations(range(self.n), k):
                ker = affine_dependences([self.points[i] for i in z])
                if len(ker) == 1 and all(ker[0]):
                    out.append((
                        frozenset(i for i, c in zip(z, ker[0]) if c > 0),
                        frozenset(i for i, c in zip(z, ker[0]) if c < 0),
                    ))
        return out


def check_lower_hull(cfg: Config, cells, heights) -> None:
    """Every cell is a lower facet of the lifted points and every other
    point lifts strictly above its affine interpolation; with the volume
    cover this proves the cells are the regular triangulation of heights."""
    require(len(heights) == cfg.n, "one height per point expected")
    h = [Fraction(x) for x in heights]
    for cell in cells:
        coef = solve([list(cfg.points[i]) + [1] for i in cell], [h[i] for i in cell])
        require(coef is not None, f"degenerate cell {cell}")
        for p in range(cfg.n):
            if p in cell:
                continue
            lift = sum(c * x for c, x in zip(coef, cfg.points[p])) + coef[-1]
            require(h[p] > lift, f"point {p} does not lift above cell {cell}")


def check_fine(cfg: Config, cells) -> list[Fraction]:
    require(len(set(cells)) == len(cells), "repeated cell")
    require(all(len(c) == cfg.dim + 1 for c in cells), "cell of the wrong size")
    require({i for c in cells for i in c} == set(range(cfg.n)), "not every point is used")
    vols = [cfg.volume(c) for c in cells]
    require(all(v > 0 and v.denominator == 1 for v in vols), "degenerate or non-lattice cell")
    require(sum(vols) == cfg.g.l, f"cell volumes sum to {sum(vols)}, not l = {cfg.g.l}")
    return vols


def check_proper(cells, circuits) -> None:
    """Two cells meet properly iff no circuit has one side in each."""
    sets = [frozenset(c) for c in cells]
    for a, b in combinations(sets, 2):
        for zp, zm in circuits:
            require(not ((zp <= a and zm <= b) or (zm <= a and zp <= b)),
                    f"cells {sorted(a)} and {sorted(b)} meet improperly")


def fh_vectors(cells) -> tuple[list[int], list[int]]:
    d1 = len(cells[0])
    faces = [set() for _ in range(d1 + 1)]
    for c in cells:
        for k in range(1, d1 + 1):
            faces[k].update(combinations(sorted(c), k))
    f = [1] + [len(faces[k]) for k in range(1, d1 + 1)]
    h = [sum((-1) ** (k - i) * comb(d1 - i, k - i) * f[i] for i in range(k + 1)) for k in range(d1 + 1)]
    return f, h


# ---------------------------------------------------------------------------
# output checks, one per workload

def _frac(x) -> Fraction:
    return Fraction(str(x))


def check_steps(text: str, report: dict) -> dict:
    """Check every step the pipeline reports against the checker's own
    facts about the msc core; returns the steps by number."""
    g = Group.parse(text)
    c, _ = g.core()
    steps = {s["step"]: s for s in report["steps"]}
    last = report["steps"][-1]
    verdict = report["verdict"]
    require(verdict in ("RESOLVABLE", "NOT_RESOLVABLE", "UNDECIDED"), f"unknown verdict {verdict}")
    outcome = {"resolvable": "RESOLVABLE", "not_resolvable": "NOT_RESOLVABLE"}.get(last["outcome"])
    require(outcome == verdict, f"verdict {verdict} but the last step says {last['outcome']}")
    if 0 in steps:
        require(steps[0]["r"] == c.r <= 3, f"step 0 claims r = {steps[0]['r']}, core has r = {c.r}")
    elif c.r <= 3:
        raise Rejected(f"msc core has r = {c.r} but step 0 did not decide")
    if 1 in steps:
        k = hypersurface_k(c)
        if steps[1]["outcome"] == "resolvable":
            require(k is not None and steps[1]["match"]["parameters"]["k"] == k,
                    "step 1 claims G(r;k) but the element set is not G(r;k)")
        else:
            require(k is None, f"element set is G({c.r};{k}) but step 1 did not decide")
    if 2 in steps and steps[2]["outcome"] != "inconclusive":
        kind = steps[2]["match"]["kind"]
        require(kind == series_kind(text), f"step 2 names series {kind}, the checker finds {series_kind(text)}")
        if kind == "gp":
            answer = "resolvable"
        elif kind == "one_param":
            answer = "resolvable" if c.l % (c.r - 1) in (0, 1) else "not_resolvable"
        else:
            answer = "not_resolvable" if hilbert_witnesses(c) else "resolvable"
        require(steps[2]["outcome"] == answer, f"series {kind} answer is {answer}, step 2 says {steps[2]['outcome']}")
    if 3 in steps:
        rep = steps[3]["report"]
        b, bound = order_bound(c)
        require((rep["l"], rep["point_count"], rep["bound"]) == (c.l, b, bound),
                f"order bound: program (l, b, bound) = {(rep['l'], rep['point_count'], rep['bound'])}, checker {(c.l, b, bound)}")
        require(steps[3]["outcome"] == ("not_resolvable" if c.l > bound else "inconclusive"),
                f"l = {c.l}, bound {bound}, step 3 says {steps[3]['outcome']}")
    if 4 in steps:
        witnesses = [tuple(_frac(x) * c.e for x in p) for p in steps[4]["witnesses"]]
        elems = set(c.nonzero)
        irreducible = hilbert_witnesses(c)
        for wt in witnesses:
            require(all(x.denominator == 1 for x in wt), f"witness {wt} is not an element point")
            d = tuple(int(x) for x in wt)
            require(d in elems, f"witness {d} is not an element point")
            require(c.age(d) >= 2, f"witness {d} has age {c.age(d)}")
            require(d in irreducible, f"witness {d} is reducible: an element point lies below it")
        require({tuple(int(x) for x in wt) for wt in witnesses} == irreducible,
                "the witnesses miss an irreducible element point of age >= 2")
        require(steps[4]["outcome"] == ("not_resolvable" if witnesses else "inconclusive"),
                "step 4 outcome does not follow from its witnesses")
    return steps


def check_screen(text: str, payload: dict) -> None:
    report = payload["report"]
    steps = check_steps(text, report)
    verdict, step = screen_truth(text)
    require(max(steps) <= 4, "a screen input reached the census")
    require(report["verdict"] == verdict, f"verdict {report['verdict']}, checker {verdict} at step {step}")


def check_decide(text: str, payload: dict, heights) -> None:
    """A RESOLVABLE verdict from the census: a basic witness whose lower
    hull is certified with the heights of is_coherent (negated: those
    heights lift the triangulation as an upper hull)."""
    report = payload["report"]
    steps = check_steps(text, report)
    require(report["verdict"] == "RESOLVABLE" and 5 in steps, "not decided RESOLVABLE by the census")
    g, _ = Group.parse(text).core()
    cfg = Config.from_program(g, steps[5]["points"])
    cells = [tuple(s) for s in steps[5]["witness"]["simplices"]]
    vols = check_fine(cfg, cells)
    require(all(v == 1 for v in vols), "witness has a cell of normalized volume != 1")
    require(heights is not None, "is_coherent gave no heights for the witness")
    check_lower_hull(cfg, cells, [-Fraction(x) for x in heights])


def check_census(text: str, payload: dict, heights_list, base: str, expected: int) -> None:
    """A census of `text`, a presentation of the corpus type `base` whose
    number of coherent fine triangulations is `expected`."""
    g = Group.parse(text)
    require(g.canonical() == Group.parse(base).canonical(), f"{text} is not a presentation of {base}")
    cfg = Config.from_program(g, payload["points"])
    require(payload["labels"][: g.r] == ["vertex"] * g.r, "first r labels are not vertices")
    tris = payload["triangulations"]
    require(payload["count"] == len(tris) == expected,
            f"census of {payload['count']} ({len(tris)} listed), independent count {expected}")
    keys = [tuple(sorted(tuple(sorted(s)) for s in t["simplices"])) for t in tris]
    require(len(set(keys)) == len(keys), "a triangulation is listed twice")
    require(len(heights_list) == len(keys), "one height vector per triangulation expected")
    circuits = cfg.circuits()
    for t, cells, heights in zip(tris, keys, heights_list):
        vols = check_fine(cfg, cells)
        check_proper(cells, circuits)
        require(t["basic"] == all(v == 1 for v in vols), f"basic flag wrong on {cells}")
        f, h = fh_vectors(cells)
        require(t["f_vector"] == f and t["h_vector"] == h, f"f/h-vector wrong on {cells}")
        require(heights is not None, f"no coherence heights for {cells}")
        check_lower_hull(cfg, cells, [-Fraction(x) for x in heights])
