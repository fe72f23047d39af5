"""Triangulation engine: volumes, flips, coherence, the flip-graph census.

The census oracle is an exhaustive backtracking enumeration over all
nondegenerate top-dimensional simplices (pairwise-properness + exact
volume cover).  It shares no code with the engine: two simplices meet
properly iff no circuit (Z+, Z-) has Z+ in one and Z- in the other
(De Loera-Rambau-Santos, *Triangulations*, 2010, ch. 2 and 4), and the
circuits and volumes come from the exact elimination below.
"""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from crepant_lab.grouptype import parse_type
from crepant_lab import triangulate as tr


EXAM12 = parse_type("1/12(1,2,3,6)")

# one maximal coherent basic triangulation of 1/12(1,2,3,6), in the
# standardized point order (0..3 the vertices, 4..8 the juniors sorted
# by delta)
BASIC_T1 = [
    (0, 3, 4, 7), (0, 3, 4, 8), (0, 4, 7, 8), (1, 2, 3, 4),
    (1, 2, 4, 5), (1, 3, 4, 6), (1, 4, 5, 7), (1, 4, 6, 7),
    (2, 3, 4, 7), (2, 4, 5, 7), (3, 4, 6, 8), (4, 6, 7, 8),
]


def _affine_kernel(pts):
    """Basis of the affine dependences (sum c_i p_i = 0, sum c_i = 0)."""
    m = len(pts)
    rows = [[Fraction(p[c]) for p in pts] for c in range(len(pts[0]))]
    rows.append([Fraction(1)] * m)
    pivots = []
    for col in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    kernel = []
    for free in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free]
        kernel.append(v)
    return kernel


def _det(m):
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return int(det)


def _signed_volume(cfg, s):
    p0 = cfg.points[s[0]]
    return _det([[a - b for a, b in zip(cfg.points[i], p0)] for i in s[1:]])


def _volume(cfg, s):
    return abs(_signed_volume(cfg, s))


def _vertex_volume(cfg):
    """Volume of the simplex on the vertex points, which contains every
    junior point."""
    verts = [i for i, lab in enumerate(cfg.labels) if lab == "vertex"]
    assert len(verts) == cfg.dim + 1
    return _volume(cfg, verts)


def _circuits(cfg):
    """Signed circuits (Z+, Z-): the point sets whose affine dependences
    form a line spanned by a vector with full support."""
    out = []
    for k in range(2, cfg.dim + 3):
        for z in combinations(range(cfg.n), k):
            ker = _affine_kernel([cfg.points[i] for i in z])
            if len(ker) == 1 and all(ker[0]):
                out.append((
                    frozenset(i for i, c in zip(z, ker[0]) if c > 0),
                    frozenset(i for i, c in zip(z, ker[0]) if c < 0),
                ))
    return out


def _proper(circuits, s1, s2):
    """Two simplices meet in a common face iff no circuit has one side
    in each of them."""
    s1, s2 = set(s1), set(s2)
    return not any(
        (zp <= s1 and zm <= s2) or (zm <= s1 and zp <= s2)
        for zp, zm in circuits
    )


def _is_triangulation(cfg, cells, circuits):
    """Distinct nondegenerate cells, pairwise proper, covering the
    volume of the vertex simplex."""
    vols = [_volume(cfg, s) for s in cells]
    return (
        len(set(cells)) == len(cells)
        and all(vols)
        and sum(vols) == _vertex_volume(cfg)
        and all(_proper(circuits, a, b) for a, b in combinations(cells, 2))
    )


def _certify_lower_hull(cfg, cells, heights):
    """Every point off a cell lifts strictly above the cell's affine
    interpolation of the heights, so each cell is a lower facet of the
    lifted points, and the cells cover the volume of the simplex."""
    assert sum(_volume(cfg, c) for c in cells) == _vertex_volume(cfg)
    for cell in cells:
        vol = _signed_volume(cfg, cell)
        assert vol != 0, cell
        for p in set(range(cfg.n)) - set(cell):
            # barycentric coordinates of p by Cramer's rule
            lam = [
                Fraction(_signed_volume(cfg, cell[:k] + (p,) + cell[k + 1:]), vol)
                for k in range(len(cell))
            ]
            assert heights[p] > sum(x * heights[v] for x, v in zip(lam, cell)), (cell, p)


def brute_census(cfg, maximal=True):
    """Every triangulation = pairwise-proper simplex set covering the
    full volume; optionally only those using every point."""
    n, d = cfg.n, cfg.dim
    vol_total = _vertex_volume(cfg)
    simps = [s for s in combinations(range(n), d + 1) if _volume(cfg, s) > 0]
    vols = [_volume(cfg, s) for s in simps]
    circuits = _circuits(cfg)
    compat = {}
    for i in range(len(simps)):
        for j in range(i + 1, len(simps)):
            compat[(i, j)] = _proper(circuits, simps[i], simps[j])
    out = []

    def rec(start, chosen, vol):
        if vol == vol_total:
            out.append(tr.Triangulation.of([simps[i] for i in chosen]))
            return
        for i in range(start, len(simps)):
            if vol + vols[i] <= vol_total and all(
                compat[(min(i, j), max(i, j))] for j in chosen
            ):
                rec(i + 1, chosen + [i], vol + vols[i])

    rec(0, [], 0)
    if maximal:
        out = [t for t in out if t.used_points == frozenset(range(n))]
    return sorted(out, key=lambda t: t.simplices)


def test_config_exam12():
    cfg = tr.config_from_type(EXAM12)
    assert cfg.n == 9
    assert cfg.dim == 3
    assert tr.total_volume(cfg) == 12


def test_placing_triangulation_valid():
    cfg = tr.config_from_type(EXAM12)
    t = tr.placing_triangulation(cfg, list(range(cfg.n)))
    assert tr.is_valid(cfg, t)
    assert t.used_points == frozenset(range(9))
    ok, w = tr.is_coherent(cfg, t)
    assert ok and w is not None


def test_seed_solves_no_lp(monkeypatch):
    # the stellar seed and its audit use determinant signs only
    seeds = []

    def no_lp(*args):
        raise AssertionError("the seed path solved an LP")

    with monkeypatch.context() as m:
        m.setattr(tr, "_feasible_point", no_lp)
        for text in ("1/12(1,2,3,6)", "1/18(1,2,6,9)", "1/8(1,1,2,2,2)"):
            cfg = tr.config_from_type(parse_type(text))
            t = tr.placing_triangulation(cfg)
            assert tr.is_valid(cfg, t)
            assert t.used_points == frozenset(range(cfg.n))
            seeds.append((cfg, t))
    for cfg, t in seeds:
        ok, w = tr.is_coherent(cfg, t)
        assert ok
        _certify_lower_hull(cfg, t.simplices, [-x for x in w])


def _volume_covers(cfg):
    """Every set of distinct nondegenerate cells whose volumes sum to
    the volume of the vertex simplex."""
    total = _vertex_volume(cfg)
    simps = [s for s in combinations(range(cfg.n), cfg.dim + 1) if _volume(cfg, s)]
    vols = [_volume(cfg, s) for s in simps]
    out = []

    def rec(start, chosen, vol):
        if vol == total:
            out.append(tuple(chosen))
            return
        for i in range(start, len(simps)):
            if vol + vols[i] <= total:
                rec(i + 1, chosen + [simps[i]], vol + vols[i])

    rec(0, [], 0)
    return out


@pytest.mark.parametrize("text", ["1/8(1,1,6)", "1/6(1,1,2,2)"])
def test_is_valid_agrees_with_circuit_criterion_on_every_cover(text):
    cfg = tr.config_from_type(parse_type(text))
    circuits = _circuits(cfg)
    tally = {True: 0, False: 0}
    for cells in _volume_covers(cfg):
        want = _is_triangulation(cfg, cells, circuits)
        assert tr.is_valid(cfg, tr.Triangulation.of(cells)) == want, cells
        tally[want] += 1
    assert tally[True] and tally[False] > 100, tally


def test_is_valid_agrees_with_circuit_criterion():
    cfg = tr.config_from_type(EXAM12)
    circuits = _circuits(cfg)
    every = brute_census(cfg, maximal=False)
    fine = [t for t in every if t.used_points == frozenset(range(cfg.n))]
    assert len(fine) == 13 and len(every) > len(fine)
    vol = {s: _volume(cfg, s) for s in combinations(range(cfg.n), cfg.dim + 1)}
    rng = random.Random(0)
    cases = [t.simplices for t in every]
    for t in fine:
        cells = t.simplices
        for i, cell in enumerate(cells):
            # swap one cell for another of the same volume, so that only
            # the facet conditions can tell
            same = [s for s, v in vol.items() if v == vol[cell] and s not in cells]
            for s in rng.sample(same, min(4, len(same))):
                cases.append(cells[:i] + (s,) + cells[i + 1:])
        # add a flat cell, which covers no volume
        cases += [cells + (s,) for s, v in vol.items() if v == 0]
        for u in fine:
            if u != t:
                cases.append(t.simplices[: len(cells) // 2] + u.simplices[len(u.simplices) // 2:])
    tally = {True: 0, False: 0}
    for cells in cases:
        want = _is_triangulation(cfg, cells, circuits)
        assert tr.is_valid(cfg, tr.Triangulation.of(cells)) == want, cells
        tally[want] += 1
    assert tally[True] >= len(every) and tally[False] > 500, tally
    # the volumes must sum to the vertex simplex's: one cell short fails
    assert not tr.is_valid(cfg, tr.Triangulation(fine[0].simplices[1:]))


def test_coherence_certificate_checked_under_optimize(run_optimized):
    # the re-check of LP heights must raise
    proc = run_optimized(
        """
        from fractions import Fraction
        from crepant_lab import triangulate as tr
        from crepant_lab.grouptype import BudgetError, parse_type

        cfg = tr.config_from_type(parse_type("1/12(1,2,3,6)"))
        t = tr.placing_triangulation(cfg)
        tr._feasible_point = lambda a: [Fraction(0)] * len(a[0])
        try:
            tr.is_coherent(cfg, t)
        except RuntimeError:
            raise SystemExit(0)
        raise SystemExit("wrong heights accepted")
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_flip_patch_guard_runs_under_optimize(run_optimized):
    # a circuit side with no points has no patch and no links
    proc = run_optimized(
        """
        from crepant_lab import triangulate as tr

        try:
            tr._flip_patch(set(), tr.Circuit((0, 1), (0,), (1,)), ())
        except ValueError:
            raise SystemExit(0)
        raise SystemExit("empty circuit side accepted")
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_duplicate_points_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        tr.PointConfig(1, ((0,), (0,)), ("vertex", "vertex"), (frozenset(), frozenset()))


def test_flips_are_involutions():
    cfg = tr.config_from_type(EXAM12)
    t = tr.placing_triangulation(cfg, list(range(cfg.n)))
    flips = tr.find_flips(cfg, t, keep_points=True)
    assert flips
    for c, t2 in flips:
        assert t2 != t
        assert sum(tr.simplex_volume(cfg, s) for s in t2.simplices) == 12
        assert (c, t) in tr.find_flips(cfg, t2, keep_points=True)


def test_exam12_census_matches_brute_force():
    cfg = tr.config_from_type(EXAM12)
    res = tr.explore(cfg, maximal_only=True)
    assert res.complete
    oracle = brute_census(cfg, maximal=True)
    assert sorted(res.triangulations, key=lambda t: t.simplices) == oracle
    assert len(oracle) == 13


def test_exam12_coherent_census():
    cfg = tr.config_from_type(EXAM12)
    res = tr.explore(cfg, maximal_only=True, coherent_only=True)
    assert res.complete
    # every maximal triangulation of this configuration is coherent
    assert len(res.triangulations) == 13
    facets = sorted(len(t.simplices) for t in res.triangulations)
    assert facets == [9, 10, 10, 10, 11, 11, 11, 11, 12, 12, 12, 12, 12]
    basics = [t for t in res.triangulations if tr.basicness(cfg, t)[0]]
    assert len(basics) == 5
    assert tr.Triangulation.of(BASIC_T1) in basics


def test_exam12_coherence_certificates_reconstruct():
    cfg = tr.config_from_type(EXAM12)
    res = tr.explore(cfg, maximal_only=True)
    for t in res.triangulations:
        ok, w = tr.is_coherent(cfg, t)
        assert ok
        # the negated heights induce t as a lower-hull subdivision
        _certify_lower_hull(cfg, t.simplices, [-x for x in w])


def test_basic_h_vector_is_hstar():
    cfg = tr.config_from_type(EXAM12)
    t = tr.Triangulation.of(BASIC_T1)
    assert tr.is_valid(cfg, t)
    basic, failures = tr.basicness(cfg, t)
    assert basic and not failures
    f, h = tr.fh_vectors(t)
    assert f[-1] == 12
    assert h == (1, 5, 5, 1, 0)


def test_h_vector_dominated_by_hstar():
    # h(T) <= h* componentwise, equality iff basic
    cfg = tr.config_from_type(EXAM12)
    res = tr.explore(cfg, maximal_only=True)
    hstar = (1, 5, 5, 1, 0)
    for t in res.triangulations:
        _, h = tr.fh_vectors(t)
        assert all(a <= b for a, b in zip(h, hstar))
        assert (h == hstar) == tr.basicness(cfg, t)[0]


def test_small_type_census():
    cfg = tr.config_from_type(parse_type("1/6(1,1,2,2)"))
    res = tr.explore(cfg, maximal_only=True)
    assert res.complete
    assert sorted(res.triangulations, key=lambda t: t.simplices) == brute_census(cfg)


def test_explore_deterministic():
    cfg = tr.config_from_type(EXAM12)
    r1 = tr.explore(cfg, maximal_only=True)
    r2 = tr.explore(cfg, maximal_only=True)
    assert r1.triangulations == r2.triangulations


def test_all_triangulations_census_matches_brute_force():
    # without keep_points the flips may drop points; the census then
    # holds every triangulation, fine or not
    cfg = tr.config_from_type(EXAM12)
    res = tr.explore(cfg, maximal_only=False)
    assert res.complete
    oracle = brute_census(cfg, maximal=False)
    assert len(oracle) == 100
    assert res.triangulations == oracle


def _lower_hull_map(cfg):
    """A map from integer heights to the triangulation they induce as a
    lower hull, or None when the heights are not generic.

    A cell is a lower cell iff every other point lifts strictly above the
    cell's affine interpolation of the heights.  For each nondegenerate
    cell and each other point p, the signed volumes with p put in place
    of one vertex are vol times p's barycentric coordinates (Cramer), so
    vol * (vol h_p - sum of those volumes times the vertex heights) has
    the sign of that gap, in integers."""
    tests = []
    for cell in combinations(range(cfg.n), cfg.dim + 1):
        vol = _signed_volume(cfg, cell)
        if vol:
            cramer = [
                (p, [_signed_volume(cfg, cell[:k] + (p,) + cell[k + 1:]) for k in range(len(cell))])
                for p in range(cfg.n) if p not in cell
            ]
            tests.append((cell, vol, cramer))

    def induced(heights):
        cells = []
        for cell, vol, cramer in tests:
            gap = min(
                vol * (vol * heights[p] - sum(c * heights[v] for c, v in zip(cs, cell)))
                for p, cs in cramer
            )
            if gap == 0:  # a lower face with more than d+1 points
                return None
            if gap > 0:
                cells.append(cell)
        assert sum(_volume(cfg, c) for c in cells) == _vertex_volume(cfg)
        return tr.Triangulation.of(cells)

    return induced


@pytest.mark.parametrize(
    "text", ["1/12(1,2,3,6)", "1/12(1,6,8,9)", "1/14(1,7,10,10)", "1/14(1,2,2,2,7)"]
)
def test_census_holds_random_regular_fine_triangulations(text):
    # one regular seed reaches every regular fine triangulation: heights
    # near the strictly convex lift |p|^2 induce regular triangulations,
    # and each fine one must be in the census of explore
    cfg = tr.config_from_type(parse_type(text))
    induced = _lower_hull_map(cfg)
    rng = random.Random(0)
    fine = set()
    for _ in range(100):
        n = rng.choice((2, 4, 8, 16))
        t = induced([n * sum(x * x for x in p) + rng.randint(-n * n, n * n) for p in cfg.points])
        if t is not None and t.used_points == frozenset(range(cfg.n)):
            fine.add(t)
    assert len(fine) >= 2
    assert fine <= set(tr.explore(cfg).triangulations)


@pytest.mark.parametrize("maximal", [True, False])
def test_flip_edges_are_flips_between_nodes(maximal):
    # nodes is the visit order from the seed, and each flip edge (a, b)
    # is a flip between nodes[a] and nodes[b] on its circuit; the --dot
    # ids are these indices.  Flips between fine triangulations go both
    # ways; without keep_points a flip may drop a point, and find_flips
    # never inserts one, so such an edge is a flip of the finer node
    cfg = tr.config_from_type(EXAM12)
    res = tr.explore(cfg, maximal_only=maximal)
    assert res.complete
    assert res.nodes[0] == tr.placing_triangulation(cfg)
    assert res.nodes_visited == len(res.nodes) == len(set(res.nodes)) == (13 if maximal else 100)
    assert sorted(res.nodes, key=lambda t: t.simplices) == res.triangulations
    assert res.flip_edges
    for (a, b), c in res.flip_edges.items():
        assert a < b
        forward = (c, res.nodes[b]) in tr.find_flips(cfg, res.nodes[a], keep_points=maximal)
        backward = (c, res.nodes[a]) in tr.find_flips(cfg, res.nodes[b], keep_points=maximal)
        assert (forward and backward) if maximal else (forward or backward)


def test_strict_heights_rejects_a_row_not_summing_to_zero(run_optimized):
    proc = run_optimized(
        """
        from fractions import Fraction
        from crepant_lab import triangulate as tr

        rows = [[Fraction(1), Fraction(-1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(-1, 2)]]
        try:
            tr.strict_heights(rows)
        except RuntimeError:
            raise SystemExit(0)
        raise SystemExit("a row with a nonzero sum was accepted")
        """
    )
    assert proc.returncode == 0, proc.stderr
