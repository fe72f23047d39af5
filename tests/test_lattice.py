"""Exact integer linear algebra: HNF, determinants, standardization."""
import random
from fractions import Fraction

import pytest

from crepant_lab.grouptype import junior_config, parse_type
from crepant_lab.lattice import (
    affine_coordinates,
    affine_dependence,
    det_int,
    hnf,
    hnf_solve,
    lattice_member,
    standardize_junior,
)


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_hnf_2x2_example():
    h, u = hnf([[2, 1], [0, 3]])
    assert _mat_mul([[2, 1], [0, 3]], u) == h
    assert abs(det_int(u)) == 1
    assert abs(det_int(h)) == 6
    # lower-triangular with positive diagonal
    assert h[0][1] == 0 and h[0][0] > 0 and h[1][1] > 0


def test_hnf_random_unimodular_transform():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det_int(a) == 0:
            continue
        h, u = hnf(a)
        assert _mat_mul(a, u) == h
        assert abs(det_int(u)) == 1
        assert abs(det_int(h)) == abs(det_int(a))
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i + 1, n):
                assert h[i][j] == 0
            # entries left of the diagonal are reduced mod the pivot
            for k in range(i):
                assert 0 <= h[i][k] < h[i][i]


def test_det_int_matches_fraction_elimination():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        # reference: fraction Gaussian elimination
        m = [[Fraction(x) for x in row] for row in a]
        det = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col] != 0), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        assert det.denominator == 1 and det_int(a) == int(det)


def test_lattice_member():
    t = parse_type("1/12(1,2,3,6)")
    g = tuple(Fraction(x, 12) for x in (1, 2, 3, 6))
    assert lattice_member(g, t)
    assert lattice_member(tuple(Fraction(x, 12) for x in (3, 6, 9, 6)), t)
    assert lattice_member((Fraction(1), Fraction(0), Fraction(0), Fraction(0)), t)
    assert not lattice_member(tuple(Fraction(x, 12) for x in (1, 1, 1, 1)), t)


def test_standardize_junior_exam12():
    t = parse_type("1/12(1,2,3,6)")
    cfg = junior_config(t)
    pts = standardize_junior(cfg, t)
    assert len(pts) == 9
    assert pts[0] == (0, 0, 0)  # e_1 at the origin
    # normalized volume of the standardized vertex simplex = l
    vol = abs(det_int([list(pts[i]) for i in (1, 2, 3)]))
    assert vol == 12
    # junior points stay inside the simplex and keep integrality
    assert all(all(isinstance(c, int) for c in p) for p in pts)


def test_standardize_volume_equals_order():
    for s in ["1/7(1,1,2,3)", "1/9(1,2,3,3)", "1/6(1,1,2,2)"]:
        t = parse_type(s)
        cfg = junior_config(t)
        pts = standardize_junior(cfg, t)
        vol = abs(det_int([list(pts[i]) for i in range(1, t.r)]))
        assert vol == t.order


def _fraction_rank(m):
    """Rank by Fraction Gaussian elimination (reference for the kernel)."""
    m = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _points(rng, d, n, flat):
    """n random integer points of Z^d; with flat = k < d, inside a random
    k-dimensional affine subspace (k = 1: collinear, k = d-1: coplanar)."""
    if flat is None:
        return [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(n)]
    base = [rng.randint(-4, 4) for _ in range(d)]
    dirs = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(flat)]
    out = []
    for _ in range(n):
        c = [rng.randint(-2, 2) for _ in range(flat)]
        out.append(tuple(b + sum(ci * v[i] for ci, v in zip(c, dirs)) for i, b in enumerate(base)))
    return out


def test_affine_coordinates_by_cramer():
    rng = random.Random(11)
    degenerate = 0
    for _ in range(300):
        d = rng.randint(2, 5)
        flat = rng.choice([None, None, 1, d - 1])
        verts = _points(rng, d, d + 1, flat)
        p = _points(rng, d, 1, None)[0]
        lam = affine_coordinates(verts, p)
        vol = det_int([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]])
        assert (lam is None) == (vol == 0)
        if lam is None:
            degenerate += 1
            continue
        assert sum(lam) == 1
        assert [sum(x * v[c] for x, v in zip(lam, verts)) for c in range(d)] == list(p)
    assert 50 < degenerate < 250


def test_affine_dependence_by_maximal_minors():
    rng = random.Random(12)
    none = 0
    for _ in range(300):
        d = rng.randint(2, 5)
        kind = rng.choice(["random", "collinear", "coplanar", "one_off"])
        if kind == "random":
            pts = _points(rng, d, d + 2, None)
        elif kind == "one_off":  # d+1 points on a hyperplane plus one more
            pts = _points(rng, d, d + 1, d - 1) + _points(rng, d, 1, None)
        else:
            pts = _points(rng, d, d + 2, 1 if kind == "collinear" else d - 1)
        lam = affine_dependence(pts)
        rank = _fraction_rank([list(p) + [1] for p in pts])
        assert (lam is None) == (rank < d + 1)
        if lam is None:
            none += 1
            continue
        assert any(lam)
        assert all(sum(x * p[c] for x, p in zip(lam, pts)) == 0 for c in range(d))
        assert sum(lam) == 0
    assert 50 < none < 250


def test_hnf_solve_inverts_and_rejects():
    rng = random.Random(13)
    rejected = 0
    for _ in range(200):
        d = rng.randint(2, 5)
        width = d + rng.randint(0, 2)
        a = [[rng.randint(-6, 6) for _ in range(width)] for _ in range(d)]
        if _fraction_rank(a) < d:
            continue
        h, _ = hnf(a)
        x = [rng.randint(-9, 9) for _ in range(d)]
        m = [sum(h[i][j] * x[j] for j in range(d)) for i in range(d)]
        assert hnf_solve(h, m) == x
        assert hnf_solve(h, [Fraction(c) for c in m]) == x
        assert hnf_solve(h, m[:-1] + [m[-1] + Fraction(1, 2)]) is None
        i = next((i for i in range(d) if h[i][i] > 1), None)
        if i is not None:  # e_i is outside the lattice when h_ii > 1
            rejected += 1
            assert hnf_solve(h, [c + (k == i) for k, c in enumerate(m)]) is None
    assert rejected > 50


def test_standardization_guards_run_under_optimize(run_optimized):
    proc = run_optimized(
        """
        from crepant_lab import lattice
        from crepant_lab.grouptype import junior_config, parse_type

        t = parse_type("1/12(1,2,3,6)")
        cfg = junior_config(t)
        for name, fake in (("hnf_solve", lambda h, m: None), ("det_int", lambda a: 0)):
            real = getattr(lattice, name)
            setattr(lattice, name, fake)
            try:
                lattice.standardize_junior(cfg, t)
            except RuntimeError:
                setattr(lattice, name, real)
                continue
            raise SystemExit(f"standardize_junior ignored a faulty {name}")
        """
    )
    assert proc.returncode == 0, proc.stderr
