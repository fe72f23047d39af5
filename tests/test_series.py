"""Special-series recognizers, arithmetic criteria, GP construction."""
from fractions import Fraction
from math import gcd

import pytest

from crepant_lab import series as S
from crepant_lab import triangulate as tr
from crepant_lab.counting import cohomology_dims
from crepant_lab.criteria import second_criterion
from crepant_lab.grouptype import parse_type
from crepant_lab.hilbert import first_criterion


# ---------------------------------------------------------------------------
# staircase / hypersurface

def test_staircase_counts():
    for d, k in [(1, 3), (2, 2), (2, 4), (3, 2), (3, 3)]:
        cfg, tri, _ = S.staircase_triangulation(d, k)
        assert len(tri.simplices) == k ** d
        assert all(tr.simplex_volume(cfg, s) == 1 for s in tri.simplices)


def test_staircase_support_function_certifies():
    for d, k in [(2, 3), (2, 4), (3, 2)]:
        cfg, tri, psi = S.staircase_triangulation(d, k)
        w = [psi(p) for p in cfg.points]
        rows = tr.coherence_constraints(cfg, tri)
        assert all(sum(c * x for c, x in zip(row, w)) > 0 for row in rows), (d, k)


def test_hypersurface_recognition():
    t = parse_type("1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)")
    m = S.hypersurface_check(t)
    assert m.kind == "hypersurface" and m.verdict == "resolvable"
    assert m.parameters == {"r": 4, "k": 2}
    # scrambled coordinate order is still recognized
    t2 = parse_type("1/2(1,0,0,1)x1/2(1,1,0,0)x1/2(0,1,1,0)")
    assert S.hypersurface_check(t2).kind == "hypersurface"
    # same order, wrong glueing is not
    t3 = parse_type("1/2(1,1,0,0)x1/2(0,0,1,1)")
    assert S.hypersurface_check(t3).kind == "none"
    # order 8 = 2^3 like G(4;2), but cyclic: a different element set
    assert S.hypersurface_check(parse_type("1/8(1,1,3,3)")).kind == "none"


def test_hypersurface_cohomology_dims():
    assert S.hypersurface_cohomology(4, 2) == (1, 6, 1, 0)
    # cross-check against the h*-vector of the actual group
    t = parse_type("1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)")
    dims, euler = cohomology_dims(t)
    assert dims == S.hypersurface_cohomology(4, 2)
    assert euler == 8
    t3 = parse_type("1/3(1,2,0)x1/3(0,1,2)")
    assert cohomology_dims(t3)[0] == S.hypersurface_cohomology(3, 3)


# ---------------------------------------------------------------------------
# one- and two-parameter series

def test_one_param_residues():
    assert S.one_param_check(parse_type("1/12(1,1,1,9)")).verdict == "resolvable"
    assert S.one_param_check(parse_type("1/13(1,1,1,10)")).verdict == "resolvable"
    assert S.one_param_check(parse_type("1/11(1,1,1,8)")).verdict == "not_resolvable"
    m = S.one_param_check(parse_type("1/12(1,1,1,9)"))
    assert m.trace["divisor_count"] == 4
    # recognized after a unit rescaling too: 5*(5,5,5,7) = (1,1,1,11) mod 12
    m2 = S.one_param_check(parse_type("1/12(5,5,5,9)"))
    assert m2.kind == "one_param"


def test_two_param_trace_11_1136():
    m = S.two_param_check(parse_type("1/11(1,1,3,6)"))
    assert m.verdict == "resolvable"
    assert m.trace["t"] == 1 and m.trace["t_prime"] == 1
    assert m.trace["q"] == 11 and m.trace["p"] == 5
    assert m.trace["cf"] == [2, 5]
    assert m.trace["chain_branch"] and not m.trace["join_branch"]


def test_two_param_degenerate_28():
    # q = 1 forces p = 0 and an empty fraction; the chain conditions
    # degenerate to the gcd/residue checks, which hold here
    m = S.two_param_check(parse_type("1/28(1,1,1,4,21)"))
    assert m.trace["q"] == 1 and m.trace["p"] == 0
    assert m.trace["cf"] == []
    assert m.verdict == "resolvable"
    assert first_criterion(parse_type("1/28(1,1,1,4,21)"))[0]


def test_two_param_join_branch():
    # gcd(a,b,l) = r-2 triggers the join branch
    m = S.two_param_check(parse_type("1/6(1,1,2,2)"))
    assert m.verdict == "resolvable" and m.trace["join_branch"]


def test_two_param_agrees_with_hilbert_condition():
    """The arithmetic verdict must match the Hilbert-basis containment
    condition exactly (r = 4 and r = 5 sweeps)."""
    for r, lmax in [(4, 41), (5, 30)]:
        ones = ",".join(["1"] * (r - 2))
        for l in range(r, lmax):
            for a in range(1, l - 1):
                b = l - (r - 2) - a
                if b < a or b <= 0:
                    continue
                t = parse_type(f"1/{l}({ones},{a},{b})")
                if t.order != l:  # unfaithful weight tuple
                    continue
                m = S.two_param_check(t)
                assert m.kind == "two_param", (l, a, b)
                assert (m.verdict == "resolvable") == first_criterion(t)[0], (l, a, b)


def test_two_param_agrees_with_census():
    """On small r = 4 types the verdict matches the actual existence of
    a basic coherent triangulation."""
    for l in range(4, 15):
        for a in range(1, l - 1):
            b = l - 2 - a
            if b < a or b <= 0:
                continue
            t = parse_type(f"1/{l}(1,1,{a},{b})")
            if t.order != l:
                continue
            cfg = tr.config_from_type(t)
            res = tr.explore(cfg, maximal_only=True, coherent_only=True)
            assert res.complete
            truth = any(tr.basicness(cfg, x)[0] for x in res.triangulations)
            assert (S.two_param_check(t).verdict == "resolvable") == truth, (l, a, b)


def test_resolvable_series_pass_necessary_conditions():
    for s in ["1/11(1,1,3,6)", "1/12(1,1,1,9)", "1/6(1,1,2,2)", "1/13(1,3,9)"]:
        t = parse_type(s)
        assert first_criterion(t)[0], s
        assert second_criterion(t).passed, s


# ---------------------------------------------------------------------------
# GP series

def test_gp_check():
    assert S.gp_check(parse_type("1/7(1,2,4)")).verdict == "resolvable"
    assert S.gp_check(parse_type("1/15(1,2,4,8)")).parameters["k"] == 2
    # unit-rescaled variant
    assert S.gp_check(parse_type("1/15(2,4,8,1)")).kind == "gp"
    assert S.gp_check(parse_type("1/12(1,2,3,6)")).kind == "none"
    # the (r, k) pairs of the benchmark's screen, and a unit rescaling
    for r, k in [(4, 2), (4, 3), (4, 4), (4, 5), (4, 6), (5, 2), (5, 3), (6, 2)]:
        l = (k ** r - 1) // (k - 1)
        weights = [pow(k, i, l) for i in range(r)]
        m = S.gp_check(parse_type("1/%d(%s)" % (l, ",".join(map(str, weights)))))
        assert m.kind == "gp" and m.parameters == {"r": r, "k": k, "l": l}
        unit = next(u for u in range(2, l) if gcd(u, l) == 1)
        scaled = ",".join(str(w * unit % l) for w in reversed(weights))
        assert S.gp_check(parse_type("1/%d(%s)" % (l, scaled))).kind == "gp"
    # l = 15 = 1 + 2 + 4 + 8 is a GP order, but these weights are no GP
    assert S.gp_check(parse_type("1/15(1,1,1,12)")).kind == "none"


def test_gp_construct_matrices():
    for r, k in [(3, 2), (4, 2), (4, 3), (5, 2)]:
        t, w_mat, w_inv = S.gp_construct(r, k)
        l = (k ** r - 1) // (k - 1)
        assert t.order == l
        from crepant_lab.lattice import det_int

        assert abs(det_int(w_mat)) == (k ** r - 1) ** (r - 1)
        scale = l * (k - 1)
        prod = [
            [sum(w_mat[i][x] * w_inv[x][j] for x in range(r)) for j in range(r)]
            for i in range(r)
        ]
        assert prod == [[scale if i == j else 0 for j in range(r)] for i in range(r)]


@pytest.mark.parametrize("r,k", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (6, 2), (7, 2)])
def test_gp_triangulation_small(r, k):
    cfg, tri, cert = S.gp_triangulation(r, k)
    l = (k ** r - 1) // (k - 1)
    assert len(tri.simplices) == l
    assert all(tr.simplex_volume(cfg, s) == 1 for s in tri.simplices)
    assert tr.total_volume(cfg) == l and tr.is_valid(cfg, tri)
    rows = tr.coherence_constraints(cfg, tri)
    assert all(sum(c * w for c, w in zip(row, cert)) > 0 for row in rows)
    assert tri.used_points == frozenset(range(cfg.n))


def test_gp_certificate_solves_no_lp(monkeypatch):
    # the heights are in closed form, checked against the exact walls
    def no_lp(*args):
        raise AssertionError("the GP certificate solved an LP")

    monkeypatch.setattr(tr, "_feasible_point", no_lp)
    cfg, _, cert = S.gp_triangulation(5, 3)
    assert all(w == 0 for w, lab in zip(cert, cfg.labels) if lab == "vertex")


def test_gp_42_census_unique():
    cfg, tri, _ = S.gp_triangulation(4, 2)
    res = tr.explore(cfg, maximal_only=True, coherent_only=True)
    assert res.complete
    assert res.triangulations == [tri]


def test_gp_point_counts():
    # lattice points of the transformed junior simplex:
    # C(k+r-2, r-1) inner points plus the r vertices
    from math import comb

    for r, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        cfg, _, _ = S.gp_triangulation(r, k)
        assert cfg.n == comb(k + r - 2, r - 1) + r


def test_gp_unimodularity_guard_runs_under_optimize(run_optimized):
    proc = run_optimized(
        """
        from crepant_lab import series

        series.simplex_volume = lambda cfg, s: 2
        try:
            series.gp_triangulation(3, 2)
        except RuntimeError as exc:
            raise SystemExit(0 if "non-unimodular" in str(exc) else str(exc))
        raise SystemExit("non-unimodular cells accepted")
        """
    )
    assert proc.returncode == 0, proc.stderr
