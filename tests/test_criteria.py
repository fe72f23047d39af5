"""Upper-bound criterion from simplicial-ball facet counts."""
import random
from math import comb, gcd

import pytest

from crepant_lab.criteria import ball_bound, cyclic_polytope_facets, second_criterion
from crepant_lab.grouptype import parse_type


def test_cyclic_polytope_facets_small():
    # 4-dim cyclic polytopes: f_3(CycP_4(n)) = n(n-3)/2
    for n in range(5, 12):
        assert cyclic_polytope_facets(4, n) == n * (n - 3) // 2
    # simplices: any d-polytope on d+1 vertices has d+1 facets
    for d in range(2, 7):
        assert cyclic_polytope_facets(d, d + 1) == d + 1
    # 3-dim: triangulated 2-sphere with n vertices has 2n-4 facets
    for n in range(4, 10):
        assert cyclic_polytope_facets(3, n) == 2 * n - 4
    with pytest.raises(ValueError):
        cyclic_polytope_facets(4, 4)


def test_ball_bound_monotone():
    for b in range(6, 14):
        for bp in range(5, b + 1):
            assert ball_bound(4, b, bp) == cyclic_polytope_facets(5, b) - (bp - 4)


def test_second_criterion_12_2235():
    rep = second_criterion(parse_type("1/12(2,2,3,5)"))
    assert rep.point_count == 7
    assert rep.bound == 10
    assert not rep.passed  # 10 < 12 = l
    assert rep.variant == "r4_sharp"


def test_second_criterion_9_1233():
    rep = second_criterion(parse_type("1/9(1,2,3,3)"))
    assert rep.bound == 9 == rep.l
    assert rep.passed  # equality is allowed; rejection comes later


def test_second_criterion_passes_exam12():
    rep = second_criterion(parse_type("1/12(1,2,3,6)"))
    assert rep.passed


def test_second_criterion_7_1123():
    rep = second_criterion(parse_type("1/7(1,1,2,3)"))
    assert rep.point_count == 5
    assert rep.bound == 4
    assert not rep.passed


def test_second_criterion_pinned_for_r5_and_r6():
    # (b, b', bound, passed, conjectural bound) of the r >= 5 branch,
    # the Upper Bound Theorem for balls with b' = r + sum_k #B(1,k)
    pinned = {
        "1/6(1,1,1,1,2)": (6, 5, 5, False, 5),
        "1/17(1,1,3,3,9)": (8, 5, 19, True, 19),
        "1/12(8,9,9,8,2)": (8, 8, 16, True, 12),
        "1/21(3,12,3,14,5,5)": (8, 8, 13, False, 11),
        "1/12(4,9,4,1,9,9)": (8, 8, 13, True, 10),
    }
    for text, want in pinned.items():
        rep = second_criterion(parse_type(text))
        got = (rep.point_count, rep.boundary_count, rep.bound, rep.passed, rep.conjectural_bound)
        assert got == want, text
        assert rep.variant == "general"


def test_r3_vacuous():
    rep = second_criterion(parse_type("1/5(1,1,3)"))
    assert rep.passed and rep.variant == "vacuous"


def test_gcd_form_agrees_with_counted_form():
    """For cyclic msc r=4 types the sharp closed form is cross-checked
    internally (second_criterion raises on a mismatch); exercise it broadly."""
    rng = random.Random(9)
    seen = 0
    while seen < 40:
        l = rng.randint(5, 80)
        w = [rng.randint(1, l - 1) for _ in range(3)]
        w4 = (-sum(w)) % l
        if w4 == 0 or gcd(*w, w4, l) != 1:
            continue
        rep = second_criterion(parse_type("1/%d(%s,%d)" % (l, ",".join(map(str, w)), w4)))
        assert rep.variant == ("general" if rep.point_count == 4 else "r4_sharp")
        seen += 1


def test_gcd_form_checked_under_optimize(run_optimized):
    # a wrong closed form must raise even with asserts stripped
    proc = run_optimized(
        """
        from crepant_lab import criteria
        from crepant_lab.grouptype import parse_type

        criteria.gcd = lambda *a: 0
        try:
            criteria.second_criterion(parse_type("1/12(1,2,3,6)"))
        except RuntimeError:
            raise SystemExit(0)
        raise SystemExit("wrong closed form accepted")
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_general_variant_for_products():
    rep = second_criterion(parse_type("1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)"))
    assert rep.variant == "general"
    assert rep.passed  # this one is resolvable, so the bound must hold
