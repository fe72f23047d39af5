"""Group-type parsing, element enumeration, ages/heights."""
from fractions import Fraction

import pytest

from crepant_lab.grouptype import (
    NotGorenstein,
    TypeError_,
    enumerate_elements,
    inverse,
    is_gorenstein,
    junior_config,
    msc_core,
    parse_type,
    structure_report,
)


# the full element table of 1/12(1,2,3,6): delta numerators over 12
EXAM12_TABLE = {
    (1, 2, 3, 6): (1, 4),
    (2, 4, 6, 0): (1, 3),
    (3, 6, 9, 6): (2, 4),
    (4, 8, 0, 0): (1, 2),
    (5, 10, 3, 6): (2, 4),
    (6, 0, 6, 0): (1, 2),
    (7, 2, 9, 6): (2, 4),
    (8, 4, 0, 0): (1, 2),
    (9, 6, 3, 6): (2, 4),
    (10, 8, 6, 0): (2, 3),
    (11, 10, 9, 6): (3, 4),
}


def test_parse_cyclic():
    t = parse_type("1/12(1,2,3,6)")
    assert t.r == 4
    assert t.order == 12
    assert t.exp_g == 12
    assert t.is_cyclic
    assert str(t) == "1/12(1,2,3,6)"


def test_parse_product():
    t = parse_type("1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)")
    assert t.r == 4
    assert t.order == 8
    assert t.exp_g == 2
    assert not t.is_cyclic


def test_parse_rejects_malformed():
    for bad in ["", "12(1,2)", "1/12", "1/12(1,2,a)", "1/0(1)"]:
        with pytest.raises((TypeError_, ValueError)):
            parse_type(bad)


def test_gorenstein_flag():
    assert is_gorenstein(parse_type("1/12(1,2,3,6)"))
    assert is_gorenstein(parse_type("1/2(1,1,0)x1/3(0,1,2)"))
    # parse_type is where the hypothesis is checked, and it is per factor
    for text in ("1/5(1,2,3)", "1/2(1,1,0)x1/3(0,1,1)"):
        with pytest.raises(NotGorenstein):
            parse_type(text)


def test_exam12_element_table():
    t = parse_type("1/12(1,2,3,6)")
    elems = [g for g in enumerate_elements(t) if not g.is_identity]
    assert len(elems) == 11
    seen = {g.delta: (g.age, g.height) for g in elems}
    assert seen == EXAM12_TABLE


def test_exam12_structure():
    rep = structure_report(parse_type("1/12(1,2,3,6)"))
    assert rep.is_gorenstein and rep.is_msc and not rep.is_isolated
    assert rep.age_histogram == (5, 5, 1)


def test_order_counts_elements():
    for s in ["1/7(1,1,2,3)", "1/9(1,2,3,3)", "1/2(1,1,0,0)x1/2(0,1,1,0)"]:
        t = parse_type(s)
        assert len(enumerate_elements(t)) == t.order


def test_height_is_age_plus_inverse_age():
    for s in ["1/12(1,2,3,6)", "1/39(1,5,8,25)", "1/2(1,1,0)x1/3(0,1,2)"]:
        t = parse_type(s)
        for g in enumerate_elements(t):
            if g.is_identity:
                continue
            assert g.height == g.age + inverse(t, g).age


def test_inverse_on_a_product_type():
    t = parse_type("1/2(1,1,0,0)x1/4(0,1,1,2)")
    deltas = {g.delta for g in enumerate_elements(t)}
    for g in enumerate_elements(t):
        h = inverse(t, g)
        assert h.index == tuple((-j) % q for j, (q, _) in zip(g.index, t.factors))
        assert h.delta in deltas
        assert all((a + b) % t.exp_g == 0 for a, b in zip(g.delta, h.delta))
        assert inverse(t, h).delta == g.delta


def test_junior_config_exam12():
    t = parse_type("1/12(1,2,3,6)")
    cfg = junior_config(t)
    kinds = [p.kind for p in cfg]
    assert kinds.count("vertex") == 4
    assert kinds.count("junior") == 5
    # collinear juniors on the edge conv{e_1, e_2}: (2,4,6,0) sits on a
    # 2-face, (4,8,0,0) and (8,4,0,0) on the {0,1} edge
    carriers = {p.point: p.carrier for p in cfg if p.kind == "junior"}
    assert carriers[tuple(Fraction(x, 12) for x in (4, 8, 0, 0))] == frozenset({0, 1})
    assert carriers[tuple(Fraction(x, 12) for x in (8, 4, 0, 0))] == frozenset({0, 1})


def test_msc_core_drops_trivial_coordinates():
    t = parse_type("1/6(1,2,3,0)")
    core, kept = msc_core(t)
    assert core.r == 3
    assert kept == (0, 1, 2)
    assert core.order == t.order
    # already-msc types are untouched
    t2 = parse_type("1/12(1,2,3,6)")
    core2, kept2 = msc_core(t2)
    assert core2.r == 4 and kept2 == (0, 1, 2, 3)


def test_age_guard_runs_under_optimize(run_optimized):
    # a residue vector whose sum is not a multiple of exp_G has no age
    proc = run_optimized(
        """
        from crepant_lab.grouptype import GroupElement, TypeError_

        try:
            GroupElement((1,), (1, 1, 0), 3).age
        except TypeError_:
            raise SystemExit(0)
        raise SystemExit("non-integral age returned")
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_redundant_factors_rejected_under_optimize(run_optimized):
    # two factors that generate the same group of order 3 < 2 kappa
    proc = run_optimized(
        """
        from crepant_lab.grouptype import TypeError_, parse_type

        try:
            parse_type("1/3(1,2,0)x1/3(2,1,0)")
        except TypeError_:
            raise SystemExit(0)
        raise SystemExit("redundant factors accepted")
        """
    )
    assert proc.returncode == 0, proc.stderr
