"""Randomized invariants (hypothesis).

Four suites x 200-400 examples each >= 1000 generated cases in total.
"""
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from crepant_lab.grouptype import (
    enumerate_elements,
    inverse,
    is_gorenstein,
    parse_type,
)
from crepant_lab.counting import b_counts, ehrhart_poly
from crepant_lab.lattice import lattice_member
from crepant_lab import triangulate as tr


@st.composite
def cyclic_gorenstein(draw, rmin=3, rmax=5, lmin=4, lmax=60, positive=False):
    r = draw(st.integers(rmin, rmax))
    l = draw(st.integers(lmin, lmax))
    low = 1 if positive else 0
    w = [draw(st.integers(low, l - 1)) for _ in range(r - 1)]
    last = (-sum(w)) % l
    weights = w + [last]
    assume(any(weights))
    from math import gcd

    assume(gcd(l, *weights) == 1)  # faithful action
    if positive:
        assume(last >= 1)
    t = parse_type("1/%d(%s)" % (l, ",".join(map(str, weights))))
    assume(is_gorenstein(t))
    return t


@settings(max_examples=400, deadline=None)
@given(cyclic_gorenstein())
def test_height_is_age_plus_age_of_inverse(t):
    for g in enumerate_elements(t):
        if g.is_identity:
            continue
        h = inverse(t, g)
        assert tuple((a + b) % t.exp_g for a, b in zip(g.delta, h.delta)) == (
            0,
        ) * t.r
        assert g.height == h.height
        assert g.age + h.age == g.height


@settings(max_examples=250, deadline=None)
@given(cyclic_gorenstein())
def test_inversion_pairs_age_classes(t):
    # g <-> g^-1 is a bijection B(i,k) <-> B(k-i,k), so the counts match
    bc = b_counts(t)
    for (i, k), v in bc.totals.items():
        assert bc.totals.get((k - i, k), 0) == v
    for (i, k, nu), v in bc.by_support.items():
        assert bc.by_support.get((k - i, k, nu), 0) == v


def _interior_count(t, nu):
    # compositions of nu*e into r parts >= 1
    from itertools import combinations

    e, r = t.exp_g, t.r
    total = nu * e
    cnt = 0
    for cuts in combinations(range(1, total), r - 1):
        parts = [b - a for a, b in zip((0,) + cuts, cuts + (total,))]
        if lattice_member(tuple(Fraction(x, e) for x in parts), t):
            cnt += 1
    return cnt


@settings(max_examples=200, deadline=None)
@given(cyclic_gorenstein(rmin=3, rmax=4, lmax=16), st.integers(1, 3))
def test_ehrhart_reciprocity(t, nu):
    ed = ehrhart_poly(t)
    val = sum(c * Fraction(-nu) ** j for j, c in enumerate(ed.coefficients))
    assert val.denominator == 1
    assert (-1) ** (t.r - 1) * int(val) == _interior_count(t, nu)


@settings(max_examples=200, deadline=None)
@given(
    cyclic_gorenstein(rmin=4, rmax=4, lmin=5, lmax=14, positive=True),
    st.randoms(use_true_random=False),
)
def test_flips_are_volume_preserving_involutions(t, rng):
    cfg = tr.config_from_type(t)
    order = list(range(cfg.n))
    rng.shuffle(order)
    tri = tr.placing_triangulation(cfg, order)
    assert tr.is_valid(cfg, tri)
    assert tri.used_points == frozenset(range(cfg.n))
    vol = tr.total_volume(cfg)
    assert sum(tr.simplex_volume(cfg, s) for s in tri.simplices) == vol
    for c, t2 in tr.find_flips(cfg, tri, keep_points=True):
        assert t2 != tri
        assert sum(tr.simplex_volume(cfg, s) for s in t2.simplices) == vol
        assert (c, tri) in tr.find_flips(cfg, t2, keep_points=True)
