"""Hilbert basis of the orthant monoid and the containment criterion."""
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from crepant_lab.grouptype import TypeError_, enumerate_elements, parse_type
from crepant_lab.hilbert import HilbertBasis, first_criterion, hilbert_basis
from crepant_lab.lattice import lattice_member


def _frac(nums, den):
    return tuple(Fraction(x, den) for x in nums)


def test_basis_1_7_1123():
    """1/7(1,1,2,3): (2,2,4,6)/7 = 2*(1,1,2,3)/7 is reducible, so the
    basis has 8 elements, not 9."""
    t = parse_type("1/7(1,1,2,3)")
    hb = hilbert_basis(t)
    expected = {
        _frac((1, 0, 0, 0), 1),
        _frac((0, 1, 0, 0), 1),
        _frac((0, 0, 1, 0), 1),
        _frac((0, 0, 0, 1), 1),
        _frac((1, 1, 2, 3), 7),
        _frac((3, 3, 6, 2), 7),
        _frac((4, 4, 1, 5), 7),
        _frac((5, 5, 3, 1), 7),
    }
    assert set(hb.elements) == expected
    assert len(hb.elements) == 8
    # the doubled junior really is double the generator
    double = _frac((2, 2, 4, 6), 7)
    assert tuple(2 * c for c in _frac((1, 1, 2, 3), 7)) == double
    assert double not in expected


def test_first_criterion_1_7_1123():
    ok, witnesses = first_criterion(parse_type("1/7(1,1,2,3)"))
    assert not ok
    assert set(witnesses) == {
        _frac((3, 3, 6, 2), 7),
        _frac((4, 4, 1, 5), 7),
        _frac((5, 5, 3, 1), 7),
    }


def test_first_criterion_passes_exam12():
    ok, witnesses = first_criterion(parse_type("1/12(1,2,3,6)"))
    assert ok and witnesses == []


def test_first_criterion_1_9_1233():
    # the age-2 point (5,1,6,6)/9 survives in the basis
    t = parse_type("1/9(1,2,3,3)")
    ok, witnesses = first_criterion(t)
    assert not ok
    assert _frac((5, 1, 6, 6), 9) in witnesses


def _brute_irreducible(t, elements, p):
    """p is irreducible iff it is not a sum of two nonzero monoid points
    (bounded search suffices: summands are componentwise <= p)."""
    e = t.exp_g
    nums = [int(c * e) for c in p]
    for q in product(*[range(n + 1) for n in nums]):
        if all(x == 0 for x in q) or list(q) == nums:
            continue
        rest = [n - x for n, x in zip(nums, q)]
        if lattice_member(_frac(q, e), t) and lattice_member(_frac(rest, e), t):
            return False
    return True


def _brute_generates(t, elements, p):
    """p decomposes into basis elements (depth-first over subtractions)."""
    e = t.exp_g
    target = tuple(int(c * e) for c in p)
    basis = [tuple(int(c * e) for c in b) for b in elements]
    stack = [target]
    seen = set()
    while stack:
        cur = stack.pop()
        if all(x == 0 for x in cur):
            return True
        if cur in seen:
            continue
        seen.add(cur)
        for b in basis:
            nxt = tuple(c - x for c, x in zip(cur, b))
            if all(x >= 0 for x in nxt):
                stack.append(nxt)
    return False


def test_basis_minimal_and_generating_small_types():
    rng = random.Random(5)
    for s in ["1/5(1,1,3)", "1/7(1,1,2,3)", "1/6(1,1,2,2)", "1/9(1,2,3,3)"]:
        t = parse_type(s)
        hb = hilbert_basis(t)
        for p in hb.elements:
            assert _brute_irreducible(t, hb.elements, p), (s, p)
        # spot-check generation on random monoid points
        e, r = t.exp_g, t.r
        for _ in range(20):
            nums = [rng.randint(0, 2 * e) for _ in range(r)]
            p = _frac(nums, e)
            if lattice_member(p, t):
                assert _brute_generates(t, hb.elements, p), (s, p)


def test_vertices_always_present_for_msc():
    for s in ["1/12(1,2,3,6)", "1/7(1,1,2,3)"]:
        hb = hilbert_basis(parse_type(s))
        assert sum(hb.is_vertex) == 4


def test_non_gorenstein_rejected():
    with pytest.raises(TypeError_):
        hilbert_basis(parse_type("1/5(1,1,1)"))


def _quadratic_basis(t):
    """The Hilbert basis by the pairwise definition: n_g is irreducible iff
    no other nonzero element lies componentwise below it."""
    e, r = t.exp_g, t.r
    deltas = [g.delta for g in enumerate_elements(t) if not g.is_identity]
    kept = [
        d for d in deltas
        if not any(c != d and all(x <= y for x, y in zip(c, d)) for c in deltas)
    ]
    kept.sort(key=lambda d: (sum(d) // e, d))
    ages = tuple(sum(d) // e for d in kept)
    return HilbertBasis(
        tuple(_frac([int(i == j) for i in range(r)], 1) for j in range(r))
        + tuple(_frac(d, e) for d in kept),
        (True,) * r + (False,) * len(kept),
        (0,) * r + ages,
    )


def _g_type(r, k):
    """G(r;k), the diagonal k-th roots of unity with product 1."""
    return "x".join(
        "1/%d(%s)" % (k, ",".join(str({i: 1, i + 1: k - 1}.get(j, 0)) for j in range(r)))
        for i in range(r - 1)
    )


def _random_weights(rng, q, r, p_zero):
    """Weights mod q summing to 0 mod q, each zero with probability p_zero."""
    w = [0 if rng.random() < p_zero else rng.randrange(1, q) for _ in range(r - 1)]
    return w + [-sum(w) % q]


def _oracle_types(rng):
    types = [_g_type(r, k) for r, k in [(3, 2), (3, 5), (3, 17), (4, 2), (4, 3), (4, 6), (5, 2), (5, 4), (6, 3)]]
    while len(types) < 160:  # cyclic, some with zero coordinates
        r, l = rng.randint(3, 6), rng.randint(2, 300)
        w = _random_weights(rng, l, r, 0.15)
        if gcd(l, *w) == 1:
            types.append("1/%d(%s)" % (l, ",".join(map(str, w))))
    while len(types) < 220:  # two cyclic factors, some with zero coordinates
        r = rng.randint(3, 5)
        qs = rng.randint(2, 12), rng.randint(2, 12)
        ws = [_random_weights(rng, q, r, 0.3) for q in qs]
        if all(gcd(q, *w) == 1 for q, w in zip(qs, ws)):
            types.append("x".join("1/%d(%s)" % (q, ",".join(map(str, w))) for q, w in zip(qs, ws)))
    return types


def test_bitset_basis_matches_pairwise_definition():
    """The bitset irreducibility test agrees with the pairwise definition on
    cyclic types with r = 3-6 and l <= 300, G(r;k) and random products,
    with and without coordinates on which the group acts trivially."""
    types = [parse_type(s) for s in _oracle_types(random.Random(20261018))]
    non_msc = with_reducible = failing = 0
    for t in types:
        hb = hilbert_basis(t)
        assert hb == _quadratic_basis(t), str(t)
        non_msc += any(all(g.delta[i] == 0 for g in t.elements) for i in range(t.r))
        with_reducible += len(hb.elements) - t.r < t.order - 1
        failing += max(hb.ages) >= 2
    assert sum(not t.is_cyclic for t in types) >= 60 and non_msc >= 70, non_msc
    assert with_reducible >= 200 and failing >= 100, (with_reducible, failing)
