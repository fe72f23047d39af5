"""Lattice-point counting: Ehrhart data, Dedekind sums, closed forms.

The oracle for every count is direct enumeration of the rational points
of the dilated simplex, filtered through the lattice-membership test —
fully independent of the per-element binomial formula used by
ehrhart_eval.
"""
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from crepant_lab.counting import (
    b_counts,
    cohomology_dims,
    dedekind_sum,
    ehrhart_eval,
    ehrhart_poly,
    mp_count_r4,
)
from crepant_lab.grouptype import enumerate_elements, parse_type, structure_report
from crepant_lab.lattice import lattice_member


def brute_count(t, nu):
    """#(nu * junior simplex) cap N_G by raw enumeration."""
    e, r = t.exp_g, t.r
    total = 0
    for num in product(range(nu * e + 1), repeat=r):
        if sum(num) == nu * e:
            if lattice_member(tuple(Fraction(x, e) for x in num), t):
                total += 1
    return total


def brute_interior_count(t, nu):
    e, r = t.exp_g, t.r
    total = 0
    for num in product(range(1, nu * e + 1), repeat=r):
        if sum(num) == nu * e:
            if lattice_member(tuple(Fraction(x, e) for x in num), t):
                total += 1
    return total


SMALL = ["1/4(1,1,2)", "1/7(1,1,2,3)", "1/6(1,1,2,2)", "1/2(1,1,0)x1/3(0,1,2)"]


@pytest.mark.parametrize("s", SMALL)
def test_ehrhart_eval_against_enumeration(s):
    t = parse_type(s)
    for nu in range(3):
        assert ehrhart_eval(t, nu) == brute_count(t, nu)


@pytest.mark.parametrize("s", SMALL)
def test_ehrhart_reciprocity(s):
    # (-1)^(r-1) Ehr(-nu) = #interior points of the nu-th dilate
    t = parse_type(s)
    coeffs = ehrhart_poly(t).coefficients
    r = t.r
    for nu in (1, 2):
        val = sum(c * Fraction(-nu) ** j for j, c in enumerate(coeffs))
        assert (-1) ** (r - 1) * val == brute_interior_count(t, nu)


def test_hstar_is_age_histogram():
    for s in SMALL + ["1/12(1,2,3,6)", "1/39(1,5,8,25)"]:
        t = parse_type(s)
        ed = ehrhart_poly(t)
        hist = structure_report(t).age_histogram
        assert ed.hstar == (1,) + hist + (0,) * (t.r - 1 - len(hist))
        assert sum(ed.hstar) == t.order


def test_cohomology_dims_exam12():
    dims, euler = cohomology_dims(parse_type("1/12(1,2,3,6)"))
    assert dims == (1, 5, 5, 1)
    assert euler == 12


def test_dedekind_sum_known_values():
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(2, 3) == Fraction(-1, 18)
    assert dedekind_sum(1, 5) == Fraction(1, 5)
    # reciprocity: DS(p,q) + DS(q,p) = -1/4 + (p/q + q/p + 1/(pq))/12
    for p, q in [(3, 7), (5, 12), (7, 30), (11, 13)]:
        lhs = dedekind_sum(p, q) + dedekind_sum(q, p)
        rhs = Fraction(-1, 4) + (
            Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)
        ) / 12
        assert lhs == rhs


def _random_gorenstein_r4(rng, lmax):
    while True:
        l = rng.randint(4, lmax)
        w = [rng.randint(1, l - 1) for _ in range(3)]
        w4 = (-sum(w)) % l
        if w4 == 0:
            continue
        weights = w + [w4]
        if gcd(*weights, l) != 1:
            continue
        return parse_type("1/%d(%s)" % (l, ",".join(map(str, weights))))


def test_mp_count_matches_ehrhart():
    rng = random.Random(12)
    for _ in range(30):
        t = _random_gorenstein_r4(rng, 60)
        count, coeffs = mp_count_r4(t)
        assert count == ehrhart_eval(t, 1)
        assert coeffs[3] == Fraction(t.order, 6)


def test_mp_count_exam12_and_counterexample_type():
    assert mp_count_r4(parse_type("1/12(1,2,3,6)"))[0] == ehrhart_eval(
        parse_type("1/12(1,2,3,6)"), 1
    )
    assert mp_count_r4(parse_type("1/12(2,2,3,5)"))[0] == 7


def test_b_counts_exam12():
    t = parse_type("1/12(1,2,3,6)")
    bc = b_counts(t)
    assert bc.gcd_checked
    # the 11 nontrivial elements split by (age, height)
    assert bc.totals == {(1, 4): 1, (1, 3): 1, (1, 2): 3, (2, 4): 4, (2, 3): 1, (3, 4): 1}
    # support-refined: both points interior to the edge conv{e_1,e_2}
    assert bc.by_support[(1, 2, (1, 2))] == 2
    assert bc.by_support[(1, 3, (1, 2, 3))] == 1


def test_hstar_guards_run_under_optimize(run_optimized):
    # wrong Ehrhart values must not yield an h*-vector: a non-integral
    # one, and an integral one that does not sum to the group order
    # (1/12(1,2,3,6) has order 12; (nu+1)^3 gives the cube's h* (1,4,1,0))
    proc = run_optimized(
        """
        from fractions import Fraction
        from crepant_lab import counting
        from crepant_lab.grouptype import parse_type

        for fake in (lambda t, nu: Fraction(nu, 2) + 1, lambda t, nu: (nu + 1) ** 3):
            counting.ehrhart_eval = fake
            try:
                counting.ehrhart_poly(parse_type("1/12(1,2,3,6)"))
            except counting.CountingError:
                continue
            raise SystemExit("wrong h*-vector returned")
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_mp_integrality_guard_runs_under_optimize(run_optimized):
    proc = run_optimized(
        """
        from fractions import Fraction
        from crepant_lab import counting
        from crepant_lab.grouptype import parse_type

        counting.dedekind_measure = lambda p, q: Fraction(1, 7)
        try:
            counting.mp_count_r4(parse_type("1/12(1,2,3,6)"))
        except counting.CountingError as exc:
            raise SystemExit(0 if "non-integral MP count" in str(exc) else str(exc))
        raise SystemExit("non-integral count returned")
        """
    )
    assert proc.returncode == 0, proc.stderr
