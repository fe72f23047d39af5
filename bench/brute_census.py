"""Recompute bench/census_counts.json without the engine.

    python3 bench/brute_census.py            # print the counts
    python3 bench/brute_census.py --write    # and rewrite the file

For each census corpus type it lists every fine triangulation of the
junior configuration by an exact cover: a set of empty full-dimensional
cells that meet pairwise properly (circuit criterion) and whose volumes
sum to l.  Each one is then proved regular by heights that pass the
checker's exact lower-hull check; the heights come from a floating-point
LP (scipy, needed only by this script) and are rounded to rationals.
A triangulation whose heights fail the exact check is reported as
unproven, and the script exits 1.
"""
from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker as C  # noqa: E402
from workloads import CENSUS_CORPUS  # noqa: E402

COUNTS = os.path.join(HERE, "census_counts.json")


def fine_triangulations(cfg: C.Config) -> list[tuple]:
    n, d = cfg.n, cfg.dim
    cells, vols = [], []
    for s in combinations(range(n), d + 1):
        v = cfg.volume(s)
        if v == 0:
            continue
        # a cell of a fine triangulation contains no other point
        rows = [[cfg.points[i][k] for i in s] for k in range(d)] + [[1] * (d + 1)]
        if any(
            all(x >= 0 for x in C.solve(rows, list(cfg.points[p]) + [1]))
            for p in range(n)
            if p not in s
        ):
            continue
        cells.append(s)
        vols.append(int(v))
    circuits = cfg.circuits()
    m = len(cells)
    compat = [0] * m
    for i, j in combinations(range(m), 2):
        a, b = set(cells[i]), set(cells[j])
        if not any((zp <= a and zm <= b) or (zm <= a and zp <= b) for zp, zm in circuits):
            compat[i] |= 1 << j
            compat[j] |= 1 << i
    out = []

    def rec(start: int, allowed: int, vol: int, chosen: list[int]) -> None:
        if vol == cfg.g.l:
            tri = tuple(sorted(cells[i] for i in chosen))
            if {p for c in tri for p in c} == set(range(n)):
                out.append(tri)
            return
        for i in range(start, m):
            if allowed >> i & 1 and vol + vols[i] <= cfg.g.l:
                rec(i + 1, allowed & compat[i], vol + vols[i], chosen + [i])

    rec(0, (1 << m) - 1, 0, [])
    return out


def regular_heights(cfg: C.Config, cells) -> list[Fraction] | None:
    """Heights whose lower hull is exactly `cells`, or None."""
    from scipy.optimize import linprog

    n, d = cfg.n, cfg.dim
    a_ub, b_ub = [], []
    for s in cells:
        rows = [[cfg.points[i][k] for i in s] for k in range(d)] + [[1] * (d + 1)]
        for p in range(n):
            if p in s:
                continue
            lam = C.solve(rows, list(cfg.points[p]) + [1])
            # h_p - sum lam_i h_i >= 1, written as <= for linprog
            row = [0.0] * n
            row[p] -= 1.0
            for x, i in zip(lam, s):
                row[i] += float(x)
            a_ub.append(row)
            b_ub.append(-1.0)
    res = linprog([0.0] * n, A_ub=a_ub, b_ub=b_ub, bounds=[(-1e4, 1e4)] * n, method="highs")
    if res.status != 0:
        return None
    for den in (1, 10, 100, 1000, 10 ** 6):
        h = [Fraction(x).limit_denominator(den) for x in res.x]
        try:
            C.check_lower_hull(cfg, cells, h)
            return h
        except C.Rejected:
            continue
    return None


def main(argv: list[str]) -> int:
    counts, unproven = {}, 0
    for base in CENSUS_CORPUS:
        cfg = C.Config.of_group(C.Group.parse(base))
        tris = fine_triangulations(cfg)
        regular = sum(1 for t in tris if regular_heights(cfg, t) is not None)
        unproven += len(tris) - regular
        basic = sum(1 for t in tris if all(cfg.volume(c) == 1 for c in t))
        print(f"{base}: {len(tris)} fine, {regular} proved regular, {basic} basic", flush=True)
        counts[base] = regular
    if "--write" in argv:
        with open(COUNTS, "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if unproven else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
