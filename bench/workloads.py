"""Seeded inputs for the three workloads.

Every run is a sequence of rounds.  A round holds the same kinds of input
in the same numbers, so that every round costs about the same and every
count the trace takes per input repeats exactly; the seed picks which
types fill the kinds and the order within the round.  No input string
repeats within a run.

Screen orders are stratified: each kind draws its orders (and its
choices from fixed lists) from a golden-ratio sequence with a seeded
start, so any run's orders cover their range almost evenly.  The cost of
a screen input follows its order closely, and with independent uniform
draws the median latency of a run moved by about a tenth with the seed
alone; the weights stay uniformly random.

Only the strings reach the program.  Decide and census rounds hold one
presentation of each group of a fixed corpus: a unit multiple of the
weights with the coordinates permuted (a new generator set for products).
The program does not identify presentations, so it redoes all the work,
and the point order it triangulates changes with each one.
"""
from __future__ import annotations

import random
from math import gcd

import checker as C

# pipeline steps 0-4: the kind of input and how many of each per round
SCREEN_ROUND = (
    ("non_msc", 2),
    ("hypersurface", 1),
    ("gp", 1),
    ("one_param", 1),
    ("two_param", 1),
    ("bound_r4", 1),
    ("bound_r5", 1),
    ("bound_r6", 1),
    ("hilbert_r4_small", 1),
    ("hilbert_r4_large", 2),
    ("hilbert_r5", 2),
    ("hilbert_r6", 1),
    ("power_r4", 1),
)

# RESOLVABLE types whose census finishes in about a second: one-node
# flip graphs (seed-bound) and multi-node ones (LP-bound), r = 4 and 5
DECIDE_CORPUS = (
    "1/10(2,5,5,8)",
    "1/14(2,7,7,12)",
    "1/20(4,5,15,16)",
    "1/10(1,2,2,5)",
    "1/12(1,2,2,7)",
    "1/12(1,2,3,6)",
    "1/16(1,2,2,11)",
    "1/14(1,2,2,2,7)",
    "1/17(1,1,3,3,9)",
)

# types with 10-200 coherent maximal triangulations: G(4;2), whose 196
# need cheap LPs, and four whose 10-19 cost 1.3-1.9 s each, so that the
# median latency rests on several calls of similar cost
CENSUS_CORPUS = (
    "1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)",
    "1/12(1,2,3,6)",
    "1/12(1,6,8,9)",
    "1/14(1,2,4,7)",
    "1/14(1,7,10,10)",
)

WARMUP = {
    "screen": "1/7(1,1,2,3)",
    "decide": "1/6(2,3,3,4)",
    "census": "1/6(1,1,2,2)",
}

SUBCOMMAND = {"screen": "pipeline", "decide": "pipeline", "census": "triangulate"}


class Stratified:
    """Points of [0, 1) from the golden-ratio sequence with a seeded
    start: any n consecutive points fall close to evenly into n equal
    bins, whatever the start and however many are drawn."""

    STEP = 0.6180339887498949

    def __init__(self, rng: random.Random):
        self.x = rng.random()

    def next(self) -> float:
        self.x = (self.x + self.STEP) % 1.0
        return self.x

    def randint(self, lo: int, hi: int) -> int:
        return lo + int(self.next() * (hi - lo + 1))

    def choice(self, seq):
        return seq[int(self.next() * len(seq))]


def cyclic(l: int, w) -> str:
    return "1/%d(%s)" % (l, ",".join(map(str, w)))


def hypersurface(rng: random.Random, r: int, k: int) -> str:
    """G(r;k) from r-1 generators u (e_a - e_b) / k along a random chain
    of coordinates, u a random unit mod k."""
    perm = list(range(r))
    rng.shuffle(perm)
    factors = []
    for a, b in zip(perm, perm[1:]):
        u = rng.choice([u for u in range(1, k) if gcd(u, k) == 1])
        w = [0] * r
        w[a], w[b] = u, k - u
        factors.append(cyclic(k, w))
    rng.shuffle(factors)
    return "x".join(factors)


def present(rng: random.Random, text: str) -> str:
    """Another presentation of the same group."""
    if "x" in text:
        g = C.Group.parse(text)
        return hypersurface(rng, g.r, C.hypersurface_k(g))
    l = int(text[2:text.index("(")])
    w = [int(x) for x in text[text.index("(") + 1:-1].split(",")]
    u = rng.choice([u for u in range(1, l) if gcd(u, l) == 1])
    w = [x * u % l for x in w]
    rng.shuffle(w)
    return cyclic(l, w)


def _msc_of_order(rng: random.Random, r: int, l: int) -> str | None:
    """A random cyclic type of order l with all weights nonzero and in no
    special series, or None."""
    w = [rng.randrange(1, l) for _ in range(r - 1)]
    w.append(-sum(w) % l)
    if w[-1] and gcd(l, *w) == 1:
        text = cyclic(l, w)
        if C.series_kind(text) is None:
            return text
    return None


def _order(s: Stratified, r: int, lo: int = 20, hi: int = 300) -> int:
    """An order in lo..hi that is no (r-1)-th power: on those orders
    hypersurface_check tries all r! coordinate orders (2 s at r = 6,
    l = 243), a cost the power_r4 kind puts in every round once."""
    while True:
        l = s.randint(lo, hi)
        if C.integer_root(l, r - 1) is None:
            return l


# weight draws tried at one order before the next order is taken
TRIES = 50


def _of_order_decided_at(rng: random.Random, step: int, r: int, l: int) -> str | None:
    for _ in range(TRIES):
        text = _msc_of_order(rng, r, l)
        if text and C.screen_truth(text)[1] == step:
            return text
    return None


def _decided_at(rng, s, step, r, lo, hi) -> str:
    while True:
        text = _of_order_decided_at(rng, step, r, _order(s, r, lo, hi))
        if text:
            return text


def _power_r4(rng: random.Random, s: Stratified) -> str:
    """An r = 4 type of order 64, 125 or 216, a cube, decided at step 4."""
    while True:
        text = _of_order_decided_at(rng, 4, 4, s.choice((64, 125, 216)))
        if text:
            return text


def _non_msc(rng: random.Random, s: Stratified) -> str:
    r = rng.randint(4, 6)
    core = rng.choice((2, 3))
    l = s.randint(20, 300)
    while True:
        w = [rng.randrange(1, l) for _ in range(core - 1)]
        w.append(-sum(w) % l)
        if w[-1] and gcd(l, *w) == 1:
            break
    w += [0] * (r - core)
    rng.shuffle(w)
    return cyclic(l, w)


def _gp(rng: random.Random, s: Stratified) -> str:
    r, k = s.choice(((4, 2), (4, 3), (4, 4), (4, 5), (4, 6), (5, 2), (5, 3), (6, 2)))
    l = (k ** r - 1) // (k - 1)
    return present(rng, cyclic(l, [pow(k, i, l) for i in range(r)]))


def _one_param(rng: random.Random, s: Stratified) -> str:
    r = rng.randint(4, 6)
    l = _order(s, r)
    return present(rng, cyclic(l, [1] * (r - 1) + [l - (r - 1)]))


def _two_param(rng: random.Random, s: Stratified) -> str:
    """1/l(1,...,1,a,b) with a + b = l - (r-2); a, b != 1 keeps it out of
    the one-parameter series, and a != b keeps the r - 2 unit weights the
    only repeated unit for r = 4."""
    while True:
        r = rng.randint(4, 6)
        l = _order(s, r)
        a = rng.randint(2, l - r)
        b = l - (r - 2) - a
        if b >= 2 and a != b:
            text = present(rng, cyclic(l, [1] * (r - 2) + [a, b]))
            if C.series_kind(text) == "two_param":
                return text


def _hypersurface_screen(rng: random.Random, s: Stratified) -> str:
    r, k = s.choice(((4, 2), (4, 3), (4, 4), (4, 5), (4, 6), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3)))
    return hypersurface(rng, r, k)


_SCREEN_KINDS = {
    "non_msc": _non_msc,
    "hypersurface": _hypersurface_screen,
    "gp": _gp,
    "one_param": _one_param,
    "two_param": _two_param,
    "bound_r4": lambda rng, s: _decided_at(rng, s, 3, 4, 20, 80),
    "bound_r5": lambda rng, s: _decided_at(rng, s, 3, 5, 20, 300),
    "bound_r6": lambda rng, s: _decided_at(rng, s, 3, 6, 20, 300),
    "hilbert_r4_small": lambda rng, s: _decided_at(rng, s, 4, 4, 20, 150),
    "hilbert_r4_large": lambda rng, s: _decided_at(rng, s, 4, 4, 150, 300),
    "hilbert_r5": lambda rng, s: _decided_at(rng, s, 4, 5, 20, 300),
    "hilbert_r6": lambda rng, s: _decided_at(rng, s, 4, 6, 20, 300),
    "power_r4": _power_r4,
}


class Inputs:
    """The rounds of one workload for one seed: a list of (kind, type),
    where kind is the screen kind or the corpus type presented."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen = {WARMUP[workload]}
        self.strata = {kind: Stratified(self.rng) for kind, _ in SCREEN_ROUND}

    def _fresh(self, make, s: Stratified | None = None) -> str:
        while True:
            text = make(self.rng) if s is None else make(self.rng, s)
            if text not in self.seen:
                self.seen.add(text)
                return text

    def next_round(self) -> list[tuple[str, str]]:
        if self.workload == "screen":
            items = [(kind, self._fresh(_SCREEN_KINDS[kind], self.strata[kind]))
                     for kind, n in SCREEN_ROUND for _ in range(n)]
        else:
            corpus = DECIDE_CORPUS if self.workload == "decide" else CENSUS_CORPUS
            items = [(base, self._fresh(lambda rng: present(rng, base))) for base in corpus]
        self.rng.shuffle(items)
        return items
