"""crepant-lab benchmark: the screen, decide and census workloads.

    python3 bench/run.py --workload screen --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from src/.
One process, one thread, a closed loop: each input is timed through
crepant_lab.cli.main([<subcommand>, <type>, "--json"]) with stdout
captured, and the next starts when it returns.  Rounds of inputs run
until about --seconds of calls are timed.  After the timed region every
output is checked by checker.py against the checker's own computations.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 each
input also runs through mirror.py, which records spans around the
program's layers, and the metrics are the per-layer ones.  The last line
of stdout is the result JSON; the line before it describes the run
(Python version, git SHA, seed, host-speed probe).  Both are also written
to bench/results/, and the spans of a traced run to bench/results/ too.
See bench/README.md.
"""
from __future__ import annotations

import time

# set-up is timed from here: the interpreter's own start-up (exec, site
# packages) is no work of the program and swings threefold with the host
T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# explore() takes its single-thread path only when this is unset
os.environ.pop("CREPANT_LAB_THREADS", None)
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "crepant_lab", "__init__.py")):
    sys.exit(f"error: no {SRC}/crepant_lab; run from the root of a crepant-lab checkout")
sys.path[:0] = [SRC, HERE]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import permutations  # noqa: E402

from crepant_lab import cli  # noqa: E402
from crepant_lab import triangulate as tri  # noqa: E402
from crepant_lab.grouptype import msc_core, parse_type  # noqa: E402

import checker as C  # noqa: E402
import mirror as M  # noqa: E402
import workloads as W  # noqa: E402

SETUP_SAMPLES = 9
# The set-up children all draw the first round of this seed: drawing a
# first screen round took 0.05-0.15 s depending on the seed, work of the
# benchmark's own that would make setup_s follow the seed, not the program.
SETUP_SEED = 0
# The timing metrics are medians over blocks of whole rounds: a burst of
# host contention that slows a few seconds of a run moves one block, not
# the median of four.
BLOCKS = 4
# a screen block holds 224-320 inputs, so p95 has at least 11 beyond it;
# decide and census have 10-27 inputs a run, too few for any tail, so
# their tail is the median
TAIL_PERCENTILE = {"screen": 95, "decide": 50, "census": 50}
RESULTS = os.path.join(HERE, "results")


def host_probe() -> float:
    """Milliseconds for a fixed exact-arithmetic kernel (Fraction
    elimination of a 10x10 Hilbert matrix, 20 times; median of 5)."""
    def kernel():
        m = [[Fraction(1, i + j + 1) for j in range(10)] for i in range(10)]
        for c in range(10):
            for r in range(c + 1, 10):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20):
            kernel()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def call(subcommand: str, text: str) -> tuple[float, int | None, str]:
    """Wall seconds, exit code (None if it raised) and stdout or error."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([subcommand, text, "--json"])
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        return time.perf_counter() - t0, None, repr(exc)
    return time.perf_counter() - t0, rc, buf.getvalue()


def setup(workload: str, seed: int):
    """Everything before the first timed input: input generation and the
    warm-up input (the imports happened at module load)."""
    inputs = W.Inputs(workload, seed)
    first = inputs.next_round()
    call(W.SUBCOMMAND[workload], W.WARMUP[workload])
    return inputs, first


def setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter, from the first line of this
    script to the moment it would start timing, as the child reports it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(SETUP_SEED), "--setup-only"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as p:
        out = p.stdout.read().split()
    if p.returncode != 0 or len(out) != 2 or out[0] != "ready":
        raise RuntimeError(f"set-up child failed with exit code {p.returncode}")
    return float(out[1])


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() or "unknown"


def program_heights(text: str, points, cells_list):
    """is_coherent heights of each listed triangulation, on the program's
    own configuration of the msc core of `text`."""
    t, _ = msc_core(parse_type(text))
    cfg = tri.config_from_type(t)
    C.require([list(p) for p in cfg.points] == points, "output points differ from config_from_type")
    out = []
    for cells in cells_list:
        ok, heights = tri.is_coherent(cfg, tri.Triangulation.of(cells))
        out.append(heights if ok else None)
    return out


class HeightCache:
    """is_coherent heights of census triangulations, shared by every
    presentation of a corpus type in a run.

    A presentation's element set is the corpus type's with the
    coordinates permuted, an affine map of the junior simplex, so heights
    that lift a triangulation of one presentation lift its image in
    every other.  Points are keyed by their residue vector in the
    coordinate order of the group's canonical form; the first round
    solves one LP per triangulation and later rounds reuse the heights.
    Each reused vector still has to pass the checker's exact lower-hull
    check, so a wrong mapping rejects the output instead of passing it."""

    def __init__(self):
        self.heights = {}  # (base, triangulation key) -> {point key: height}

    def get(self, base: str, text: str, points, cells_list):
        g = C.Group.parse(text)
        canon = g.canonical()
        perm = next(p for p in permutations(range(g.r))
                    if tuple(sorted(tuple(d[i] for i in p) for d in g.deltas)) == canon)
        cfg = C.Config.from_program(g, points)
        keys = [tuple(c[i] for i in perm) for c in cfg.coords]
        tkeys = [(base, frozenset(frozenset(keys[i] for i in cell) for cell in cells)) for cells in cells_list]
        missing = [i for i, k in enumerate(tkeys) if k not in self.heights]
        solved = program_heights(text, points, [cells_list[i] for i in missing])
        for i, h in zip(missing, solved):
            self.heights[tkeys[i]] = None if h is None else dict(zip(keys, h))
        out = []
        for k in tkeys:
            h = self.heights[k]
            out.append(None if h is None else [h[key] for key in keys])
        return out


def mirror_heights(result: dict, cells_list):
    census = {t.simplices: h for t, h in result.get("census", {}).items()}
    return [census.get(tri.Triangulation.of(cells).simplices) for cells in cells_list]


def check(workload: str, kind: str, text: str, payload: dict, traced: dict | None, counts: dict,
          cache: HeightCache) -> None:
    """Raise C.Rejected unless the output is right; in a traced run the
    mirror must also agree with the untraced call."""
    if workload == "screen":
        C.check_screen(text, payload)
    elif workload == "decide":
        step5 = payload["report"]["steps"][-1]
        cells = [step5["witness"]["simplices"]] if "witness" in step5 else []
        heights = mirror_heights(traced, cells) if traced else program_heights(text, step5.get("points"), cells)
        C.check_decide(text, payload, heights[0] if heights else None)
    else:
        cells = [t["simplices"] for t in payload["triangulations"]]
        heights = mirror_heights(traced, cells) if traced else cache.get(kind, text, payload["points"], cells)
        C.check_census(text, payload, heights, kind, counts[kind])
    if traced is None:
        return
    if workload == "census":
        listed = {tri.Triangulation.of(c).simplices for c in cells}
        C.require(listed == {t.simplices for t in traced["census"]}, "mirror census differs")
    else:
        report = payload["report"]
        C.require(traced["verdict"] == report["verdict"], f"mirror verdict {traced['verdict']}")
        C.require(traced["steps"] == len(report["steps"]), "mirror took a different number of steps")


def measure(args, inputs, items) -> dict:
    """The closed loop.  An untraced run also takes its set-up samples
    here, spread over the run at round boundaries (sample i once i/n of
    --seconds is timed), so that a burst of host contention slows a few
    of them, not all."""
    sub = W.SUBCOMMAND[args.workload]
    setups = []

    def sample_setups(upto: float) -> None:
        while (not args.trace and len(setups) < SETUP_SAMPLES
               and len(setups) * args.seconds / SETUP_SAMPLES <= upto):
            setups.append(setup_seconds(args))

    sample_setups(0.0)
    tracer = M.Tracer() if args.trace else None
    runs = []  # kind, text, seconds, exit code, stdout, mirror result
    round_ends = []  # len(runs) after each round
    busy = untraced = traced = 0.0
    rounds = 0
    while True:
        for kind, text in items:
            dt, rc, out = call(sub, text)
            res, mt = None, 0.0
            if tracer is not None:
                tracer.input = len(runs)
                t0 = time.perf_counter()
                try:
                    res = (M.pipeline if sub == "pipeline" else M.triangulate)(tracer, text)
                except Exception as exc:  # reported as a failed operation
                    res = {"error": repr(exc)}
                mt = time.perf_counter() - t0
                if "error" not in res:
                    M.count_lp(tracer, res)
            runs.append((kind, text, dt, rc, out, res))
            untraced += dt
            traced += mt
            busy += dt + mt
        rounds += 1
        round_ends.append(len(runs))
        sample_setups(busy)
        # stop at the round boundary nearest to --seconds of timed calls
        if busy + busy / rounds / 2 > args.seconds:
            break
        items = inputs.next_round()
    sample_setups(float("inf"))
    return {"runs": runs, "setups": setups, "rounds": rounds, "round_ends": round_ends,
            "untraced": untraced, "traced": traced,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "tracer": tracer}


def blocks(m: dict) -> list[list[float]]:
    """The latencies of the run in min(BLOCKS, rounds) contiguous blocks
    of whole rounds, as even as possible."""
    ends = m["round_ends"]
    k = min(BLOCKS, len(ends))
    cuts = [0] + [ends[len(ends) * (i + 1) // k - 1] for i in range(k)]
    return [[r[2] for r in m["runs"][a:b]] for a, b in zip(cuts, cuts[1:])]


def end_to_end(args, m: dict) -> dict:
    pct = TAIL_PERCENTILE[args.workload]

    def tail(lat):
        return statistics.median(lat) if pct == 50 else statistics.quantiles(lat, n=100)[pct - 1]

    def over_blocks(stat):
        return statistics.median(stat(b) for b in blocks(m))

    return {
        "types_per_s": (over_blocks(lambda b: len(b) / sum(b)), "1/s"),
        "latency_p50_ms": (1000 * over_blocks(statistics.median), "ms"),
        "latency_tail_ms": (1000 * over_blocks(tail), "ms"),
        "peak_rss_mb": (m["rss_mb"], "MB"),
        "setup_s": (statistics.median(m["setups"]), "s"),
    }


def per_layer(m: dict) -> dict:
    tr, runs = m["tracer"], m["runs"]
    n = len(runs)
    c = tr.counts

    def ms(span):
        return (1000 * tr.busy(span) / n, "ms")

    def ratio(a, b):
        return a / b if b else 0.0

    solves = c.get("triangulate.lp_solves", 0)
    witnesses = sum(1 for r in runs if r[5] and "witness" in r[5])
    return {
        "grouptype.msc_core_ms": ms("grouptype.msc_core"),
        "series.hypersurface_ms": ms("series.hypersurface"),
        "series.recognize_ms": ms("series.recognize"),
        "criteria.order_bound_ms": ms("criteria.order_bound"),
        "hilbert.first_criterion_ms": ms("hilbert.first_criterion"),
        "cli.steps_per_type": (ratio(sum(r[5].get("steps", 0) for r in runs if r[5]), n), "count"),
        "lattice.config_ms": ms("lattice.config"),
        "triangulate.seed_ms": ms("triangulate.seed"),
        "triangulate.nodes": (ratio(c.get("triangulate.nodes", 0), n), "count"),
        "triangulate.flip_edges": (ratio(c.get("triangulate.flip_edges", 0), n), "count"),
        "triangulate.bfs_ms": ms("triangulate.bfs"),
        "triangulate.bfs_ms_per_node": (ratio(1000 * tr.busy("triangulate.bfs"), c.get("triangulate.nodes", 0)), "ms"),
        "triangulate.lp_solves": (ratio(solves, n), "count"),
        "triangulate.witnesses_per_lp": (ratio(witnesses, solves), "ratio"),
        "triangulate.coherence_ms": ms("triangulate.coherence"),
        "triangulate.lp_ms_per_solve": (ratio(1000 * tr.busy("triangulate.coherence"), solves), "ms"),
        "triangulate.lp_rows_per_solve": (ratio(c.get("triangulate.lp_rows", 0), solves), "count"),
        "triangulate.basicness_ms": ms("triangulate.basicness"),
        "cli.render_ms": ms("cli.render"),
        "trace.overhead_ratio": (ratio(m["traced"], m["untraced"]) - 1, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.SUBCOMMAND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", repr(time.perf_counter() - T0), flush=True)
        return 0

    probe_before = host_probe()
    inputs, items = setup(args.workload, args.seed)
    m = measure(args, inputs, items)

    with open(os.path.join(HERE, "census_counts.json")) as fh:
        counts = json.load(fh)
    cache = HeightCache()
    failed, rejected, failures = 0, 0, []
    for kind, text, _, rc, out, res in m["runs"]:
        try:
            if rc != 0:
                raise RuntimeError(f"exit code {rc}: {out[-300:]}")
            if res is not None and "error" in res:
                raise RuntimeError(f"mirror: {res['error']}")
            check(args.workload, kind, text, json.loads(out), res, counts, cache)
        except C.Rejected as exc:
            failed, rejected = failed + 1, rejected + 1
            failures.append({"input": text, "rejected": str(exc)})
        except Exception as exc:  # a malformed output or a crash while checking it
            failed += 1
            failures.append({"input": text, "error": repr(exc)})
    probe_after = host_probe()

    metrics = per_layer(m) if args.trace else end_to_end(args, m)
    result = {
        "correct": rejected == 0,
        "attempted": len(m["runs"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_sha": git_sha(), "rounds": m["rounds"],
        "blocks": min(BLOCKS, m["rounds"]), "timed_s": m["untraced"], "setup_samples_s": m["setups"],
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "failures": failures[:20],
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"run": info, "result": result}, fh, indent=1)
    if m["tracer"] is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump([dict(zip(("name", "start", "end", "parent", "input"), s)) for s in m["tracer"].spans], fh)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
