"""Traced mirror of the pipeline and triangulate subcommands.

The program has no spans of its own yet, so the traced run calls each
module's public functions here, in the order cli.run_pipeline and
cli._cmd_triangulate call them, and records one span around each call.
A change to that order in the program needs the same change here.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from crepant_lab import series
from crepant_lab import triangulate as tri
from crepant_lab.criteria import second_criterion
from crepant_lab.grouptype import msc_core, parse_type
from crepant_lab.hilbert import first_criterion


class Tracer:
    """Spans (name, start, end, parent, input) and counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.input = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.input])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def busy(self, name: str) -> float:
        """Seconds spent in spans of this name."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)


def _coherent_census(tr: Tracer, cfg):
    """explore(coherent_only=True) as its parts: seed, flip BFS over all
    fine triangulations, then one exact coherence test per node."""
    with tr.span("triangulate.seed"):
        seed = tri.placing_triangulation(cfg)
    with tr.span("triangulate.bfs"):
        res = tri.explore(cfg, [seed], maximal_only=True, coherent_only=False)
    tr.count("triangulate.nodes", res.nodes_visited)
    tr.count("triangulate.flip_edges", len(res.flip_edges))
    coherent = {}
    with tr.span("triangulate.coherence"):
        for t in res.triangulations:
            ok, heights = tri.is_coherent(cfg, t)
            if ok:
                coherent[t] = heights
    return res.triangulations, dict(sorted(coherent.items(), key=lambda kv: kv[0].simplices))


def pipeline(tr: Tracer, text: str) -> dict:
    """The verdict of run_pipeline and the number of steps it reports,
    with the witness and its heights when the census decides."""
    with tr.span("call"):
        t = parse_type(text)
        with tr.span("grouptype.msc_core"):
            t, _ = msc_core(t)
        if t.r <= 3:
            return {"steps": 1, "verdict": "RESOLVABLE"}
        with tr.span("series.hypersurface"):
            m = series.hypersurface_check(t)
        if m.verdict == "resolvable":
            return {"steps": 1, "verdict": "RESOLVABLE"}
        with tr.span("series.recognize"):
            for check in (series.gp_check, series.one_param_check, series.two_param_check):
                m = check(t)
                if m.kind != "none":
                    break
        if m.verdict in ("resolvable", "not_resolvable"):
            return {"steps": 2, "verdict": m.verdict.upper()}
        with tr.span("criteria.order_bound"):
            rep = second_criterion(t)
        if not rep.passed:
            return {"steps": 3, "verdict": "NOT_RESOLVABLE"}
        with tr.span("hilbert.first_criterion"):
            ok, _ = first_criterion(t)
        if not ok:
            return {"steps": 4, "verdict": "NOT_RESOLVABLE"}
        with tr.span("lattice.config"):
            cfg = tri.config_from_type(t)
        nodes, coherent = _coherent_census(tr, cfg)
        with tr.span("triangulate.basicness"):
            witness = next((x for x in coherent if tri.basicness(cfg, x)[0]), None)
        out = {"steps": 5, "nodes": nodes, "cfg": cfg, "census": coherent}
        if witness is None:
            return {**out, "verdict": "NOT_RESOLVABLE"}
        with tr.span("cli.render"):
            tri.fh_vectors(witness)
            tri.basicness(cfg, witness)
    return {**out, "verdict": "RESOLVABLE", "witness": witness}


def triangulate(tr: Tracer, text: str) -> dict:
    """The census of _cmd_triangulate with the default filter (maximal,
    coherent), with the heights of every listed triangulation."""
    with tr.span("call"):
        t = parse_type(text)
        with tr.span("lattice.config"):
            cfg = tri.config_from_type(t)
        nodes, coherent = _coherent_census(tr, cfg)
        with tr.span("cli.render"):
            for _ in range(2):  # once for the payload, once for the text lines
                for x in coherent:
                    tri.fh_vectors(x)
                    tri.basicness(cfg, x)
    return {"census": coherent, "nodes": nodes, "cfg": cfg}


def count_lp(tr: Tracer, result: dict) -> None:
    """LP solves and their constraint rows, counted after the traced call
    because counting rows repeats work: is_coherent solves an LP for
    every node whose coherence system has rows."""
    for t in result.get("nodes", ()):
        rows = len(tri.coherence_constraints(result["cfg"], t))
        if rows:
            tr.count("triangulate.lp_solves")
            tr.count("triangulate.lp_rows", rows)
