"""The decision procedure: steps 0-5 in a fixed order and one verdict rule.

Each step is a function of the msc core that returns its report record,
or None when it does not apply.  Cheap steps come first: the dimension,
the series with known answers, the order bound on l, Hilbert-basis
containment, and last the census.  The first decisive outcome sets the
verdict; an inconclusive census leaves the type UNDECIDED.
"""
from __future__ import annotations

import dataclasses

from . import series as series_mod
from . import triangulate as tri_mod
from .criteria import second_criterion
from .grouptype import DEFAULT_BUDGET, QuotientType, enumerate_elements, msc_core
from .hilbert import first_criterion

VERDICTS = {"resolvable": "RESOLVABLE", "not_resolvable": "NOT_RESOLVABLE"}


@dataclasses.dataclass
class DecisionReport:
    input: str
    reduced: str | None  # msc core when coordinates were dropped
    steps: list  # {"step", "name", "outcome", ...payload}
    verdict: str  # RESOLVABLE | NOT_RESOLVABLE | UNDECIDED
    budgets: dict


def tri_payload(cfg, tri) -> dict:
    """A triangulation as the JSON report lists it."""
    f, h = tri_mod.fh_vectors(tri)
    basic, _ = tri_mod.basicness(cfg, tri)
    return {
        "simplices": [list(s) for s in tri.simplices],
        "f_vector": list(f),
        "h_vector": list(h),
        "basic": basic,
    }


def _dimension(t: QuotientType) -> dict | None:
    if t.r > 3:
        return None
    return {"step": 0, "name": "dimension", "outcome": "resolvable", "r": t.r}


def _hypersurface(t: QuotientType) -> dict:
    m = series_mod.hypersurface_check(t)
    return {"step": 1, "name": "hypersurface", "outcome": m.verdict, "match": m}


def _series(t: QuotientType) -> dict:
    for check in (series_mod.gp_check, series_mod.one_param_check, series_mod.two_param_check):
        m = check(t)
        if m.kind != "none":
            break
    return {"step": 2, "name": "series", "outcome": m.verdict if m.kind != "none" else "inconclusive", "match": m}


def _order_bound(t: QuotientType) -> dict:
    rep = second_criterion(t)
    return {
        "step": 3,
        "name": "order bound",
        "outcome": "inconclusive" if rep.passed else "not_resolvable",
        "report": rep,
    }


def _hilbert(t: QuotientType) -> dict:
    ok, witnesses = first_criterion(t)
    return {
        "step": 4,
        "name": "Hilbert basis",
        "outcome": "inconclusive" if ok else "not_resolvable",
        "witnesses": [list(p) for p in witnesses],
    }


def _census(t: QuotientType, budget_nodes: int) -> dict:
    """The first basic triangulation of the coherent fine census; without
    one, not_resolvable if the census is complete (see
    `triangulate.explore`), inconclusive if the node budget cut it short."""
    cfg = tri_mod.config_from_type(t)
    res = tri_mod.explore(cfg, maximal_only=True, coherent_only=True, budget_nodes=budget_nodes)
    witness = next((tr for tr in res.triangulations if tri_mod.basicness(cfg, tr)[0]), None)
    rec = {
        "step": 5,
        "name": "census",
        "census_size": len(res.triangulations),
        "complete": res.complete,
    }
    if witness is None:
        rec["outcome"] = "not_resolvable" if res.complete else "inconclusive"
    else:
        rec["outcome"] = "resolvable"
        rec["witness"] = tri_payload(cfg, witness)
        rec["points"] = [list(p) for p in cfg.points]
    return rec


def run_pipeline(
    t: QuotientType,
    budget_elems: int = DEFAULT_BUDGET,
    budget_nodes: int = tri_mod.DEFAULT_BUDGET_NODES,
) -> DecisionReport:
    """Steps 0-5 on the msc core of t; the first decisive step sets the
    verdict.  Non-msc inputs are reduced to their msc core first (same
    resolution question in smaller dimension).  The element budget is
    checked on the input type, before the msc reduction."""
    enumerate_elements(t, budget_elems)
    core, _ = msc_core(t)
    steps: list[dict] = []
    verdict = "UNDECIDED"
    for step in (_dimension, _hypersurface, _series, _order_bound, _hilbert,
                 lambda c: _census(c, budget_nodes)):
        rec = step(core)
        if rec is None:
            continue
        steps.append(rec)
        if rec["outcome"] in VERDICTS:
            verdict = VERDICTS[rec["outcome"]]
            break
    reduced = str(core) if core.r < t.r else None
    return DecisionReport(str(t), reduced, steps, verdict, {"elements": budget_elems, "nodes": budget_nodes})
