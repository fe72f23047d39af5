"""Command-line frontend: it parses and renders.

Each subcommand parses its type (`grouptype.parse_type` rejects
non-Gorenstein input), calls the library and renders text lines or
`crepant-lab/1` JSON; `pipeline` renders `decide.run_pipeline`.
Exit codes: 0 success, 64 parse/validation error (a budget below 1
included), 65 non-Gorenstein input, 70 budget exhausted.  The element
budget is checked once, where a subcommand reads its type, and
`run_pipeline` checks its own input before the msc reduction; no other
library function takes it.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .grouptype import (
    BudgetError,
    DEFAULT_BUDGET,
    NotGorenstein,
    QuotientType,
    TypeError_,
    enumerate_elements,
    parse_type,
    structure_report,
)
from .counting import b_counts, ehrhart_poly, mp_count_r4
from .hilbert import hilbert_basis
from .criteria import second_criterion
from . import decide
from . import series as series_mod
from . import triangulate as tri_mod

EXIT_OK = 0
EXIT_PARSE = 64
EXIT_NOT_GORENSTEIN = 65
EXIT_BUDGET = 70

SCHEMA = "crepant-lab/1"


def _jsonable(obj):
    """Recursively convert to deterministic JSON-serializable data."""
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else obj.numerator
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, frozenset):
        return sorted(_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _emit(payload: dict, as_json: bool, lines=None) -> None:
    if as_json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(_jsonable(payload), sort_keys=True))
    else:
        for line in lines or []:
            print(line)


def _parse(args) -> QuotientType:
    """The subcommand's type, checked once against the element budget."""
    for option in ("budget_elems", "budget_nodes"):
        n = getattr(args, option, 1)
        if n < 1:
            raise TypeError_(f"--{option.replace('_', '-')} must be at least 1, not {n}")
    t = parse_type(args.type)
    enumerate_elements(t, args.budget_elems)
    return t


def _delta_str(t: QuotientType, delta) -> str:
    return "(%s)/%d" % (",".join(str(x) for x in delta), t.exp_g)


def _point_str(p) -> str:
    from math import lcm

    den = lcm(*[x.denominator for x in p]) if p else 1
    return "(%s)/%d" % (",".join(str(x * den) for x in p), den)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analyze(args) -> int:
    t = _parse(args)
    rep = structure_report(t)
    elems = [g for g in t.elements if not g.is_identity]
    elems.sort(key=lambda g: (g.age, g.delta))
    table = [
        {"delta": list(g.delta), "age": g.age, "height": g.height}
        for g in elems
    ]
    lines = [
        f"type       {t}",
        f"order      {t.order}   exp {t.exp_g}   r {t.r}",
        f"msc        {rep.is_msc} (splitting codim {rep.splitting_codim})",
        f"isolated   {rep.is_isolated}",
        "age hist   " + " ".join(f"{a + 1}:{c}" for a, c in enumerate(rep.age_histogram)),
    ] + [
        f"  {_delta_str(t, g.delta):<24} age {g.age}  ht {g.height}" for g in elems
    ]
    _emit({"type": str(t), "structure": rep, "elements": table}, args.json, lines)
    return EXIT_OK


def _cmd_count(args) -> int:
    t = _parse(args)
    ed = ehrhart_poly(t)
    payload = {
        "type": str(t),
        "ehrhart_coefficients": list(ed.coefficients),
        # the Ehrhart polynomial is exact and integer-valued on integers
        "values": {
            str(nu): int(sum(c * nu**j for j, c in enumerate(ed.coefficients)))
            for nu in range(1, 4)
        },
        "hstar": list(ed.hstar),
        "normalized_volume": t.order,
    }
    lines = [
        f"type     {t}",
        "Ehrhart  " + " + ".join(
            f"({c})t^{i}" for i, c in enumerate(ed.coefficients)
        ),
        f"h*       {ed.hstar}   (sum {sum(ed.hstar)})",
    ]
    if t.is_cyclic and t.r == 4 and all(w != 0 for w in t.factors[0][1]):
        count, coeffs = mp_count_r4(t)
        payload["mp_count"] = count
        payload["mp_coefficients"] = list(coeffs)
        lines.append(f"lattice points at level 1 (closed form): {count}")
    bc = b_counts(t)
    payload["b_counts"] = {f"{i},{k}": v for (i, k), v in bc.totals.items()}
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    t = _parse(args)
    hb = hilbert_basis(t)
    witnesses = hb.witnesses
    ok = not witnesses
    lines = [f"type  {t}", f"Hilbert basis ({len(hb.elements)} elements):"]
    for p, vert, age in zip(hb.elements, hb.is_vertex, hb.ages):
        tag = "vertex" if vert else f"age {age}"
        lines.append(f"  {_point_str(p):<28} {tag}")
    lines.append(
        "contained in junior simplex: " + ("yes" if ok else
        "NO  (witnesses: " + ", ".join(_point_str(p) for p in witnesses) + ")")
    )
    _emit(
        {
            "type": str(t),
            "elements": [list(p) for p in hb.elements],
            "ages": list(hb.ages),
            "is_vertex": list(hb.is_vertex),
            "first_criterion": ok,
            "witnesses": [list(p) for p in witnesses],
        },
        args.json,
        lines,
    )
    return EXIT_OK


def _cmd_criteria(args) -> int:
    t = _parse(args)
    rep = second_criterion(t)
    lines = [
        f"type   {t}",
        f"b      {rep.point_count}   (boundary {rep.boundary_count})",
        f"bound  {rep.bound}   ({rep.variant})",
        f"l <= bound: {'PASS' if rep.passed else 'FAIL'}  (l = {rep.l})",
    ]
    if rep.conjectural_bound is not None:
        lines.append(f"conjectural bound (non-binding): {rep.conjectural_bound}")
    _emit({"type": str(t), "report": rep}, args.json, lines)
    return EXIT_OK


def _cmd_triangulate(args) -> int:
    t = _parse(args)
    cfg = tri_mod.config_from_type(t)
    res = tri_mod.explore(
        cfg,
        maximal_only="maximal" in args.filter or "basic" in args.filter,
        coherent_only="coherent" in args.filter,
        basic_only="basic" in args.filter,
        budget_nodes=args.budget_nodes,
    )
    if not res.complete:
        raise BudgetError(f"flip-graph budget ({args.budget_nodes} nodes) exhausted")
    payload = {
        "type": str(t),
        "points": [list(p) for p in cfg.points],
        "labels": list(cfg.labels),
        "count": len(res.triangulations),
        "nodes_visited": res.nodes_visited,
        "triangulations": [decide.tri_payload(cfg, tr) for tr in res.triangulations],
    }
    lines = [f"type    {t}", f"points  {cfg.n}", f"census  {len(res.triangulations)} triangulation(s) [{','.join(args.filter)}]"]
    for i, tr in enumerate(payload["triangulations"]):
        lines.append(
            f"  #{i}: {len(tr['simplices'])} cells, h = {tuple(tr['h_vector'])}"
            + ("  basic" if tr["basic"] else "")
        )
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write("graph flips {\n")
            for (a, b), c in sorted(res.flip_edges.items()):
                fh.write(f'  n{a} -- n{b} [label="{",".join(map(str, c.points))}"];\n')
            fh.write("}\n")
        lines.append(f"flip graph written to {args.dot}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_series(args) -> int:
    t = _parse(args)
    check = {
        "hyper": series_mod.hypersurface_check,
        "oneparam": series_mod.one_param_check,
        "twoparam": series_mod.two_param_check,
        "gp": series_mod.gp_check,
    }[args.verb]
    m = check(t)
    lines = [f"type     {t}", f"series   {m.kind}", f"verdict  {m.verdict}"]
    lines += [f"  {k} = {v}" for k, v in {**m.parameters, **m.trace}.items()]
    _emit({"type": str(t), "match": m}, args.json, lines)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    t = _parse(args)
    rep = decide.run_pipeline(t, args.budget_elems, args.budget_nodes)
    lines = [f"type  {rep.input}"]
    if rep.reduced:
        lines.append(f"reduced to msc core {rep.reduced}")
    for s in rep.steps:
        lines.append(f"  step {s['step']} ({s['name']}): {s['outcome']}")
    lines.append(f"verdict: {rep.verdict}")
    _emit({"report": rep}, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of `main` and shared
    by every later one."""
    ap = argparse.ArgumentParser(
        prog="crepant-lab",
        description="Existence of projective crepant resolutions for Gorenstein abelian quotient singularities",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("type", help='singularity type, e.g. "1/12(1,2,3,6)" or a product joined by x')
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--budget-elems", type=int, default=DEFAULT_BUDGET, metavar="N")

    p = sub.add_parser("analyze", help="group elements, ages, structure flags")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("count", help="Ehrhart data, h*-vector, closed-form counts")
    common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("hilbert", help="Hilbert basis and containment check")
    common(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("criteria", help="group-order upper bound")
    common(p)
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("triangulate", help="census of the flip graph")
    common(p)
    p.add_argument("--filter", action="append", default=None, choices=["maximal", "coherent", "basic"])
    p.add_argument("--budget-nodes", type=int, default=tri_mod.DEFAULT_BUDGET_NODES, metavar="N")
    p.add_argument("--dot", metavar="FILE", help="write the flip graph in DOT format")
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("series", help="special-series recognizers")
    p.add_argument("verb", choices=["gp", "hyper", "oneparam", "twoparam"])
    common(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("pipeline", help="run the full decision procedure")
    common(p)
    p.add_argument("--budget-nodes", type=int, default=tri_mod.DEFAULT_BUDGET_NODES, metavar="N")
    p.set_defaults(func=_cmd_pipeline)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "filter", "absent") is None:
        args.filter = ["maximal", "coherent"]
    try:
        return args.func(args)
    except NotGorenstein as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GORENSTEIN
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (TypeError_, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
