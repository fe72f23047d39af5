"""CLI surface: exit codes, JSON output, the decision pipeline."""
import argparse
import json
from pathlib import Path

import pytest

from crepant_lab import cli, counting, decide, grouptype, hilbert
from crepant_lab import triangulate as tri_mod
from crepant_lab.grouptype import BudgetError, parse_type

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "crepant-lab/1"
    return payload


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "analyze", "1/12(1,2")
    assert code == 64
    assert "error" in err
    code, _, _ = run(capsys, "analyze", "garbage")
    assert code == 64


def test_exit_code_not_gorenstein(capsys):
    code, _, err = run(capsys, "analyze", "1/12(1,2,3,5)")
    assert code == 65
    assert "Gorenstein" in err


@pytest.mark.parametrize("command", ["analyze", "hilbert", "pipeline"])
@pytest.mark.parametrize(
    "text, code, message",
    [
        ("1/5(1,2,3)", 65,
         "1/5(1,2,3) is not Gorenstein (weights of some factor do not sum to 0 mod its order)"),
        ("1/2(1,1,0)x1/3(0,1,1)", 65,
         "1/2(1,1,0)x1/3(0,1,1) is not Gorenstein (weights of some factor do not sum to 0 mod its order)"),
        # not Gorenstein either, but the order check comes first
        ("1/3(1,1,0)x1/3(2,2,0)", 64, "2 factors generate a group of order 3 < 4"),
    ],
)
def test_rejected_types_exit_with_their_message(capsys, command, text, code, message):
    for extra in ((), ("--json",)):
        assert run(capsys, command, text, *extra) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("pipeline", "1/12(1,2,3,6)", "--budget-nodes", "-3"), "--budget-nodes"),
        (("pipeline", "1/12(1,2,3,6)", "--budget-nodes", "0"), "--budget-nodes"),
        (("triangulate", "1/12(1,2,3,6)", "--budget-nodes", "0"), "--budget-nodes"),
        (("analyze", "1/12(1,2,3,6)", "--budget-elems", "-1"), "--budget-elems"),
        (("pipeline", "1/12(1,2,3,6)", "--budget-elems", "0"), "--budget-elems"),
    ],
)
def test_budgets_below_one_are_rejected(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith(f"error: {option} must be at least 1")


def test_exit_code_budget(capsys):
    code, _, err = run(capsys, "triangulate", "1/12(1,2,3,6)", "--budget-nodes", "1")
    assert code == 70
    assert "budget" in err


def test_budget_admits_a_census_of_exactly_that_size(capsys):
    args = ("triangulate", "1/12(1,2,3,6)", "--filter", "maximal")
    payload = run_json(capsys, *args, "--budget-nodes", "13")
    assert payload["count"] == 13
    code, _, err = run(capsys, *args, "--budget-nodes", "12", "--json")
    assert code == 70
    assert "budget" in err


def test_json_deterministic(capsys):
    a = run_json(capsys, "analyze", "1/12(1,2,3,6)")
    out1 = capsys.readouterr()
    b = run_json(capsys, "analyze", "1/12(1,2,3,6)")
    assert a == b
    # byte-identical serialization
    s1 = json.dumps(a, sort_keys=True)
    s2 = json.dumps(b, sort_keys=True)
    assert s1 == s2


def test_analyze_exam12(capsys):
    payload = run_json(capsys, "analyze", "1/12(1,2,3,6)")
    assert payload["structure"]["age_histogram"] == [5, 5, 1]
    assert len(payload["elements"]) == 11


def test_count_exam12(capsys):
    payload = run_json(capsys, "count", "1/12(1,2,3,6)")
    assert payload["hstar"] == [1, 5, 5, 1]
    assert payload["normalized_volume"] == 12
    assert payload["values"]["1"] == 9


def test_count_mp_closed_form(capsys):
    payload = run_json(capsys, "count", "1/12(2,2,3,5)")
    assert payload["mp_count"] == 7


def test_hilbert_subcommand(capsys):
    payload = run_json(capsys, "hilbert", "1/7(1,1,2,3)")
    assert len(payload["elements"]) == 8
    assert payload["first_criterion"] is False
    assert payload["witnesses"]
    payload = run_json(capsys, "hilbert", "1/12(1,2,3,6)")
    assert payload["first_criterion"] is True


def test_criteria_subcommand(capsys):
    payload = run_json(capsys, "criteria", "1/12(2,2,3,5)")
    rep = payload["report"]
    assert rep["point_count"] == 7
    assert rep["bound"] == 10
    assert rep["passed"] is False


def test_triangulate_census(capsys):
    payload = run_json(capsys, "triangulate", "1/12(1,2,3,6)")
    assert payload["count"] == 13
    basics = [t for t in payload["triangulations"] if t["basic"]]
    assert len(basics) == 5
    for t in basics:
        assert t["h_vector"] == [1, 5, 5, 1, 0]


def test_triangulate_basic_filter_and_dot(capsys, tmp_path):
    dot = tmp_path / "flips.dot"
    payload = run_json(
        capsys, "triangulate", "1/12(1,2,3,6)", "--filter", "basic", "--dot", str(dot)
    )
    assert payload["count"] == 5
    text = dot.read_text()
    assert text.startswith("graph flips {")
    assert "--" in text


def test_series_subcommand(capsys):
    payload = run_json(capsys, "series", "twoparam", "1/11(1,1,3,6)")
    assert payload["match"]["verdict"] == "resolvable"
    assert payload["match"]["trace"]["cf"] == [2, 5]
    payload = run_json(capsys, "series", "gp", "1/15(1,2,4,8)")
    assert payload["match"]["kind"] == "gp"
    payload = run_json(capsys, "series", "oneparam", "1/11(1,1,1,8)")
    assert payload["match"]["verdict"] == "not_resolvable"


def pipeline_report(capsys, type_str, *extra):
    payload = run_json(capsys, "pipeline", type_str, *extra)
    return payload["report"]


def test_pipeline_low_dimension(capsys):
    rep = pipeline_report(capsys, "1/5(1,1,3)")
    assert rep["verdict"] == "RESOLVABLE"
    assert rep["steps"][0]["step"] == 0


def test_pipeline_order_bound_rejects(capsys):
    rep = pipeline_report(capsys, "1/12(2,2,3,5)")
    assert rep["verdict"] == "NOT_RESOLVABLE"
    assert rep["steps"][-1]["step"] == 3


def test_pipeline_series_rejects(capsys):
    rep = pipeline_report(capsys, "1/7(1,1,2,3)")
    assert rep["verdict"] == "NOT_RESOLVABLE"
    last = rep["steps"][-1]
    assert last["step"] == 2
    assert last["match"]["kind"] == "two_param"


def test_pipeline_series_accepts(capsys):
    rep = pipeline_report(capsys, "1/11(1,1,3,6)")
    assert rep["verdict"] == "RESOLVABLE"
    assert rep["steps"][-1]["step"] == 2


def test_pipeline_census_decides_exam12(capsys):
    rep = pipeline_report(capsys, "1/12(1,2,3,6)")
    assert rep["verdict"] == "RESOLVABLE"
    last = rep["steps"][-1]
    assert last["step"] == 5
    w = last["witness"]
    assert w["basic"] and len(w["simplices"]) == 12
    # the witness really is a unimodular triangulation of the configuration
    from crepant_lab import triangulate as tr

    cfg = tr.config_from_type(parse_type("1/12(1,2,3,6)"))
    t = tr.Triangulation.of(tuple(tuple(s) for s in w["simplices"]))
    assert tr.total_volume(cfg) == 12 and tr.is_valid(cfg, t)
    assert tr.basicness(cfg, t)[0]


def test_pipeline_msc_reduction(capsys):
    # a zero weight is a trivially split coordinate; the core decides
    rep = pipeline_report(capsys, "1/12(0,1,2,3,6)")
    assert rep["reduced"] == "1/12(1,2,3,6)"
    assert rep["verdict"] == "RESOLVABLE"


def test_pipeline_hypersurface(capsys):
    rep = pipeline_report(capsys, "1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)")
    assert rep["verdict"] == "RESOLVABLE"
    assert rep["steps"][-1]["step"] == 1


def test_pipeline_undecided_on_tiny_node_budget(capsys):
    # a census cut short still decides when a visited node is a basic
    # coherent triangulation; the UNDECIDED exit is pinned by the golden
    # file pipeline_39_1-5-8-25_nodes-1
    payload = run_json(
        capsys, "pipeline", "1/12(1,2,3,6)", "--budget-nodes", "2"
    )
    rep = payload["report"]
    assert rep["verdict"] == "RESOLVABLE"
    assert rep["steps"][-1]["complete"] is False


@pytest.mark.parametrize(
    "name, argv",
    [
        ("pipeline_12_1-2-3-6", ("pipeline", "1/12(1,2,3,6)")),
        ("pipeline_10_1-2-2-5", ("pipeline", "1/10(1,2,2,5)")),
        ("pipeline_8_1-1-2-2-2", ("pipeline", "1/8(1,1,2,2,2)")),
        ("pipeline_12_2-2-3-5", ("pipeline", "1/12(2,2,3,5)")),
        ("triangulate_12_1-2-3-6", ("triangulate", "1/12(1,2,3,6)")),
        ("triangulate_6_1-1-2-2", ("triangulate", "1/6(1,1,2,2)")),
        ("pipeline_12_1-6-6-11", ("pipeline", "1/12(1,6,6,11)")),
        ("pipeline_219_142-34-65-169-28", ("pipeline", "1/219(142,34,65,169,28)")),
        ("hilbert_7_1-1-2-3", ("hilbert", "1/7(1,1,2,3)")),
        ("hilbert_G4-2", ("hilbert", "1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)")),
        # one per exit of the pipeline
        ("pipeline_6_1-2-3-0", ("pipeline", "1/6(1,2,3,0)")),
        ("pipeline_G4-2", ("pipeline", "1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)")),
        ("pipeline_15_1-2-4-8", ("pipeline", "1/15(1,2,4,8)")),
        ("pipeline_8_1-1-1-5", ("pipeline", "1/8(1,1,1,5)")),
        ("pipeline_11_1-1-3-6", ("pipeline", "1/11(1,1,3,6)")),
        ("pipeline_11_1-1-2-7", ("pipeline", "1/11(1,1,2,7)")),
        ("pipeline_12_0-1-2-3-6", ("pipeline", "1/12(0,1,2,3,6)")),
        ("pipeline_39_1-5-8-25_nodes-1", ("pipeline", "1/39(1,5,8,25)", "--budget-nodes", "1")),
    ],
)
def test_json_matches_golden_bytes(capsys, name, argv):
    # the crepant-lab/1 JSON must not change; regenerate a golden file
    # only together with a schema change
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_pipeline_enumerates_the_group_once(monkeypatch):
    calls = []
    enumerate_group = grouptype._group_elements
    monkeypatch.setattr(grouptype, "_group_elements", lambda t: calls.append(t) or enumerate_group(t))
    rep = decide.run_pipeline(parse_type("1/12(1,2,3,6)"))
    assert rep.verdict == "RESOLVABLE" and rep.steps[-1]["step"] == 5
    assert len(calls) == 1


def test_step_5_solves_one_lp_per_fine_triangulation(monkeypatch, capsys):
    # a tripwire, not a target: with one LP per fine triangulation a round
    # of the benchmark's decide workload takes about 2 s, nearly all of it
    # in is_coherent; a round under about 1 s makes bench/workloads.py
    # Inputs._fresh spin after 24 rounds, so a change to step 5's LP count
    # has to come with a change to the benchmark's inputs
    calls = []
    is_coherent = tri_mod.is_coherent
    monkeypatch.setattr(tri_mod, "is_coherent", lambda cfg, t: calls.append(t) or is_coherent(cfg, t))
    assert decide.run_pipeline(parse_type("1/12(1,2,3,6)")).verdict == "RESOLVABLE"
    assert len(calls) == 13
    calls.clear()
    assert run_json(capsys, "triangulate", "1/12(1,2,3,6)")["count"] == 13
    assert len(calls) == 13


def test_hilbert_command_computes_the_basis_once(monkeypatch, capsys):
    calls = []
    basis = hilbert.hilbert_basis

    def counted(*args):
        calls.append(args)
        return basis(*args)

    # the subcommand may reach the basis directly or through first_criterion
    monkeypatch.setattr(hilbert, "hilbert_basis", counted)
    monkeypatch.setattr(cli, "hilbert_basis", counted)
    payload = run_json(capsys, "hilbert", "1/7(1,1,2,3)")
    assert payload["first_criterion"] is False and payload["witnesses"]
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [("analyze",), ("hilbert",), ("pipeline",), ("series", "gp")])
def test_element_budget_is_checked_where_the_type_is_read(capsys, argv):
    # 1/12(1,2,3,6) has 12 index tuples; the budget admits exactly that many
    code, _, err = run(capsys, *argv, "1/12(1,2,3,6)", "--budget-elems", "12")
    assert code == 0, err
    code, _, err = run(capsys, *argv, "1/12(1,2,3,6)", "--budget-elems", "11")
    assert code == 70
    assert "12 index tuples exceed budget 11" in err


def test_element_budget_is_checked_before_msc_reduction(capsys):
    code, _, err = run(capsys, "pipeline", "1/12(1,11,0,0)", "--budget-elems", "5")
    assert code == 70
    assert "budget" in err
    with pytest.raises(BudgetError):
        decide.run_pipeline(parse_type("1/12(1,11,0,0)"), budget_elems=5)


def test_triangulate_computes_each_h_vector_once(monkeypatch, capsys):
    calls = []
    fh_vectors = tri_mod.fh_vectors
    monkeypatch.setattr(tri_mod, "fh_vectors", lambda tri: calls.append(tri) or fh_vectors(tri))
    code, out, err = run(capsys, "triangulate", "1/12(1,2,3,6)")
    assert code == 0, err
    listed = [line for line in out.splitlines() if line.startswith("  #")]
    assert len(listed) == 13
    assert listed[0].startswith("  #0: ") and ", h = (1, " in listed[0]
    assert len(calls) == 13


def test_count_computes_the_ehrhart_polynomial_once(monkeypatch, capsys):
    calls = []
    ehrhart_poly = counting.ehrhart_poly

    def counted(t):
        calls.append(t)
        return ehrhart_poly(t)

    monkeypatch.setattr(counting, "ehrhart_poly", counted)
    monkeypatch.setattr(cli, "ehrhart_poly", counted)
    payload = run_json(capsys, "count", "1/12(1,2,3,6)")
    assert payload["hstar"] == [1, 5, 5, 1] and payload["normalized_volume"] == 12
    assert len(calls) == 1


def test_count_reads_the_values_off_the_ehrhart_polynomial(monkeypatch, capsys):
    # ehrhart_poly evaluates Ehr(0..r-1); the values for nu = 1..3 come
    # from its coefficients, not from evaluating again
    calls = []
    ehrhart_eval = counting.ehrhart_eval

    def counted(t, nu):
        calls.append(nu)
        return ehrhart_eval(t, nu)

    monkeypatch.setattr(counting, "ehrhart_eval", counted)
    monkeypatch.setattr(cli, "ehrhart_eval", counted, raising=False)
    payload = run_json(capsys, "count", "1/12(1,2,3,6)")
    assert sorted(calls) == [0, 1, 2, 3]
    t = parse_type("1/12(1,2,3,6)")
    assert payload["values"] == {str(nu): ehrhart_eval(t, nu) for nu in (1, 2, 3)}


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    outs = []
    for argv in (("analyze", "1/5(1,1,3)"), ("series", "gp", "1/7(1,2,4)"), ("analyze", "1/5(1,1,3)")):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        outs.append(out)
    assert built.count("crepant-lab") == 1
    assert outs[0] == outs[2]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
