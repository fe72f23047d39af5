"""The benchmark's checker accepts today's outputs and rejects corrupted ones.

    PYTHONPATH=src python3 -m pytest -q bench/test_checker.py
"""
import copy
import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from crepant_lab import cli  # noqa: E402
from crepant_lab import triangulate as tri  # noqa: E402
from crepant_lab.grouptype import parse_type  # noqa: E402

import checker as C  # noqa: E402
import workloads as W  # noqa: E402

EXAM12 = "1/12(1,2,3,6)"
HILBERT_FAIL = "1/32(30,26,27,13)"  # decided at step 4, four witnesses


def output(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main([*argv, "--json"]) == 0
    return json.loads(buf.getvalue())


def heights(cells):
    ok, h = tri.is_coherent(tri.config_from_type(parse_type(EXAM12)), tri.Triangulation.of(cells))
    assert ok
    return h


@pytest.fixture(scope="module")
def exam12_census():
    payload = output("triangulate", EXAM12)
    return payload, [heights(t["simplices"]) for t in payload["triangulations"]]


@pytest.fixture(scope="module")
def exam12_decided():
    payload = output("pipeline", EXAM12)
    return payload, heights(payload["report"]["steps"][-1]["witness"]["simplices"])


def test_accepts_a_screen_round():
    for _, text in W.Inputs("screen", 0).next_round():
        C.check_screen(text, output("pipeline", text))


def test_accepts_decide(exam12_decided):
    C.check_decide(EXAM12, *exam12_decided)


def test_accepts_census(exam12_census):
    C.check_census(EXAM12, *exam12_census, EXAM12, 13)


def test_accepts_census_counts_of_the_corpus():
    counts = json.load(open(os.path.join(HERE, "census_counts.json")))
    assert set(counts) == set(W.CENSUS_CORPUS)
    assert counts[EXAM12] == 13  # criterion 2, certified
    assert counts["1/2(1,1,0,0)x1/2(0,1,1,0)x1/2(0,0,1,1)"] == 196  # criterion 8


def test_rejects_flipped_screen_verdict():
    payload = output("pipeline", HILBERT_FAIL)
    C.check_screen(HILBERT_FAIL, payload)
    bad = copy.deepcopy(payload)
    bad["report"]["verdict"] = "RESOLVABLE"
    with pytest.raises(C.Rejected):
        C.check_screen(HILBERT_FAIL, bad)


def test_rejects_flipped_decide_verdict(exam12_decided):
    payload, h = exam12_decided
    bad = copy.deepcopy(payload)
    bad["report"]["verdict"] = "NOT_RESOLVABLE"
    with pytest.raises(C.Rejected):
        C.check_decide(EXAM12, bad, h)


def test_rejects_hilbert_witness_of_age_one():
    payload = output("pipeline", HILBERT_FAIL)
    g = C.Group.parse(HILBERT_FAIL)
    junior = next(d for d in g.nonzero if g.age(d) == 1)
    bad = copy.deepcopy(payload)
    bad["report"]["steps"][-1]["witnesses"][0] = [f"{x}/{g.e}" for x in junior]
    with pytest.raises(C.Rejected, match="age 1"):
        C.check_screen(HILBERT_FAIL, bad)


def test_rejects_missing_hilbert_witness():
    payload = output("pipeline", HILBERT_FAIL)
    bad = copy.deepcopy(payload)
    bad["report"]["steps"][-1]["witnesses"].pop()
    with pytest.raises(C.Rejected):
        C.check_screen(HILBERT_FAIL, bad)


def test_rejects_witness_with_a_volume_two_cell(exam12_decided, exam12_census):
    payload, _ = exam12_decided
    census, census_heights = exam12_census
    i = next(i for i, t in enumerate(census["triangulations"]) if not t["basic"])
    bad = copy.deepcopy(payload)
    bad["report"]["steps"][-1]["witness"]["simplices"] = census["triangulations"][i]["simplices"]
    with pytest.raises(C.Rejected, match="volume"):
        C.check_decide(EXAM12, bad, census_heights[i])


def test_rejects_tampered_height(exam12_decided, exam12_census):
    payload, h = exam12_decided
    bad = list(h)
    bad[4] -= 10 ** 6  # sinks the interior junior point below every lift
    with pytest.raises(C.Rejected, match="lift"):
        C.check_decide(EXAM12, payload, bad)
    census, census_heights = exam12_census
    tampered = [list(x) for x in census_heights]
    tampered[3][6] += Fraction(10 ** 6, 7)
    with pytest.raises(C.Rejected, match="lift"):
        C.check_census(EXAM12, census, tampered, EXAM12, 13)


def test_rejects_census_with_one_missing(exam12_census):
    census, census_heights = exam12_census
    bad = copy.deepcopy(census)
    bad["triangulations"].pop(5)
    with pytest.raises(C.Rejected):
        C.check_census(EXAM12, bad, census_heights[:5] + census_heights[6:], EXAM12, 13)
    bad["count"] = 12
    with pytest.raises(C.Rejected, match="independent count 13"):
        C.check_census(EXAM12, bad, census_heights[:5] + census_heights[6:], EXAM12, 13)


def test_rejects_census_with_one_duplicated(exam12_census):
    census, census_heights = exam12_census
    bad = copy.deepcopy(census)
    bad["triangulations"][5] = bad["triangulations"][4]
    hs = list(census_heights)
    hs[5] = hs[4]
    with pytest.raises(C.Rejected, match="twice"):
        C.check_census(EXAM12, bad, hs, EXAM12, 13)


def test_rejects_wrong_basic_flag_and_f_vector(exam12_census):
    census, census_heights = exam12_census
    bad = copy.deepcopy(census)
    bad["triangulations"][0]["basic"] = not bad["triangulations"][0]["basic"]
    with pytest.raises(C.Rejected, match="basic"):
        C.check_census(EXAM12, bad, census_heights, EXAM12, 13)
    bad = copy.deepcopy(census)
    bad["triangulations"][0]["f_vector"][1] += 1
    with pytest.raises(C.Rejected, match="f/h-vector"):
        C.check_census(EXAM12, bad, census_heights, EXAM12, 13)


def test_rejects_wrong_order_bound():
    text = "1/12(2,2,3,5)"  # criterion 4: bound 10 < 12
    payload = output("pipeline", text)
    C.check_screen(text, payload)
    bad = copy.deepcopy(payload)
    bad["report"]["steps"][-1]["report"]["bound"] = 12
    with pytest.raises(C.Rejected, match="order bound"):
        C.check_screen(text, bad)
