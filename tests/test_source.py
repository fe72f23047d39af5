"""Source-level rules that hold for every module of the package."""
import ast
from pathlib import Path

import crepant_lab

SOURCES = sorted(Path(crepant_lab.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so a guard written as one
    # stops checking anything; every guard must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert not found, found


def test_no_floating_point_in_the_package():
    # every count, volume, bound and height is exact; a float constant or
    # a float() conversion would let rounding into a verdict
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert not found, found


def test_only_the_entry_points_take_an_element_budget():
    # the budget guards input from outside: enumerate_elements checks it
    # and run_pipeline passes its input there; every other function reads
    # the elements cached on the type
    allowed = {"enumerate_elements", "run_pipeline"}
    found = [
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in allowed
        and any(
            a.arg in ("budget", "budget_elems")
            for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
    ]
    assert not found, found


def test_only_grouptype_checks_the_gorenstein_hypothesis():
    # parse_type checks it once; every other function takes a parsed type
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "grouptype.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and "is_gorenstein" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, found


def test_only_decide_writes_a_verdict():
    # the step order and the verdict rule live in decide.py alone
    verdicts = {"RESOLVABLE", "NOT_RESOLVABLE", "UNDECIDED"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "decide.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and node.value in verdicts
    ]
    assert (Path(crepant_lab.__file__).parent / "decide.py") in SOURCES
    assert not found, found
