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
