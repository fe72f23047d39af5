"""Shared fixtures."""
import os
import subprocess
import sys
import textwrap

import pytest

import crepant_lab


@pytest.fixture
def run_optimized():
    """Run a snippet under `python -O`, which strips asserts, with
    crepant_lab importable; the snippet exits 0 when its guard raised."""

    def run(code: str) -> subprocess.CompletedProcess:
        src = os.path.dirname(os.path.dirname(crepant_lab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run(
            [sys.executable, "-O", "-c", "assert False, 'asserts must be stripped'\n" + textwrap.dedent(code)],
            env=env, capture_output=True, text=True, timeout=300,
        )

    return run
