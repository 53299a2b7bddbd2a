"""Every demo script runs clean: exit 0 and nothing on stderr.

The demos run as subprocesses that inherit the caller's environment, so
they import the same seifert package as the tests.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          cwd=demo.parent.parent, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
