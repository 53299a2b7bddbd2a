"""Every demo script runs clean: exit 0, nothing on stderr, and stdout
byte for byte as pinned in tests/data/demos/NN.out, NN the demo's number.

The demos run as subprocesses that inherit the caller's environment, so
they import the same seifert package as the tests. CI compares the same
files with cmp.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "data" / "demos"


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6
    assert sorted(p.name for p in PINNED.glob("*.out")) == \
        [f"{p.name[:2]}.out" for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          cwd=demo.parent.parent, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (PINNED / f"{demo.name[:2]}.out").read_bytes()
