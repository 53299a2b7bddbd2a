"""tools/diff_revs.py: a commit against itself differs nowhere, and the
box holds every closed (O,o,0) symbol it promises."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from seifert import parse_symbol, render_symbol

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "diff_revs.py"


def _has_head():
    proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True)
    return proc.returncode == 0


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout")
def test_head_against_head_finds_no_difference(tmp_path):
    out = tmp_path / "diff.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--old", "HEAD", "--new", "HEAD",
         "--golden", "--seed", "1", "--draws", "200", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    inputs = json.loads(out.read_text())["inputs"]
    assert {name: (res["symbols"], res["differences"])
            for name, res in inputs.items()} == \
        {"golden": (200, {}), "draws": (200, {})}


def test_the_box_holds_every_closed_sphere_symbol(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("diff_revs", TOOL)
    diff_revs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diff_revs)
    texts = list(diff_revs.box_texts())
    assert len(texts) == len(set(texts)) == 444_860
    assert texts[0] == "(O,o,0 | -6)"
    assert texts[-1] == "(O,o,0 | 6, (13,12), (13,12), (13,12))"
    # each text is the normal form's own text
    assert all(render_symbol(parse_symbol(t)) == t for t in texts[::997])
