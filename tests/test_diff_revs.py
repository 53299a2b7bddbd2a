"""tools/diff_revs.py: a commit against itself differs nowhere, --expect
passes only a run that matches its file exactly, the box holds every
closed (O,o,0) symbol it promises, the small set reaches every category
off the sphere, the edited golden lines are seeded and mostly parse
errors, and the worker records the bytes that `report --stdin` writes,
or the argv report of a text with a line break, and the covers and
signature of the library."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from seifert import (InputError, ParseError, classify_small, euler_sum,
                     fiberless_cover, fuchsian_euler, fuchsian_quotient,
                     fuchsian_size_class, parse_symbol, pi1_presentation,
                     render_symbol, signature_of_symbol)
from seifert.cli import build_report

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
        {"golden": (200, {}), "draws": (200, {}), "edits": (200, {})}


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout")
def test_head_against_head_finds_no_difference_in_bench(tmp_path):
    # the first lines of index, and of wide with its four-symbol tail
    out = tmp_path / "diff.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--old", "HEAD", "--new", "HEAD",
         "--seed", "3", "--bench", "30", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    inputs = json.loads(out.read_text())["inputs"]
    assert {name: (res["symbols"], res["differences"])
            for name, res in inputs.items()} == {"bench": (60, {})}


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout")
@pytest.mark.parametrize("expect,code", [
    ({"golden": {"differences": {}, "inputs": []}}, 0),
    ({"golden": {"differences": {"report.h1": 1}}}, 1),
    ({"draws": {"differences": {}}}, 1)])
def test_expect_holds_a_run_to_its_file(tmp_path, expect, code):
    (tmp_path / "expect.json").write_text(json.dumps(expect))
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--old", "HEAD", "--new", "HEAD",
         "--golden", "--out", str(tmp_path / "diff.json"),
         "--expect", str(tmp_path / "expect.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stdout + proc.stderr
    out = json.loads((tmp_path / "diff.json").read_text())
    assert out["expect"] == {"golden": {"differences": {}, "inputs": []}}


def _load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("diff_revs", TOOL)
    diff_revs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diff_revs)
    return diff_revs


RUN = {"golden": {"differences": {"pi1": 3, "report.h1": 2},
                  "inputs": ["a", "b", "c"]},
       "draws": {"differences": {"report.h1": 40}},
       "argv": {"differences": {}}}


@pytest.mark.parametrize("edit,found", [
    (lambda e: None, []),
    (lambda e: e["draws"]["differences"].update({"report.h1": 41}),
     ["draws: report.h1 differs on 40 inputs, expected 41"]),
    (lambda e: e["golden"]["differences"].update({"report.pi1": 1}),
     ["golden: report.pi1 differs on 0 inputs, expected 1"]),
    (lambda e: e["golden"]["differences"].pop("pi1"),
     ["golden: pi1 differs on 3 inputs, expected 0"]),
    (lambda e: e.pop("draws"),
     ["draws: report.h1 differs on 40 inputs, expected 0"]),
    (lambda e: e.update({"box": {"differences": {}}}),
     ["box: expected, but not run"]),
    (lambda e: e["golden"]["inputs"].remove("b"),
     ["golden: 1 inputs differ unexpectedly ['b'], 0 expected to differ "
      "do not []"]),
], ids=["exact", "count-off-by-one", "extra-key", "missing-key",
        "omitted-set", "set-not-run", "changed-inputs"])
def test_mismatches_name_every_departure(monkeypatch, edit, found):
    diff_revs = _load_tool(monkeypatch)
    expected = json.loads(json.dumps(RUN))
    edit(expected)
    assert diff_revs.mismatches(expected, RUN) == found


def test_the_box_holds_every_closed_sphere_symbol(monkeypatch):
    diff_revs = _load_tool(monkeypatch)
    texts = list(diff_revs.box_texts())
    assert len(texts) == len(set(texts)) == 444_860
    assert texts[0] == "(O,o,0 | -6)"
    assert texts[-1] == "(O,o,0 | 6, (13,12), (13,12), (13,12))"
    # each text is the normal form's own text
    assert all(render_symbol(parse_symbol(t)) == t for t in texts[::997])


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout")
def test_head_against_head_finds_no_difference_in_small(tmp_path):
    out = tmp_path / "diff.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--old", "HEAD", "--new", "HEAD",
         "--small", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    inputs = json.loads(out.read_text())["inputs"]
    assert {name: (res["symbols"], res["differences"])
            for name, res in inputs.items()} == {"small": (1044, {})}


def test_the_small_set_reaches_every_category_off_the_sphere(monkeypatch):
    diff_revs = _load_tool(monkeypatch)
    texts = diff_revs.small_texts()
    assert len(texts) == len(set(texts)) == 1044
    assert texts[0] == "(O,n,1 | -6)"
    assert texts[-1] == "(O,o,0; m=1 | -, (13,12))"
    found = Counter()
    for text in texts:
        res = classify_small(parse_symbol(text))
        found[res and res.category] += 1
    assert found == {"platonic": 727, "twisted-S2-bundle": 77,
                     "fibered-solid-torus": 58, "P2xS1": 41, "lens": 26,
                     "P3#P3": 1, None: 114}


def test_edited_golden_lines_are_seeded_and_mostly_parse_errors(monkeypatch):
    diff_revs = _load_tool(monkeypatch)
    golden = (ROOT / "tests" / "data" / "golden_symbols.txt").read_text() \
        .splitlines()
    texts = diff_revs.edit_texts(golden, 18, 2000)
    assert texts == diff_revs.edit_texts(golden, 18, 2000)
    assert len(texts) == 2000 and set(texts) - set(golden)
    errors = 0
    for text in texts:
        try:
            parse_symbol(text)
        except InputError as exc:
            errors += isinstance(exc, ParseError)
    assert errors >= 1000


def test_the_worker_records_the_bytes_report_stdin_writes(tmp_path):
    # golden lines, an error line and a non-ASCII one: each worker record's
    # report.line is the line `report --stdin` writes for its symbol
    golden = (ROOT / "tests" / "data" / "golden_symbols.txt").read_text()
    texts = golden.splitlines()[:20] + ["(O,o,0 | 1, (2,3))",
                                        "(O,o,0 | 1, (2,é))"]
    (tmp_path / "texts.txt").write_text(
        "".join(json.dumps(t) + "\n" for t in texts))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")])}
    worker = subprocess.run(
        [sys.executable, str(TOOL), "--worker", str(ROOT), "eval",
         str(tmp_path / "texts.txt")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    cli = subprocess.run(
        [sys.executable, "-m", "seifert", "report", "--stdin"], env=env,
        input="".join(t + "\n" for t in texts).encode(), capture_output=True,
        timeout=120, check=True)
    records = [json.loads(line) for line in worker.stdout.splitlines()]
    assert len(records) == len(texts)
    lines = [rec["report.line"].encode() for rec in records]
    assert lines == cli.stdout.splitlines(keepends=True)
    assert [rec["report"] for rec in records] == [json.loads(b) for b in lines]
    assert "error" in records[-1]["report"] and b"\\u00e9" in lines[-1]
    assert records[0]["presentations"] == [
        repr(build(parse_symbol(texts[0])))
        for build in (pi1_presentation, fuchsian_quotient)]


def test_the_worker_records_the_covers_and_the_signature(tmp_path):
    texts = ["(O,o,0 | -1, (2,1), (3,1), (7,1))", "(N,n,I,1 | (0,0), (3,1))",
             "(O,o,0 | 1, (2,4))"]
    (tmp_path / "texts.txt").write_text(
        "".join(json.dumps(t) + "\n" for t in texts))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")])}
    worker = subprocess.run(
        [sys.executable, str(TOOL), "--worker", str(ROOT), "eval",
         str(tmp_path / "texts.txt")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    hyperbolic, double, invalid = [json.loads(line)
                                   for line in worker.stdout.splitlines()]
    s = parse_symbol(texts[0])
    sig = signature_of_symbol(s)
    assert hyperbolic["covers"] == {
        "suggest_cover_sheets": "84",
        "fiberless_cover": repr(fiberless_cover(s, 84)),
        "euler_sum": repr(euler_sum(s)),
        "signature_of_symbol": repr(sig),
        "fuchsian_euler": repr(fuchsian_euler(sig)),
        "fuchsian_size_class": repr(fuchsian_size_class(sig))}
    assert hyperbolic["cover_double"] == [
        "", "error: double cover needs a class-N symbol\n", 3]
    assert double["cover_double"] == ["(O,o,0 | -1, (3,1), (3,2))\n", "", 0]
    assert double["covers"]["euler_sum"] == {
        "error": "euler sum needs a closed symbol of class O"}
    assert invalid["covers"] == {"error": "pair (2,4) is not coprime"}


def test_a_text_with_a_line_break_is_reported_through_argv(tmp_path):
    # stdin would read such a text as two lines, so the worker passes it
    # as one argument to `report --json`
    texts = ["(O,o,0 |\n -1, (2,1), (3,1), (5,1))", "(O,o,0 | 1,\n (2,é))",
             "(O,o,0 | 1)\n(O,o,0 | 2)"]
    (tmp_path / "texts.txt").write_text(
        "".join(json.dumps(t) + "\n" for t in texts))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")])}
    worker = subprocess.run(
        [sys.executable, str(TOOL), "--worker", str(ROOT), "eval",
         str(tmp_path / "texts.txt")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    records = [json.loads(line) for line in worker.stdout.splitlines()]
    assert len(records) == len(texts)
    assert records[0]["report"] == build_report(texts[0])
    assert json.loads(records[0]["report.line"]) == records[0]["report"]
    for rec in records[1:]:
        out, err, code = rec["report"]["argv"]
        assert (out, code) == ("", 2) and err.startswith("error: ")
