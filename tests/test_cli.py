"""Command-line behavior: output strings, exit codes, report schema."""

import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from seifert import (InternalError, parse_symbol, render_symbol,
                     reverse_orientation)
from seifert.cli import BOUNDED_WARNING, build_report, run_cli

POINCARE_FAMILY = "(O,o,0 | -1, (2,1), (3,1), (5,1))"
HYPERBOLIC = "(O,o,0 | -1, (2,1), (3,1), (7,1))"

REPORT_TEXT = """\
input: (O,o,0 | -1, (2,1), (3,1), (5,1))
normalized: (O,o,0 | -1, (2,1), (3,1), (5,1))
class_label: (O,o,0)
small: platonic
flat: false
pi1_finite: true
irreducible: true
p2_irreducible: true
aspherical: false
boundary_irreducible: true
has_incompressible_surface: false
named: platonic (2,3,5)
pi1: < h, c1, c2, c3 | c1 h c1^-1 h^-1, c2 h c2^-1 h^-1, c3 h c3^-1 h^-1, \
c1^2 h, c2^3 h, c3^5 h, c1 c2 c3 h^-1 >
fuchsian: < c1, c2, c3 | c1^2, c2^3, c3^5, c1 c2 c3 >
h1: Z/61
euler_sum: 1/30
recognition: platonic (2,3,5)
"""


def run(capsys, argv):
    rc = run_cli(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_normalize_command(capsys):
    rc, out, err = run(capsys, ["normalize", "(O,o,0|0,(3,4))"])
    assert (rc, out, err) == (0, "(O,o,0 | 1, (3,1))\n", "")


def test_reverse_command(capsys):
    rc, out, err = run(capsys, ["reverse", "(O,o,0|-1,(2,1),(3,2))"])
    assert (rc, out, err) == (0, "(O,o,0 | -1, (2,1), (3,1))\n", "")


def test_equiv_modes(capsys):
    s = parse_symbol("(O,o,0 | -1, (2,1), (3,2))")
    mirror = render_symbol(reverse_orientation(s))
    text = "(O,o,0 | -1, (2,1), (3,2))"
    rc, out, _ = run(capsys, ["equiv", text, mirror])
    assert (rc, out) == (0, "equivalent\n")
    rc, out, _ = run(capsys, ["equiv", "--unoriented", text, mirror])
    assert (rc, out) == (0, "equivalent\n")
    rc, out, _ = run(capsys, ["equiv", "--oriented", text, mirror])
    assert (rc, out) == (1, "distinct\n")


def test_equiv_oriented_needs_class_o(capsys):
    rc, out, err = run(capsys, ["equiv", "--oriented", "(N,o,1 | (0,0))",
                                "(N,o,1 | (0,0))"])
    assert rc == 3 and out == ""
    assert err == "error: oriented comparison needs class O on both sides\n"


def test_cover_double_command(capsys):
    rc, out, _ = run(capsys, ["cover", "double", "(N,n,I,1|(0,0),(3,1))"])
    assert (rc, out) == (0, "(O,o,0 | -1, (3,1), (3,2))\n")


def test_cover_fiberless_command(capsys):
    rc, out, _ = run(capsys, ["cover", "fiberless", HYPERBOLIC,
                              "--sheets", "84"])
    assert (rc, out) == (0, "(O,o,2 | -2)\n")


def test_cover_fiberless_partial_output(capsys):
    rc, out, _ = run(capsys, ["cover", "fiberless", "(O,n,2|1)",
                              "--sheets", "2"])
    assert (rc, out) == (0, "obstruction 2, orbit chi 0, orbit undetermined\n")


def test_cover_fiberless_rejects_finite_quotient(capsys):
    rc, out, err = run(capsys, ["cover", "fiberless", POINCARE_FAMILY,
                                "--sheets", "60"])
    assert (rc, out) == (3, "")
    assert err == "error: Fuchsian quotient is finite; no fiberless cover\n"


def test_lens_commands(capsys):
    assert run(capsys, ["lens", "normalize", "7", "4"])[:2] == (0, "L(7,2)\n")
    assert run(capsys, ["lens", "normalize", "0", "1"])[:2] == (0, "S2xS1\n")
    assert run(capsys, ["lens", "normalize", "1", "5"])[:2] == (0, "S3\n")
    rc, out, _ = run(capsys, ["lens", "equiv", "7", "2", "7", "3"])
    assert (rc, out) == (0, "equivalent\n")
    rc, out, _ = run(capsys, ["lens", "equiv", "7", "1", "7", "2"])
    assert (rc, out) == (1, "distinct\n")
    rc, out, _ = run(capsys, ["lens", "fiber", "0", "-1", "1", "0", "1", "3"])
    assert (rc, out) == (0, "1/3 0/1\n")


def test_group_text_commands(capsys):
    rc, out, _ = run(capsys, ["group", "pi1", "(O,o,0 | 0)"])
    assert rc == 0 and out == "< h | - >\n"
    rc, out, _ = run(capsys, ["group", "fuchsian", POINCARE_FAMILY])
    assert out == "< c1, c2, c3 | c1^2, c2^3, c3^5, c1 c2 c3 >\n"


def test_group_h1_and_order(capsys):
    rc, out, _ = run(capsys, ["group", "h1", POINCARE_FAMILY])
    assert (rc, out) == (0, "Z/61\n")
    rc, out, _ = run(capsys, ["group", "order",
                              "(O,o,0 | 1, (2,1), (3,1), (5,1))"])
    assert (rc, out) == (0, "120\n")
    rc, out, _ = run(capsys, ["group", "order", POINCARE_FAMILY])
    assert (rc, out) == (0, "7320\n")


def test_group_order_budget_exhaustion(capsys):
    rc, out, _ = run(capsys, ["group", "order", HYPERBOLIC,
                              "--max-cosets", "3000"])
    assert (rc, out) == (1, "not determined within 3000 cosets\n")


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SEIFERT_MAX_COSETS", "2500")
    rc, out, _ = run(capsys, ["group", "order", HYPERBOLIC])
    assert (rc, out) == (1, "not determined within 2500 cosets\n")
    # an explicit flag wins over the environment
    rc, out, _ = run(capsys, ["group", "order", HYPERBOLIC,
                              "--max-cosets", "3000"])
    assert (rc, out) == (1, "not determined within 3000 cosets\n")


@pytest.mark.parametrize("value", ["abc", ""])
def test_invalid_budget_env_variable_is_an_input_error(value):
    argv = [sys.executable, "-m", "seifert", "group", "order", HYPERBOLIC]
    env = dict(os.environ, SEIFERT_MAX_COSETS=value)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert repr(value) in proc.stderr
    assert "Traceback" not in proc.stderr
    # the flag wins, so the variable is not read at all
    proc = subprocess.run(argv + ["--max-cosets", "3000"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (
        1, "not determined within 3000 cosets\n")


def test_group_order_needs_no_enumeration(capsys):
    # both orders are past the default budget; the closed form ignores it
    for text, order in [("(O,o,0 | -2, (100000,1))", "200001\n"),
                        ("(O,n,1 | 3, (101,1))", "122008\n")]:
        for extra in ([], ["--max-cosets", "1"]):
            start = time.perf_counter()
            rc, out, _ = run(capsys, ["group", "order", text, *extra])
            assert time.perf_counter() - start < 1
            assert (rc, out) == (0, order)


def test_group_order_rejects_a_zero_budget(capsys):
    rc, out, err = run(capsys, ["group", "order", POINCARE_FAMILY,
                                "--max-cosets", "0"])
    assert (rc, out, err) == (3, "", "error: coset budget must be at least 1\n")


def test_fst_commands(capsys):
    rc, out, _ = run(capsys, ["fst", "equiv", "1", "3", "2", "3"])
    assert (rc, out) == (1, "distinct\n")
    rc, out, _ = run(capsys, ["fst", "equiv", "--reverse", "1", "3", "2", "3"])
    assert (rc, out) == (0, "equivalent\n")
    rc, out, _ = run(capsys, ["fst", "lift", "2", "1", "2"])
    assert (rc, out) == (0, "components 2 fiber 0/1\n")
    rc, out, _ = run(capsys, ["fst", "lift", "3", "2", "5"])
    assert (rc, out) == (0, "components 1 fiber 1/5\n")


def test_parse_error_exit_code(capsys):
    rc, out, err = run(capsys, ["normalize", "(O,o,0|bad)"])
    assert (rc, out) == (2, "")
    assert err == "error: expected an integer (at position 7)\n"


LONG = "9" * 5000  # past the interpreter's 4,300-digit int-to-str limit
TOO_LONG = "integer of 5000 digits is too long to convert (at position {})"


@pytest.mark.parametrize("argv,position", [
    (["normalize", f"(O,o,0 | {LONG}, (2,1))"], 9),
    (["report", f"(O,o,0 | 1, ({LONG},1))"], 13),
    (["group", "order", f"(O,o,0 | 1, (7,{LONG}))"], 15),
    (["cover", "double", f"(N,n,I,{LONG} | (0,0))"], 7),
    (["reverse", f"(O,o,0; m={LONG} | -)"], 10),
], ids=["normalize", "report", "group", "cover", "reverse"])
def test_overlong_integer_is_a_parse_error(argv, position):
    proc = subprocess.run([sys.executable, "-m", "seifert", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {TOO_LONG.format(position)}\n"


def test_report_stdin_survives_an_overlong_integer():
    lines = f"(O,o,0 | 1)\n(O,o,0 | {LONG})\n(O,o,0 | 3)\n"
    proc = subprocess.run([sys.executable, "-m", "seifert", "report",
                           "--stdin"], input=lines, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    recs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(recs) == 3
    assert recs[1] == {"input": f"(O,o,0 | {LONG})",
                       "error": TOO_LONG.format(9)}
    assert recs[0]["normalized"] == "(O,o,0 | 1)"
    assert recs[2]["normalized"] == "(O,o,0 | 3)"


def test_report_text_golden(capsys):
    rc, out, err = run(capsys, ["report", POINCARE_FAMILY])
    assert (rc, err) == (0, "")
    assert out == REPORT_TEXT


def test_report_json_key_order(capsys):
    rc, out, _ = run(capsys, ["report", "--json", POINCARE_FAMILY])
    assert rc == 0
    pairs = json.loads(out, object_pairs_hook=lambda kv: kv)
    assert [k for k, _ in pairs] == [
        "input", "normalized", "class_label", "predicates", "pi1", "fuchsian",
        "h1", "euler_sum", "recognition", "warnings"]
    pred = dict(pairs)["predicates"]
    assert [k for k, _ in pred] == [
        "small", "flat", "pi1_finite", "irreducible", "p2_irreducible",
        "aspherical", "boundary_irreducible", "has_incompressible_surface",
        "named", "notes"]


def test_report_bounded_warning():
    rep = build_report("(O,o,0; m=1 | -)")
    assert rep["warnings"] == [BOUNDED_WARNING]
    assert rep["euler_sum"] is None
    assert rep["h1"] == "Z^2"
    assert rep["recognition"] == "fibered solid torus"


def test_report_large_lens_is_closed_form():
    # the old sewing-matrix search scanned every unit mod p, about 27 s here
    start = time.perf_counter()
    rep = build_report("(O,o,0 | 1, (100000007,1))")
    assert time.perf_counter() - start < 2
    assert rep["recognition"] == "L(100000006,1)"


# Many-fiber symbols whose first homology took the unbounded Smith normal
# form seconds (the last three) or more than two minutes (the first).
MANY_FIBERS = [
    ("(O,o,3 | 2, (44,25), (26,25), (43,34), (59,14), (60,7), (55,36), "
     "(46,7), (15,13), (19,3), (59,11), (6,1), (38,37), (42,41), (58,35), "
     "(48,31), (35,16), (21,20), (58,27), (3,1), (9,5))",
     "Z^6 + Z/2 + Z/2 + Z/6 + Z/6 + Z/6 + Z/6 + Z/30 + Z/420 "
     "+ Z/30702347915954783473020"),
    ("(N,n,II,5 | (1,1), (2,1), (3,1), (5,2), (7,3), (4,1), (9,2), (3,2), "
     "(5,1), (8,3), (6,1))",
     "Z^4 + Z/2 + Z/6 + Z/6 + Z/60 + Z/10080"),
    ("(N,o,5 | (0,0), (4,3), (2,1), (9,8), (5,1), (7,3), (7,3), (7,6), "
     "(7,1), (3,2), (2,1), (9,2), (8,5))",
     "Z^10 + Z/14 + Z/42 + Z/252"),
    ("(O,n,2 | 1, (9,1), (4,3), (5,4), (4,1), (2,1), (3,2), (9,7), (7,5), "
     "(8,5), (3,2))",
     "Z + Z/6 + Z/12 + Z/36 + Z/10080"),
]


@pytest.mark.parametrize("symbol,h1", MANY_FIBERS,
                         ids=[s[1:s.index(" |")] for s, _ in MANY_FIBERS])
def test_report_many_fibers_is_fast(symbol, h1):
    start = time.perf_counter()
    rep = build_report(symbol)
    assert time.perf_counter() - start < 1
    assert rep["h1"] == h1


def test_report_stdin_json_lines(capsys, monkeypatch):
    lines = "(O,o,0 | 1)\n\n(O,o,0|bad)\n(O,o,1 | 0)\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    rc, out, err = run(capsys, ["report", "--stdin"])
    assert (rc, err) == (0, "")
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 3
    assert recs[0]["normalized"] == "(O,o,0 | 1)"
    assert recs[1] == {"input": "(O,o,0|bad)",
                       "error": "expected an integer (at position 7)"}
    assert recs[2]["predicates"]["flat"] is True


def test_report_stdin_isolates_every_failure(capsys, monkeypatch):
    def build(text):
        if text == "(O,o,0 | 2)":
            raise InternalError("broken invariant")
        return build_report(text)

    monkeypatch.setattr("seifert.cli.build_report", build)
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("(O,o,0 | 1)\n(O,o,0 | 2)\n(O,o,0 | 3)\n"))
    rc, out, err = run(capsys, ["report", "--stdin"])
    assert (rc, err) == (0, "")
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 3
    assert recs[1] == {"input": "(O,o,0 | 2)", "error": "broken invariant"}
    assert recs[0]["normalized"] == "(O,o,0 | 1)"
    assert recs[2]["normalized"] == "(O,o,0 | 3)"


def test_report_requires_input(capsys):
    rc, out, err = run(capsys, ["report"])
    assert (rc, out) == (2, "")
    assert err == "error: report needs a symbol or --stdin\n"


def test_help_and_bad_usage(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "seifert", "normalize", "(O,o,0|0,(3,4))"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "(O,o,0 | 1, (3,1))\n"
    proc = subprocess.run(
        [sys.executable, "-m", "seifert", "equiv", "--oriented",
         "(O,o,0 | 1)", "(O,o,0 | -1)"], capture_output=True, text=True)
    assert proc.returncode == 1


def test_console_script_if_installed():
    script = shutil.which("seifert")
    if script is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([script, "lens", "normalize", "7", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "L(7,2)\n"


def test_report_json_is_hash_seed_independent():
    lines = "".join(t + "\n" for t in [
        "(O,o,0 | -1, (2,1), (3,1), (5,1))",
        "(O,o,0 | 0)",
        "(N,n,II,2 | (0,1), (3,1))",
        "(O,o,0; m=1 | -, (3,2))",
        "(O,n,2 | 1)",
    ])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "seifert", "report", "--stdin"],
            input=lines.encode(), capture_output=True, env=env)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_report_stdin_matches_the_pinned_golden_output():
    data = Path(__file__).parent / "data"
    with open(data / "golden_symbols.txt", "rb") as corpus:
        proc = subprocess.run(
            [sys.executable, "-m", "seifert", "report", "--stdin"],
            stdin=corpus, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    got = proc.stdout.decode().splitlines()
    want = (data / "golden_report.jsonl").read_text().splitlines()
    for number, (line, pinned) in enumerate(zip(got, want), 1):
        assert line == pinned, f"first difference on output line {number}"
    assert len(got) == len(want)
    assert proc.stdout == (data / "golden_report.jsonl").read_bytes()
