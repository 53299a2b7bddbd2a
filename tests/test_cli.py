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

from seifert import (InternalError, parse_symbol, pi1_presentation,
                     render_symbol, reverse_orientation)
from seifert import cli
from seifert.cli import BOUNDED_WARNING, build_report, run_cli
import snf_oracle

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


def test_report_and_group_h1_do_not_abelianize(capsys, monkeypatch):
    # H1 comes from groups.first_homology; abelianization, the general
    # tool and its oracle, must not run behind either command
    def refuse(p):
        raise AssertionError("abelianization called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "seifert" and hasattr(module, "abelianization"):
            monkeypatch.setattr(module, "abelianization", refuse)
    data = Path(__file__).parent / "data"
    symbols = (data / "golden_symbols.txt").read_text().splitlines()
    pinned = (data / "golden_report.jsonl").read_text().splitlines()
    assert [json.dumps(build_report(s)) for s in symbols] == pinned
    rc, out, _ = run(capsys, ["group", "h1", POINCARE_FAMILY])
    assert (rc, out) == (0, "Z/61\n")


def test_report_and_group_texts_build_no_presentation(capsys, monkeypatch):
    # the pi1 and Fuchsian texts come from groups.presentation_texts; no
    # Presentation, the general tool and its oracle, is built behind them
    def refuse(*args):
        raise AssertionError("Presentation built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "seifert" and hasattr(module, "Presentation"):
            monkeypatch.setattr(module, "Presentation", refuse)
    data = Path(__file__).parent / "data"
    symbols = (data / "golden_symbols.txt").read_text().splitlines()
    pinned = (data / "golden_report.jsonl").read_text().splitlines()
    assert [json.dumps(build_report(s)) for s in symbols] == pinned
    rc, out, _ = run(capsys, ["group", "pi1", POINCARE_FAMILY])
    assert (rc, out) == (0, "< h, c1, c2, c3 | c1 h c1^-1 h^-1, c2 h c2^-1 h^-1,"
                         " c3 h c3^-1 h^-1, c1^2 h, c2^3 h, c3^5 h,"
                         " c1 c2 c3 h^-1 >\n")
    rc, out, _ = run(capsys, ["group", "fuchsian", POINCARE_FAMILY])
    assert (rc, out) == (0, "< c1, c2, c3 | c1^2, c2^3, c3^5, c1 c2 c3 >\n")


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


NINES = "9" * 4300  # the longest integer the interpreter converts to text
TWIN = f"({10**2200 + 1},1), ({10**2200 + 3},1)"  # index product: 4,401 digits
OUTPUT_TOO_LONG = "the result has an integer too long to convert to text"


@pytest.mark.parametrize("argv", [
    ["reverse", f"(O,o,0 | {NINES}, (2,1))"],  # b becomes -10^4300
    ["normalize", f"(O,o,0 | {NINES}, (2,3))"],  # the carry makes b 10^4300
    ["report", f"(O,o,0 | 0, {TWIN})"],  # the Euler sum's denominator
    ["group", "pi1", f"(O,o,0 | {NINES}, (2,3))"],  # the exponent of h
    ["group", "h1", f"(O,o,0 | 1, {TWIN})"],  # the torsion factor
], ids=["reverse", "normalize", "report", "pi1", "h1"])
def test_overlong_output_integer_is_an_input_error(argv):
    proc = subprocess.run([sys.executable, "-m", "seifert", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {OUTPUT_TOO_LONG}\n"


def test_report_stdin_survives_an_overlong_output_integer():
    lines = f"(O,o,0 | 1)\n(O,o,0 | 0, {TWIN})\n(O,o,0 | 3)\n"
    proc = subprocess.run([sys.executable, "-m", "seifert", "report",
                           "--stdin"], input=lines, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    recs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(recs) == 3
    assert recs[1] == {"input": f"(O,o,0 | 0, {TWIN})",
                       "error": OUTPUT_TOO_LONG}
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
# form seconds (the next three) or more than two minutes (the first), and
# high-genus symbols whose dense exponent-sum rows took 1-6 s (the last
# four). The high-genus h1 values are those of tests/snf_oracle.py on the
# unpruned exponent-sum matrix, which gives Z^(2g+1), Z^2g + Z/2 and
# Z^(g-1) + Z/4 for these four families at every genus from 2 to 40 and
# at 100, 300, 1000 and 2500; at these genera it has 10^8 cells or more.
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
    ("(O,o,10000 | 0)", "Z^20001"),
    ("(N,o,5000 | (0,0))", "Z^10000 + Z/2"),
    ("(O,n,20000 | 1)", "Z^19999 + Z/4"),
    ("(N,n,II,20000 | (1,0))", "Z^19999 + Z/4"),
]


def two_one_fibers(head, n):
    return f"({head}" + ", (2,1)" * n + ")"


# Symbols with n (2,1) fibers, on which the general Smith normal form of
# the whole presentation took 0.5 s at n = 200 and 6 s at n = 400. Their
# h1 takes the closed forms below, which
# test_many_fiber_forms_follow_the_oracle_ladder checks against
# tests/snf_oracle.py on the unpruned exponent-sum matrix for n = 3 ... 60.
FIBER_FAMILIES = [
    ("O,o,0 | 0", lambda n: " + ".join(["Z/2"] * (n - 2) + [f"Z/{2 * n}"])),
    ("N,n,I,1 | (0,0)", lambda n: " + ".join(
        ["Z"] + (["Z/2"] * (n - 2) + ["Z/4"] if n % 2 == 0 else ["Z/2"] * (n - 1)))),
]
MANY_FIBERS += [(two_one_fibers(head, n), form(n))
                for (head, form), n in zip(FIBER_FAMILIES, (400, 2000))]


@pytest.mark.parametrize("symbol,h1", MANY_FIBERS,
                         ids=[s[1:s.index(" |")] for s, _ in MANY_FIBERS])
def test_report_many_fibers_is_fast(symbol, h1):
    start = time.perf_counter()
    rep = build_report(symbol)
    assert time.perf_counter() - start < 1
    assert rep["h1"] == h1


@pytest.mark.parametrize("head, form", FIBER_FAMILIES,
                         ids=[head for head, _ in FIBER_FAMILIES])
def test_many_fiber_forms_follow_the_oracle_ladder(head, form):
    for n in range(3, 61):
        p = pi1_presentation(parse_symbol(two_one_fibers(head, n)))
        assert snf_oracle.abelianization(p).describe() == form(n), n


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


def test_report_stdin_writes_each_record_once(monkeypatch):
    # under python -u every write reaches the pipe, and a reader may wake
    # for each, so a record and its newline go out in one write
    writes = []

    class Out(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdin", io.StringIO("(O,o,0 | 1)\n(O,o,0|bad)\n"))
    monkeypatch.setattr(sys, "stdout", Out())
    assert run_cli(["report", "--stdin"]) == 0
    assert len(writes) == 2
    assert all(w.endswith("}\n") and w.count("\n") == 1 for w in writes)


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


# run_cli builds only the subparser that argv[0] names; each of these
# must read exactly as it does when the whole tree parses it
USAGE_ARGV = [[], ["-h"], ["--help"], ["no-such-command"],
              ["report", "--help"], ["report", "--bogus"], ["equiv", "x"],
              ["group", "order", "S", "--max-cosets", "abc"]]


@pytest.mark.parametrize("argv", USAGE_ARGV, ids=lambda a: " ".join(a) or "-")
def test_usage_and_help_match_the_whole_tree(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.delenv("SEIFERT_MAX_COSETS", raising=False)
    got = run(capsys, argv)
    whole = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda command=None: whole())
    want = run(capsys, argv)
    assert got == want
    assert got[0] in (0, 2) and got[1] + got[2]  # help, or a usage error


def test_usage_line_lists_every_command(capsys):
    rc, out, err = run(capsys, ["report", "--bogus"])
    assert (rc, out) == (2, "")
    assert err.startswith("usage: seifert [-h] {%s} ...\n" % ",".join(
        cli.COMMANDS))
    choices = cli._parser()._subparsers._group_actions[0].choices
    assert tuple(choices) == cli.COMMANDS


SEIFERT = [sys.executable, "-m", "seifert"]
GOLDEN = Path(__file__).parent / "data" / "golden_symbols.txt"
# stdout into a pipe or a file is block-buffered, unless this is set
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_normalize_with_stdout_closed_exits_zero():
    # sys.stdout is None, so print writes nothing and nothing is flushed
    proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *SEIFERT, "normalize",
                           "(O,o,0 | 0)"],
                          capture_output=True, text=True, env=BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("argv,head,code", [
    # about 140 kB of records: a write in the batch loop meets the closed
    # pipe, and the BrokenPipeError ends the process as an uncaught error
    (["report", "--stdin"], 10, 1),
    # the whole output waits in stdout's buffer; the flush at exit fails,
    # and the interpreter's shutdown reports it with status 120
    (["report", "--json", POINCARE_FAMILY], 0, 120),
])
def test_a_reader_that_closes_the_pipe_early(argv, head, code):
    with open(GOLDEN, "rb") as corpus:
        proc = subprocess.Popen([*SEIFERT, *argv], stdin=corpus,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                bufsize=0, env=BUFFERED)
        assert len(proc.stdout.read(head)) == head
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == code
    assert "BrokenPipeError" in err


def test_report_stdin_into_a_file_writes_every_byte(tmp_path):
    out = tmp_path / "report.jsonl"
    with open(GOLDEN, "rb") as corpus, open(out, "wb") as sink:
        proc = subprocess.run([*SEIFERT, "report", "--stdin"], stdin=corpus,
                              stdout=sink, stderr=subprocess.PIPE,
                              env=BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, b"")
    pinned = GOLDEN.parent / "golden_report.jsonl"
    assert out.read_bytes() == pinned.read_bytes()


@pytest.mark.parametrize("argv,code,out,err", [
    (["equiv", "(O,o,0 | 1)", "(O,o,0 | 2)"], 1, "distinct\n", ""),
    (["report"], 2, "", "error: report needs a symbol or --stdin\n"),
    (["cover", "double", "(O,o,0 | 1)"], 3, "",
     "error: double cover needs a class-N symbol\n"),
])
def test_exit_codes_of_the_process(argv, code, out, err):
    proc = subprocess.run([*SEIFERT, *argv], capture_output=True, text=True,
                          env=BUFFERED)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


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


def test_report_of_the_golden_symbols_without_whitespace():
    # whitespace only separates tokens: with every space gone, each golden
    # symbol gives its pinned record in every key but the input
    data = Path(__file__).parent / "data"
    symbols = (data / "golden_symbols.txt").read_text().splitlines()
    pinned = (data / "golden_report.jsonl").read_text().splitlines()
    assert len(symbols) == len(pinned) == 200
    for text, line in zip(symbols, pinned):
        tight = "".join(text.split())
        want = json.loads(line)
        got = json.loads(json.dumps(build_report(tight)))
        assert got.pop("input") == tight
        want.pop("input")
        assert got == want, text


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
