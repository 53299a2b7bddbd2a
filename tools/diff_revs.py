"""Differential run of two commits: the same inputs, every output compared.

    python3 tools/diff_revs.py --old HEAD~1 --new HEAD --golden \
        --seed 16 --draws 20000 --bench 2000 --box --small --argv \
        --out diff.json

Both revisions are unpacked with `git archive REV | tar -x`, as
tools/bench_pairs.py does, and each is run by one worker process that
imports the package from its own checkout. The inputs are the old
revision's golden symbols (--golden), --draws symbols from
symbolgen.random_symbol with random.Random(--seed) (drawn in the old
checkout), every closed (O,o,0) symbol with at most 3 fibers of index up
to 13, any beta, and b from -6 to 6 (--box, 444,860 symbols), and the
1,044 symbols of small_texts (--small): (O,n,1 | b) for b from -6 to 6,
(N,n,I,1 | (b,s)) for b and s in {0, 1} and the fibered solid torus
(O,o,0; m=1 | -), each with no fiber or one of index up to 13, which
reach every category that classify_small names off the sphere. --draws
also builds the set edits: as many golden lines of the old revision, each
with 1-4 random insertions, deletions or replacements from EDIT_CHARS,
drawn by random.Random(--seed), so that most are parse errors and their
messages and positions are compared too. --bench N takes the first N
lines of the benchmark's index and wide corpora at --seed (the set
bench), built by the old checkout's perfbench/workloads.generate: the
traffic the benchmark times, with indices up to 400, index-1 pairs and
shifted crossings, genus up to 8 and the 10-12-fiber tail of wide. It
has its own count, not --draws, so that the benchmark's lines can be
checked alone, without the golden, draws and edits sets, as a quick run
after a hot-path edit.

Per symbol it compares the line that `report --stdin` writes for it,
byte for byte (report.line) and key by key (report.input, report.pi1,
...; report.error for an error line; a text with a line break goes
through `report --json` instead, report.argv on an error), the stdout,
stderr and exit code of `report TEXT`, the text report (report_text), the
repr of pi1_presentation and of fuchsian_quotient or each one's error
text (presentations), the repr of the classify_small result (small),
`group order` and `cover double` stdout, stderr and exit code,
`reverse` and both `equiv` modes of the symbol against its reverse, and
key by key the repr or error text of the library's covers and signature
(covers.suggest_cover_sheets, covers.fiberless_cover at that count,
covers.euler_sum, covers.signature_of_symbol, covers.fuchsian_euler and
covers.fuchsian_size_class; covers.error when the text does not parse).
With --argv it also runs the fixed command lines of argv_lines
(help at every depth, usage errors, abbreviated options, the
--max-cosets forms, negative ints) through each revision's run_cli,
under three values of SEIFERT_MAX_COSETS, and compares stdout, stderr
and exit code. It prints the differences per key and writes them to
--out as JSON with the first few examples of each. Exit 0 when nothing
differs, 1 otherwise. Standard library only.

A change that alters outputs on purpose states them with --expect FILE,
a JSON object that maps each input set (golden, draws, edits, bench,
box, small, argv) to its expected differences per key, and golden to the list
of its differing inputs as well:

    {"golden": {"differences": {"report.h1": 66, ...}, "inputs": [...]},
     "draws": {"differences": {...}}, "edits": {"differences": {...}},
     "argv": {"differences": {}}}

The "expect" entry of --out holds this object for the run. With --expect
the tool exits 0 only when the run matches the file exactly, and 1 on any
extra, missing or changed count, or a changed golden input; a set that
the run covers and the file omits is expected to differ nowhere.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

from bench_pairs import git, unpack

EXAMPLES = 5
EDIT_CHARS = " \t\n+-()|,;=0123456789ONIonmkb\u00b2\u0663"


# every pair of index 2 to 13
PAIRS = [f"({mu},{beta})" for mu in range(2, 14) for beta in range(1, mu)
         if gcd(mu, beta) == 1]


def box_texts():
    """Every closed (O,o,0) symbol with at most 3 fibers of index 2 to 13
    and b from -6 to 6, in its normal form's text."""
    for n in range(4):
        for chosen in combinations_with_replacement(PAIRS, n):
            for b in range(-6, 7):
                yield f"(O,o,0 | {', '.join((str(b),) + chosen)})"


def small_texts():
    """The symbols that classify_small names off the sphere, and their
    neighbours: (O,n,1 | b) for b from -6 to 6, (N,n,I,1 | (b,s)) for b
    and s in {0, 1} and the fibered solid torus (O,o,0; m=1 | -), each
    with no fiber or one of index 2 to 13; 1,044 texts."""
    fibers = [""] + [f", {pair}" for pair in PAIRS]
    heads = [f"(O,n,1 | {b}" for b in range(-6, 7)]
    heads += [f"(N,n,I,1 | ({b},{s})" for b in (0, 1) for s in (0, 1)]
    heads.append("(O,o,0; m=1 | -")
    return [f"{head}{fiber})" for head in heads for fiber in fibers]


def edit_texts(lines, seed: int, count: int) -> list:
    """count texts, each a line drawn by random.Random(seed) with 1-4
    random insertions, deletions or replacements from EDIT_CHARS."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(lines)
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, len(text))
            edit = rng.choice(("insert", "delete", "replace"))
            c = "" if edit == "delete" else rng.choice(EDIT_CHARS)
            text = text[:k] + c + text[k + (edit != "insert"):]
        out.append(text)
    return out


def argv_lines():
    """The command lines of --argv, each as [budget, argv]: every
    command's plain form, help at every depth, a positional too few and
    too many, abbreviated options, exclusive flags together, the
    --max-cosets forms and negative ints, with SEIFERT_MAX_COSETS unset
    (budget null), invalid and valid."""
    s = "(O,o,0 | -1, (2,1), (3,1), (5,1))"
    t = "(O,o,0 | -1, (2,1), (3,1), (7,1))"
    plain = [
        (1, ["normalize", s]), (1, ["report", s]),
        (1, ["report", "--json", s]), (1, ["report", "--stdin"]),
        (1, ["equiv", "--oriented", s, t]),
        (1, ["equiv", "--unoriented", s, s]), (1, ["reverse", s]),
        (2, ["cover", "double", "(N,n,I,1 | (0,0), (3,1))"]),
        (2, ["cover", "fiberless", t, "--sheets", "84"]),
        (2, ["lens", "normalize", "7", "4"]),
        (2, ["lens", "equiv", "7", "2", "7", "3"]),
        (2, ["lens", "fiber", "0", "-1", "1", "0", "1", "3"]),
        (2, ["group", "pi1", s]), (2, ["group", "fuchsian", s]),
        (2, ["group", "h1", s]), (2, ["group", "order", s]),
        (2, ["group", "order", t, "--max-cosets", "20000"]),
        (2, ["fst", "equiv", "--reverse", "1", "3", "2", "3"]),
        (2, ["fst", "lift", "2", "1", "2"]),
    ]
    lines = [[], ["-h"], ["--help"], ["--he"], ["no-such-command"],
             ["--json", "report", s], ["report"], ["report", "-"],
             ["normalize", "--", s], ["lens", "normalize", "-7", "4"],
             ["lens", "fiber", "--", "0", "-1", "1", "0", "1", "3"],
             ["fst", "lift", "2", "-1", "2"],
             ["lens", "normalize", "+7", " 4"],
             ["lens", "normalize", "1_000", "\u0663"],
             ["lens", "normalize", "x", "4"],
             ["equiv", "--oriented", "--unoriented", s, t],
             ["fst", "equiv", "--reverse", "--any", "1", "3", "2", "3"],
             ["cover", "fiberless", t], ["cover", "fiberless", t, "--sheets"]]
    for depth, argv in plain:
        lines.append(argv)
        lines += [argv[:k] + [h] for k in range(1, depth + 1)
                  for h in ("-h", "--help")]
        lines += [argv + ["-h"], argv[:depth] + ["-h"] + argv[depth:],
                  argv[:-1], argv + ["extra"], argv + ["--bogus"]]
        lines += [argv + [tok[:4]] for tok in argv if tok.startswith("--")]
    order = ["group", "order", t]
    lines += [order + opt for opt in (
        ["--max-cosets", "5"], ["--max-cosets=5"], ["--max-c", "5"],
        ["--max-cosets"], ["--max-cosets", "5", "--max-cosets", "6"],
        ["--max-cosets", "-5"], ["--max-cosets", "abc"], ["--max-cosets", "0"],
        ["--max-cosets", "1_000"], ["--max-cosets", ""])]
    return [[budget, argv] for budget in (None, "abc", "250")
            for argv in lines]


def _env(checkout: Path) -> dict:
    path = os.pathsep.join([str(checkout / "src"), str(checkout / "tests")])
    return {**os.environ, "PYTHONPATH": path}


def _worker_argv(checkout: Path, *args) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--worker",
            str(checkout), *args]


def worker_lines(checkout: Path, mode: str, seed: int, count: int) -> list:
    """The lines a worker of the checkout prints in mode draws or bench."""
    proc = subprocess.run(_worker_argv(checkout, mode, str(seed), str(count)),
                          env=_env(checkout), capture_output=True, text=True,
                          check=True)
    return proc.stdout.splitlines()


# ---------------------------------------------------------------------------
# The worker: runs in a checkout's package, reads one JSON input a line (a
# symbol text may hold a line break) and prints one JSON line an input


def _cli_call(cli, argv, stdin="") -> list:
    out, err = io.StringIO(), io.StringIO()
    real_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_cli(argv)
        except Exception as exc:  # a traceback is a difference too
            code = f"crash: {type(exc).__name__}: {exc}"
        finally:
            sys.stdin = real_stdin
    return [out.getvalue(), err.getvalue(), code]


def _call(fn, *args):
    from seifert import SeifertError
    try:
        return fn(*args)
    except SeifertError as exc:
        return {"error": str(exc)}
    except Exception as exc:
        return {"crash": f"{type(exc).__name__}: {exc}"}


def _small(text):
    from seifert import classify_small, parse_symbol
    return repr(classify_small(parse_symbol(text)))


def _covers(text) -> dict:
    """The library's covers and base-orbifold values of a symbol, each its
    repr or _call's error record: the fiberless cover at the sheet count
    suggest_cover_sheets gives, the Euler sum, and the signature with its
    Euler characteristic and size class."""
    import seifert as sf
    s = sf.parse_symbol(text)
    suggest = sf.suggest_cover_sheets
    builds = {
        "suggest_cover_sheets": lambda: suggest(s),
        "fiberless_cover": lambda: sf.fiberless_cover(s, suggest(s)),
        "euler_sum": lambda: sf.euler_sum(s),
        "signature_of_symbol": lambda: sf.signature_of_symbol(s),
        "fuchsian_euler": lambda: sf.fuchsian_euler(sf.signature_of_symbol(s)),
        "fuchsian_size_class":
            lambda: sf.fuchsian_size_class(sf.signature_of_symbol(s)),
    }
    return {key: _call(lambda: repr(build()))
            for key, build in builds.items()}


def _presentations(text):
    from seifert import fuchsian_quotient, parse_symbol, pi1_presentation
    s = parse_symbol(text)
    return [_call(lambda: repr(build(s)))
            for build in (pi1_presentation, fuchsian_quotient)]


def _report(cli, text) -> dict:
    """The line `report --stdin` writes for text, raw and read back. A
    text with a line break, which stdin would read as several lines, goes
    through argv as `report --json` instead: its report, or on an error
    its stdout, stderr and exit code."""
    if "\n" in text:
        out, err, code = _cli_call(cli, ["report", "--json", text])
        report = json.loads(out) if code == 0 else {"argv": [out, err, code]}
        return {"report": report, "report.line": out}
    out, err, code = _cli_call(cli, ["report", "--stdin"], text + "\n")
    try:
        report = json.loads(out)
    except ValueError:  # no line, or more than one
        report = {"crash": [out, err, code]}
    return {"report": report, "report.line": out}


def worker(checkout: Path, mode: str, *args) -> int:
    import seifert
    from seifert import cli
    if checkout.resolve() not in Path(seifert.__file__).resolve().parents:
        raise SystemExit(f"imported {seifert.__file__}, not from {checkout}")
    if mode == "draws":
        from symbolgen import random_symbol
        rng = random.Random(int(args[0]))
        for _ in range(int(args[1])):
            print(seifert.render_symbol(random_symbol(rng)))
        return 0
    if mode == "bench":
        sys.path.insert(0, str(checkout / "perfbench"))
        import workloads
        for name in ("index", "wide"):
            lines = workloads.generate(name, int(args[0]), checkout)
            print("\n".join(lines[:int(args[1])]))
        return 0
    inputs = [json.loads(line)
              for line in Path(args[0]).read_text().splitlines()]
    if mode == "argv":
        for budget, argv in inputs:
            os.environ.pop("SEIFERT_MAX_COSETS", None)
            if budget is not None:
                os.environ["SEIFERT_MAX_COSETS"] = budget
            sys.stdout.write(json.dumps({"call": _cli_call(cli, argv)}) + "\n")
        return 0
    for text in inputs:
        rev = _cli_call(cli, ["reverse", text])
        rec = {**_report(cli, text),
               "report_text": _cli_call(cli, ["report", text]),
               "presentations": _call(_presentations, text),
               "small": _call(_small, text),
               "group_order": _cli_call(cli, ["group", "order", text]),
               "cover_double": _cli_call(cli, ["cover", "double", text]),
               "covers": _call(_covers, text),
               "reverse": rev, "equiv": None}
        if rev[2] == 0:
            other = rev[0].strip()
            rec["equiv"] = [_cli_call(cli, ["equiv", text, other]),
                            _cli_call(cli, ["equiv", "--oriented", text, other])]
        sys.stdout.write(json.dumps(rec) + "\n")
    return 0


# ---------------------------------------------------------------------------
# The comparison


def _flat(rec: dict) -> dict:
    out = {f"{name}.{k}": v for name in ("report", "covers")
           for k, v in rec.pop(name, {}).items()}
    out.update(rec)
    return out


def compare(texts, dirs, mode="eval", keep_inputs=False) -> dict:
    """Run both workers on texts at once and count differences per key;
    keep_inputs lists every differing input too."""
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("".join(json.dumps(t) + "\n" for t in texts))
    try:
        procs = [subprocess.Popen(_worker_argv(d, mode, f.name), env=_env(d),
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, text=True)
                 for d in dirs]
        counts, examples, differing, seen = Counter(), {}, [], 0
        for text, a, b in zip(texts, procs[0].stdout, procs[1].stdout):
            seen += 1
            old, new = _flat(json.loads(a)), _flat(json.loads(b))
            keys = [k for k in dict.fromkeys([*old, *new])
                    if old.get(k) != new.get(k)]
            if keys:
                differing.append(text)
            for k in keys:
                counts[k] += 1
                if len(examples.setdefault(k, [])) < EXAMPLES:
                    examples[k].append({"input": text, "old": old.get(k),
                                        "new": new.get(k)})
        for p in procs:  # a worker still writing stops on the closed pipe
            p.stdout.close()
        codes = [p.wait() for p in procs]
    finally:
        os.unlink(f.name)
    if codes != [0, 0] or seen != len(texts):
        raise SystemExit(f"a worker failed (exit codes {codes}) after "
                         f"{seen} of {len(texts)} symbols")
    res = {"symbols": seen, "differing_symbols": len(differing),
           "differences": dict(sorted(counts.items())), "examples": examples}
    if keep_inputs:
        res["differing_inputs"] = differing
    return res


def expectation(results) -> dict:
    """What --expect compares of a run: each input set's differences per
    key, and the inputs that differ where the run kept them (golden)."""
    out = {}
    for name, res in results.items():
        out[name] = {"differences": res["differences"]}
        if "differing_inputs" in res:
            out[name]["inputs"] = res["differing_inputs"]
    return out


def mismatches(expected: dict, actual: dict) -> list:
    """Each way the expectation of a run differs from the expected one,
    as lines of text; empty on an exact match."""
    out = []
    for name in dict.fromkeys([*expected, *actual]):
        if name not in actual:
            out.append(f"{name}: expected, but not run")
            continue
        want = expected.get(name, {})
        got = actual[name]
        counts, seen = want.get("differences", {}), got["differences"]
        for key in dict.fromkeys([*counts, *seen]):
            if counts.get(key, 0) != seen.get(key, 0):
                out.append(f"{name}: {key} differs on {seen.get(key, 0)} "
                           f"inputs, expected {counts.get(key, 0)}")
        inputs, kept = want.get("inputs", []), got.get("inputs", [])
        if inputs != kept:
            extra = [t for t in kept if t not in inputs]
            gone = [t for t in inputs if t not in kept]
            out.append(f"{name}: {len(extra)} inputs differ unexpectedly "
                       f"{extra[:EXAMPLES]}, {len(gone)} expected to differ "
                       f"do not {gone[:EXAMPLES]}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", required=True, help="revision compared from")
    ap.add_argument("--new", default="HEAD", help="revision compared to")
    ap.add_argument("--golden", action="store_true",
                    help="the golden symbols of the old revision")
    ap.add_argument("--draws", type=int, default=0,
                    help="symbolgen.random_symbol draws, and as many "
                    "edited golden lines")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the draws, edits and bench lines")
    ap.add_argument("--bench", type=int, default=0,
                    help="the first N lines of the benchmark's index and "
                    "wide corpora")
    ap.add_argument("--box", action="store_true",
                    help="the closed (O,o,0) box of 444,860 symbols")
    ap.add_argument("--small", action="store_true",
                    help="the 1,044 projective-plane and solid-torus "
                    "symbols of small_texts")
    ap.add_argument("--argv", action="store_true",
                    help="the fixed command lines of argv_lines")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--expect", type=Path,
                    help="JSON file of the expected differences")
    args = ap.parse_args(argv)
    expected = json.loads(args.expect.read_text()) if args.expect else None

    commits = {"old": git("rev-parse", args.old),
               "new": git("rev-parse", args.new)}
    with tempfile.TemporaryDirectory(prefix="diff_revs_") as tmp:
        dirs = {side: Path(tmp) / side for side in commits}
        unpack(commits["old"], dirs["old"])
        if commits["new"] == commits["old"]:
            dirs["new"] = dirs["old"]
        else:
            unpack(commits["new"], dirs["new"])
        golden = (dirs["old"] / "tests" / "data" / "golden_symbols.txt") \
            .read_text().splitlines()
        sources = {}
        if args.golden:
            sources["golden"] = golden
        if args.draws:
            sources["draws"] = worker_lines(dirs["old"], "draws", args.seed,
                                            args.draws)
            sources["edits"] = edit_texts(golden, args.seed, args.draws)
        if args.bench:
            sources["bench"] = worker_lines(dirs["old"], "bench", args.seed,
                                            args.bench)
        if args.box:
            sources["box"] = list(box_texts())
        if args.small:
            sources["small"] = small_texts()
        results = {name: compare(texts, (dirs["old"], dirs["new"]),
                                 keep_inputs=name == "golden")
                   for name, texts in sources.items()}
        if args.argv:
            results["argv"] = compare(argv_lines(), (dirs["old"], dirs["new"]),
                                      "argv")

    total = Counter()
    for name, res in results.items():
        print(f"{name}: {res['symbols']} inputs, {res['differing_symbols']} "
              f"differ")
        for key, n in res["differences"].items():
            print(f"  {key}: {n}")
        total.update(res["differences"])
    out = {"tool": "tools/diff_revs.py", "commits": commits,
           "seed": args.seed, "draws": args.draws, "bench": args.bench,
           "inputs": results,
           "expect": expectation(results)}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if expected is None:
        return 1 if total else 0
    wrong = mismatches(expected, out["expect"])
    for line in wrong:
        print(f"not as expected: {line}")
    print(f"{args.expect}: {'no match' if wrong else 'matches'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(Path(sys.argv[2]), *sys.argv[3:]))
    sys.exit(main())
