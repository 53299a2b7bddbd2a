"""Differential run of two commits: the same inputs, every output compared.

    python3 tools/diff_revs.py --old HEAD~1 --new HEAD --golden \
        --seed 16 --draws 20000 --box --argv --out diff.json

Both revisions are unpacked with `git archive REV | tar -x`, as
tools/bench_pairs.py does, and each is run by one worker process that
imports the package from its own checkout. The inputs are the old
revision's golden symbols (--golden), --draws symbols from
symbolgen.random_symbol with random.Random(--seed) (drawn in the old
checkout), and every closed (O,o,0) symbol with at most 3 fibers of index
up to 13, any beta, and b from -6 to 6 (--box, 444,860 symbols).

Per symbol it compares the line that `report --stdin` writes for it,
byte for byte (report.line) and key by key (report.input, report.pi1,
...; report.error for an error line), the repr of pi1_presentation and
of fuchsian_quotient or each one's error text (presentations), the
classify_small name and order, `group order` stdout, stderr and exit
code, and `reverse` and both `equiv` modes of the symbol against its
reverse. With --argv it also runs the fixed command lines of argv_lines
(help at every depth, usage errors, abbreviated options, the
--max-cosets forms, negative ints) through each revision's run_cli,
under three values of SEIFERT_MAX_COSETS, and compares stdout, stderr
and exit code. It prints the differences per key and writes them to
--out as JSON with the first few examples of each. Exit 0 when nothing
differs, 1 otherwise. Standard library only.

A change that alters outputs on purpose states them with --expect FILE,
a JSON object that maps each input set to its expected differences per
key, and golden to the list of its differing inputs as well:

    {"golden": {"differences": {"report.h1": 66, ...}, "inputs": [...]},
     "draws": {"differences": {...}}, "argv": {"differences": {}}}

The "expect" entry of --out holds this object for the run. With --expect
the tool exits 0 only when the run matches the file exactly, and 1 on any
extra, missing or changed count, or a changed golden input; a set that
the run covers and the file omits is expected to differ nowhere.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

from bench_pairs import git, unpack

EXAMPLES = 5


def box_texts():
    """Every closed (O,o,0) symbol with at most 3 fibers of index 2 to 13
    and b from -6 to 6, in its normal form's text."""
    pairs = [f"({mu},{beta})" for mu in range(2, 14) for beta in range(1, mu)
             if gcd(mu, beta) == 1]
    for n in range(4):
        for chosen in combinations_with_replacement(pairs, n):
            for b in range(-6, 7):
                yield f"(O,o,0 | {', '.join((str(b),) + chosen)})"


def argv_lines():
    """The command lines of --argv, each as JSON [budget, argv]: every
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
    return [json.dumps([budget, argv]) for budget in (None, "abc", "250")
            for argv in lines]


def _env(checkout: Path) -> dict:
    path = os.pathsep.join([str(checkout / "src"), str(checkout / "tests")])
    return {**os.environ, "PYTHONPATH": path}


def _worker_argv(checkout: Path, *args) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--worker",
            str(checkout), *args]


def draw_texts(checkout: Path, seed: int, count: int) -> list:
    proc = subprocess.run(_worker_argv(checkout, "draws", str(seed), str(count)),
                          env=_env(checkout), capture_output=True, text=True,
                          check=True)
    return proc.stdout.splitlines()


# ---------------------------------------------------------------------------
# The worker: runs in a checkout's package and prints one JSON line a symbol


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
    res = classify_small(parse_symbol(text))
    return None if res is None else [res.name, res.order]


def _presentations(text):
    from seifert import fuchsian_quotient, parse_symbol, pi1_presentation
    s = parse_symbol(text)
    return [_call(lambda: repr(build(s)))
            for build in (pi1_presentation, fuchsian_quotient)]


def _report(cli, text) -> dict:
    """The line `report --stdin` writes for text, raw and read back."""
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
        import random
        from symbolgen import random_symbol
        rng = random.Random(int(args[0]))
        for _ in range(int(args[1])):
            print(seifert.render_symbol(random_symbol(rng)))
        return 0
    if mode == "argv":
        for line in Path(args[0]).read_text().splitlines():
            budget, argv = json.loads(line)
            os.environ.pop("SEIFERT_MAX_COSETS", None)
            if budget is not None:
                os.environ["SEIFERT_MAX_COSETS"] = budget
            sys.stdout.write(json.dumps({"call": _cli_call(cli, argv)}) + "\n")
        return 0
    # build each argparse tree once: run_cli reads _parser at call time,
    # and the cache keeps one tree per argument tuple, so this holds
    # whether _parser takes no argument (the whole tree) or a command name
    cli._parser = functools.lru_cache(maxsize=None)(cli._parser)
    for text in Path(args[0]).read_text().splitlines():
        rev = _cli_call(cli, ["reverse", text])
        rec = {**_report(cli, text),
               "presentations": _call(_presentations, text),
               "small": _call(_small, text),
               "group_order": _cli_call(cli, ["group", "order", text]),
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
    out = {f"report.{k}": v for k, v in rec.pop("report", {}).items()}
    out.update(rec)
    return out


def compare(texts, dirs, mode="eval", keep_inputs=False) -> dict:
    """Run both workers on texts at once and count differences per key;
    keep_inputs lists every differing input too."""
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("".join(t + "\n" for t in texts))
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
                    help="symbolgen.random_symbol draws")
    ap.add_argument("--seed", type=int, default=0, help="seed of the draws")
    ap.add_argument("--box", action="store_true",
                    help="the closed (O,o,0) box of 444,860 symbols")
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
        sources = {}
        if args.golden:
            golden = dirs["old"] / "tests" / "data" / "golden_symbols.txt"
            sources["golden"] = golden.read_text().splitlines()
        if args.draws:
            sources["draws"] = draw_texts(dirs["old"], args.seed, args.draws)
        if args.box:
            sources["box"] = list(box_texts())
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
           "seed": args.seed, "draws": args.draws, "inputs": results,
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
