"""Differential run of two commits: the same symbols, every output compared.

    python3 tools/diff_revs.py --old HEAD~1 --new HEAD --golden \
        --seed 16 --draws 20000 --box --out diff.json

Both revisions are unpacked with `git archive REV | tar -x`, as
tools/bench_pairs.py does, and each is run by one worker process that
imports the package from its own checkout. The inputs are the old
revision's golden symbols (--golden), --draws symbols from
symbolgen.random_symbol with random.Random(--seed) (drawn in the old
checkout), and every closed (O,o,0) symbol with at most 3 fibers of index
up to 13, any beta, and b from -6 to 6 (--box, 444,860 symbols).

Per symbol it compares each key of the build_report dict (or its error
text), the classify_small name and order, `group order` stdout, stderr
and exit code, and `reverse` and both `equiv` modes of the symbol against
its reverse. It prints the differences per key and writes them to --out
as JSON with the first few examples of each. Exit 0 when nothing
differs, 1 otherwise. Standard library only.
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

KEYS = ("small", "group_order", "reverse", "equiv")
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


def _cli_call(cli, argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_cli(argv)
        except Exception as exc:  # a traceback is a difference too
            code = f"crash: {type(exc).__name__}: {exc}"
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
    # build each argparse tree once: run_cli reads _parser at call time,
    # and the cache keeps one tree per argument tuple, so this holds
    # whether _parser takes no argument (the whole tree) or a command name
    cli._parser = functools.lru_cache(maxsize=None)(cli._parser)
    for text in Path(args[0]).read_text().splitlines():
        rev = _cli_call(cli, ["reverse", text])
        rec = {"report": _call(cli.build_report, text),
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
    report = rec["report"]
    out = {f"report.{k}": v for k, v in report.items()}
    out.update((k, rec[k]) for k in KEYS)
    return out


def compare(texts, dirs) -> dict:
    """Run both workers on texts at once and count differences per key."""
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write("".join(t + "\n" for t in texts))
    try:
        procs = [subprocess.Popen(_worker_argv(d, "eval", f.name), env=_env(d),
                                  stdout=subprocess.PIPE, text=True)
                 for d in dirs]
        counts, examples, differ, seen = Counter(), {}, 0, 0
        for text, a, b in zip(texts, procs[0].stdout, procs[1].stdout):
            seen += 1
            old, new = _flat(json.loads(a)), _flat(json.loads(b))
            keys = [k for k in dict.fromkeys([*old, *new])
                    if old.get(k) != new.get(k)]
            differ += bool(keys)
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
    return {"symbols": seen, "differing_symbols": differ,
            "differences": dict(sorted(counts.items())), "examples": examples}


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
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

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
        results = {name: compare(texts, (dirs["old"], dirs["new"]))
                   for name, texts in sources.items()}

    total = Counter()
    for name, res in results.items():
        print(f"{name}: {res['symbols']} symbols, {res['differing_symbols']} "
              f"differ")
        for key, n in res["differences"].items():
            print(f"  {key}: {n}")
        total.update(res["differences"])
    out = {"tool": "tools/diff_revs.py", "commits": commits,
           "seed": args.seed, "draws": args.draws, "inputs": results}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 1 if total else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(Path(sys.argv[2]), *sys.argv[3:]))
    sys.exit(main())
