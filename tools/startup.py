"""Start-up latency of single CLI calls at two commits, as one JSON file.

    python3 tools/startup.py --old HEAD~1 --new HEAD --runs 21 \
        --out STARTUP.json

Both revisions are unpacked with `git archive REV | tar -x` and
byte-compiled, as tools/bench_pairs.py does. Every command below then
runs --runs times through `python -m seifert` at each revision, in
rounds that alternate the order of the two sides, beside a bare
`python -c "import os; os._exit(0)"`: each command line of the
benchmark's `calls` workload, on a closed class-O symbol, then `lens
fiber` with a negative int and `group order -h`. This process
and its children are pinned to one CPU, and the children get the
benchmark's environment: no PYTHON* or SEIFERT* variable, the
checkout's src on the path and a fixed hash seed. The output holds the
median and quartiles of each wall time in ms, and the change of each
median. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import git, unpack

FINITE = "(O,o,0 | -1, (2,1), (3,1), (5,1))"
HYPERBOLIC = "(O,o,0 | -1, (2,1), (3,1), (7,1))"
# the argv shapes of perfbench's calls workload, then two paths that it
# does not cover: negative ints, read from the table, and argparse's help
CALLS = {
    "report": ["report", FINITE],
    "report --json": ["report", "--json", FINITE],
    "equiv": ["equiv", FINITE, HYPERBOLIC],
    "normalize": ["normalize", FINITE],
    "group order": ["group", "order", FINITE],
    "group order --max-cosets": ["group", "order", HYPERBOLIC,
                                 "--max-cosets", "20000"],
    "lens fiber": ["lens", "fiber", "0", "-1", "1", "0", "1", "3"],
    "group order -h": ["group", "order", "-h"],
}
BARE = ["-c", "import os; os._exit(0)"]


def child_env(checkout: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "SEIFERT"))}
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def wall_ms(argv, env) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    ms = (time.perf_counter() - start) * 1000
    if proc.returncode not in (0, 1) or proc.stderr:
        raise SystemExit(f"{argv} failed ({proc.returncode}): "
                         f"{proc.stderr.decode()}")
    return ms


def measure(dirs: dict, runs: int) -> dict:
    """Per command and side, every wall time in ms, runs deep."""
    jobs = [("bare", "-", BARE, dirs["old"])]
    for name, argv in CALLS.items():
        jobs += [(name, side, ["-m", "seifert", *argv], d)
                 for side, d in dirs.items()]
    envs = {d: child_env(d) for d in dirs.values()}
    times = {}
    for _, _, argv, d in jobs:  # warm the file cache
        wall_ms(argv, envs[d])
    for turn in range(runs):
        for name, side, argv, d in jobs[::1 if turn % 2 == 0 else -1]:
            times.setdefault(name, {}).setdefault(side, []).append(
                wall_ms(argv, envs[d]))
    return times


def summarize(times: dict) -> dict:
    out = {}
    for name, sides in times.items():
        out[name] = {}
        for side, values in sides.items():
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[name][side] = {"median_ms": round(q2, 2),
                               "quartiles_ms": [round(q1, 2), round(q3, 2)]}
        if "new" in sides:
            old, new = (out[name][s]["median_ms"] for s in ("old", "new"))
            out[name]["change"] = round(new / old - 1, 4)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", required=True, help="revision compared from")
    ap.add_argument("--new", default="HEAD", help="revision compared to")
    ap.add_argument("--runs", type=int, default=21,
                    help="timed runs of each command on each side")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    commits = {"old": git("rev-parse", args.old),
               "new": git("rev-parse", args.new)}
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix="startup_") as tmp:
        dirs = {side: Path(tmp) / side for side in commits}
        for side, rev in commits.items():
            unpack(rev, dirs[side])
        result = summarize(measure(dirs, args.runs))

    for name, res in result.items():
        sides = ", ".join(f"{s} {res[s]['median_ms']:.1f} ms"
                          for s in ("-", "old", "new") if s in res)
        change = f" ({res['change']:+.1%})" if "change" in res else ""
        print(f"{name}: {sides}{change}")
    machine = (f"{platform.platform()}, {os.cpu_count()} CPUs, Python "
               f"{platform.python_version()}; pinned to one CPU; wall times "
               f"of one process each, rounds alternating the sides")
    out = {"tool": "tools/startup.py", "commits": commits, "runs": args.runs,
           "machine": machine, "commands": {**CALLS, "bare": BARE},
           "medians": result}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
