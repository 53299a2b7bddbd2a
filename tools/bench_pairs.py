"""Paired benchmark runs of two commits, summarized into one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workloads calls,golden --seeds 1-10 --pairs 1 --seconds 15 \
        --out BENCH_6.json

Both revisions are unpacked with `git archive REV | tar -x` into a
temporary directory (nothing is written into .git), byte-compiled alike,
and benchmarked with their own unchanged `perfbench/run.py --trace 0`.
For every workload and seed it runs --pairs pairs, alternating which side
goes first from one pair to the next. The output holds, per workload and
end-to-end metric, each side's median and quartiles, the number of pairs
the change won (ties count for neither side), every run's value, and the
failed share; plus both commits, the seeds and a machine note. With
--trace it also records one traced run (`--trace 1`, first seed) per
workload and side, with its per-layer metrics. Standard library only.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)],
                   check=True)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One run of the checkout's own benchmark; its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs, better):
    """Per metric: medians, quartiles, wins of the change, all values."""
    out = {}
    for name, direction in better.items():
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        out[name] = {"better": direction,
                     "parent_median": qp[1], "parent_quartiles": [qp[0], qp[2]],
                     "change_median": qc[1], "change_quartiles": [qc[0], qc[2]],
                     "change_wins": wins, "pairs": len(runs),
                     "parent_values": parent, "change_values": change}
    for side in ("parent", "change"):
        attempted = sum(r[side]["attempted"] for r in runs)
        failed = sum(r[side]["failed"] for r in runs)
        out[f"failed_share_{side}"] = failed / attempted if attempted else None
        out[f"all_correct_{side}"] = all(r[side]["correct"] for r in runs)
    return out


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision of the parent")
    ap.add_argument("--change", default="HEAD", help="revision of the change")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated perfbench workloads")
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,2,61")
    ap.add_argument("--pairs", type=int, default=1,
                    help="pairs per workload and seed")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", action="store_true",
                    help="add one traced run per workload and side")
    ap.add_argument("--note", default="", help="appended to the machine note")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) * args.pairs < 2:
        # the quartiles of a single value are undefined
        ap.error("each workload needs at least two pairs: give more --seeds "
                 "or --pairs")

    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", args.change)}
    workloads = args.workloads.split(",")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {side: Path(tmp) / side for side in commits}
        for side, rev in commits.items():
            unpack(rev, dirs[side])
        bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        report = {}
        turn = 0
        for workload in workloads:
            runs = []
            for seed in seeds:
                for _ in range(args.pairs):
                    order = ("parent", "change")[::1 if turn % 2 == 0 else -1]
                    turn += 1
                    pair = {"seed": seed, "first": order[0]}
                    for side in order:
                        pair[side] = run_bench(dirs[side], workload, seed,
                                               args.seconds, 0)
                    runs.append(pair)
                    moves = ", ".join(
                        f"{m} {pair['parent']['metrics'][m]:.4g} -> "
                        f"{pair['change']['metrics'][m]:.4g}" for m in better)
                    print(f"{workload} seed {seed} first {order[0]}: {moves}",
                          file=sys.stderr)
            report[workload] = summarize(runs, better)
            report[workload]["first"] = [r["first"] for r in runs]
            report[workload]["seeds"] = [r["seed"] for r in runs]
            if args.trace:
                report[workload]["traced"] = {
                    side: run_bench(dirs[side], workload, seeds[0],
                                    args.seconds, 1)["metrics"]
                    for side in commits}

    machine = (f"{platform.platform()}, {os.cpu_count()} CPUs, Python "
               f"{platform.python_version()}; run.py pins each run to one CPU "
               f"and reports times in its reference seconds")
    out = {"tool": "tools/bench_pairs.py", "commits": commits, "seeds": seeds,
           "pairs_per_seed": args.pairs, "seconds": args.seconds,
           "machine": machine + (f"; {args.note}" if args.note else ""),
           "workloads": report}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
