"""Benchmark of the seifert CLI: end-to-end metrics, or a traced run.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is the checkout's src/,
started as `python -m seifert` with src on PYTHONPATH. With --trace 0 it
drives the CLI from outside, one child at a time, and reports the
end-to-end metrics. With --trace 1 it measures the import time of
seifert.cli and runs tracing.py for the per-layer metrics. Both check
every output. `--workload all` does both for every workload. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import checks
import procs
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 15  # timed empty-input runs per measurement; the median counts
IMPORT_RUNS = 9

# Block sizes: batch runs end on whole blocks of the generated corpus.
BLOCK = {"golden": 200, "index": workloads.INDEX_BLOCK, "wide": workloads.WIDE_BLOCK}


def percentile(values, q):
    """Nearest-rank percentile; failures are passed in as math.inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ms(value):
    # A failure sitting at a percentile missed it: report the limit.
    return 1000 * (procs.OP_LIMIT_S if math.isinf(value) else value)


def batch_outcomes(name, lines, run):
    """Check every answer; returns (latencies, failures by kind, report)."""
    first = {}
    unstable = set()
    for r in run.results:
        if r.output is not None:
            if first.setdefault(r.index, r.output) != r.output:
                unstable.add(r.index)
    wrong = {}
    for i, out in first.items():
        try:
            found = checks.report_problems(lines[i], json.loads(out))
        except ValueError:
            found = [f"not JSON: {out[:80]!r}"]
        if found:
            wrong[i] = found
    kinds = {"crash": 0, "timeout": 0, "wrong": 0}
    latencies = []
    for r in run.results:
        kind = r.failure or ("wrong" if r.index in wrong else None)
        if kind:
            kinds[kind] += 1
        latencies.append(math.inf if kind else r.seconds)
    notes = [f"wrong: {lines[i]}: {'; '.join(p)}" for i, p in list(wrong.items())[:5]]
    notes += [f"unstable: {lines[i]} answered differently between passes"
              for i in sorted(unstable)[:5]]
    notes += sorted({f"{r.failure}: {lines[r.index]} {r.detail}".strip()
                     for r in run.results if r.failure})[:5]
    if name == "golden" and len(first) == len(lines):
        digest = hashlib.sha256(b"".join(first[i] + b"\n" for i in range(len(lines))))
        passes = sum(1 for r in run.results if r.index == len(lines) - 1 and r.output)
        notes.append(f"golden sha256 {digest.hexdigest()} over {passes} identical passes")
    return latencies, kinds, notes, not unstable


def call_outcomes(ops, results):
    kinds = {"crash": 0, "timeout": 0, "wrong": 0}
    latencies = []
    notes = []
    for op, res in results:
        if res.code is None:
            kind, found = "timeout", ["timeout"]
        else:
            found = checks.call_problems(op.argv, res.code, res.stdout)
            kind = ("crash" if "Traceback" in res.stderr else "wrong") if found else None
        if kind:
            kinds[kind] += 1
            if len(notes) < 5:
                notes.append(f"{kind}: seifert {' '.join(op.argv)}: {'; '.join(found)}")
        latencies.append(math.inf if kind else res.seconds)
    return latencies, kinds, notes, True


def end_to_end(name, ops, seconds):
    env = procs.child_env(ROOT)
    reaper = procs.Reaper()
    setup_s = procs.median_empty_run(procs.seifert("report", "--stdin"), env, reaper,
                                     SETUP_RUNS)
    if name == "calls":
        results = []
        speed = procs.Speed()
        ref_s = wall_s = 0.0
        # Whole blocks only, so every run has the same mix of calls.
        while ((ref_s < seconds and wall_s < procs.WALL_CAP * seconds)
               or len(results) % workloads.CALLS_BLOCK):
            op = ops[len(results) % len(ops)]
            res = procs.run_call(procs.seifert(*op.argv), env, reaper, speed.limit())
            wall_s += res.seconds
            f = speed.factor()
            res.seconds = procs.OP_LIMIT_S if res.code is None else res.seconds * f
            ref_s += res.seconds
            results.append((op, res))
        latencies, kinds, notes, stable = call_outcomes(ops, results)
        extra = f"{len(results)} calls, one process each"
    else:
        argv = procs.seifert("report", "--stdin", unbuffered=True)
        run = procs.run_batch(argv, env, reaper, ops, BLOCK[name], seconds,
                              head=workloads.head(name))
        ref_s, wall_s = run.seconds, run.wall_s
        latencies, kinds, notes, stable = batch_outcomes(name, ops, run)
        extra = f"{run.processes} process(es); latency is per line, answer to answer"
    attempted = len(latencies)
    failed = sum(kinds.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "lines_per_s": ((attempted - failed) / ref_s, "1/s"),
        "call_p50_ms": (_ms(percentile(latencies, 0.5)), "ms"),
        "call_p90_ms": (_ms(percentile(latencies, 0.9)), "ms"),
        "peak_rss_mib": (reaper.peak_rss_kib / 1024, "MiB"),
    }
    # A wrong answer is a failed operation, like a crash or a timeout.
    # The run itself is incorrect when answers are not reproducible or
    # golden, which defines the same outputs, loses a line.
    correct = stable and not (name == "golden" and failed)
    info = [f"{attempted} operations in {ref_s:.2f} reference s = {wall_s:.2f} wall s; {extra}",
            f"failed_share {failed / attempted:.4f} ({failed} of {attempted}: "
            + ", ".join(f"{k} {v}" for k, v in kinds.items()) + ")"] + notes
    return correct, attempted, failed, metrics, info


def import_seconds(env):
    reaper = procs.Reaper()
    bare, full = (procs.median_empty_run([sys.executable, "-c", code], env, reaper,
                                         IMPORT_RUNS)
                  for code in ("pass", "import seifert.cli"))
    return full - bare


def traced(name, seed, seconds):
    env = procs.child_env(ROOT)
    import_s = import_seconds(env)
    spans = OUT / f"spans-{name}.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--spans", str(spans)]
    # The untraced pass takes the wide tail's 2-3 s plus 40% of `seconds`;
    # the traced pass repeats its operations at the tracing overhead,
    # measured at 1.1-1.4x.
    done = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=90 + 3 * seconds)
    if done.returncode != 0:
        raise RuntimeError(f"traced run failed:\n{done.stderr[-2000:]}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {k: tuple(v) for k, v in res["metrics"].items()}
    metrics["cli.import_s"] = (import_s, "s")
    info = [f"{res['requests']} operations traced (the base of the per_line "
            f"counts), {res['failed']} failed; spans in {spans.relative_to(ROOT)}",
            "largest self-time shares: " + ", ".join(
                f"{n} {s:.3f}" for s, n in res["top_self_share"])]
    info += [f"wrong: operation {i}: {'; '.join(p)}" for i, p in list(res["wrong"].items())[:5]]
    correct = not (name == "golden" and res["failed"])
    return correct, res["requests"], res["failed"], metrics, info


def describe(name, ops, seed, seconds, trace, result):
    correct, attempted, failed, metrics, info = result
    prov = workloads.provenance(name, ops)
    print(f"== {name} (seed {seed}, {seconds} s, trace {trace}): {prov['why']}")
    print(f"   generator: {prov['ranges']}")
    print(f"   {prov['lines']} operations generated; recognition paths: "
          + ", ".join(f"{k} {v:.3f}" for k, v in prov["path_share"].items()))
    for key, (value, unit) in metrics.items():
        print(f"   {key:<44} {value:>14.6g} {unit}")
    for line in info:
        print(f"   {line}")
    print(f"   correct {correct}")


def contract_line(result):
    correct, attempted, failed, metrics, _ = result
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def main(argv=None):
    ap = argparse.ArgumentParser(description="seifert CLI benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.ALL + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/seifert/__init__.py", str(workloads.GOLDEN))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a seifert checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    procs.pin_to_one_cpu()
    names = workloads.ALL if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    summary = {}
    for name in names:
        ops = workloads.generate(name, args.seed, ROOT)
        for trace in traces:
            if trace:
                result = traced(name, args.seed, args.seconds)
            else:
                result = end_to_end(name, ops, args.seconds)
            describe(name, ops, args.seed, args.seconds, trace, result)
            summary[f"{name}/trace{trace}"] = contract_line(result)
    if args.workload == "all":
        print(json.dumps({k: json.loads(v) for k, v in summary.items()}))
    else:
        print(summary.popitem()[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
