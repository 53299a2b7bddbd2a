"""Smoke test of the benchmark itself: every workload at minimal size.

    python3 perfbench/smoke.py

Runs run.py on each workload for one second with tracing off and on and
checks that the last line carries exactly the contract keys, that the
metric names and units are those BENCHMARK.json declares, and that
every span of the traced run lies inside its parent and shares its
request id. Then checks that the benchmark refuses to run, without a
result line, in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SCRATCH = ROOT / ".perfbench_out" / "smoke"


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def run(cwd, workload, trace):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload, trace, done, declared):
    if done.returncode != 0:
        fail(f"{workload} trace {trace} exited {done.returncode}: {done.stderr[-500:]}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: keys {sorted(res)}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and res["correct"] is True):
        fail(f"{workload} trace {trace}: {res['correct']} {res['attempted']} {res['failed']}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != declared:
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(declared))} "
             f"{[k for k in got if k in declared and got[k] != declared[k]]}")


def check_spans(workload):
    doc = json.loads((ROOT / ".perfbench_out" / f"spans-{workload}.json").read_text())
    names, rows = doc["names"], doc["spans"]
    if not rows:
        fail(f"{workload}: no spans")
    for i, (name, start, end, parent, request) in enumerate(rows):
        if end < start:
            fail(f"{workload}: span {i} ends before it starts")
        if parent < 0:
            if names[name] != "request":
                fail(f"{workload}: root span {i} is {names[name]}")
            continue
        p = rows[parent]
        if not (parent < i and p[1] <= start and end <= p[2] and p[4] == request):
            fail(f"{workload}: span {i} ({names[name]}) is not inside its parent")


def check_bare_directory():
    """Without the program's source the benchmark must fail cleanly."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    (SCRATCH / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, SCRATCH / "perfbench")
    done = run(SCRATCH, "golden", 0)
    shutil.rmtree(SCRATCH)
    if done.returncode == 0 or done.stdout.strip():
        fail(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {t: {m["name"]: m["unit"] for m in spec[key]}
                for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    if [w["name"] for w in spec["workloads"]] != list(workloads.ALL):
        fail("BENCHMARK.json workloads differ from workloads.ALL")
    for workload in workloads.ALL:
        for trace in (0, 1):
            check_result(workload, trace, run(ROOT, workload, trace), declared[trace])
        check_spans(workload)
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory refused")


if __name__ == "__main__":
    main()
