"""Child processes of the benchmark: the `seifert` CLI, timed from outside.

At most one `seifert` child runs at a time. Every child is reaped with
os.wait4, which also yields its peak resident set size.

Times are in reference seconds. The machine this was written on changed
speed by up to 1.75x within seconds (a co-tenant's load, not steal time),
so a raw wall time says as much about the neighbours as about the
program. The benchmark therefore pins itself and its children to one CPU
and times a fixed pure-Python loop on that CPU before and after each
measured interval; the interval's wall time is scaled by REF_NOMINAL_S
over the mean of those two timings. On a machine of steady speed a
reference second is a wall second times a constant.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import workloads

# A line or call that runs longer than this many reference seconds is
# killed and counted as a failure: a guard against hangs. The slowest
# operations in these workloads, the Smith normal forms of the wide tail,
# take about 0.8, ten times less, so every line completes and a run's
# failures do not depend on how many lines it gets through.
OP_LIMIT_S = 10.0

# A run measures `--seconds` reference seconds, but stops at this many
# times `--seconds` of wall time, so that it ends in bounded time on a
# machine slowed far below its usual speed.
WALL_CAP = 2.0

# Lines written ahead of the last answered one in batch mode, so the
# child never waits for input while the benchmark reads its output.
WINDOW = 8

# Wall time a batch runs between two reference timings. Slowdowns on the
# machine above lasted from about a second to about ten.
INTERVAL_S = 0.5

# The reference loop runs REF_LOOPS iterations. It took 30-40 ms on the
# 2-vCPU x86-64 virtual machine this was written on, and down to 17 ms
# in its fast spells; REF_NOMINAL_S makes a reference second about a
# wall second there.
REF_LOOPS = 6000
REF_NOMINAL_S = 0.030


def pin_to_one_cpu():
    """Run this process and every child on one CPU, so that the reference
    loop times the CPU the program runs on. The benchmark's own reading
    stays on that CPU too: reading from another, the wake-up of an idle
    CPU added about a millisecond to one line in eight."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop.

    The loop adds Fractions, fills a dict and sorts small tuples, the
    interpreter paths seifert spends its time in. Over 20 s stretches of
    golden traffic it followed the program's speed to within 2-3%, where
    a loop of integer arithmetic alone left a 6% spread. It is timed once,
    not best of several: the program runs at the machine's average speed,
    not at its best.
    """
    t0 = time.perf_counter()
    table = {}
    x = Fraction(1, 3)
    for i in range(1, REF_LOOPS):
        x += Fraction(1, i % 17 + 2)
        table[i % 97, i % 13] = x.numerator % 1000
        sorted(((i * 7) % 11, (i * 5) % 13, i % 3))
    return time.perf_counter() - t0


class Speed:
    """Scale factors from wall seconds to reference seconds, one per
    measured interval, from the reference timings on either side of it."""

    def __init__(self):
        self.last = reference_s()

    def limit(self) -> float:
        """OP_LIMIT_S in wall seconds at the last measured speed."""
        return OP_LIMIT_S * self.last / REF_NOMINAL_S

    def factor(self) -> float:
        """Factor for the interval that ended just now. Call it with no
        child busy: the reference loop shares the CPU with the children."""
        now = reference_s()
        f = 2 * REF_NOMINAL_S / (self.last + now)
        self.last = now
        return f


def child_env(root) -> dict:
    """The caller's environment without Python or seifert settings, plus
    the checkout's src on the path and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "SEIFERT"))}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def seifert(*args, unbuffered=False) -> list:
    # -u makes each batch answer visible as soon as it is printed, so
    # the benchmark knows which line is in flight when a child dies or hangs.
    return [sys.executable] + (["-u"] if unbuffered else []) + ["-m", "seifert", *args]


@dataclass
class Reaper:
    """Reaps children with os.wait4 and keeps the largest max-RSS seen."""

    peak_rss_kib: int = 0

    def wait(self, proc) -> int:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return proc.returncode


def _close(proc):
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream:
            try:
                stream.close()
            except BrokenPipeError:
                pass


def time_empty_run(argv, env, reaper) -> float:
    """Wall time of a run with empty stdin, spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    code = reaper.wait(proc)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{argv[1:]} exited {code} on empty input")
    return elapsed


@dataclass
class CallResult:
    seconds: float
    code: int | None  # None when killed at the limit
    stdout: str
    stderr: str


def run_call(argv, env, reaper, limit) -> CallResult:
    """One CLI call with no stdin, killed after `limit` wall seconds;
    stdout and stderr drained together."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + limit - time.perf_counter()
            ready = sel.select(left) if left > 0 else []
            if not ready:
                proc.kill()
                timed_out = True
                break
            for key, _ in ready:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    code = reaper.wait(proc)
    elapsed = time.perf_counter() - t0
    out, err = (b"".join(chunks[s]).decode(errors="replace")
                for s in (proc.stdout, proc.stderr))
    _close(proc)
    return CallResult(elapsed, None if timed_out else code, out, err)


def median_empty_run(argv, env, reaper, runs) -> float:
    """Median reference-second time of `runs` empty-input runs of argv,
    after one untimed run that compiles bytecode and warms caches."""
    time_empty_run(argv, env, reaper)
    speed = Speed()
    times = sorted(time_empty_run(argv, env, reaper) * speed.factor()
                   for _ in range(runs))
    return times[len(times) // 2]


@dataclass
class LineResult:
    """Outcome of one batch line: output bytes, or a failure kind."""

    index: int  # position in the workload's line list
    seconds: float  # since the previous answer, or since spawn
    output: bytes | None
    failure: str | None = None  # "crash" or "timeout"
    detail: str = ""  # last stderr line of a crashed child


@dataclass
class BatchRun:
    results: list = field(default_factory=list)
    processes: int = 0
    seconds: float = 0.0  # reference seconds
    wall_s: float = 0.0  # the same intervals in wall seconds


class _Intervals:
    """Measured intervals of a batch run, each closed by a reference
    timing that rescales the results and time it covered."""

    def __init__(self, run):
        self.run = run
        self.speed = Speed()
        self.first = 0  # first result of the open interval
        self.start = time.perf_counter()

    def measured(self) -> float:
        """Reference seconds so far, the open interval at the last speed."""
        open_s = (time.perf_counter() - self.start) * REF_NOMINAL_S / self.speed.last
        return self.run.seconds + open_s

    def due(self) -> bool:
        return time.perf_counter() - self.start >= INTERVAL_S

    def charge_limit(self, wall):
        """A line killed at the limit costs exactly OP_LIMIT_S: its wall
        time, which the limit set from a stale speed, leaves the interval."""
        self.start += wall
        self.run.wall_s += wall
        self.run.seconds += OP_LIMIT_S

    def close(self) -> float:
        wall = time.perf_counter() - self.start
        f = self.speed.factor()
        for r in self.run.results[self.first:]:
            r.seconds *= f
        self.run.seconds += wall * f
        self.run.wall_s += wall
        self.first = len(self.run.results)
        self.start = time.perf_counter()
        return self.start


def run_batch(argv, env, reaper, lines, block, seconds, head=0) -> BatchRun:
    """Stream `lines` through `report --stdin` children.

    The first `head` lines run once; the rest repeat cyclically. Stops
    writing at the first whole `block` of lines after the head reached
    once `seconds` reference seconds are measured (or WALL_CAP times that
    in wall time), so every run does about the same work, whatever the
    machine's speed, and ends on whole blocks. About every INTERVAL_S the
    benchmark stops writing, waits for the child to answer all it was
    sent, and times the reference loop while the child waits for input.
    When a child dies or stays silent past the operation limit on a line,
    that line is one failure and a fresh child resumes at the next line;
    restart time stays in the measured time.
    """
    def at(i):
        return workloads.position(i, len(lines), head)

    run = BatchRun()
    clock = _Intervals(run)
    cap = time.perf_counter() + WALL_CAP * seconds
    pos = 0
    stop_at = None
    while stop_at is None or pos < stop_at:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        run.processes += 1
        sent = acked = pos
        last = time.perf_counter()
        pending = b""
        err = b""
        failure = None
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while True:
                if stop_at is None and (clock.measured() >= seconds
                                        or time.perf_counter() >= cap):
                    stop_at = head + -(-(max(sent, head + 1) - head) // block) * block
                # Pause only a child past start-up, which then sits in a read.
                pause = stop_at is None and acked > pos and clock.due()
                if pause and acked == sent:
                    last = clock.close()
                    continue
                want = acked + WINDOW if stop_at is None else min(acked + WINDOW, stop_at)
                if proc.stdin and sent < want and not pause:
                    batch = "".join(lines[at(i)] + "\n" for i in range(sent, want))
                    sent = want
                    try:
                        proc.stdin.write(batch.encode())
                        proc.stdin.flush()
                    except BrokenPipeError:
                        pass
                if proc.stdin and stop_at is not None and sent >= stop_at:
                    _close_stdin(proc)
                left = last + clock.speed.limit() - time.perf_counter()
                ready = sel.select(left) if left > 0 else []
                if not ready:
                    proc.kill()
                    failure = "timeout"
                    clock.charge_limit(time.perf_counter() - last)
                    break
                eof = False
                for key, _ in ready:
                    data = os.read(key.fd, 65536)
                    if key.fileobj is proc.stderr:
                        if not data:
                            sel.unregister(proc.stderr)
                        err = (err + data)[-4096:]
                        continue
                    if not data:
                        eof = True
                        continue
                    now = time.perf_counter()
                    pending += data
                    *done, pending = pending.split(b"\n")
                    for out in done:
                        run.results.append(LineResult(at(acked), now - last, out))
                        acked += 1
                        last = now
                if eof:
                    failure = "crash" if acked < sent else None
                    break
        reaper.wait(proc)
        _close(proc)
        if failure:
            detail = err.decode(errors="replace").strip().splitlines()[-1:]
            run.results.append(LineResult(at(acked),
                                          time.perf_counter() - last, None,
                                          failure, "".join(detail)[:200]))
            acked += 1
        pos = acked
    clock.close()
    return run


def _close_stdin(proc):
    try:
        proc.stdin.close()
    except BrokenPipeError:
        pass
    proc.stdin = None
