"""Traced in-process pass over one workload, for the per-layer metrics.

Run as a child of run.py, with the checkout's src on PYTHONPATH:

    python perfbench/tracing.py --workload W --seed N --seconds S --spans PATH

It first runs the workload's operations untraced for part of the time,
then wraps every public function of each seifert module, in every
seifert.* namespace that holds it, and runs the same operations again.
Each call records a span (name, start, end, parent, request); one root
span per line or call carries the request id. Spans stay in memory and
are written to PATH at the end. Self time is a span's duration minus its
children's. The program's own source is not touched.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import signal
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import procs
import workloads

MODULES = ("symbol", "arith", "fst", "groups", "lens", "topology", "covers", "cli")

# Functions whose calls, self time and errors are reported.
REPORTED = {
    "symbol": ("parse_symbol", "normalize_symbol", "render_symbol"),
    "groups": ("pi1_presentation", "fuchsian_quotient", "abelianization",
               "presentation_text", "coset_enumerate"),
    "arith": ("smith_normal_form",),
    "lens": ("recognize_S2_symbol", "lens_normalize", "fibering_transform"),
    "fst": ("crossing_invariants",),
    "topology": ("classify_small", "predicates", "is_flat"),
    "covers": ("euler_sum",),
    "cli": ("build_report",),
}

UNTRACED_SHARE = 0.4  # of --seconds, for the untraced pass


class OpTimeout(Exception):
    """An operation ran past procs.OP_LIMIT_S."""


class Tracer:
    """Span recorder with per-name call, self-time, error and max totals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.open = []  # [span index, seconds spent in children]
        self.request = -1
        self.stats = {}  # name -> [calls, self_s, errors, max_s]
        self.count = Counter()

    def begin(self, name):
        parent = self.open[-1][0] if self.open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.open.append([len(self.spans) - 1, 0.0])

    def end(self, ok):
        idx, child = self.open.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        took = span[2] - span[1]
        if self.open:
            self.open[-1][1] += took
        st = self.stats.setdefault(span[0], [0, 0.0, 0, 0.0])
        st[0] += 1
        st[1] += took - child
        st[2] += not ok
        st[3] = max(st[3], took)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.end(ok)
            if hook:
                hook(self.count, args, result)
            return result
        return traced

    def close_all(self):
        """End spans an interrupted request left open."""
        while self.open:
            self.end(False)


def _snf_hook(count, args, result):
    count["snf_cells"] += args[0].rows * args[0].cols


def _coset_hook(count, args, result):
    count["cosets"] += result.cosets_used
    if result.is_finite:
        count["finite_cosets"] += result.cosets_used
        count["finite_order"] += result.order
    else:
        count["exceeded"] += 1


HOOKS = {"arith.smith_normal_form": _snf_hook,
         "groups.coset_enumerate": _coset_hook}


class _Json:
    """Stands in for the json module inside seifert.cli, so that report
    serialization is timed as cli.serialize."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def install(tracer):
    import seifert.cli  # noqa: F401  (the package __init__ does not load it)
    spaces = [m for n, m in sys.modules.items()
              if n == "seifert" or n.startswith("seifert.")]
    for short in MODULES:
        mod = sys.modules[f"seifert.{short}"]
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            traced = tracer.wrap(f"{short}.{name}", fn, HOOKS.get(f"{short}.{name}"))
            for space in spaces:
                for attr, value in list(vars(space).items()):
                    if value is fn:
                        setattr(space, attr, traced)
    cli = sys.modules["seifert.cli"]
    cli.json = _Json(tracer.wrap("cli.serialize", json.dumps))


def batch_op(line):
    """The loop body of `report --stdin` for one line."""
    cli = sys.modules["seifert.cli"]
    rep = cli.build_report(line, 100000)
    cli.json.dumps(rep)
    return rep


def call_op(call):
    cli = sys.modules["seifert.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_cli(list(call.argv))
    return code, out.getvalue()


def _alarm(signum, frame):
    raise OpTimeout()


def run_ops(ops, op, head, tracer=None, count=None, seconds=None):
    """Run ops in order as the end-to-end run does (the first `head` once,
    the rest cyclically), each under the per-operation limit.

    Stops after `count` ops, or once `seconds` have passed after the
    head, which always runs whole. Returns
    (elapsed seconds, [(op index, raised) per op run], {op index: first
    result or exception name}).
    """
    results = {}
    seq = []
    n = 0
    t0 = t_head = time.perf_counter()
    while (n < count) if count is not None else (n < head or time.perf_counter() - t_head < seconds):
        i = workloads.position(n, len(ops), head)
        if tracer:
            tracer.request = n
            tracer.begin("request")
        signal.setitimer(signal.ITIMER_REAL, procs.OP_LIMIT_S)
        ok = False
        try:
            results.setdefault(i, op(ops[i]))
            ok = True
        except Exception as exc:  # one failed operation must not end the pass
            results.setdefault(i, type(exc).__name__)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer:
            tracer.close_all() if not ok else tracer.end(True)
        seq.append((i, not ok))
        n += 1
        if n == head:
            t_head = time.perf_counter()
    return time.perf_counter() - t0, seq, results


def per_layer(tracer, requests) -> dict:
    def stat(name):
        return tracer.stats.get(name, (0, 0.0, 0, 0.0))  # calls, self_s, errors, max_s

    metrics = {}
    for short, names in REPORTED.items():
        for fn in names:
            calls, self_s, errors, _ = stat(f"{short}.{fn}")
            metrics[f"{short}.{fn}.calls"] = (calls, "count")
            metrics[f"{short}.{fn}.self_s"] = (self_s, "s")
            metrics[f"{short}.{fn}.errors"] = (errors, "count")
    for fn in ("symbol.normalize_symbol", "groups.pi1_presentation"):
        metrics[f"{fn}.per_line"] = (stat(fn)[0] / requests, "calls/line")
    c = tracer.count
    metrics["arith.smith_normal_form.cells"] = (c["snf_cells"], "count")
    metrics["arith.smith_normal_form.max_s"] = (stat("arith.smith_normal_form")[3], "s")
    metrics["groups.coset_enumerate.cosets"] = (c["cosets"], "count")
    metrics["groups.coset_enumerate.cosets_per_order"] = (
        c["finite_cosets"] / c["finite_order"] if c["finite_order"] else 0.0, "cosets/order")
    metrics["groups.coset_enumerate.exceeded"] = (c["exceeded"], "count")
    metrics["cli.serialize.self_s"] = (stat("cli.serialize")[1], "s")
    return metrics


def write_spans(spans, path):
    """Spans as rows of name index, start and end in microseconds from
    the first span, parent row (-1 for a root) and request id."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    rows = [[index[n], round((a - t0) * 1e6), round((b - t0) * 1e6), parent, req]
            for n, a, b, parent, req in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"names": names,
                   "fields": ["name", "start_us", "end_us", "parent", "request"],
                   "spans": rows}, fh, separators=(",", ":"))


def problems(name, ops, results) -> dict:
    """Op index -> list of output problems, for ops that returned."""
    out = {}
    for i, res in results.items():
        if isinstance(res, str):
            continue
        if name == "calls":
            found = checks.call_problems(ops[i].argv, res[0], res[1])
        else:
            found = checks.report_problems(ops[i], res)
        if found:
            out[i] = found
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.ALL)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    ops = workloads.generate(args.workload, args.seed, root)
    op = call_op if args.workload == "calls" else batch_op
    signal.signal(signal.SIGALRM, _alarm)
    import seifert.cli  # noqa: F401  (load before timing)

    head = workloads.head(args.workload)
    untraced_s, seq, first = run_ops(ops, op, head, seconds=args.seconds * UNTRACED_SHARE)
    n = len(seq)
    tracer = Tracer()
    install(tracer)
    traced_s, seq, _ = run_ops(ops, op, head, tracer=tracer, count=n)

    metrics = per_layer(tracer, n)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    wrong = problems(args.workload, ops, first)
    failed = sum(1 for i, raised in seq if raised or i in wrong)
    total_self = sum(st[1] for st in tracer.stats.values())
    top = sorted(((st[1] / total_self, name) for name, st in tracer.stats.items()),
                 reverse=True)[:8]
    write_spans(tracer.spans, Path(args.spans))
    print(json.dumps({"metrics": metrics, "requests": n, "failed": failed,
                      "wrong": {str(i): p for i, p in wrong.items()},
                      "top_self_share": top}))


if __name__ == "__main__":
    main()
