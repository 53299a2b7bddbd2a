"""Seeded workload generators and their provenance.

Every workload is a pure function of its seed. Random draws are
stratified (one draw per equal-probability stratum, in shuffled order),
so two seeds give different symbols with the same mix of shapes and
sizes, which keeps run-to-run cost steady. The program only ever sees the
generated text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import checks

GOLDEN = Path("tests") / "data" / "golden_symbols.txt"

# The enumeration budget stated for infinite `group order` calls.
CALL_MAX_COSETS = 20000

ALL = ("golden", "index", "wide", "calls")

WHY = {
    "golden": "the frozen 200-symbol corpus: representative mixed report "
              "--stdin traffic that defines same outputs",
    "index": "large-index lens and prism symbols: lens witness search and "
             "coset enumeration dominate, presentations and SNF are tiny",
    "wide": "many fibers and high genus over every class: SNF and "
            "presentation building dominate, recognition does nothing",
    "calls": "one fresh process per report/equiv/normalize/group order "
             "call: start-up is paid on every operation",
}

RANGES = {
    "golden": "tests/data/golden_symbols.txt in file order, repeated",
    "index": "one frozen block of 200 symbols, repeated, which each seed "
             "rewrites anew at every repeat (crossings shifted by multiples "
             "of their index, an index-1 pair, pairs and lines shuffled): "
             "64 one-fiber and 64 two-fiber (O,o,0) lens symbols with "
             "indices log-uniform in [2,400] and b in [-3,3]; 16 S3 and 7 "
             "S2xS1 edge cases; (O,o,0 | 1, (4,1), (4,1)), whose lens q "
             "the program gets wrong; 47 (O,n,1 | b, (a,c)) prisms with a "
             "log-uniform in [2,40] and b in [-2,2] by a fixed pattern over "
             "the a strata; and (O,n,1 | -4, (60,1)), over the default "
             "coset budget",
    "wide": "a frozen tail of 4 closed symbols, one per class, with "
            "10-12 fibers and a Smith normal form of 0.25-1 s, then one frozen draw of 2000 blocks, in which each "
            "seed shuffles the pairs of every symbol and the lines of every "
            "block; blocks of 20 symbols (closed (O,o) 4, (O,n) 4, (N,o) 3, "
            "(N,n,I/II/III) 3; bounded 6 over every class) with genus 1-8 "
            "and 4-5 fibers; indices 2-9",
    "calls": f"blocks of 20: 4 report, 3 report --json, 3 equiv, "
             f"2 normalize, 4 finite group order (binary polyhedral, "
             f"prism, lens), 4 infinite group order at "
             f"--max-cosets {CALL_MAX_COSETS}",
}

PATHS = ("lens_search", "prism_enum", "generic", "not_closed")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of the calls workload: argv after `seifert`."""

    argv: tuple
    symbol: str


def _strata(rng, n):
    """n draws in [0, 1), one per stratum of width 1/n, shuffled."""
    out = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _log_int(u, lo, hi):
    """Map u in [0, 1) log-uniformly onto the integers lo..hi."""
    return min(hi, int(math.exp(math.log(lo) + u * (math.log(hi + 1) - math.log(lo)))))


def _unit(rng, a):
    """A crossing number in [1, a) coprime to a."""
    while True:
        c = rng.randrange(1, a)
        if gcd(c, a) == 1:
            return c


def _pairs(pairs):
    return "".join(f", ({a},{c})" for a, c in pairs)


def sphere(b, pairs):
    return f"(O,o,0 | {b}{_pairs(pairs)})"


def _s3_two_fiber(a1, a2):
    """(O,o,0 | b, (a1,c1), (a2,c2)) with |c1 a2 + c2 a1 - b a1 a2| = 1."""
    c1 = pow(a2, -1, a1)
    c2 = pow(a1, -1, a2)
    b = (c1 * a2 + c2 * a1 - 1) // (a1 * a2)
    return sphere(b, [(a1, c1), (a2, c2)])


INDEX_BLOCK = 200

# Prism obstructions, following the index strata from the smallest, so
# that every block has the same spread of group orders.
_PRISM_B = (2, -1, 1, -2, 0, 2, -1, 1, -2, 1, -1)


def _index_block(rng):
    lines = []
    for u in _strata(rng, 64):
        a = _log_int(u, 2, 400)
        lines.append(sphere(rng.randint(-3, 3), [(a, _unit(rng, a))]))
    for u, v in zip(_strata(rng, 64), _strata(rng, 64)):
        a1, a2 = _log_int(u, 2, 400), _log_int(v, 2, 400)
        pairs = [(a1, _unit(rng, a1)), (a2, _unit(rng, a2))]
        lines.append(sphere(rng.randint(-3, 3), pairs))
    for u in _strata(rng, 12):
        a1 = _log_int(u, 2, 400)
        a2 = a1 + 1 + rng.randrange(a1)
        while gcd(a1, a2) != 1:
            a2 += 1
        lines.append(_s3_two_fiber(a1, a2))
    for _ in range(4):
        lines.append(sphere(rng.choice((-1, 1)), []))
        a = rng.randint(2, 400)
        c = _unit(rng, a)
        lines.append(sphere(1, [(a, c), (a, a - c)]))
    lines += [sphere(0, [])] * 3
    # L(8,3), which lens recognition reports as L(8,1) today. Random blocks
    # hold a symbol it gets wrong once in six; the frozen one held none,
    # and a fixed workload must not hide a known defect.
    lines.append(sphere(1, [(4, 1), (4, 1)]))
    strata = sorted(_strata(rng, 47))
    for i, u in enumerate(strata):
        a = _log_int(u, 2, 40)
        b = _PRISM_B[i * len(_PRISM_B) // len(strata)]
        lines.append(f"(O,n,1 | {b}, ({a},{_unit(rng, a)}))")
    # Group order 4a(4a + c) = 57840 > 50000: enumeration defines two to
    # three cosets per group element, so the default budget of 100000 runs
    # out. Running out, and the restart after the crash it causes, took
    # 0.4-0.7 s depending on a and c: one per 50 lines made it over half of
    # the workload's time, and a fresh draw per block its largest variance.
    lines.append("(O,n,1 | -4, (60,1))")
    rng.shuffle(lines)
    return lines


def _wide_pairs(rng, n):
    out = []
    for _ in range(n):
        a = rng.randint(2, 9)
        out.append((a, _unit(rng, a)))
    return out


def _wide_symbol(rng, total, orbit, bounded, genus, fibers):
    if total == "N" and orbit == "n":
        sub = rng.choice(("I", "II", "III"))
        head = f"N,n,{sub},{max(genus, len(sub))}"
    else:
        head = f"{total},{orbit},{genus}"
    if bounded:
        head += f"; m={rng.randint(1, 3)}"
        tail = "-"
    elif total == "O":
        tail = str(rng.randint(-5, 5))
    else:  # s counts index-2 fibers, which are part of the fiber count
        s = rng.randint(0, 2)
        fibers -= s
        tail = f"({rng.randint(0, 1)},{s})"
    return f"({head} | {tail}", _wide_pairs(rng, fibers)


def _wide_text(rng, symbol):
    """A wide symbol's text, its pairs in the order rng shuffles them to."""
    head, pairs = symbol
    pairs = list(pairs)
    rng.shuffle(pairs)
    return f"{head}{_pairs(pairs)})"


# Closed and bounded specs over every class: (total, orbit, bounded).
_WIDE_BULK = ([("O", "o", False)] * 4 + [("O", "n", False)] * 4
              + [("N", "o", False)] * 3 + [("N", "n", False)] * 3
              + [("O", "o", True), ("O", "n", True), ("N", "o", True),
                 ("N", "n", True)] + [("N", "n", True), ("O", "o", True)])
WIDE_BLOCK = len(_WIDE_BULK)

# The many-fiber tail: closed symbols with 10-12 fibers, one per class,
# whose Smith normal form takes hundreds of times a bulk line's. Such
# symbols cost anything from a millisecond to minutes, depending on the
# exact pairs: of 8 draws per class with 10 or 12 fibers, 9 of 64 ran
# past 3 s. A line past the per-operation limit would be a failure, and
# a run of a quarter minute cannot hold one of minutes, so these four
# are frozen and named: the first draw per class (stream "wide-tail",
# genus 1-8, fibers 10-12, the bulk's indices) whose report took 0.25 to
# 1 s in process on a 2-vCPU x86-64 virtual machine; there they took
# 0.24-0.28, 0.64-0.68, 0.55-0.77 and 0.42-0.55 s. Slower blow-ups, which
# this workload leaves out, include
#   (N,n,II,5 | (1,1), (2,1), (3,1), (5,2), (7,3), (4,1), (9,2), (3,2), (5,1), (8,3), (6,1))
#   (N,o,5 | (0,0), (4,3), (2,1), (9,8), (5,1), (7,3), (7,3), (7,6), (7,1), (3,2), (2,1), (9,2), (8,5))
#   (O,n,2 | 1, (9,1), (4,3), (5,4), (4,1), (2,1), (3,2), (9,7), (7,5), (8,5), (3,2))
# at about 4-6, 3 and 8 s. The tail opens every run once, as written
# here: the order of the pairs changes the cost.
WIDE_TAIL = (
    "(N,n,III,3 | (0,2), (5,4), (9,1), (3,2), (7,3), (4,3), (5,4), (3,1), (6,5))",
    "(N,o,6 | (0,2), (8,7), (7,1), (5,2), (4,1), (3,1), (7,2), (6,1), (3,1), (8,7), (6,5))",
    "(O,n,2 | 4, (9,8), (3,2), (6,1), (8,1), (6,1), (6,5), (2,1), (5,3), (5,3), (7,5), (4,1), (5,3))",
    "(O,o,2 | 0, (6,1), (6,1), (3,1), (9,4), (5,4), (5,3), (3,1), (2,1), (4,1), (7,4), (7,2))",
)


def _wide_block(rng):
    return [_wide_symbol(rng, *spec, genus=1 + int(ug * 8), fibers=4 + int(uf * 2))
            for spec, ug, uf in zip(_WIDE_BULK, _strata(rng, len(_WIDE_BULK)),
                                    _strata(rng, len(_WIDE_BULK)))]


# Finite groups for `group order`. Their orders follow
# |pi1| = |sum(c/a) - b| * N^2 for a spherical base of orbifold order N,
# 4a|ba - c| for (O,n,1) prisms and p for lens spaces, as checks.py
# computes them.
_BINARY_POLYHEDRAL = (
    sphere(1, [(2, 1), (3, 1), (3, 1)]),
    sphere(1, [(2, 1), (3, 1), (4, 1)]),
    sphere(1, [(2, 1), (3, 1), (5, 1)]),
    sphere(1, [(2, 1), (3, 2), (5, 2)]),
    sphere(1, [(2, 1), (2, 1), (5, 1)]),
)
_INFINITE = (
    sphere(-1, [(2, 1), (3, 1), (7, 1)]),
    sphere(-1, [(3, 1), (3, 1), (3, 1)]),
    sphere(-1, [(2, 1), (4, 1), (5, 1)]),
    "(O,o,1 | 0)",
)


def _random_oriented(rng):
    genus = rng.randint(0, 3)
    orbit = "o" if genus == 0 or rng.random() < 0.7 else "n"
    pairs = _wide_pairs(rng, rng.randint(0, 5))
    return f"(O,{orbit},{genus} | {rng.randint(-5, 5)}{_pairs(pairs)})"


def _rewrite(rng, text):
    """The same class-O symbol written differently: shuffled pairs, an
    index-1 pair and crossings shifted by multiples of their index, with
    the obstruction compensating."""
    sym = checks.parse(text)
    b = sym["b"]
    out = []
    for a, c in sym["pairs"]:
        k = rng.randint(-1, 2)
        out.append((a, c + k * a))
        b -= k
    k = rng.randint(-2, 2)
    out.append((1, k))
    b -= k
    rng.shuffle(out)
    return checks.render_o(dict(sym, b=b, pairs=out))


def _mirror(text):
    """Orientation reversal of a closed class-O symbol, in normal form."""
    return checks.render_o(checks.mirror_o(checks.parse(text)))


CALLS_BLOCK = 20


def _calls_block(rng, k):
    calls = []
    for _ in range(4):
        s = _random_oriented(rng)
        calls.append(Call(("report", s), s))
    for _ in range(3):
        s = _random_oriented(rng)
        calls.append(Call(("report", "--json", s), s))
    for kind in ("same", "mirror", "other"):
        s = _random_oriented(rng)
        if kind == "same":
            t = _rewrite(rng, s)
        elif kind == "mirror":
            t = _rewrite(rng, _mirror(s))
        else:
            t = _random_oriented(rng)
        calls.append(Call(("equiv", s, t), s))
    for _ in range(2):
        s = _rewrite(rng, _random_oriented(rng))
        calls.append(Call(("normalize", s), s))
    # The fixed groups rotate by block, so every run of a few blocks
    # meets each of them, its slowest and largest included.
    poly = [_BINARY_POLYHEDRAL[(2 * k + i) % len(_BINARY_POLYHEDRAL)] for i in (0, 1)]
    a = rng.randint(2, 9)
    c = _unit(rng, a)
    prism = f"(O,n,1 | {rng.randint(0, 1)}, ({a},{c}))"
    a2 = rng.randint(2, 9)
    c2 = _unit(rng, a2)
    # b <= 0 keeps |H1| = c a2 + c2 a - b a a2 positive: a finite lens space.
    lens = sphere(rng.randint(-1, 0), [(a, c), (a2, c2)])
    for s in poly + [prism, lens]:
        calls.append(Call(("group", "order", s), s))
    # The infinite calls are the slowest, by about 2x. Four in twenty put
    # call_p90_ms inside their range, not on the edge between them and the
    # rest, where with two in twenty it moved by a quarter between runs.
    for s in _INFINITE:
        calls.append(Call(("group", "order", s, "--max-cosets",
                           str(CALL_MAX_COSETS)), s))
    rng.shuffle(calls)
    return calls


# Blocks generated per seed: more than a run of up to a minute uses.
BLOCKS = {"index": 15, "wide": 2000, "calls": 20}


def head(name: str) -> int:
    """Leading operations that run once per run, before the repeating rest."""
    return len(WIDE_TAIL) if name == "wide" else 0


def position(n: int, count: int, head: int) -> int:
    """Index of the n-th operation run from a list of `count`: the first
    `head` once, then the rest cyclically."""
    return n if n < count else head + (n - head) % (count - head)


def _frozen_blocks(name):
    """The index and wide symbols, frozen draws shared by every seed.

    On index a lens witness search takes time linear in the position of
    its witness, which the exact pairs and obstruction decide; on wide a
    rare Smith normal form takes a hundred times the usual line. With a
    fresh draw per seed, the slowest lines moved call_p90_ms by a third on
    index and lines_per_s by a tenth on wide from seed to seed. The seed
    now only changes how each symbol is written and the order of the
    lines in each block. index repeats one block: a run gets through only
    five or six of its blocks, so blocks that differed moved its figures
    with their number.
    """
    rng = random.Random(name)
    if name == "index":
        return [_index_block(rng)] * BLOCKS[name]
    return [_wide_block(rng) for _ in range(BLOCKS[name])]


def generate(name: str, seed: int, root: Path):
    """The workload's operations: symbol lines for batch workloads, Call
    records for calls. golden ignores the seed: it is the frozen corpus."""
    if name == "golden":
        path = root / GOLDEN
        return [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    rng = random.Random(f"{name}:{seed}")
    if name == "calls":
        return [call for k in range(BLOCKS[name]) for call in _calls_block(rng, k)]
    out = list(WIDE_TAIL) if name == "wide" else []
    write = _rewrite if name == "index" else _wide_text
    for block in _frozen_blocks(name):
        block = [write(rng, sym) for sym in block]
        rng.shuffle(block)
        out.extend(block)
    return out


def recognition_path(line: str) -> str:
    """Which recognition route report takes for a symbol line.

    lens_search: closed (O,o,0) with at most two fibers. prism_enum:
    closed (O,n,1) with at most one fiber, except (O,n,1 | 0) = P3#P3.
    not_closed: bounded. generic: every other closed symbol.
    """
    sym = checks.parse(line)
    if not checks.closed(sym):
        return "not_closed"
    shape = (sym["total"], sym["orbit"], sym["genus"])
    fibers = len(sym["pairs"])  # class O: index-1 pairs are dissolved
    if shape == ("O", "o", 0) and fibers <= 2:
        return "lens_search"
    if shape == ("O", "n", 1) and fibers <= 1 and (fibers or sym["b"] != 0):
        return "prism_enum"
    return "generic"


def provenance(name: str, ops) -> dict:
    """Reason, generator ranges, size and recognition-path shares."""
    lines = [op.symbol if isinstance(op, Call) else op for op in ops]
    counts = dict.fromkeys(PATHS, 0)
    for ln in lines:
        counts[recognition_path(ln)] += 1
    return {
        "why": WHY[name],
        "ranges": RANGES[name],
        "lines": len(lines),
        "path_share": {k: v / len(lines) for k, v in counts.items()},
    }
