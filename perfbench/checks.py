"""Independent expected values for the benchmark's output checks.

Nothing here imports seifert: each fact is recomputed from the symbol
text with the package's documented conventions, so a wrong answer from
the program shows up as a mismatch rather than agreeing with itself.

Conventions (from the package docstrings): the Euler sum is
b + sum(c/a); the sphere-orbit first homology has order
|sum(c_i prod_{j!=i} a_j) - b prod a_i|; lens recognition follows the
sewing closed form p = |c1 a2 + c2 a1 - b a1 a2|, q = a1 u + (c1 - b a1) v
with a2 u - c2 v = 1; an (O,n,1 | b, (a,c)) prism group has order
4a|ba - c| (4|b| with no fiber).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

SKIP = object()  # a field this module does not model

_HEAD = re.compile(r"\(\s*([ON])\s*,\s*([on])\s*,\s*(?:(I{1,3})\s*,\s*)?(\d+)"
                   r"\s*(?:;\s*m=\s*(\d+)\s*(?:,\s*kb=\s*(\d+))?)?\s*\|(.*)\)\s*$")
_PAIR = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def parse(text: str) -> dict:
    """Symbol text -> total, orbit, subtype, genus, tori, klein, b, s, pairs.

    Class-O closed symbols come back in normal form: crossings reduced
    into [0, a) with the carry in b, index-1 pairs dissolved, pairs
    sorted. b is None for bounded symbols.
    """
    m = _HEAD.match(text.strip())
    if not m:
        raise ValueError(f"not a symbol: {text!r}")
    total, orbit, subtype, genus, tori, klein, tail = m.groups()
    tail = tail.strip()
    b = s = None
    if tail.startswith("-") and not tail[1:].lstrip()[:1].isdigit():
        rest = tail[1:]
    elif tail.startswith("("):
        close = tail.index(")") + 1
        b, s = map(int, _PAIR.match(tail[:close]).groups())
        rest = tail[close:]
    else:
        head = tail.split(",", 1)
        b = int(head[0])
        rest = "," + head[1] if len(head) > 1 else ""
    pairs = [tuple(map(int, p)) for p in _PAIR.findall(rest)]
    sym = {"total": total, "orbit": orbit, "subtype": subtype,
           "genus": int(genus), "tori": int(tori or 0), "klein": int(klein or 0),
           "b": b, "s": s, "pairs": pairs}
    if total == "O" and b is not None:
        out = []
        for a, c in pairs:
            b += c // a
            if a > 1:
                out.append((a, c % a))
        sym["b"] = b
        sym["pairs"] = sorted(out)
    return sym


def closed(sym) -> bool:
    return sym["tori"] == 0 and sym["klein"] == 0


def render_o(sym) -> str:
    """Normal-form text of a closed class-O symbol."""
    tail = "".join(f", ({a},{c})" for a, c in sym["pairs"])
    return f"(O,{sym['orbit']},{sym['genus']} | {sym['b']}{tail})"


def mirror_o(sym) -> dict:
    pairs = sorted((a, a - c) for a, c in sym["pairs"])
    return dict(sym, b=-len(sym["pairs"]) - sym["b"], pairs=pairs)


def class_label(sym) -> str:
    sub = f"{sym['subtype']}," if sym["subtype"] else ""
    return f"({sym['total']},{sym['orbit']},{sub}{sym['genus']})"


def euler_sum(sym):
    if not (closed(sym) and sym["total"] == "O"):
        return None
    e = Fraction(sym["b"]) + sum(Fraction(c, a) for a, c in sym["pairs"])
    return f"{e.numerator}/{e.denominator}"


def sphere_det(b, pairs) -> int:
    prod = 1
    for a, _ in pairs:
        prod *= a
    return abs(sum(c * prod // a for a, c in pairs) - b * prod)


def lens_q(b, pairs) -> int:
    """q of the sewing closed form, padding with ordinary (1,0) fibers."""
    (a1, c1), (a2, c2) = (list(pairs) + [(1, 0), (1, 0)])[:2]
    _, u, t = _egcd(a2, c2)  # a2 u + c2 t = 1, so v = -t
    return a1 * u - (c1 - b * a1) * t


def _egcd(x, y):
    """(g, s, t) with s x + t y = g = gcd(x, y), for x, y >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        k = x // y
        x, y = y, x - k * y
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return x, s0, t0


def lens_normal(p, q) -> int:
    q0 = q % p
    inv = pow(q0, -1, p)
    return min(q0, -q0 % p, inv, -inv % p)


_PLATONIC = {(2, 3, 3), (2, 3, 4), (2, 3, 5)}


def platonic(triple) -> bool:
    x, y, _ = sorted(triple)
    return (x, y) == (2, 2) or tuple(sorted(triple)) in _PLATONIC


def recognition(sym):
    """Expected `recognition` field, or SKIP where it is not modelled."""
    pairs = sym["pairs"]
    if not closed(sym):
        fibers = [p for p in pairs if p[0] > 1]
        if (sym["total"], sym["orbit"], sym["genus"], sym["tori"],
                sym["klein"]) == ("O", "o", 0, 1, 0) and len(fibers) <= 1:
            return "fibered solid torus"
        return None
    if sym["total"] == "N":
        return SKIP if (sym["orbit"], sym["subtype"], sym["genus"]) == ("n", "I", 1) else None
    b = sym["b"]
    if (sym["orbit"], sym["genus"]) == ("o", 0):
        if len(pairs) == 3:
            triple = tuple(sorted(a for a, _ in pairs))
            return "platonic ({},{},{})".format(*triple) if platonic(triple) else None
        if len(pairs) > 3:
            return None
        p = sphere_det(b, pairs)
        if p <= 1:
            return "S3" if p == 1 else "S2xS1"
        return f"L({p},{lens_normal(p, lens_q(b, pairs))})"
    if (sym["orbit"], sym["genus"]) == ("n", 1) and len(pairs) <= 1:
        if not pairs and b == 0:
            return "P3#P3"
        n = prism_order(sym)
        if n == 4 * (pairs[0][0] if pairs else 1):
            return f"L({n},{n // 2 - 1})"
        return f"platonic (2,2,{n // 4})"
    return None


def prism_order(sym) -> int:
    if not sym["pairs"]:
        return 4 * abs(sym["b"])
    (a, c), = sym["pairs"]
    return 4 * a * abs(sym["b"] * a - c)


def group_order(sym):
    """|pi1| of a closed class-O symbol, or None when the group is infinite."""
    pairs, b = sym["pairs"], sym["b"]
    if (sym["orbit"], sym["genus"]) == ("o", 0):
        if len(pairs) <= 2:
            return sphere_det(b, pairs) or None
        triple = [a for a, _ in pairs]
        if len(pairs) > 3 or not platonic(triple):
            return None
        order_n = Fraction(2) / (sum(Fraction(1, a) for a in triple) - 1)
        e = sum(Fraction(c, a) for a, c in pairs) - b
        return int(abs(e) * order_n ** 2) or None
    if (sym["orbit"], sym["genus"]) == ("n", 1) and len(pairs) <= 1:
        return prism_order(sym) or None
    return None


def _h1_problem(sym, h1):
    if not (closed(sym) and (sym["total"], sym["orbit"], sym["genus"]) == ("O", "o", 0)):
        return None
    det = sphere_det(sym["b"], sym["pairs"])
    parts = [] if h1 == "trivial" else h1.split(" + ")
    free = [x for x in parts if not x.startswith("Z/")]
    torsion = 1
    for x in parts:
        if x.startswith("Z/"):
            torsion *= int(x[2:])
    if det == 0:
        return None if free else f"h1 {h1!r}: expected a free part"
    if free or torsion != det:
        return f"h1 {h1!r}: expected finite of order {det}"
    return None


def report_problems(line: str, rep) -> list:
    """Mismatches between a report dict and the independent values."""
    if not isinstance(rep, dict) or "error" in rep:
        return [f"no report: {rep!r}"[:200]]
    sym = parse(line)
    want = {"input": line, "class_label": class_label(sym),
            "euler_sum": euler_sum(sym), "recognition": recognition(sym)}
    if closed(sym) and sym["total"] == "O":
        want["normalized"] = render_o(sym)
    out = []
    for key, value in want.items():
        if value is not SKIP and rep.get(key, SKIP) != value:
            out.append(f"{key}: got {rep.get(key)!r}, expected {value!r}")
    h1 = _h1_problem(sym, rep.get("h1", ""))
    if h1:
        out.append(h1)
    return out


def _text_report(stdout: str) -> dict:
    rep = {}
    for ln in stdout.splitlines():
        key, _, value = ln.partition(": ")
        if key not in rep and key not in ("note", "warning"):
            rep[key] = None if value == "null" else value
    return rep


def call_problems(argv, returncode: int, stdout: str) -> list:
    """Mismatches in one CLI call's exit code and output."""
    cmd = argv[0]
    text = stdout.strip()
    if cmd == "report":
        if returncode != 0:
            return [f"exit {returncode}, expected 0"]
        try:
            rep = json.loads(stdout) if "--json" in argv else _text_report(stdout)
        except ValueError:
            return ["report --json printed no JSON"]
        return report_problems(argv[-1], rep)
    if cmd == "normalize":
        want, code = render_o(parse(argv[1])), 0
    elif cmd == "equiv":
        s, t = parse(argv[1]), parse(argv[2])
        same = render_o(s) in (render_o(t), render_o(mirror_o(t)))
        want, code = ("equivalent", 0) if same else ("distinct", 1)
    elif argv[:2] == ("group", "order"):
        order = group_order(parse(argv[2]))
        budget = argv[argv.index("--max-cosets") + 1] if "--max-cosets" in argv else "100000"
        if order is None:
            want, code = f"not determined within {budget} cosets", 1
        else:
            want, code = str(order), 0
    else:
        raise ValueError(f"no check for {argv!r}")
    out = []
    if returncode != code:
        out.append(f"exit {returncode}, expected {code}")
    if text != want:
        out.append(f"printed {text[:80]!r}, expected {want!r}")
    return out
