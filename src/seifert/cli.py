"""Command-line surface for the whole engine.

Exit codes: 0 success or positive answer, 1 well-formed negative answer
(distinct symbols, undetermined order), 2 malformed input, 3 precondition
failures (operation not defined for this symbol). No command enumerates
cosets: `group order` reads the order of a finite group off the small-space
recognition, and an infinite group gets the verdict "not determined within
N cosets", where N is the coset budget (100000 unless SEIFERT_MAX_COSETS or
--max-cosets says otherwise); enumeration within any budget never closes on
an infinite group.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .arith import ReducedFraction
from .covers import euler_sum, fiberless_cover, orientable_double_cover
from .errors import (InputError, LimitTooSmall, OutputTooLong,
                     PreconditionError, SeifertError)
from .fst import HomeoMode, fst_equivalent, fst_normalize, lift_fiber
from .groups import first_homology, presentation_texts
from .lens import GluingMatrix, fibering_transform, lens_normalize
from .symbol import (EquivalenceMode, normalize_symbol, parse_symbol,
                     render_symbol, reverse_orientation, symbols_equivalent)
from .topology import classify_small, predicates

BOUNDED_WARNING = ("bounded symbol: no obstruction slot; comparisons use the "
                   "folded normal form, which identifies fiber-orientation "
                   "reversals along the boundary")


def _frac(value: Fraction) -> str:
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise OutputTooLong() from None


def build_report(text: str, max_cosets: int = 100000) -> dict:
    """Assemble the full report dict, keys in schema order.

    max_cosets is unused: no part of a report enumerates cosets. It is
    kept so that existing positional callers keep working.
    """
    s = parse_symbol(text)
    ns = normalize_symbol(s)
    pred = predicates(ns)
    pi1, fuchsian = presentation_texts(ns)
    closed_o = ns.is_closed and ns.class_part.total == "O"
    es = _frac(euler_sum(ns).value) if closed_o else None
    warnings = [BOUNDED_WARNING] if ns.is_bounded else []
    pred_dict = pred._asdict()
    pred_dict["notes"] = list(pred.notes)
    return {
        "input": text,
        "normalized": render_symbol(ns),
        "class_label": f"({ns.class_part.text()})",
        "predicates": pred_dict,
        "pi1": pi1,
        "fuchsian": fuchsian,
        "h1": first_homology(ns).describe(),
        "euler_sum": es,
        "recognition": pred.named,
        "warnings": warnings,
    }


def _fmt_plain(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _print_report_text(rep: dict) -> None:
    for key in ("input", "normalized", "class_label"):
        print(f"{key}: {rep[key]}")
    for key, value in rep["predicates"].items():
        if key == "notes":
            for note in value:
                print(f"note: {note}")
            continue
        print(f"{key}: {_fmt_plain(value)}")
    for key in ("pi1", "fuchsian", "h1", "euler_sum", "recognition"):
        print(f"{key}: {_fmt_plain(rep[key])}")
    for w in rep["warnings"]:
        print(f"warning: {w}")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="seifert",
        description="Invariant calculus for compact Seifert fibered spaces")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical form of a symbol")
    p.add_argument("symbol")

    p = sub.add_parser("report", help="full classification report")
    p.add_argument("symbol", nargs="?")
    p.add_argument("--json", action="store_true")
    p.add_argument("--stdin", action="store_true",
                   help="read one symbol per line, emit JSON lines")

    p = sub.add_parser("equiv", help="compare two symbols")
    p.add_argument("symbol1")
    p.add_argument("symbol2")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--oriented", action="store_true")
    mode.add_argument("--unoriented", action="store_true")

    p = sub.add_parser("reverse", help="orientation reversal")
    p.add_argument("symbol")

    p = sub.add_parser("cover", help="cover constructions")
    csub = p.add_subparsers(dest="cover_kind", required=True)
    c = csub.add_parser("double", help="orientation double cover")
    c.add_argument("symbol")
    c = csub.add_parser("fiberless", help="cover without exceptional fibers")
    c.add_argument("symbol")
    c.add_argument("--sheets", type=int, required=True)

    p = sub.add_parser("lens", help="lens-space arithmetic")
    lsub = p.add_subparsers(dest="lens_kind", required=True)
    l = lsub.add_parser("normalize")
    l.add_argument("p", type=int)
    l.add_argument("q", type=int)
    l = lsub.add_parser("equiv")
    l.add_argument("p1", type=int)
    l.add_argument("q1", type=int)
    l.add_argument("p2", type=int)
    l.add_argument("q2", type=int)
    l = lsub.add_parser("fiber")
    for name in ("q", "r", "p", "s", "nu", "mu"):
        l.add_argument(name, type=int)

    p = sub.add_parser("group", help="fundamental-group computations")
    gsub = p.add_subparsers(dest="group_kind", required=True)
    for name in ("pi1", "fuchsian", "h1", "order"):
        g = gsub.add_parser(name)
        g.add_argument("symbol")
        if name == "order":
            # argparse applies type=int to this string default too
            g.add_argument("--max-cosets", type=int, default=os.environ.get(
                "SEIFERT_MAX_COSETS", "100000"))

    p = sub.add_parser("fst", help="fibered-solid-torus calculators")
    fsub = p.add_subparsers(dest="fst_kind", required=True)
    f = fsub.add_parser("equiv")
    for name in ("nu1", "mu1", "nu2", "mu2"):
        f.add_argument(name, type=int)
    mode = f.add_mutually_exclusive_group()
    mode.add_argument("--reverse", action="store_true")
    mode.add_argument("--any", action="store_true")
    f = fsub.add_parser("lift")
    for name in ("sigma", "nu", "mu"):
        f.add_argument(name, type=int)

    return top


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "normalize":
        print(render_symbol(normalize_symbol(parse_symbol(args.symbol))))
        return 0

    if cmd == "report":
        if args.stdin:
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                try:
                    rep = build_report(line)
                except SeifertError as exc:
                    rep = {"input": line, "error": str(exc)}
                sys.stdout.write(json.dumps(rep) + "\n")
            return 0
        if args.symbol is None:
            print("error: report needs a symbol or --stdin", file=sys.stderr)
            return 2
        rep = build_report(args.symbol)
        if args.json:
            print(json.dumps(rep, indent=2))
        else:
            _print_report_text(rep)
        return 0

    if cmd == "equiv":
        mode = (EquivalenceMode.ORIENTED_FIBER if args.oriented
                else EquivalenceMode.UNORIENTED_FIBER)
        same = symbols_equivalent(parse_symbol(args.symbol1),
                                  parse_symbol(args.symbol2), mode)
        print("equivalent" if same else "distinct")
        return 0 if same else 1

    if cmd == "reverse":
        print(render_symbol(reverse_orientation(parse_symbol(args.symbol))))
        return 0

    if cmd == "cover":
        s = parse_symbol(args.symbol)
        if args.cover_kind == "double":
            print(render_symbol(orientable_double_cover(s)))
            return 0
        fc = fiberless_cover(s, args.sheets)
        if fc.orbit_known:
            print(render_symbol(fc.symbol))
        else:
            print(f"obstruction {fc.obstruction}, orbit chi {fc.orbit_chi}, "
                  f"orbit undetermined")
        return 0

    if cmd == "lens":
        if args.lens_kind == "normalize":
            print(lens_normalize(args.p, args.q).display())
            return 0
        if args.lens_kind == "equiv":
            same = (lens_normalize(args.p1, args.q1)
                    == lens_normalize(args.p2, args.q2))
            print("equivalent" if same else "distinct")
            return 0 if same else 1
        mat = GluingMatrix(args.q, args.r, args.p, args.s)
        f1, f2 = fibering_transform(mat, ReducedFraction(args.nu, args.mu))
        print(f"{f1.frac} {f2.frac}")
        return 0

    if cmd == "group":
        s = parse_symbol(args.symbol)
        kind = args.group_kind
        if kind in ("pi1", "fuchsian"):
            pi1, fuchsian = presentation_texts(s)
            print(pi1 if kind == "pi1" else fuchsian)
            return 0
        if kind == "h1":
            print(first_homology(s).describe())
            return 0
        budget = args.max_cosets
        if budget < 1:
            raise LimitTooSmall("coset budget must be at least 1")
        small = classify_small(s)
        if small is not None and small.order is not None:
            print(small.order)
            return 0
        print(f"not determined within {budget} cosets")
        return 1

    if cmd == "fst":
        if args.fst_kind == "equiv":
            mode = HomeoMode.PRESERVE
            if args.reverse:
                mode = HomeoMode.REVERSE
            elif args.any:
                mode = HomeoMode.ANY
            t1 = fst_normalize(args.nu1, args.mu1, oriented=True)
            t2 = fst_normalize(args.nu2, args.mu2, oriented=True)
            same = fst_equivalent(t1, t2, mode)
            print("equivalent" if same else "distinct")
            return 0 if same else 1
        t = fst_normalize(args.nu, args.mu, oriented=True)
        count, lifted = lift_fiber(args.sigma, t)
        print(f"components {count} fiber {lifted.frac}")
        return 0

    raise AssertionError(f"unhandled command {cmd}")


def run_cli(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
