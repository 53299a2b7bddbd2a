"""Command-line surface for the whole engine.

Exit codes: 0 success or positive answer, 1 well-formed negative answer
(distinct symbols, undetermined order), 2 malformed input, 3 precondition
failures (operation not defined for this symbol). No command enumerates
cosets: `group order` reads the order of a finite group off the small-space
recognition, and an infinite group gets the verdict "not determined within
N cosets", where N is the coset budget (100000 unless SEIFERT_MAX_COSETS or
--max-cosets says otherwise); enumeration within any budget never closes on
an infinite group. perfbench/checks.py pins that verdict text, so it changes
only with the benchmark's definition.

A well-formed command line is read by _read_argv from the table
_LINES; anything else (help, a usage error, an abbreviated option, a
negative number) goes to argparse, which _parser builds from the same
table, so argparse alone writes usage, help and error text.
"""

from __future__ import annotations

import os
import sys
from math import gcd

from .arith import ReducedFraction
from .covers import _euler_terms, fiberless_cover, orientable_double_cover
from .errors import (InputError, LimitTooSmall, OutputTooLong,
                     PreconditionError, SeifertError)
from .fst import HomeoMode, fst_equivalent, fst_normalize, lift_fiber
from .groups import first_homology, presentation_texts
from .lens import GluingMatrix, fibering_transform, lens_normalize
from .symbol import (EquivalenceMode, normalize_symbol, parse_symbol,
                     render_symbol, reverse_orientation, symbols_equivalent)
from .topology import classify_small, predicates

# Every command line, by the words that name it, with its arguments in
# order: "x" is a positional, "x?" an optional one and "x:int" one read
# by int(); "--f" is a store_true flag and "--f|--g" two mutually
# exclusive ones; "--o N" is an option that takes an int, required
# unless _ENV_DEFAULTS gives its default.
_LINES = {
    ("normalize",): ("symbol",),
    ("report",): ("symbol?", "--json", "--stdin"),
    ("equiv",): ("symbol1", "symbol2", "--oriented|--unoriented"),
    ("reverse",): ("symbol",),
    ("cover", "double"): ("symbol",),
    ("cover", "fiberless"): ("symbol", "--sheets N"),
    ("lens", "normalize"): ("p:int", "q:int"),
    ("lens", "equiv"): ("p1:int", "q1:int", "p2:int", "q2:int"),
    ("lens", "fiber"): ("q:int", "r:int", "p:int", "s:int", "nu:int",
                        "mu:int"),
    ("group", "pi1"): ("symbol",),
    ("group", "fuchsian"): ("symbol",),
    ("group", "h1"): ("symbol",),
    ("group", "order"): ("symbol", "--max-cosets N"),
    ("fst", "equiv"): ("nu1:int", "mu1:int", "nu2:int", "mu2:int",
                       "--reverse|--any"),
    ("fst", "lift"): ("sigma:int", "nu:int", "mu:int"),
}
COMMANDS = tuple(dict.fromkeys(words[0] for words in _LINES))

# An option's environment variable, and its default when that is unset.
_ENV_DEFAULTS = {"--max-cosets": ("SEIFERT_MAX_COSETS", "100000")}

# The help lines of argparse's tree, by command words or option.
_HELP = {
    "normalize": "canonical form of a symbol",
    "report": "full classification report",
    "--stdin": "read one symbol per line, emit JSON lines",
    "equiv": "compare two symbols",
    "reverse": "orientation reversal",
    "cover": "cover constructions",
    "cover double": "orientation double cover",
    "cover fiberless": "cover without exceptional fibers",
    "lens": "lens-space arithmetic",
    "group": "fundamental-group computations",
    "fst": "fibered-solid-torus calculators",
}

# The json module, imported on first use by _json. It is a module global
# so that a caller can stand in for it: perfbench/tracing.py times
# serialization that way. Every path honours a stand-in: `report --stdin`
# then calls the stand-in's dumps on each line.
json = None

BOUNDED_WARNING = ("bounded symbol: no obstruction slot; comparisons use the "
                   "folded normal form, which identifies fiber-orientation "
                   "reversals along the boundary")


def _json():
    global json
    if json is None:
        import json
    return json


def _line_dumps():
    """json.dumps for the lines of one `report --stdin` batch.

    With the real json module and its C encoder, one encoder with dumps'
    default settings (circular check, ASCII output, ": " and ", ", no
    sorting, no skipped keys, NaN allowed) is built for the whole batch,
    where dumps builds one a call; the bytes are the same. Otherwise, a
    stand-in or an encoder of another signature, it is json.dumps.
    """
    module = _json()
    if module is sys.modules.get("json"):
        encoder = module.encoder
        if encoder.c_make_encoder is not None:
            try:
                encode = encoder.c_make_encoder(
                    {}, module.JSONEncoder().default,
                    encoder.encode_basestring_ascii, None, ": ", ", ",
                    False, False, True)
            except TypeError:
                pass
            else:
                return lambda rep: "".join(encode(rep, 0))
    return module.dumps


def _euler_text(s) -> str:
    """The Euler sum of a closed class-O symbol as reduced n/d: the text
    of euler_sum(s).value, without building a Fraction."""
    total, m = _euler_terms(s)
    g = gcd(total, m)
    try:
        return f"{total // g}/{m // g}"
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise OutputTooLong() from None


def build_report(text: str, max_cosets: int = 100000) -> dict:
    """Assemble the full report dict, keys in schema order.

    max_cosets is unused: no part of a report enumerates cosets. It is
    kept so that positional callers keep working, among them the
    benchmark's batch_op (perfbench/tracing.py), which passes 100000.
    """
    s = parse_symbol(text)
    ns = normalize_symbol(s)
    pred = predicates(ns)
    pi1, fuchsian = presentation_texts(ns)
    closed_o = ns.is_closed and ns.class_part.total == "O"
    es = _euler_text(ns) if closed_o else None
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


class _Args:
    """The parsed command line, as argparse's Namespace holds it."""

    def __init__(self, values):
        self.__dict__.update(values)


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _arguments(spec):
    """A row of _LINES as its positionals, its groups of store_true flags
    (a group of two is exclusive) and its options that take an int."""
    names = [arg for arg in spec if not arg.startswith("--")]
    groups = [arg.split("|") for arg in spec
              if arg.startswith("--") and " " not in arg]
    options = [arg.split()[0] for arg in spec if " " in arg]
    return names, groups, options


def _read_argv(argv):
    """The namespace _parser would make of a well-formed argv, or None.

    It declines wherever argparse could answer otherwise: help, a token
    that starts with "-" and is no option of the command (an abbreviation,
    --opt=value, a negative number, "-" or "--"), a wrong count of
    positionals, both flags of an exclusive pair, an option given twice or
    with no value, a missing required option and an int that int()
    refuses, the environment's default included.
    """
    words = tuple(argv[:2])
    if words not in _LINES:
        words = words[:1]
        if words not in _LINES:
            return None
    names, groups, options = _arguments(_LINES[words])
    flags = {flag for group in groups for flag in group}
    positionals, seen, given = [], set(), {}
    tokens = iter(argv[len(words):])
    for tok in tokens:
        if not tok.startswith("-"):
            positionals.append(tok)
        elif tok in flags:
            seen.add(tok)
        elif tok in options and tok not in given:
            given[tok] = next(tokens, "-")  # "-" for a missing value
            if given[tok].startswith("-"):
                return None
        else:
            return None
    if not (len([n for n in names if not n.endswith("?")])
            <= len(positionals) <= len(names)):
        return None
    values = {"command": words[0]}
    if len(words) == 2:
        values[f"{words[0]}_kind"] = words[1]
    for group in groups:
        if len(seen.intersection(group)) > 1:
            return None
        values.update((_dest(flag), flag in seen) for flag in group)
    try:
        for i, name in enumerate(names):
            name, _, kind = name.rstrip("?").partition(":")
            text = positionals[i] if i < len(positionals) else None
            values[name] = int(text) if kind else text
        for option in options:
            if option in given:
                text = given[option]
            elif option in _ENV_DEFAULTS:
                text = os.environ.get(*_ENV_DEFAULTS[option])
            else:
                return None
            values[_dest(option)] = int(text)
    except ValueError:
        return None
    return _Args(values)


def _add_parser(sub, words):
    # a help= keyword, even None, adds a line to the parent's help
    help = _HELP.get(" ".join(words))
    return sub.add_parser(words[-1], **({} if help is None else
                                        {"help": help}))


def _parser(command=None) -> argparse.ArgumentParser:
    """The argument parser, built from _LINES. Given the name of a command,
    it builds only that command's subparser under the top parser;
    otherwise (help, an unknown word, no argument) the whole tree. Usage
    lines list every command either way."""
    import argparse
    top = argparse.ArgumentParser(
        prog="seifert",
        description="Invariant calculus for compact Seifert fibered spaces")
    if command in COMMANDS:
        names = (command,)
        metavar = "{" + ",".join(COMMANDS) + "}"
    else:
        # argparse names the choices itself, and names the action
        # "command" when it is missing
        names, metavar = COMMANDS, None
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    kinds = {}
    for words, spec in _LINES.items():
        head = words[0]
        if head not in names:
            continue
        if len(words) == 1:
            p = _add_parser(sub, words)
        else:
            if head not in kinds:
                kinds[head] = _add_parser(sub, (head,)).add_subparsers(
                    dest=f"{head}_kind", required=True)
            p = _add_parser(kinds[head], words)
        positionals, groups, options = _arguments(spec)
        for arg in positionals:
            name, _, kind = arg.rstrip("?").partition(":")
            p.add_argument(name, nargs="?" if arg.endswith("?") else None,
                           type=int if kind else None)
        for group in groups:
            if len(group) == 1:
                p.add_argument(group[0], action="store_true",
                               help=_HELP.get(group[0]))
                continue
            exclusive = p.add_mutually_exclusive_group()
            for flag in group:
                exclusive.add_argument(flag, action="store_true")
        for option in options:
            if option in _ENV_DEFAULTS:
                # argparse applies type=int to this string default too
                p.add_argument(option, type=int, default=os.environ.get(
                    *_ENV_DEFAULTS[option]))
            else:
                p.add_argument(option, type=int, required=True)
    return top


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "normalize":
        print(render_symbol(normalize_symbol(parse_symbol(args.symbol))))
        return 0

    if cmd == "report":
        if args.stdin:
            dumps = _line_dumps()
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                try:
                    rep = build_report(line)
                except SeifertError as exc:
                    rep = {"input": line, "error": str(exc)}
                sys.stdout.write(dumps(rep) + "\n")
            return 0
        if args.symbol is None:
            print("error: report needs a symbol or --stdin", file=sys.stderr)
            return 2
        rep = build_report(args.symbol)
        if args.json:
            print(_json().dumps(rep, indent=2))
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
    """Run one command line and return its exit code; never ends the
    process."""
    args = _read_argv(argv)
    if args is None:
        try:
            args = _parser(argv[0] if argv else None).parse_args(argv)
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
    """The console script: run the command, flush its output, and end the
    process without interpreter teardown."""
    code = run_cli(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor is closed
                stream.flush()
    except OSError:
        # a reader closed the pipe: the interpreter's shutdown reports it
        sys.exit(code)
    os._exit(code)
