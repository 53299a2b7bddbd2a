"""Seifert symbols: parsing, validity, normal forms, equivalence.

A symbol packs the full classification data of a compact Seifert fibered
space: the class part (total-space orientability, orbit-surface
orientability, a subtype for non-orientable spaces over non-orientable
orbits, and the genus or crosscap count), the boundary profile (torus and
Klein bottle counts), the obstruction term, and the list of crossing pairs.

Text form: a token is a run of ASCII digits 0-9 or one other non-space
character. Whitespace separates tokens and is otherwise ignored, so "1 0"
is two integers while "N , n , I I ," reads as "N,n,II," and "- 5" as -5.
Each piece of this grammar is one regular expression. parse_symbol
matches the whole text with one pattern built from them; a walker that
matches the same pieces one at a time reads only text the pattern
refuses, and it alone names the error and its position, the start of the
token where a piece fails.

    symbol      := "(" class [";" bdry] "|" tail ")"
    class       := ("O,o," | "O,n," | "N,o," | "N,n,I," | "N,n,II," |
                    "N,n,III,") INT
    bdry        := "m=" INT ["," "kb=" INT]
    tail        := obstruction {"," pair}*
    obstruction := SIGNED_INT | "(" SIGNED_INT "," INT ")" | "-"
    pair        := "(" SIGNED_INT "," SIGNED_INT ")"
    INT         := one digit-run token
    SIGNED_INT  := ["+" | "-"] INT

Closed symbols of class O carry a plain integer obstruction b; closed class
N symbols carry (b, s) where b is 0 or 1 and s counts index-2 exceptional
fibers (a plain integer is accepted on input and read as (b, 0)); bounded
symbols carry "-". A "-" that a digit follows, with whitespace between
them or not, is the sign of b; any other "-" at the head of the tail is the
bounded marker. parse_symbol returns the marked normal form of the text;
normalize_symbol gives a value built by hand the same form.
"""

from __future__ import annotations

import re
from math import gcd

from ._record import record
from .errors import COUNT_LIMIT, CountTooLarge, InvalidSurface, ModeError, \
    NotOriented, OutputTooLong, ParseError, ValidityError
from .fst import CrossingPair

_INDEX_TWO = CrossingPair(2, 1)


@record
class ClassPart:
    """Class data: total space, orbit surface, subtype, genus.

    total is "O"/"N" for an orientable/non-orientable total space, orbit
    "o"/"n" likewise for the orbit surface. genus counts handles when the
    orbit is orientable and crosscaps when not. subtype distinguishes the
    classes of non-orientable spaces over non-orientable orbits: "I"
    (fiber orientation preserved over every crosscap), "II" (reversed over
    the first crosscap), "III" (reversed over the first two). It is
    present exactly for total N, orbit n.
    """

    total: str
    orbit: str
    genus: int
    subtype: str | None = None

    def __post_init__(self):
        total, orbit, genus, subtype = self
        if total not in ("O", "N"):
            raise ValidityError(f"total space flag must be O or N, got {total!r}")
        if orbit not in ("o", "n"):
            raise ValidityError(f"orbit flag must be o or n, got {orbit!r}")
        if genus < 0:
            raise ValidityError("negative genus")
        if total == "N" and orbit == "n":
            if subtype not in ("I", "II", "III"):
                raise ValidityError("class (N,n) needs subtype I, II or III")
        elif subtype is not None:
            raise ValidityError("subtype is only meaningful for class (N,n)")
        if orbit == "n" and genus < 1:
            raise ValidityError("non-orientable orbit needs at least 1 crosscap")
        if subtype == "II" and genus < 2:
            raise ValidityError("subtype II needs at least 2 crosscaps")
        if subtype == "III" and genus < 3:
            raise ValidityError("subtype III needs at least 3 crosscaps")

    def text(self) -> str:
        if self.subtype is None:
            return f"{self.total},{self.orbit},{self.genus}"
        return f"{self.total},{self.orbit},{self.subtype},{self.genus}"


@record
class SurfaceSpec:
    """A compact surface: orientability, genus or crosscaps, boundary count."""

    orientable: bool
    genus: int
    boundary: int = 0

    def __post_init__(self):
        if self.genus < 0 or self.boundary < 0:
            raise InvalidSurface("negative surface data")
        if not self.orientable and self.genus < 1:
            raise InvalidSurface("non-orientable surface needs >= 1 crosscap")


@record
class SeifertSymbol:
    """A Seifert symbol. Obstruction semantics depend on the class:

    closed, class O: obstruction is an integer b;
    closed, class N: obstruction is (b, s), b in {0,1}, s >= 0 counting
        index-2 fibers, with b = 0 whenever s > 0 in normal form;
    bounded: obstruction is None.
    _normal marks a normal form built by _normal_form, for parse_symbol and
    normalize_symbol. It is an instance attribute, not a field, so it takes
    no part in ==, hash or repr, and every new value (the constructor,
    replace) starts unmarked.
    """

    class_part: ClassPart
    boundary_tori: int
    boundary_klein: int
    obstruction: object
    pairs: tuple
    _normal = False

    def __post_init__(self):
        cp, tori, klein, obstruction, pairs = self
        if tori < 0 or klein < 0:
            raise ValidityError("negative boundary count")
        if klein % 2 != 0:
            raise ValidityError("Klein bottle boundary count must be even")
        if klein and cp.total == "O":
            raise ValidityError("orientable spaces have no Klein bottle boundaries")
        if cp.total == "N" and cp.orbit == "o" and cp.genus == 0 and klein < 2:
            raise ValidityError(
                "(N,o,0) admits no fiber-reversing loop without Klein boundaries")
        for p in pairs:
            if not isinstance(p, CrossingPair):
                raise ValidityError("pairs must be CrossingPair values")
        if tori > 0 or klein > 0:
            if obstruction is not None:
                raise ValidityError("bounded symbols carry no obstruction")
        elif cp.total == "O":
            if not isinstance(obstruction, int):
                raise ValidityError("closed orientable symbols need integer b")
        else:
            ok = (isinstance(obstruction, tuple) and len(obstruction) == 2
                  and all(isinstance(x, int) for x in obstruction)
                  and obstruction[1] >= 0)
            if not ok:
                raise ValidityError("closed non-orientable symbols need (b, s)")

    @property
    def is_bounded(self) -> bool:
        return self.boundary_tori > 0 or self.boundary_klein > 0

    @property
    def is_closed(self) -> bool:
        return not (self.boundary_tori or self.boundary_klein)

    @property
    def fiber_count(self) -> int:
        """Exceptional fibers listed plus the index-2 count s, if any."""
        counted = self.class_part.total == "N" and self.is_closed
        return len(self.pairs) + (self.obstruction[1] if counted else 0)

    def expanded_pairs(self) -> tuple:
        """Pairs with the s count written out, the one site that does so,
        as (2,1) entries sorted by (mu, beta); CountTooLarge past its limit."""
        cp, tori, klein, obstruction, pairs = self
        extra = obstruction[1] if cp.total == "N" and not (tori or klein) else 0
        if extra > COUNT_LIMIT:
            raise CountTooLarge(f"index-2 count over {COUNT_LIMIT}")
        if self._normal:
            # the pairs are sorted, and a closed class-N normal form lists
            # no index-2 pair, so the (2,1) entries come first
            return (_INDEX_TWO,) * extra + pairs
        return tuple(sorted([_INDEX_TWO] * extra + list(pairs)))


# ---------------------------------------------------------------------------
# Parsing


# The grammar's pieces, each written once: _SYMBOL matches the whole text
# with them and _walk_tokens one at a time. A class head captures itself
# without its trailing comma, an INT its digits, a SIGNED_INT its sign and
# digits. No two \s* meet, and every choice but a digit or whitespace run
# is decided by its first character, so refused text costs linear time.
_HEAD = r"(O\s*,\s*[on]|N\s*,\s*(?:o|n\s*,\s*I(?:\s*I){0,2}))\s*,"
_M, _KB = r"m\s*=", r"k\s*b\s*="
_INT = r"([0-9]+)"
_SIGNED_INT = rf"(?:([+-])\s*)?{_INT}"
_MARKER = r"-(?!\s*[0-9])"  # a "-" that a digit follows is the sign of b
_PAIR = re.compile(rf"\(\s*{_SIGNED_INT}\s*,\s*{_SIGNED_INT}")
_SYMBOL = re.compile(rf"""\s*\(\s*{_HEAD}\s*{_INT}
    (?:\s*;\s*{_M}\s*{_INT}(?:\s*,\s*{_KB}\s*{_INT})?)?
    \s*\|\s*
    (?:({_MARKER}) | \(\s*{_SIGNED_INT}\s*,\s*{_INT}\s*\) | {_SIGNED_INT})
    ((?:\s*,\s*{_PAIR.pattern}\s*\))*)
    \s*\)\s*""", re.VERBOSE)
_SPACE = r"\s*"  # compiled and cached by re on first use, as each piece is


def parse_symbol(text: str) -> SeifertSymbol:
    """Parse symbol text into a valid SeifertSymbol.

    Raises ParseError with the failing position for syntax problems and
    ValidityError for well-formed but meaningless data. The value is the
    marked normal form, equal to normalize_symbol of the data as written
    and built once, so normalize_symbol returns it unchanged.

    Well-formed text costs one pattern match and its int conversions.
    The walker, which matches the same pieces one at a time, reads only
    text the pattern refuses, a bounded symbol with a b or a closed one
    with "-", and an integer past the int-to-str digit limit: it names the
    error and its position.
    """
    m = _SYMBOL.fullmatch(text)
    if m is None:
        return _walk_tokens(text)
    # the groups past the tail are the last pair's
    head, genus, tori, klein, dash, b_sign, b, s_count, sign, b_plain, tail = \
        m.groups("")[:11]
    try:
        genus, tori, klein = int(genus), int(tori or 0), int(klein or 0)
        if b_plain:
            obstruction = int(sign + b_plain)
        elif b:
            obstruction = (int(b_sign + b), int(s_count))
        pairs = [(int(s1 + mu), int(s2 + beta))
                 for s1, mu, s2, beta in _PAIR.findall(tail)]
    except ValueError:  # past the interpreter's int-to-str digit limit
        return _walk_tokens(text)
    if (not dash) == (tori > 0 or klein > 0):  # the walker names the error
        return _walk_tokens(text)
    _check_pairs(pairs)
    return _symbol(head, genus, tori, klein, None if dash else obstruction,
                   pairs)


def _walk_tokens(text):
    """parse_symbol by matching the grammar's pieces one at a time, the one
    source of ParseError: it checks each piece as it reads it and raises
    at the start of the token where one fails, past any whitespace."""
    pos = re.compile(_SPACE).match(text).end()

    def take(piece):
        """Match piece at pos; a match moves pos on to the next token."""
        nonlocal pos
        m = re.compile(piece).match(text, pos)
        if m:
            pos = re.compile(_SPACE).match(text, m.end()).end()
        return m

    def expect(piece, what):
        m = take(piece)
        if m is None:
            raise ParseError(f"expected {what}", pos)
        return m

    def take_int(piece=_INT):
        m = expect(piece, "an integer")
        try:
            return int("".join(m.groups("")))
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ParseError(f"integer of {len(m.groups()[-1])} digits is "
                             f"too long to convert", m.start()) from None

    expect(r"\(", "'('")
    head = expect(_HEAD, "a class like O,o, or N,n,I,")[1]
    genus = take_int()
    tori = klein = 0
    if take(";"):
        expect(_M, "m=")
        tori = take_int()
        if take(","):
            expect(_KB, "kb=")
            klein = take_int()
    expect(r"\|", "'|'")
    bounded = tori > 0 or klein > 0
    if take(_MARKER):
        obstruction = None
        if not bounded:
            raise ValidityError('obstruction "-" is only for bounded symbols')
    elif bounded:  # the error points at b, past any "-" sign
        take("-")
        raise ParseError('bounded symbols start the tail with "-"', pos)
    elif take(r"\("):
        b = take_int(_SIGNED_INT)
        expect(",", "','")
        s_count = take_int()
        expect(r"\)", "')'")
        obstruction = (b, s_count)
    else:
        obstruction = take_int(_SIGNED_INT)
    pairs = []
    while take(","):
        expect(r"\(", "'('")
        mu = take_int(_SIGNED_INT)
        expect(",", "','")
        beta = take_int(_SIGNED_INT)
        expect(r"\)", "')'")
        _check_pairs([(mu, beta)])
        pairs.append((mu, beta))
    expect(r"\)", "')'")
    if pos < len(text):
        raise ParseError("trailing text after the symbol", pos)
    return _symbol(head, genus, tori, klein, obstruction, pairs)


def _check_pairs(pairs):
    for mu, beta in pairs:
        if mu < 1:
            raise ValidityError(f"fiber index must be >= 1, got {mu}")
        if gcd(mu, beta) != 1:
            raise ValidityError(f"pair ({mu},{beta}) is not coprime")


def _symbol(head, genus, tori, klein, obstruction, pairs):
    """The checks left once the pairs are read, in the walker's order, and
    the marked normal form. head is a class head like "N , n , II"."""
    total, orbit, *rest = "".join(head.split()).split(",")
    cp = ClassPart(total, orbit, genus, rest[0] if rest else None)
    if tori or klein:
        obstruction = (0, 0)
    elif isinstance(obstruction, int):
        obstruction = (obstruction, 0)
    elif cp.total == "O":
        raise ValidityError("closed orientable symbols take a plain integer b")
    return _normal_form(cp, tori, klein, *obstruction, pairs)


# ---------------------------------------------------------------------------
# Rendering


def render_symbol(s: SeifertSymbol) -> str:
    """Canonical text for a symbol; parse_symbol inverts it exactly.

    Raises OutputTooLong when an integer has too many digits to print.
    """
    try:
        head = s.class_part.text()
        if s.is_bounded:
            head += f"; m={s.boundary_tori}"
            if s.boundary_klein:
                head += f", kb={s.boundary_klein}"
            tail = ["-"]
        elif s.class_part.total == "O":
            tail = [str(s.obstruction)]
        else:
            b, ns = s.obstruction
            tail = [f"({b},{ns})"]
        tail += [f"({mu},{beta})" for mu, beta in s.pairs]
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise OutputTooLong() from None
    return f"({head} | " + ", ".join(tail) + ")"


# ---------------------------------------------------------------------------
# Normal form


def normalize_symbol(s: SeifertSymbol) -> SeifertSymbol:
    """Put a symbol, for instance one built by hand, into its unique
    normal form (parse_symbol returns that form already).

    Ordinary (index 1) pairs, always (1,0), drop out. Closed class-N
    symbols fold every beta into [0, mu/2], each fold adding one to b (a
    fiber-reversing loop turns (mu, beta) into (mu, -beta), which is
    (mu, mu - beta) plus the index-1 pair (1, -1)), move index-2 pairs
    into the count s, reduce b modulo 2 and zero it when s > 0. Bounded
    symbols keep beta modulo mu (class O) or folded (class N) with no
    obstruction. Listed pairs end up sorted by (mu, beta). Returns its
    argument when that is already a normal form built (and marked) here.
    """
    if s._normal:
        return s
    b, s_count = 0, 0
    if s.is_closed:
        b, s_count = s.obstruction if s.class_part.total == "N" \
            else (s.obstruction, 0)
    return _normal_form(s.class_part, s.boundary_tori, s.boundary_klein,
                        b, s_count, s.pairs)


def _normal_form(cp, tori, klein, b, s_count, pairs) -> SeifertSymbol:
    """The marked normal form of a symbol from its class part, boundary
    counts, b and s (both read only when closed) and its (mu, beta) pairs,
    which need only mu >= 1 and gcd(mu, beta) = 1. Each beta is reduced
    modulo mu with the carry moved into b before the steps of
    normalize_symbol, so every normal CrossingPair is built once."""
    closed = not (tori or klein)
    fold = cp.total == "N"
    kept = []
    for mu, beta in pairs:
        t = beta % mu
        b += beta // mu
        if mu == 1:
            continue  # (1,0) is an ordinary fiber
        if fold and 2 * t > mu:
            t = mu - t
            b += 1
        if fold and mu == 2 and closed:
            s_count += 1
            continue
        kept.append((mu, t))
    kept.sort()
    if not closed:
        obstruction = None
    elif not fold:
        obstruction = b
    else:
        obstruction = (0 if s_count else b % 2, s_count)
    ns = SeifertSymbol(cp, tori, klein, obstruction,
                       tuple([CrossingPair(mu, t) for mu, t in kept]))
    object.__setattr__(ns, "_normal", True)
    return ns


def reverse_orientation(s: SeifertSymbol) -> SeifertSymbol:
    """The same space with reversed orientation (class O symbols only).

    Closed: b goes to -n - b with n the number of listed pairs, and each
    pair (mu, beta) to (mu, mu - beta); applying this twice returns the
    original normalized symbol. Bounded: pairs are complemented and there
    is no obstruction to adjust.
    """
    if s.class_part.total != "O":
        raise NotOriented("non-orientable spaces carry no orientation")
    s = normalize_symbol(s)
    b = 0 if s.is_bounded else -len(s.pairs) - s.obstruction
    return _normal_form(s.class_part, s.boundary_tori, s.boundary_klein, b, 0,
                        [(p.mu, p.mu - p.beta) for p in s.pairs])


class EquivalenceMode:
    ORIENTED_FIBER = "oriented-fiber"
    UNORIENTED_FIBER = "unoriented-fiber"


def symbols_equivalent(s1: SeifertSymbol, s2: SeifertSymbol,
                       mode: str = EquivalenceMode.UNORIENTED_FIBER) -> bool:
    """Equivalence of symbols as fibered spaces.

    ORIENTED_FIBER: equality of normal forms; defined only when both
    symbols are class O (ModeError otherwise). UNORIENTED_FIBER: equality
    of normal forms up to orientation reversal for class O pairs; plain
    equality for class N, whose normal form already absorbed the only
    fiber-type fold.
    """
    n1 = normalize_symbol(s1)
    n2 = normalize_symbol(s2)
    if mode == EquivalenceMode.ORIENTED_FIBER:
        if s1.class_part.total != "O" or s2.class_part.total != "O":
            raise ModeError("oriented comparison needs class O on both sides")
        return n1 == n2
    if mode != EquivalenceMode.UNORIENTED_FIBER:
        raise ModeError(f"unknown mode {mode!r}")
    if n1 == n2:
        return True
    if n1.class_part.total == "O" and n2.class_part.total == "O":
        return n1 == reverse_orientation(n2)
    return False


# ---------------------------------------------------------------------------
# Classifying homomorphisms


@record
class ClassInfo:
    """One equivalence class of fiber-orientation behavior over a surface."""

    name: str
    class_code: str
    description: str


# Seifert's classes of fibrations over a closed surface, in order, by the
# orbit's orientability and the least genus or crosscap count carrying it
_CLASSES = (
    (True, 0, ClassInfo("trivial", "O,o",
                        "fiber orientation preserved along every loop")),
    (True, 1, ClassInfo("onto", "N,o", "a handle loop reverses fiber "
                        "orientation; total space non-orientable")),
    (False, 1, ClassInfo("trivial", "N,n,I", "fiber orientation preserved "
                         "along every loop; total space non-orientable")),
    (False, 1, ClassInfo("orientation", "O,n", "fiber orientation reversed "
                         "exactly along orientation-reversing loops; "
                         "total space orientable")),
    (False, 2, ClassInfo("one-crosscap", "N,n,II", "fiber orientation "
                         "reversed along the first crosscap loop only")),
    (False, 3, ClassInfo("two-crosscap", "N,n,III", "fiber orientation "
                         "reversed along the first two crosscap loops")),
)


def classifying_classes(g: SurfaceSpec):
    """The classes of homomorphisms pi1(G) -> Z/2 up to surface symmetry.

    These enumerate circle fibrations over G by how fiber orientation
    behaves along loops. A bounded surface reduces to its capped-off
    closed surface, so the result depends only on orientability and genus.
    """
    return tuple([info for orientable, least, info in _CLASSES
                  if orientable == g.orientable and g.genus >= least])


def total_space_orientability(c: ClassPart) -> str:
    """"O" when fiber-orientation behavior matches the orbit's orientation
    homomorphism along every loop, else "N": c.total, as ClassPart checks."""
    return c.total
