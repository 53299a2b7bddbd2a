"""Seifert symbols: parsing, validity, normal forms, equivalence.

A symbol packs the full classification data of a compact Seifert fibered
space: the class part (total-space orientability, orbit-surface
orientability, a subtype for non-orientable spaces over non-orientable
orbits, and the genus or crosscap count), the boundary profile (torus and
Klein bottle counts), the obstruction term, and the list of crossing pairs.

Text form, whitespace ignored:

    symbol      := "(" class [";" bdry] "|" tail ")"
    class       := ("O,o," | "O,n," | "N,o," | "N,n,I," | "N,n,II," |
                    "N,n,III,") INT
    bdry        := "m=" INT ["," "kb=" INT]
    tail        := obstruction {"," pair}*
    obstruction := SIGNED_INT | "(" SIGNED_INT "," INT ")" | "-"
    pair        := "(" INT "," INT ")"
    INT         := one or more ASCII digits 0-9
    SIGNED_INT  := ["+" | "-"] INT

Closed symbols of class O carry a plain integer obstruction b; closed class
N symbols carry (b, s) where b is 0 or 1 and s counts index-2 exceptional
fibers (a plain integer is accepted on input and read as (b, 0)); bounded
symbols carry "-".
"""

from __future__ import annotations

from math import gcd

from ._record import record, replace
from .errors import InvalidSurface, ModeError, NotOriented, ParseError, \
    ValidityError
from .fst import CrossingPair

_CLASS_HEADS = ("O,o,", "O,n,", "N,o,", "N,n,I,", "N,n,II,", "N,n,III,")


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
        if self.total not in ("O", "N"):
            raise ValidityError(f"total space flag must be O or N, got {self.total!r}")
        if self.orbit not in ("o", "n"):
            raise ValidityError(f"orbit flag must be o or n, got {self.orbit!r}")
        if self.genus < 0:
            raise ValidityError("negative genus")
        if self.total == "N" and self.orbit == "n":
            if self.subtype not in ("I", "II", "III"):
                raise ValidityError("class (N,n) needs subtype I, II or III")
        elif self.subtype is not None:
            raise ValidityError("subtype is only meaningful for class (N,n)")
        if self.orbit == "n" and self.genus < 1:
            raise ValidityError("non-orientable orbit needs at least 1 crosscap")
        if self.subtype == "II" and self.genus < 2:
            raise ValidityError("subtype II needs at least 2 crosscaps")
        if self.subtype == "III" and self.genus < 3:
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
    _normal marks a normal form built by normalize_symbol. It is an
    instance attribute, not a field, so it takes no part in ==, hash or
    repr, and every new value (the constructor, replace) starts unmarked.
    """

    class_part: ClassPart
    boundary_tori: int
    boundary_klein: int
    obstruction: object
    pairs: tuple
    _normal = False

    def __post_init__(self):
        if self.boundary_tori < 0 or self.boundary_klein < 0:
            raise ValidityError("negative boundary count")
        if self.boundary_klein % 2 != 0:
            raise ValidityError("Klein bottle boundary count must be even")
        if self.boundary_klein and self.class_part.total == "O":
            raise ValidityError("orientable spaces have no Klein bottle boundaries")
        if self.class_part.total == "N" and self.class_part.orbit == "o" \
                and self.class_part.genus == 0 and self.boundary_klein < 2:
            raise ValidityError(
                "(N,o,0) admits no fiber-reversing loop without Klein boundaries")
        for p in self.pairs:
            if not isinstance(p, CrossingPair):
                raise ValidityError("pairs must be CrossingPair values")
        if self.is_bounded:
            if self.obstruction is not None:
                raise ValidityError("bounded symbols carry no obstruction")
        elif self.class_part.total == "O":
            if not isinstance(self.obstruction, int):
                raise ValidityError("closed orientable symbols need integer b")
        else:
            ok = (isinstance(self.obstruction, tuple)
                  and len(self.obstruction) == 2
                  and all(isinstance(x, int) for x in self.obstruction)
                  and self.obstruction[1] >= 0)
            if not ok:
                raise ValidityError("closed non-orientable symbols need (b, s)")

    @property
    def is_bounded(self) -> bool:
        return self.boundary_tori > 0 or self.boundary_klein > 0

    @property
    def is_closed(self) -> bool:
        return not self.is_bounded

    @property
    def fiber_count(self) -> int:
        """Exceptional fibers listed plus the index-2 count s, if any."""
        n = len(self.pairs)
        if self.is_closed and self.class_part.total == "N":
            n += self.obstruction[1]
        return n

    def expanded_pairs(self) -> tuple:
        """Pairs with the s count written out as explicit (2,1) entries."""
        extra = 0
        if self.is_closed and self.class_part.total == "N":
            extra = self.obstruction[1]
        return tuple(sorted([CrossingPair(2, 1)] * extra + list(self.pairs),
                            key=lambda p: (p.mu, p.beta)))

    def orbit_chi(self) -> int:
        g = self.class_part.genus
        m = self.boundary_tori + self.boundary_klein
        if self.class_part.orbit == "o":
            return 2 - 2 * g - m
        return 2 - g - m


# ---------------------------------------------------------------------------
# Parsing


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def expect(self, ch):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def try_take(self, ch):
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def take_int(self, signed=False):
        self._skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ParseError(f"integer of {self.pos - digits} digits is too "
                             f"long to convert", start) from None

    def take_word(self, words, what):
        self._skip_ws()
        # Match keywords even when interior whitespace splits them.
        for w in sorted(words, key=len, reverse=True):
            probe = self.pos
            matched = True
            for ch in w:
                while probe < len(self.text) and self.text[probe].isspace():
                    probe += 1
                if probe < len(self.text) and self.text[probe] == ch:
                    probe += 1
                else:
                    matched = False
                    break
            if matched:
                self.pos = probe
                return w
        raise ParseError(f"expected {what}", self.pos)

    def at_end(self):
        self._skip_ws()
        return self.pos >= len(self.text)


def parse_symbol(text: str) -> SeifertSymbol:
    """Parse symbol text into a valid SeifertSymbol.

    Raises ParseError with the failing position for syntax problems and
    ValidityError for well-formed but meaningless data. Crossing numbers
    are stored modulo their index with the carry moved into the
    obstruction (the data type cannot hold out-of-range values); the full
    normal form still requires normalize_symbol.
    """
    sc = _Scanner(text)
    sc.expect("(")
    head = sc.take_word(_CLASS_HEADS, "a class like O,o, or N,n,I,")
    parts = head.split(",")
    total, orbit = parts[0], parts[1]
    subtype = parts[2] if len(parts) == 4 else None
    genus = sc.take_int()
    boundary_tori = 0
    boundary_klein = 0
    if sc.try_take(";"):
        sc.take_word(("m=",), "m=")
        boundary_tori = sc.take_int()
        if sc.try_take(","):
            sc.take_word(("kb=",), "kb=")
            boundary_klein = sc.take_int()
    sc.expect("|")
    bounded = boundary_tori > 0 or boundary_klein > 0
    obstruction: object
    if sc.try_take("-") and sc.peek() not in "0123456789":
        obstruction = None
        if not bounded:
            raise ValidityError('obstruction "-" is only for bounded symbols')
    else:
        if sc.text[sc.pos - 1] == "-":
            sc.pos -= 1  # it was a sign, not the bounded marker
        if bounded:
            raise ParseError('bounded symbols start the tail with "-"', sc.pos)
        if sc.peek() == "(":
            sc.expect("(")
            b = sc.take_int(signed=True)
            sc.expect(",")
            s_count = sc.take_int()
            sc.expect(")")
            obstruction = (b, s_count)
        else:
            obstruction = sc.take_int(signed=True)
    pairs = []
    while sc.try_take(","):
        sc.expect("(")
        mu = sc.take_int(signed=True)
        sc.expect(",")
        beta = sc.take_int(signed=True)
        sc.expect(")")
        if mu < 1:
            raise ValidityError(f"fiber index must be >= 1, got {mu}")
        if gcd(mu, beta) != 1:
            raise ValidityError(f"pair ({mu},{beta}) is not coprime")
        pairs.append((mu, beta))
    sc.expect(")")
    if not sc.at_end():
        raise ParseError("trailing text after the symbol", sc.pos)

    cp = ClassPart(total, orbit, genus, subtype)
    if not bounded and cp.total == "N" and isinstance(obstruction, int):
        obstruction = (obstruction, 0)
    if not bounded and cp.total == "O" and isinstance(obstruction, tuple):
        raise ValidityError("closed orientable symbols take a plain integer b")

    carry = 0
    stored = []
    for mu, beta in pairs:
        t = beta % mu
        carry += (beta - t) // mu
        stored.append(CrossingPair(mu, t))
    stored.sort(key=lambda p: (p.mu, p.beta))
    if bounded:
        obstruction = None
    elif cp.total == "O":
        obstruction = obstruction + carry
    else:
        obstruction = (obstruction[0] + carry, obstruction[1])
    return SeifertSymbol(cp, boundary_tori, boundary_klein, obstruction,
                         tuple(stored))


# ---------------------------------------------------------------------------
# Rendering


def render_symbol(s: SeifertSymbol) -> str:
    """Canonical text for a symbol; parse_symbol inverts it exactly."""
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
    tail.extend(f"({p.mu},{p.beta})" for p in s.pairs)
    return f"({head} | " + ", ".join(tail) + ")"


# ---------------------------------------------------------------------------
# Normal form


def normalize_symbol(s: SeifertSymbol) -> SeifertSymbol:
    """Put a symbol into its unique normal form.

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
    cp = s.class_part
    fold = cp.total == "N"
    b, s_count = 0, 0
    if s.is_closed:
        b, s_count = s.obstruction if fold else (s.obstruction, 0)
    pairs = []
    for p in s.pairs:
        mu, beta = p.mu, p.beta
        if mu == 1:
            continue  # (1,0) is an ordinary fiber
        if fold and 2 * beta > mu:
            beta = mu - beta
            b += 1
        if fold and mu == 2 and s.is_closed:
            s_count += 1
            continue
        pairs.append(CrossingPair(mu, beta))
    pairs.sort(key=lambda p: (p.mu, p.beta))
    if s.is_bounded:
        obstruction = None
    elif cp.total == "O":
        obstruction = b
    else:
        obstruction = (0 if s_count else b % 2, s_count)
    ns = SeifertSymbol(cp, s.boundary_tori, s.boundary_klein, obstruction,
                       tuple(pairs))
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
    pairs = tuple(CrossingPair(p.mu, p.mu - p.beta) for p in s.pairs)
    b = None if s.is_bounded else -len(pairs) - s.obstruction
    return normalize_symbol(replace(s, obstruction=b, pairs=pairs))


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


def classifying_classes(g: SurfaceSpec, closed: bool = True):
    """The classes of homomorphisms pi1(G) -> Z/2 up to surface symmetry.

    These enumerate circle fibrations over G by how fiber orientation
    behaves along loops. A bounded surface reduces to its capped-off
    closed surface, so the result depends only on orientability and genus.
    """
    if closed and g.boundary > 0:
        raise InvalidSurface("closed flag set but the surface has boundary")
    if not closed and g.boundary == 0:
        raise InvalidSurface("bounded flag set but the surface is closed")
    if g.orientable:
        if g.genus == 0:
            return (ClassInfo("trivial", "O,o",
                              "fiber orientation preserved along every loop"),)
        return (
            ClassInfo("trivial", "O,o",
                      "fiber orientation preserved along every loop"),
            ClassInfo("onto", "N,o",
                      "a handle loop reverses fiber orientation; "
                      "total space non-orientable"),
        )
    classes = [
        ClassInfo("trivial", "N,n,I",
                  "fiber orientation preserved along every loop; "
                  "total space non-orientable"),
        ClassInfo("orientation", "O,n",
                  "fiber orientation reversed exactly along "
                  "orientation-reversing loops; total space orientable"),
    ]
    if g.genus >= 2:
        classes.append(ClassInfo(
            "one-crosscap", "N,n,II",
            "fiber orientation reversed along the first crosscap loop only"))
    if g.genus >= 3:
        classes.append(ClassInfo(
            "two-crosscap", "N,n,III",
            "fiber orientation reversed along the first two crosscap loops"))
    return tuple(classes)


def total_space_orientability(c: ClassPart) -> str:
    """"O" when fiber-orientation behavior matches the orbit's orientation
    homomorphism along every loop, else "N"."""
    if c.orbit == "o":
        # The orbit's orientation homomorphism is trivial, so the space is
        # orientable exactly for the trivial class.
        return c.total
    # Non-orientable orbit: only the orientation class matches, and that
    # class is the subtype-free (O,n).
    return "O" if c.subtype is None else "N"
