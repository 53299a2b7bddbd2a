"""Fundamental groups of Seifert fibered spaces and their quotients.

The group of a fibered space is generated by a central-up-to-sign fiber
class h, the orbit surface generators, one loop per exceptional fiber and
one per boundary component. Deleting h gives the Fuchsian quotient, the
group of the orbit 2-orbifold. presentation_texts is the one writer of
relators: it writes the text of both presentations, as a report prints
them, straight from the normal form. pi1_presentation and
fuchsian_quotient read those texts back into Presentation values, so they
raise OutputTooLong exactly where it does, when an exponent passes the
interpreter's int-to-str digit limit; presentation_text renders any
Presentation. first_homology reads H1 off the symbol by folding the fibers
into a core of bounded size. abelianization, by Smith normal form of any
presentation's exponent sums, is the general tool and its test oracle.
A coset enumerator decides finiteness within a coset budget; it is library
API and the test oracle for the closed-form group order of
topology.classify_small, and the command line does not run it.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from math import gcd

from ._record import record
from .arith import IntMatrix, _chain, _two_row_factors, _xgcd, \
    smith_normal_form
from .errors import (InternalError, InvalidIndex, InvalidSurface, LimitTooSmall,
                     OutputTooLong, ValidityError)
from .symbol import SeifertSymbol, normalize_symbol

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


@record
class Presentation:
    """A finite presentation.

    relators are words, each a tuple of (generator_index, exponent)
    syllables with nonzero exponents and adjacent equal generators merged.
    """

    generators: tuple
    relators: tuple

    def __post_init__(self):
        n = len(self.generators)
        for word in self.relators:
            prev = None
            for g, e in word:
                if not 0 <= g < n:
                    raise ValidityError(f"generator index {g} out of range")
                if e == 0:
                    raise ValidityError("zero exponent syllable")
                if prev == g:
                    raise ValidityError("adjacent syllables not merged")
                prev = g


def presentation_text(p: Presentation) -> str:
    """Render like "< h, c1 | c1^2 h, c1 h c1^-1 h^-1 >".

    Raises OutputTooLong when an exponent has too many digits to print.
    """
    names = p.generators
    try:
        rels = ", ".join([" ".join([names[g] if e == 1 else f"{names[g]}^{e}"
                                    for g, e in w]) for w in p.relators])
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise OutputTooLong() from None
    return f"< {', '.join(names) or '-'} | {rels or '-'} >"


@record
class AbelianGroup:
    """Finitely generated abelian group: free rank plus torsion chain.

    torsion holds the invariant factors, each > 1 and dividing the next.
    """

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValidityError("negative rank")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValidityError("torsion factors must exceed 1")
            if i and d % self.torsion[i - 1] != 0:
                raise ValidityError("torsion factors must form a chain")

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        """Group order, or 0 when infinite."""
        if self.free_rank:
            return 0
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def describe(self) -> str:
        """Text like "Z^2 + Z/2 + Z/6"; raises OutputTooLong when a
        factor has too many digits to print."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        try:
            parts.extend(f"Z/{d}" for d in self.torsion)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise OutputTooLong() from None
        return " + ".join(parts) if parts else "trivial"


# ---------------------------------------------------------------------------
# Presentations of the fibered space and its quotient


def pi1_presentation(s: SeifertSymbol) -> Presentation:
    """Fundamental group presentation of the fibered space.

    Generator order: h, surface generators (a1, b1, ... or x1, ...), one
    c per exceptional fiber in sorted pair order (the index-2 count of a
    non-orientable symbol is written out as (2,1) pairs), one d per
    boundary component, torus boundaries first. Every non-fiber generator
    y gives the relator y h y^-1 h^-1 when it preserves the fiber
    orientation and y h y^-1 h when it reverses it. The first k
    orbit-surface generators reverse it, with k = 0 for (O,o), 1 for
    (N,o) of genus >= 1, every crosscap for (O,n) and 0, 1, 2 for
    (N,n,I), (N,n,II), (N,n,III); so does every Klein-bottle boundary
    generator; all others preserve it. Then each pair gives c^mu h^beta,
    and closed symbols add the single long relator ending in h^b. Read
    from the text presentation_texts(s)[0]: OutputTooLong when an
    exponent passes the interpreter's int-to-str digit limit.
    """
    return _presentation(presentation_texts(s)[0])


def _reversing_count(cp) -> int:
    """k: how many of the first orbit-surface generators reverse the fiber."""
    if cp.orbit == "o":
        return 1 if cp.total == "N" and cp.genus else 0
    return {None: cp.genus, "I": 0, "II": 1, "III": 2}[cp.subtype]


def _long_relator_exponent(s: SeifertSymbol) -> int:
    """The exponent of h that closes the long relator of a closed normal form.

    It is b for class O and the b of (b, s) for class N, so the relator
    reads c1 ... cn h^b. It alone decides the sign of b in the group:
    presentation_texts (and so pi1_presentation), first_homology and, for
    sphere_h1_order and _sewing_q, lens.recognize_S2_symbol,
    topology.classify_small and topology.predicates look it up at call
    time, and so do the builders of tests/presentation_oracle.py.
    """
    return s.obstruction if s.class_part.total == "O" else s.obstruction[0]


def fuchsian_quotient(s: SeifertSymbol) -> Presentation:
    """The quotient by the fiber class: the orbit 2-orbifold group.

    The group presentation with generator h deleted: conjugation
    relators collapse to y y^-1 and vanish, pair relators become c^mu,
    and the closed long relator loses its h tail. Read from the text
    presentation_texts(s)[1]: OutputTooLong when an exponent passes the
    interpreter's int-to-str digit limit.
    """
    return _presentation(presentation_texts(s)[1])


def _presentation(text: str) -> Presentation:
    """Read a text of presentation_texts back into a Presentation.

    Each syllable "name" or "name^e" of "< gens | rels >" becomes the
    pair (index of name, e); "-" stands for no generators or no relators.
    """
    gens, rels = text[2:-2].split(" | ")
    names = () if gens == "-" else tuple(gens.split(", "))
    index = {name: i for i, name in enumerate(names)}
    relators = []
    for word in () if rels == "-" else rels.split(", "):
        syllables = []
        for syllable in word.split(" "):
            name, _, e = syllable.partition("^")
            syllables.append((index[name], int(e) if e else 1))
        relators.append(tuple(syllables))
    return Presentation(names, tuple(relators))


def presentation_texts(s: SeifertSymbol) -> tuple:
    """(pi1 text, Fuchsian text): the one writer of the group relators,
    which pi1_presentation and fuchsian_quotient read back.

    The generators are h, the orbit-surface generators (a1, b1, a2, ...
    over an orientable orbit, x1, x2, ... over a non-orientable one),
    c1 ... cn and one d per boundary component. Each conjugation relator
    is y h y^-1 h^-1, or y h y^-1 h for a reversing generator, and vanishes
    in the quotient; each pair gives c^mu h^beta, and c^mu in the quotient;
    the long relator of a closed symbol loses its h tail in the quotient.
    Raises OutputTooLong when an exponent has too many digits to print.
    """
    s = normalize_symbol(s)
    cp = s.class_part
    pairs = s.expanded_pairs()
    if cp.orbit == "o":
        surface = [f"{x}{i}" for i in range(1, cp.genus + 1) for x in "ab"]
    else:
        surface = [f"x{i}" for i in range(1, cp.genus + 1)]
    c0 = 1 + len(surface)
    boundary = s.boundary_tori + s.boundary_klein
    names = (["h"] + surface + [f"c{i}" for i in range(1, len(pairs) + 1)]
             + [f"d{j}" for j in range(1, boundary + 1)])
    k = _reversing_count(cp)
    klein0 = len(names) - s.boundary_klein
    cs = names[c0:c0 + len(pairs)]
    try:
        rels = [f"{y} h {y}^-1 h" for y in names[1:k + 1]]
        rels += [f"{y} h {y}^-1 h^-1" for y in names[k + 1:klein0]]
        rels += [f"{y} h {y}^-1 h" for y in names[klein0:]]
        quotient = [f"{c}^{p.mu}" for c, p in zip(cs, pairs)]
        rels += [f"{c} h" if p.beta == 1 else f"{c} h^{p.beta}"
                 for c, p in zip(quotient, pairs)]
        if s.is_closed:
            if cp.orbit == "o":
                surface = [f"{a} {b} {a}^-1 {b}^-1"
                           for a, b in zip(names[1:c0:2], names[2:c0:2])]
            else:
                surface = [f"{x}^2" for x in names[1:c0]]
            word = surface + cs
            if word:
                quotient.append(" ".join(word))
            e = _long_relator_exponent(s)
            if e:
                word.append("h" if e == 1 else f"h^{e}")
            if word:
                rels.append(" ".join(word))
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise OutputTooLong() from None
    return (f"< {', '.join(names)} | {', '.join(rels) or '-'} >",
            f"< {', '.join(names[1:]) or '-'} | {', '.join(quotient) or '-'} >")


def abelianization(p: Presentation) -> AbelianGroup:
    """Abelianize any presentation by Smith normal form of its exponent sums.

    This is the general tool, and the test oracle of first_homology, which
    reads the same group off a symbol without building the matrix.

    Zero and repeated rows and columns change neither the rank nor the
    invariant factors, so only the distinct nonzero ones reach the Smith
    normal form; the free rank is the number of generators minus the rank.
    Each relator's exponent sums are gathered in one scratch row, read
    back as a sparse key of sorted (generator, sum) pairs and cleared, so
    the work before the Smith normal form is linear in the syllables plus
    the generators times the distinct nonzero rows. A pi1_presentation has
    at most one per pair plus two, whatever the genus: every surface and
    boundary generator gives a zero row or the row 2h.
    """
    n = len(p.generators)
    acc = [0] * n
    keys = {}
    for word in p.relators:
        for g, e in word:
            acc[g] += e
        key = []
        for g, _ in word:
            e = acc[g]
            if e:
                key.append((g, e))
                acc[g] = 0
        if key:
            key.sort()
            keys[tuple(key)] = None
    rows = []
    for key in keys:
        row = [0] * n
        for g, e in key:
            row[g] = e
        rows.append(row)
    cols = list(dict.fromkeys(filter(any, zip(*rows))))
    flat = tuple(chain.from_iterable(zip(*cols)))
    factors, _ = smith_normal_form(IntMatrix(len(rows), len(cols), flat))
    return AbelianGroup(n - len(factors), tuple(d for d in factors if d > 1))


def first_homology(s: SeifertSymbol) -> AbelianGroup:
    """H1 of the fibered space: abelianization(pi1_presentation(s)).

    Unimodular row and column operations on the exponent-sum rows of
    pi1_presentation, read straight from the normal form (Orlik, Seifert
    Manifolds, LNM 291, 1972):
    - Each surface and boundary generator is a free summand, except that
      the crosscaps of a closed non-orientable orbit enter the long row
      as 2y, with y = x1 + ... + xg. A fiber-reversing generator also
      gives the row 2h.
    - The pair rows mu c + beta h fold one at a time into a merged row
      M c + B h, which becomes lcm(M, mu) c + ((mu B + M beta) / g) h
      with g = gcd(M, mu) = x M + y mu. A fold with g > 1 leaves the side
      row g d + r h, r = (y beta - x B) mod g, whose column d is in no
      other row.
    - In a closed symbol the long row's unit on c eliminates the merged
      column. That leaves the core row (B - M b) h - 2M y, without the y
      term over an orientable orbit. In a bounded symbol the merged row
      is one more side row.
    - The side rows form a divisibility chain. A side row splits off as
      Z/g when its h-entry lies in the ideal generated by its index, the
      h-entries above it, the core's and 2 (when there is a row 2h).
    What is left is a few rows on h, y and the unsplit d. The core row
    alone, with no split factor, is Z/|core| (Z when core = 0). A core
    of at most two columns, the usual case, has its factors read from its
    determinantal divisors (gcds of its entries and of its 2 x 2 minors);
    only a wider one reaches the Smith normal form. So the cost is about
    linear in the fibers.
    """
    s = normalize_symbol(s)
    cp = s.class_part
    closed = s.is_closed
    two = 2 if _reversing_count(cp) or s.boundary_klein else 0
    ycol = closed and cp.orbit == "n"
    free = s.boundary_tori + s.boundary_klein + (
        2 * cp.genus if cp.orbit == "o" else cp.genus - ycol)
    pairs = s.pairs
    if closed and cp.total == "N":  # the index-2 count s
        pairs += ((2, 1),) * s.obstruction[1]
    side = []
    pure = []
    m, bh = 1, 0
    for mu, beta in pairs:
        g = gcd(m, mu)
        if g > 1:
            _, x, y = _xgcd(m, mu)
            _add_side_row(side, pure, g, (y * beta - x * bh) % g)
        m, bh = m // g * mu, (mu * bh + m * beta) // g
    if closed:
        core = bh - m * _long_relator_exponent(s)
    else:
        core = 0
        if m > 1:
            _add_side_row(side, pure, m, bh % m)
    # top down, t generates the ideal of the h-entries above a side row
    t = gcd(core, two)
    rest = []
    for g, r in reversed(side):
        if r % gcd(g, t):
            rest.append((g, r))
        else:
            pure.append(g)
        t = gcd(t, r)
    width = 1 + ycol + len(rest)
    if width == 1 and not pure and not two:  # the core row alone
        core = abs(core)
        return AbelianGroup(free + (core == 0), (core,) if core > 1 else ())
    if width <= 2:  # the columns h, then y or d, passed as rows
        a = [[r for _, r in rest] + [core, two]]
        if width == 2:
            a.append([g for g, _ in rest] + [-2 * m * ycol, 0])
        factors = _two_row_factors(a)
        defect = width - len(factors)
    else:
        rows = []
        for i, (g, r) in enumerate(rest):
            row = [0] * width
            row[0], row[1 + ycol + i] = r, g
            rows.append(row)
        if closed:
            rows.append([core] + [-2 * m] * ycol + [0] * len(rest))
        if two:
            rows.append([2] + [0] * (width - 1))
        factors, defect = smith_normal_form(
            IntMatrix(len(rows), width, tuple(chain.from_iterable(rows))))
    torsion = _chain(pure + list(factors))
    return AbelianGroup(free + defect, tuple(d for d in torsion if d > 1))


def _add_side_row(side, pure, g, r):
    """Insert the side row g d + r h into the chain side, in place.

    side holds (index, h-entry) rows whose indices strictly increase by
    divisibility. From the top down, a row whose index does not divide
    the new one trades it for gcd and lcm rows, the lcm staying and the
    gcd moving on: with G = gcd(g1, g2) = x g1 + y g2, the rows
    g1 d1 + r1 h and g2 d2 + r2 h become G d1 + (x r1 + y r2) h and
    lcm d2 + ((g1 r2 - g2 r1) / G) h. A row of index 1 drops out. Two
    rows of equal index become one row on the gcd of their h-entries and
    a row with none, a Z/g summand appended to pure.
    """
    i = len(side)
    while i:
        d, t = side[i - 1]
        if g % d == 0:
            break
        G, x, y = _xgcd(d, g)
        lcm = d // G * g
        side[i - 1] = (lcm, (d * r - g * t) // G % lcm)
        g, r = G, (x * t + y * r) % G
        i -= 1
        if g == 1:
            break
    if g > 1:
        side.insert(i, (g, r))
    j = 1
    while j < len(side):
        (a, u), (b, v) = side[j - 1], side[j]
        if a == b:
            side[j - 1:j + 1] = [(a, gcd(u, v))]
            pure.append(a)
        else:
            j += 1


# ---------------------------------------------------------------------------
# Coset enumeration


@record
class EnumerationResult:
    """Outcome of a coset enumeration over the trivial subgroup.

    outcome "finite": order is the group order, cosets_used the table
    slots consumed. outcome "exceeded": the table would have passed the
    budget; this is evidence, never proof, of an infinite group.
    """

    outcome: str
    order: int | None
    cosets_used: int

    @property
    def is_finite(self):
        return self.outcome == "finite"


def coset_enumerate(p: Presentation, max_cosets: int = 100000) -> EnumerationResult:
    """Enumerate cosets of the trivial subgroup.

    Relator-driven scan: every live coset is pushed through every relator,
    new cosets are created as edges are missing, and coincidences are
    merged through a union-find worklist. The budget counts cosets ever
    created, not just surviving ones. Raises LimitTooSmall when
    max_cosets < 1.
    """
    if max_cosets < 1:
        raise LimitTooSmall("coset budget must be at least 1")
    ngen = len(p.generators)
    ndir = 2 * ngen
    rels = []
    for g in range(ngen):
        rels.append((2 * g, 2 * g + 1))
        rels.append((2 * g + 1, 2 * g))
    for word in p.relators:
        dirs = []
        for g, e in word:
            d = 2 * g if e > 0 else 2 * g + 1
            dirs.extend([d] * abs(e))
        if dirs:
            rels.append(tuple(dirs))

    label = [0]
    nbr = [[-1] * ndir]
    created = 1

    def find(c):
        while label[c] != c:
            label[c] = label[label[c]]
            c = label[c]
        return c

    pending = []

    def unify(a, b):
        pending.append((a, b))
        while pending:
            x, y = pending.pop()
            x = find(x)
            y = find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            label[y] = x
            nx = nbr[x]
            ny = nbr[y]
            for d in range(ndir):
                t = ny[d]
                if t != -1:
                    if nx[d] == -1:
                        nx[d] = t
                    else:
                        pending.append((nx[d], t))

    def scan_and_fill(c, rel):
        """Trace rel from both ends, deducing or creating across the gap.

        Returns False when the coset budget ran out.
        """
        nonlocal created
        n = len(rel)
        f = c
        i = 0
        bwd = c
        j = n
        while True:
            while i < j:
                f = find(f)
                t = nbr[f][rel[i]]
                if t == -1:
                    break
                f = t
                i += 1
            if i == j:
                unify(f, bwd)
                return True
            while j > i:
                bwd = find(bwd)
                t = nbr[bwd][rel[j - 1] ^ 1]
                if t == -1:
                    break
                bwd = t
                j -= 1
            if j == i:
                unify(f, bwd)
                return True
            if j == i + 1:
                f = find(f)
                bwd = find(bwd)
                nbr[f][rel[i]] = bwd
                nbr[bwd][rel[i] ^ 1] = f
                return True
            if created >= max_cosets:
                return False
            t = len(label)
            label.append(t)
            nbr.append([-1] * ndir)
            created += 1
            f = find(f)
            nbr[f][rel[i]] = t
            nbr[t][rel[i] ^ 1] = f
            f = t
            i += 1

    idx = 0
    while idx < len(label):
        if find(idx) == idx:
            for rel in rels:
                if not scan_and_fill(idx, rel):
                    return EnumerationResult("exceeded", None, created)
                if find(idx) != idx:
                    break
        idx += 1
    live = sum(1 for i in range(len(label)) if find(i) == i)
    return EnumerationResult("finite", live, created)


# ---------------------------------------------------------------------------
# Triangle groups


@record
class TriangleInfo:
    """Geometry and size of the (p,q,r) triangle-rotation group.

    geometry is "spherical", "euclidean" or "hyperbolic".
    """

    indices: tuple
    geometry: str
    finite: bool
    order: int | None


def triangle_info(p: int, q: int, r: int) -> TriangleInfo:
    """Classify the triangle group with rotation orders p, q, r.

    The group is finite exactly in the spherical case 1/p + 1/q + 1/r > 1,
    with order 2 / (1/p + 1/q + 1/r - 1), 2/chi of the orbifold, computed
    in integers. Raises InvalidIndex below 2.
    """
    for v in (p, q, r):
        if v < 2:
            raise InvalidIndex(f"triangle index must be >= 2, got {v}")
    indices = tuple(sorted((p, q, r)))
    prod = p * q * r
    excess = q * r + p * r + p * q - prod  # prod (1/p + 1/q + 1/r - 1)
    if excess > 0:
        order, rest = divmod(2 * prod, excess)
        if rest:
            raise InternalError(f"triangle group order {2 * prod}/{excess}")
        return TriangleInfo(indices, "spherical", True, order)
    if excess == 0:
        return TriangleInfo(indices, "euclidean", False, None)
    return TriangleInfo(indices, "hyperbolic", False, None)


def triangle_presentation(p: int, q: int, r: int) -> Presentation:
    """The rotation presentation < u, v | u^p, v^q, (u v)^r >."""
    for v in (p, q, r):
        if v < 2:
            raise InvalidIndex(f"triangle index must be >= 2, got {v}")
    return Presentation(("u", "v"),
                        (((0, p),), ((1, q),), ((0, 1), (1, 1)) * r))


# ---------------------------------------------------------------------------
# Fuchsian signatures


@record
class FuchsianSignature:
    """Signature of a 2-orbifold group: surface plus cone degrees.

    s is twice the genus for orientable surfaces and the crosscap count
    otherwise; m counts boundary circles; degrees are the cone orders.
    """

    orientable: bool
    s: int
    m: int
    degrees: tuple

    def __post_init__(self):
        if self.s < 0 or self.m < 0:
            raise InvalidSurface("negative signature data")
        if self.orientable and self.s % 2 != 0:
            raise InvalidSurface("orientable signatures carry s = 2g, even")
        if not self.orientable and self.s < 1:
            raise InvalidSurface("non-orientable signatures need s >= 1")
        for d in self.degrees:
            if d < 2:
                raise InvalidSurface(f"cone degree must be >= 2, got {d}")


def signature_of_symbol(s: SeifertSymbol) -> FuchsianSignature:
    """Signature of the symbol's Fuchsian quotient."""
    s = normalize_symbol(s)
    cp = s.class_part
    degrees = tuple(sorted(p.mu for p in s.expanded_pairs()))
    size = 2 * cp.genus if cp.orbit == "o" else cp.genus
    return FuchsianSignature(cp.orbit == "o", size,
                             s.boundary_tori + s.boundary_klein, degrees)


def fuchsian_euler(sig: FuchsianSignature) -> Fraction:
    """Orbifold Euler characteristic (2 - s - m) - sum(1 - 1/d)."""
    from fractions import Fraction  # on first use: it loads decimal too
    chi = Fraction(2 - sig.s - sig.m)
    for d in sig.degrees:
        chi -= 1 - Fraction(1, d)
    return chi


class SizeClass(Enum):
    FINITE = "finite"
    ZERO_CHI = "zero-chi"
    NEGATIVE_CHI = "negative-chi"


_ZERO_CHI_TABLE = frozenset([
    (True, 0, 0, (2, 2, 2, 2)),
    (True, 0, 0, (2, 3, 6)),
    (True, 0, 0, (2, 4, 4)),
    (True, 0, 0, (3, 3, 3)),
    (True, 0, 1, (2, 2)),
    (True, 0, 2, ()),
    (True, 2, 0, ()),
    (False, 1, 0, (2, 2)),
    (False, 1, 1, ()),
    (False, 2, 0, ()),
])


def fuchsian_size_class(sig: FuchsianSignature) -> SizeClass:
    """Finite, zero-chi or negative-chi, by the sign of the characteristic.

    Positive characteristic means a finite quotient group; zero means
    infinite but with every subgroup-growth invariant flat; negative means
    word-hyperbolic-sized. The zero case is additionally cross-checked
    against the closed-form list of zero-characteristic signatures.
    """
    chi = fuchsian_euler(sig)
    if chi > 0:
        return SizeClass.FINITE
    if chi == 0:
        key = (sig.orientable, sig.s, sig.m, tuple(sorted(sig.degrees)))
        if key not in _ZERO_CHI_TABLE:
            raise InternalError(f"unexpected zero-chi signature {key}")
        return SizeClass.ZERO_CHI
    return SizeClass.NEGATIVE_CHI
