"""Fundamental groups of Seifert fibered spaces and their quotients.

The group of a fibered space is generated by a central-up-to-sign fiber
class h, the orbit surface generators, one loop per exceptional fiber and
one per boundary component. Deleting h gives the Fuchsian quotient, the
group of the orbit 2-orbifold, and that is how its presentation is
computed. Both come with exact abelianization via Smith normal form and a
coset enumerator for deciding finiteness within a coset budget. The
enumerator is library API and the test oracle for the closed-form group
order of topology.classify_small; the command line does not run it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain

from ._record import record
from .arith import IntMatrix, smith_normal_form
from .errors import (InternalError, InvalidIndex, InvalidSurface, LimitTooSmall,
                     ValidityError)
from .symbol import SeifertSymbol, normalize_symbol


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


def _word(*syllables):
    """Normalize a syllable list: merge adjacent, drop zero exponents."""
    out = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            e += out[-1][1]
            out.pop()
            if e == 0:
                continue
        out.append((g, e))
    return tuple(out)


def presentation_text(p: Presentation) -> str:
    """Render like "< h, c1 | c1^2 h, c1 h c1^-1 h^-1 >"."""
    names = p.generators

    def syll(g, e):
        name = names[g]
        return name if e == 1 else f"{name}^{e}"

    rel_texts = [" ".join(syll(g, e) for g, e in w) for w in p.relators]
    gens = ", ".join(p.generators) or "-"
    rels = ", ".join(rel_texts) or "-"
    return f"< {gens} | {rels} >"


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
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
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
    and closed symbols add the single long relator ending in h^b.
    """
    s = normalize_symbol(s)
    cp = s.class_part
    pairs = s.expanded_pairs()
    if cp.orbit == "o":
        surface = [f"{x}{i}" for i in range(1, cp.genus + 1) for x in "ab"]
        k = 1 if cp.total == "N" and cp.genus else 0
    else:
        surface = [f"x{i}" for i in range(1, cp.genus + 1)]
        k = {None: cp.genus, "I": 0, "II": 1, "III": 2}[cp.subtype]
    # h is generator 0, so the surface generators are 1 .. k .. c0 - 1
    c0 = 1 + len(surface)
    klein0 = c0 + len(pairs) + s.boundary_tori
    boundary = s.boundary_tori + s.boundary_klein
    names = (["h"] + surface + [f"c{i}" for i in range(1, len(pairs) + 1)]
             + [f"d{j}" for j in range(1, boundary + 1)])
    relators = [((y, 1), (0, 1), (y, -1), (0, 1 if y <= k or y >= klein0 else -1))
                for y in range(1, len(names))]
    relators += [_word((c0 + i, p.mu), (0, p.beta)) for i, p in enumerate(pairs)]
    if s.is_closed:
        if cp.orbit == "o":
            long_rel = [(y + d, e) for y in range(1, c0, 2)
                        for d, e in ((0, 1), (1, 1), (0, -1), (1, -1))]
        else:
            long_rel = [(y, 2) for y in range(1, c0)]
        b = s.obstruction if cp.total == "O" else s.obstruction[0]
        w = _word(*long_rel, *((c0 + i, 1) for i in range(len(pairs))), (0, b))
        if w:
            relators.append(w)
    return Presentation(tuple(names), tuple(relators))


def fuchsian_quotient(s: SeifertSymbol) -> Presentation:
    """The quotient by the fiber class: the orbit 2-orbifold group.

    The group presentation with generator h deleted: conjugation
    relators collapse to y y^-1 and vanish, pair relators become c^mu,
    and the closed long relator loses its h tail.
    """
    return _quotient_by_h(pi1_presentation(s))


def _quotient_by_h(p: Presentation) -> Presentation:
    """A pi1_presentation with generator h deleted and words re-merged."""
    relators = []
    for word in p.relators:
        w = _word(*((g - 1, e) for g, e in word if g != 0))
        if w:
            relators.append(w)
    return Presentation(p.generators[1:], tuple(relators))


def abelianization(p: Presentation) -> AbelianGroup:
    """Abelianize by Smith normal form of the exponent-sum matrix.

    Zero and repeated rows and columns change neither the rank nor the
    invariant factors, so only the distinct nonzero ones reach the Smith
    normal form; the free rank is the number of generators minus the rank.
    """
    n = len(p.generators)
    rows = {}
    for word in p.relators:
        row = [0] * n
        for g, e in word:
            row[g] += e
        if any(row):
            rows[tuple(row)] = None
    cols = list(dict.fromkeys(filter(any, zip(*rows))))
    flat = tuple(chain.from_iterable(zip(*cols)))
    factors, _ = smith_normal_form(IntMatrix(len(rows), len(cols), flat))
    return AbelianGroup(n - len(factors), tuple(d for d in factors if d > 1))


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
    with order 2 / (1/p + 1/q + 1/r - 1). Raises InvalidIndex below 2.
    """
    for v in (p, q, r):
        if v < 2:
            raise InvalidIndex(f"triangle index must be >= 2, got {v}")
    indices = tuple(sorted((p, q, r)))
    total = Fraction(1, p) + Fraction(1, q) + Fraction(1, r)
    if total > 1:
        order = Fraction(2) / (total - 1)
        if order.denominator != 1:
            raise InternalError(f"spherical triangle group order {order}")
        return TriangleInfo(indices, "spherical", True, int(order))
    if total == 1:
        return TriangleInfo(indices, "euclidean", False, None)
    return TriangleInfo(indices, "hyperbolic", False, None)


def triangle_presentation(p: int, q: int, r: int) -> Presentation:
    """The rotation presentation < u, v | u^p, v^q, (u v)^r >."""
    for v in (p, q, r):
        if v < 2:
            raise InvalidIndex(f"triangle index must be >= 2, got {v}")
    uv = []
    for _ in range(r):
        uv += [(0, 1), (1, 1)]
    return Presentation(("u", "v"),
                        (_word((0, p)), _word((1, q)), _word(*uv)))


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
