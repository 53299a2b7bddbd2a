"""Topological predicates: small and flat taxonomy, (P2-)irreducibility,
asphericity, finiteness and the incompressible-surface criterion.

A symbol is "small" when its Fuchsian quotient is finite; everything
small is recognized by name. The "flat" family is a fixed finite list
of symbols with special fiber-uniqueness behavior. Symbols outside both
families satisfy a uniform block of positivity results; the one refined
question, existence of an incompressible surface for sphere bases with
exactly three exceptional fibers, is decided by the first homology.
"""

from __future__ import annotations

from ._record import record
from .errors import ExcludedSpace, ValidityError
from .fst import CrossingPair
from .lens import _S2, lens_normalize, recognize_S2_symbol, sphere_h1_order
from .symbol import (ClassPart, EquivalenceMode, SeifertSymbol, normalize_symbol,
                     parse_symbol, symbols_equivalent)

_P2_N = ClassPart("N", "n", 1, "I")
_P2_O = ClassPart("O", "n", 1)


@record
class SmallResult:
    """A recognized small space: category key plus display name.

    order is the order of the fundamental group, None when it is infinite.
    """

    category: str
    name: str
    lens: object = None
    triple: tuple | None = None
    order: int | None = None


def _is_solid_torus_schema(s: SeifertSymbol) -> bool:
    return (s.is_bounded and s.class_part == _S2 and s.boundary_tori == 1
            and s.boundary_klein == 0 and len(s.pairs) <= 1)


def _platonic_order(b, pairs) -> int:
    """|e| (2/chi)^2 over a sphere with a platonic index triple.

    2/chi = 2 prod(mu) / (sum of pairwise products - prod(mu)) is the
    order N of the triangle group and |e| = |H1| / prod(mu), so the
    order is |H1| N^2 / prod(mu), in integers throughout.
    """
    m1, m2, m3 = (p.mu for p in pairs)
    prod = m1 * m2 * m3
    n = 2 * prod // (m1 * m2 + m1 * m3 + m2 * m3 - prod)
    return sphere_h1_order(b, pairs) * n * n // prod


def classify_small(s: SeifertSymbol):
    """Name the space when the Fuchsian quotient is finite, else None.

    The result carries the order of the fundamental group, None when it
    is infinite; a closed orientable space has a finite group exactly
    when its base orbifold is spherical and e != 0 (Seifert 1933; Scott,
    The geometries of 3-manifolds, 1983, section 3), and then the order
    is |e| (2/chi)^2. S3 has order 1, a lens space L(p,q) order p.
    Bounded: only the fibered solid torus (disk orbit, at most one
    exceptional fiber). Closed sphere orbits go through lens-space
    recognition and the platonic triple test. Projective-plane orbits
    with at most one exceptional fiber (mu, beta) are named by closed
    forms in t = |b mu - beta|, the sphere_h1_order of the same data
    (Orlik, Seifert Manifolds, 1972). Non-orientable total spaces have
    first homology Z + Z/gcd(2, t): P2xS1 when t is even, the twisted S2
    bundle over S1 when it is odd. Orientable ones are P3#P3 at t = 0;
    otherwise the group has order 4 mu t and its first homology order
    4 mu, cyclic exactly when t is odd, so the space is the lens space
    L(4n,2n-1) when t = 1 and a platonic prism space otherwise.
    """
    s = normalize_symbol(s)
    cp = s.class_part
    if s.is_bounded:
        if _is_solid_torus_schema(s):
            return SmallResult("fibered-solid-torus", "fibered solid torus")
        return None
    if cp == _S2:
        rec = recognize_S2_symbol(s)
        if rec.kind == "Generic":
            return None
        if rec.kind == "Platonic":
            return SmallResult("platonic", rec.name(), triple=rec.triple,
                               order=_platonic_order(s.obstruction, s.pairs))
        category = "lens" if rec.kind == "Lens" else rec.kind
        # p = 0 is S2xS1, the one infinite group here
        return SmallResult(category, rec.name(), lens=rec.lens,
                           order=rec.lens.p or None)
    if cp in (_P2_N, _P2_O) and s.fiber_count <= 1:
        # a missing fiber reads as (1,0), the index-2 count as (2,1)
        (f,) = s.expanded_pairs() or (CrossingPair(1, 0),)
        b = s.obstruction if cp.total == "O" else s.obstruction[0]
        t = sphere_h1_order(b, (f,))
        if cp == _P2_N:
            if t % 2 == 0:
                return SmallResult("P2xS1", "P2xS1")
            return SmallResult("twisted-S2-bundle", "twisted S2 bundle over S1")
        if t == 0:
            return SmallResult("P3#P3", "P3#P3")
        n = 4 * f.mu * t
        if t == 1:
            # the group order 4 mu is |H1|, so the group is cyclic
            return SmallResult("lens", f"L({n},{n // 2 - 1})",
                               lens=lens_normalize(n, n // 2 - 1), order=n)
        return SmallResult("platonic", f"platonic (2,2,{n // 4})",
                           triple=(2, 2, n // 4), order=n)
    return None


_FLAT_CLOSED_TEXT = [
    "(O,o,0 | -2, (2,1), (2,1), (2,1), (2,1))",
    "(O,o,1 | 0)",
    "(N,o,1 | (0,0))",
    "(N,o,1 | (1,0))",
    "(O,n,1 | -1, (2,1), (2,1))",
    "(N,n,I,1 | (0,2))",
    "(O,n,2 | 0)",
    "(N,n,I,2 | (0,0))",
    "(N,n,I,2 | (1,0))",
    "(N,n,II,2 | (0,0))",
    "(N,n,II,2 | (1,0))",
]

_FLAT_BOUNDED_TEXT = [
    "(O,o,0; m=1 | -, (2,1), (2,1))",
    "(O,o,0; m=2 | -)",
    "(N,o,0; m=0, kb=2 | -)",
    "(O,n,1; m=1 | -)",
    "(N,n,I,1; m=1 | -)",
]


def _freeze(texts):
    return frozenset(normalize_symbol(parse_symbol(t)) for t in texts)


_FLAT_CLOSED = _freeze(_FLAT_CLOSED_TEXT)
_FLAT_BOUNDED = _freeze(_FLAT_BOUNDED_TEXT)
_FLAT = _FLAT_CLOSED | _FLAT_BOUNDED


def is_flat(s: SeifertSymbol) -> bool:
    """Membership in the fixed flat family (eleven closed, five bounded)."""
    return normalize_symbol(s) in _FLAT


@record
class PredicateReport:
    small: str | None
    flat: bool
    pi1_finite: bool
    irreducible: bool
    p2_irreducible: bool
    aspherical: bool
    boundary_irreducible: bool
    has_incompressible_surface: bool
    named: str | None
    notes: tuple

    def __post_init__(self):
        if self.p2_irreducible and not self.irreducible:
            raise ValidityError("P2-irreducible requires irreducible")
        if self.aspherical and not self.p2_irreducible:
            raise ValidityError("aspherical requires P2-irreducible")
        if self.pi1_finite and self.aspherical:
            raise ValidityError("finite group excludes asphericity")


# (irreducible, p2_irreducible, aspherical, boundary_irreducible,
#  has_incompressible_surface); pi1_finite is the group order's
_SMALL_FLAGS = {
    "fibered-solid-torus": (True, True, True, False, False),
    "S3": (True, True, False, True, False),
    "lens": (True, True, False, True, False),
    "platonic": (True, True, False, True, False),
    "S2xS1": (False, False, False, True, True),
    "twisted-S2-bundle": (False, False, False, True, True),
    "P3#P3": (False, False, False, True, True),
    "P2xS1": (True, False, False, True, True),
}

_SMALL_NOTES = {
    "fibered-solid-torus": "boundary compresses: meridian disk",
    "S2xS1": "essential non-separating sphere counted as incompressible",
    "twisted-S2-bundle": "essential non-separating sphere counted as incompressible",
    "P3#P3": "essential summing sphere counted as incompressible",
    "P2xS1": "two-sided projective plane is incompressible",
}


def predicates(s: SeifertSymbol) -> PredicateReport:
    """Full predicate block for a symbol.

    Spaces that are not small satisfy the uniform positive block
    (irreducible, P2-irreducible, aspherical, boundary irreducible,
    infinite group, incompressible surface present), except that sphere
    bases with exactly three exceptional fibers contain an
    incompressible surface exactly when the first homology is infinite.
    Small spaces take their flags from a fixed per-space table, except
    pi1_finite, which is whether classify_small found a group order.
    """
    s = normalize_symbol(s)
    small = classify_small(s)
    flat = is_flat(s)
    notes = []
    if small is None:
        irr = p2 = asph = bd = True
        fin = False
        inc = True
        if s.is_closed and s.class_part == _S2 and len(s.pairs) == 3:
            inc = sphere_h1_order(s.obstruction, s.pairs) == 0
            notes.append("three-fiber sphere base: incompressible surface "
                         "exists exactly when first homology is infinite")
        return PredicateReport(None, flat, fin, irr, p2, asph, bd, inc,
                               None, tuple(notes))
    irr, p2, asph, bd, inc = _SMALL_FLAGS[small.category]
    note = _SMALL_NOTES.get(small.category)
    if note:
        notes.append(note)
    fin = small.order is not None
    return PredicateReport(small.category, flat, fin, irr, p2, asph, bd, inc,
                           small.name, tuple(notes))


def bounded_equivalent(s1: SeifertSymbol, s2: SeifertSymbol) -> bool:
    """Homeomorphism test for bounded symbols.

    For bounded spaces that are neither solid tori nor I-bundles over
    the torus or Klein bottle, homeomorphism, fiber-preserving
    homeomorphism and normalized-symbol equality (up to reversal in the
    orientable class) all coincide, so the test is symbol equality.
    The excluded inputs raise ExcludedSpace.
    """
    out = []
    for s in (s1, s2):
        s = normalize_symbol(s)
        if not s.is_bounded:
            raise ValidityError("bounded_equivalent needs bounded symbols")
        if _is_solid_torus_schema(s):
            raise ExcludedSpace("solid torus (fibered solid torus symbol)")
        if s in _FLAT_BOUNDED:
            raise ExcludedSpace("I-bundle over the torus or Klein bottle")
        out.append(s)
    return symbols_equivalent(out[0], out[1], EquivalenceMode.UNORIENTED_FIBER)
