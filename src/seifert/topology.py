"""Topological predicates: small and flat taxonomy, (P2-)irreducibility,
asphericity, finiteness and the incompressible-surface criterion.

A symbol is "small" when its Fuchsian quotient is finite; everything
small is recognized by name. A symbol is "flat" when its base orbifold
has Euler characteristic 0 and its Euler number is 0. Symbols that are
not small satisfy a uniform block of positivity results; the one refined
question, existence of an incompressible surface for sphere bases with
exactly three exceptional fibers, is decided by the first homology.
"""

from __future__ import annotations

from . import groups
from ._record import record
from .covers import _euler_terms
from .errors import ExcludedSpace, ValidityError
from .fst import CrossingPair
from .lens import (_S2, SmallResult, _platonic, lens_normalize,
                   recognize_S2_symbol, sphere_h1_order)
from .symbol import (EquivalenceMode, SeifertSymbol, normalize_symbol,
                     symbols_equivalent)

_ORDINARY = CrossingPair(1, 0)


def _is_solid_torus_schema(s: SeifertSymbol) -> bool:
    return (s.is_bounded and s.class_part == _S2 and s.boundary_tori == 1
            and s.boundary_klein == 0 and len(s.pairs) <= 1)


def classify_small(s: SeifertSymbol) -> SmallResult | None:
    """Name the space when the Fuchsian quotient is finite, else None.

    The result carries the order of the fundamental group, None when it
    is infinite; a closed orientable space has a finite group exactly
    when its base orbifold is spherical and e != 0 (Seifert 1933; Scott,
    The geometries of 3-manifolds, 1983, section 3), and then the order
    is |e| (2/chi)^2. S3 has order 1, a lens space L(p,q) order p.
    Bounded: only the fibered solid torus (disk orbit, at most one
    exceptional fiber). Closed sphere orbits are named by
    lens.recognize_S2_symbol, which returns this record: lens spaces by
    their sewing, platonic spaces by a finite triangle group, whose order
    N is 2/chi, so the order is |H1| N^2 / prod(mu).
    Projective-plane orbits with at most one exceptional fiber (mu, beta)
    are named by closed forms in t = |x mu - beta|, x the long relator's
    h exponent: the sphere_h1_order of the same data (Orlik, Seifert
    Manifolds, 1972). Non-orientable total spaces have
    first homology Z + Z/gcd(2, t): P2xS1 when t is even, the twisted S2
    bundle over S1 when it is odd. Orientable ones are P3#P3 at t = 0;
    otherwise the group has order 4 mu t and its first homology order
    4 mu, cyclic exactly when t is odd, so the space is the lens space
    L(4n,2n-1) when t = 1 and a platonic prism space otherwise.
    """
    s = normalize_symbol(s)
    if s.is_bounded:
        if _is_solid_torus_schema(s):
            return SmallResult("fibered-solid-torus", "fibered solid torus")
        return None
    # closed: genus 0 over o is (O,o,0); one crosscap is (O,n,1) or (N,n,I,1)
    total, orbit, genus, _ = s.class_part
    if orbit == "o":
        return recognize_S2_symbol(s) if genus == 0 else None
    if genus == 1 and s.fiber_count <= 1:
        # a missing fiber reads as (1,0), the index-2 count as (2,1)
        (f,) = s.expanded_pairs() or (_ORDINARY,)
        t = sphere_h1_order(groups._long_relator_exponent(s), (f,))
        if total == "N":
            if t % 2 == 0:
                return SmallResult("P2xS1", "P2xS1")
            return SmallResult("twisted-S2-bundle", "twisted S2 bundle over S1")
        if t == 0:
            return SmallResult("P3#P3", "P3#P3")
        n = 4 * f.mu * t
        if t == 1:
            # the group order 4 mu is |H1|, so the group is cyclic
            params = lens_normalize(n, n // 2 - 1)
            return SmallResult("lens", params.display(), params, None, n)
        return _platonic((2, 2, n // 4), n)
    return None


def _zero_chi(s: SeifertSymbol) -> bool:
    """Whether the base orbifold of a normal form has chi^orb = 0.

    chi^orb is chi0 - sum(1 - 1/mu) over the n exceptional fibers, with
    chi0 = 2 - s - m the orbit surface's characteristic. Each term lies in
    [1/2, 1), so chi^orb = 0 needs n = chi0 = 0 or n <= 2 chi0 < 2n, and
    only then is the sum taken.
    """
    chi0 = (groups._surface_chi(s.class_part) - s.boundary_tori
            - s.boundary_klein)
    if chi0 < 0:
        return False
    n = s.fiber_count
    if not (n == chi0 == 0 or n <= 2 * chi0 < 2 * n):
        return False
    mus = [p.mu for p in s.expanded_pairs()]
    return groups._orbifold_chi_terms(chi0, mus)[0] == 0


def is_flat(s: SeifertSymbol) -> bool:
    """Whether the space is flat: chi^orb = 0 and e = 0.

    A closed Seifert space is Euclidean exactly when its base orbifold
    has chi^orb = 0 and its Euler number is 0 (Scott, The geometries of
    3-manifolds, 1983, Table 4.1). e is the Euler sum of a closed class-O
    symbol; a class-N symbol reads as e = 0, since its orientation double
    cover has Euler sum 0. The bounded symbols with chi^orb = 0 are the
    five I-bundles over the torus and the Klein bottle, all flat.
    """
    s = normalize_symbol(s)
    return _zero_chi(s) and (s.is_bounded or s.class_part.total == "N"
                             or _euler_terms(s)[0] == 0)


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


_SPHERE_NOTE = "essential non-separating sphere counted as incompressible"

# (irreducible, p2_irreducible, aspherical, boundary_irreducible,
#  has_incompressible_surface, note) per small category; the row None is
# a space that is not small, read as _NOT_SMALL: no name, no group order
_NOT_SMALL = SmallResult(None, None)
_PREDICATE_ROWS = {
    None: (True, True, True, True, True, None),
    "fibered-solid-torus": (True, True, True, False, False,
                            "boundary compresses: meridian disk"),
    "S3": (True, True, False, True, False, None),
    "lens": (True, True, False, True, False, None),
    "platonic": (True, True, False, True, False, None),
    "S2xS1": (False, False, False, True, True, _SPHERE_NOTE),
    "twisted-S2-bundle": (False, False, False, True, True, _SPHERE_NOTE),
    "P3#P3": (False, False, False, True, True,
              "essential summing sphere counted as incompressible"),
    "P2xS1": (True, False, False, True, True,
              "two-sided projective plane is incompressible"),
}


def predicates(s: SeifertSymbol) -> PredicateReport:
    """Full predicate block for a symbol.

    Each small category, and the spaces that are not small, take their
    flags from one table; a space that is not small is irreducible,
    P2-irreducible, aspherical and boundary irreducible, with an infinite
    group and an incompressible surface, except that sphere bases with
    exactly three exceptional fibers contain an incompressible surface
    exactly when the first homology is infinite.
    """
    s = normalize_symbol(s)
    small = classify_small(s) or _NOT_SMALL
    flat = is_flat(s)
    category = small.category
    irr, p2, asph, bd, inc, note = _PREDICATE_ROWS[category]
    if (category is None and len(s.pairs) == 3 and s.is_closed
            and s.class_part == _S2):
        inc = sphere_h1_order(groups._long_relator_exponent(s), s.pairs) == 0
        note = ("three-fiber sphere base: incompressible surface exists "
                "exactly when first homology is infinite")
    return PredicateReport(category, flat, small.order is not None, irr, p2,
                           asph, bd, inc, small.name, (note,) if note else ())


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
        if _zero_chi(s):
            raise ExcludedSpace("I-bundle over the torus or Klein bottle")
        out.append(s)
    return symbols_equivalent(out[0], out[1], EquivalenceMode.UNORIENTED_FIBER)
