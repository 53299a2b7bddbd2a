"""Cover constructions on symbols.

Three tools: the Euler sum b + sum(beta_i/mu_i) of a closed oriented
symbol, the orientation double cover of a non-orientable symbol, and
finite covers with no exceptional fibers for symbols whose Fuchsian
quotient is infinite. The last two return symbols again, so covers can
be chained with everything else in the package.
"""

from __future__ import annotations

from math import lcm

from ._record import record
from .errors import (AlreadyOrientable, IndexNotDivisible, InternalError,
                     NotClosed, NotClosedOriented, OddEulerCharacteristic,
                     QuotientFinite, ValidityError)
from .groups import (SizeClass, fuchsian_euler, fuchsian_size_class,
                     signature_of_symbol)
from .symbol import ClassPart, CrossingPair, SeifertSymbol, normalize_symbol

# fractions.Fraction, imported by the first euler_sum call: the module
# loads decimal and numbers too, which most command lines never use. It
# is bound here once, since an import statement in the function would
# cost about 1 us on every call.
Fraction = None


@record
class EulerSum:
    """Exact value of b + sum(beta_i/mu_i)."""

    value: Fraction


def euler_sum(s: SeifertSymbol) -> EulerSum:
    """Euler sum of a closed oriented symbol.

    Negates under orientation reversal and multiplies by the sheet
    count under fiberless covers. Raises NotClosedOriented otherwise.
    Needs no normal form: index-1 pairs are (1,0) and order is free. The
    sum is taken over the lcm of the indices, one Fraction in all.
    """
    global Fraction
    if not s.is_closed or s.class_part.total != "O":
        raise NotClosedOriented("euler sum needs a closed symbol of class O")
    m = lcm(*[p.mu for p in s.pairs])
    total = s.obstruction * m + sum(p.beta * (m // p.mu) for p in s.pairs)
    if Fraction is None:
        from fractions import Fraction
    return EulerSum(Fraction(total, m))


_DOUBLE_ORBIT = {
    # (orbit, subtype) of the base -> class part builder for the cover
    ("o", None): lambda g: ClassPart("O", "o", 2 * g - 1),
    ("n", "I"): lambda g: ClassPart("O", "o", g - 1),
    ("n", "II"): lambda g: ClassPart("O", "n", 2 * g - 2),
    ("n", "III"): lambda g: ClassPart("O", "n", 2 * g - 2),
}


def orientable_double_cover(s: SeifertSymbol) -> SeifertSymbol:
    """The orientation double cover of a closed class-N symbol.

    Every exceptional fiber (mu, beta), with index-2 fibers written out
    as (2,1) pairs first, lifts to the two fibers (mu, beta) and
    (mu, mu - beta); the obstruction of the cover is minus the fiber
    count. The cover's orbit surface doubles along the kernel of the
    product of the classifying and orientation characters, which lands
    in the tabulated class: (N,o,g) -> (O,o,2g-1), (N,n,I,k) ->
    (O,o,k-1), (N,n,II,k) and (N,n,III,k) -> (O,n,2k-2).
    """
    s = normalize_symbol(s)
    if s.class_part.total != "N":
        raise AlreadyOrientable("double cover needs a class-N symbol")
    if s.is_bounded:
        raise NotClosed("double cover is defined here for closed symbols")
    pairs = s.expanded_pairs()
    lifted = []
    for p in pairs:
        lifted.append(CrossingPair(p.mu, p.beta))
        lifted.append(CrossingPair(p.mu, p.mu - p.beta))
    cp = s.class_part
    new_cp = _DOUBLE_ORBIT[(cp.orbit, cp.subtype)](cp.genus)
    cover = SeifertSymbol(new_cp, 0, 0, -len(pairs), tuple(lifted))
    return normalize_symbol(cover)


@record
class FiberlessCover:
    """A finite cover with no exceptional fibers.

    When the base orbit surface is orientable the cover is pinned down
    completely and symbol holds it; for non-orientable base orbits only
    the obstruction and orbit Euler characteristic are determined, and
    orbit_known is False with symbol None.
    """

    symbol: SeifertSymbol | None
    obstruction: int
    orbit_chi: int
    orbit_known: bool


def _fiberless_base(s: SeifertSymbol, sheets: int = 1):
    """Normal form and orbifold Euler characteristic of a cover base.

    Raises NotClosedOriented off closed class O, ValidityError for a
    sheet count below 1 and QuotientFinite over a finite quotient.
    """
    s = normalize_symbol(s)
    if not s.is_closed or s.class_part.total != "O":
        raise NotClosedOriented("fiberless covers need a closed class-O symbol")
    if sheets < 1:
        raise ValidityError(f"sheet count must be >= 1, got {sheets}")
    sig = signature_of_symbol(s)
    if fuchsian_size_class(sig) == SizeClass.FINITE:
        raise QuotientFinite("Fuchsian quotient is finite; no fiberless cover")
    return s, fuchsian_euler(sig)


def fiberless_cover(s: SeifertSymbol, sheets: int) -> FiberlessCover:
    """Pass to a sheets-fold cover without exceptional fibers.

    Requires a closed oriented symbol with infinite Fuchsian quotient
    and every fiber index dividing the sheet count. The cover's
    obstruction is sheets times the Euler sum, and its orbit surface
    has Euler characteristic sheets * (chi(base surface) -
    sum(1 - 1/mu_i)); both come out integral under the divisibility
    hypothesis. Existence of a subgroup realizing the sheet count is
    not checked; the arithmetic is exact for any valid count.
    """
    s, orbifold_chi = _fiberless_base(s, sheets)
    for p in s.pairs:
        if sheets % p.mu != 0:
            raise IndexNotDivisible(
                f"fiber index {p.mu} does not divide sheet count {sheets}")
    b = sheets * euler_sum(s).value
    chi = sheets * orbifold_chi
    if b.denominator != 1 or chi.denominator != 1:
        raise InternalError(f"cover obstruction {b} or orbit chi {chi} "
                            f"not integral at {sheets} sheets")
    b = int(b)
    chi = int(chi)
    if s.class_part.orbit == "o":
        if chi % 2 != 0:
            raise OddEulerCharacteristic(
                f"cover orbit characteristic {chi} is odd; no orientable "
                f"orbit surface at {sheets} sheets")
        genus = 1 - chi // 2
        cover = SeifertSymbol(ClassPart("O", "o", genus), 0, 0, b, ())
        return FiberlessCover(cover, b, chi, True)
    return FiberlessCover(None, b, chi, False)


def suggest_cover_sheets(s: SeifertSymbol) -> int:
    """Arithmetic candidate sheet count for fiberless_cover.

    The least common multiple of the fiber indices, doubled when that
    would leave an odd cover orbit characteristic. Purely arithmetic:
    whether a subgroup of this index exists is a separate question.
    """
    s, orbifold_chi = _fiberless_base(s)
    base = lcm(*(p.mu for p in s.pairs)) if s.pairs else 1
    chi = base * orbifold_chi
    if chi.denominator == 1 and int(chi) % 2 == 0:
        return base
    return 2 * base
