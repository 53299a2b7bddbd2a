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
from .errors import (AlreadyOrientable, IndexNotDivisible, NotClosed,
                     NotClosedOriented, OddEulerCharacteristic, QuotientFinite,
                     ValidityError)
from .groups import _orbifold_chi_terms, _surface_chi
from .symbol import ClassPart, SeifertSymbol, _normal_form, normalize_symbol

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


@record
class EulerSum:
    """Exact value of b + sum(beta_i/mu_i)."""

    value: Fraction


def _euler_terms(s: SeifertSymbol) -> tuple:
    """The Euler sum of a closed class-O symbol as integers (total, m):
    the sum is total/m over the lcm m of the indices, not reduced.

    Needs no normal form: index-1 pairs are (1,0) and order is free.
    Raises NotClosedOriented otherwise.
    """
    if not s.is_closed or s.class_part.total != "O":
        raise NotClosedOriented("euler sum needs a closed symbol of class O")
    m = lcm(*[p.mu for p in s.pairs])
    return s.obstruction * m + sum(p.beta * (m // p.mu) for p in s.pairs), m


def euler_sum(s: SeifertSymbol) -> EulerSum:
    """Euler sum of a closed oriented symbol.

    Negates under orientation reversal and multiplies by the sheet
    count under fiberless covers. Raises NotClosedOriented otherwise.
    The sum is taken over the lcm of the indices, one Fraction in all.
    """
    from fractions import Fraction  # on first use: it loads decimal too
    return EulerSum(Fraction(*_euler_terms(s)))


def orientable_double_cover(s: SeifertSymbol) -> SeifertSymbol:
    """The orientation double cover of a closed class-N symbol.

    Every exceptional fiber (mu, beta), with index-2 fibers written out
    as (2,1) pairs first, lifts to the two fibers (mu, beta) and
    (mu, mu - beta); the obstruction of the cover is minus the fiber
    count. The cover's orbit surface doubles along the kernel of the
    product of the classifying and orientation characters: its Euler
    characteristic doubles, and it is orientable exactly over (N,o) and
    (N,n,I). So (N,o,g) -> (O,o,2g-1), (N,n,I,k) -> (O,o,k-1), and
    (N,n,II,k) and (N,n,III,k) -> (O,n,2k-2).
    """
    s = normalize_symbol(s)
    if s.class_part.total != "N":
        raise AlreadyOrientable("double cover needs a class-N symbol")
    if s.is_bounded:
        raise NotClosed("double cover is defined here for closed symbols")
    cp, pairs = s.class_part, s.expanded_pairs()
    chi = 2 * _surface_chi(cp)  # of the cover's orbit surface
    cover = ClassPart("O", "o", 1 - chi // 2) if cp.subtype in (None, "I") \
        else ClassPart("O", "n", 2 - chi)
    lifted = [(mu, b) for mu, beta in pairs for b in (beta, mu - beta)]
    return _normal_form(cover, 0, 0, -len(pairs), 0, lifted)


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
    """The normal form of a cover base and its orbifold Euler
    characteristic as integers (chi, m): it is chi/m over the lcm m of the
    indices.

    Raises NotClosedOriented off closed class O, ValidityError for a
    sheet count below 1 and QuotientFinite over a finite quotient.
    """
    s = normalize_symbol(s)
    if not s.is_closed or s.class_part.total != "O":
        raise NotClosedOriented("fiberless covers need a closed class-O symbol")
    if sheets < 1:
        raise ValidityError(f"sheet count must be >= 1, got {sheets}")
    chi, m = _orbifold_chi_terms(_surface_chi(s.class_part),
                                 [p.mu for p in s.pairs])
    if chi > 0:
        raise QuotientFinite("Fuchsian quotient is finite; no fiberless cover")
    return s, chi, m


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
    s, chi, m = _fiberless_base(s, sheets)
    for p in s.pairs:
        if sheets % p.mu != 0:
            raise IndexNotDivisible(
                f"fiber index {p.mu} does not divide sheet count {sheets}")
    # e and chi^orb are total/m and chi/m over the one lcm m of the indices,
    # which the loop leaves dividing sheets: both products are integers
    b = sheets // m * _euler_terms(s)[0]
    chi = sheets // m * chi
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
    _, chi, m = _fiberless_base(s)
    return m if chi % 2 == 0 else 2 * m
