"""Fibered solid tori: the local building blocks.

A fibered solid torus is classified by how many times its exceptional fiber
winds: the quotient nu/mu taken modulo 1. Oriented tori keep 0 <= nu < mu.
Without an orientation, nu/mu and (mu - nu)/mu describe the same torus, so
the unoriented normal form folds into 0 <= nu <= mu/2.

The crossing pair (mu, beta) records how a meridian disk cuts the boundary
fibers: the meridian class is beta*H + mu*Q where H is the fiber and Q a
crossing curve, with nu*beta = 1 (mod mu).
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from ._record import record
from .arith import ReducedFraction, reduce_mod1
from .errors import ValidityError


class HomeoMode(Enum):
    """Which self-homeomorphisms are allowed when comparing tori."""

    PRESERVE = "preserve"  # orientation preserving only
    REVERSE = "reverse"    # orientation reversing only
    ANY = "any"


@record
class FiberedSolidTorus:
    """A fibered solid torus with its winding invariant.

    frac is the normalized invariant: in [0, 1) when oriented, folded into
    [0, 1/2] when not.
    """

    frac: ReducedFraction
    oriented: bool


@record
class CrossingPair:
    """Meridian crossing data (mu, beta) with nu*beta = 1 (mod mu)."""

    mu: int
    beta: int

    def __post_init__(self):
        mu, beta = self
        if mu < 1:
            raise ValidityError(f"fiber index must be >= 1, got {mu}")
        if not 0 <= beta < mu:
            raise ValidityError(
                f"crossing number {beta} out of range for index {mu}")
        if gcd(mu, beta) != 1:
            raise ValidityError(f"({mu},{beta}) not coprime")


@record
class BoundaryClass:
    """An isotopy class a*m + b*l on a boundary torus, in a fixed basis."""

    a: int
    b: int


def fst_normalize(num: int, den: int, oriented: bool) -> FiberedSolidTorus:
    """Build the normal form of the torus with winding num/den.

    Oriented: reduce modulo 1. Unoriented: additionally fold nu to mu - nu
    when that is smaller, since the two windings are mirror images.
    """
    frac = reduce_mod1(num, den)
    if not oriented and 2 * frac.num > frac.den:
        frac = ReducedFraction(frac.den - frac.num, frac.den)
    return FiberedSolidTorus(frac, oriented)


def fst_equivalent(t1: FiberedSolidTorus, t2: FiberedSolidTorus,
                   mode: HomeoMode = HomeoMode.PRESERVE) -> bool:
    """Decide fiber-preserving equivalence of two fibered solid tori.

    PRESERVE compares the invariants directly, REVERSE compares against the
    mirror (negated winding), ANY accepts either. Tori built as unoriented
    are already folded, so for them PRESERVE and ANY agree. The invariants
    are compared as stored, in the range fst_normalize puts them in: a
    torus built by hand with a winding outside it, such as 4/3, does not
    equal its reduction 1/3 here.
    """
    f1, f2 = t1.frac, t2.frac
    if mode is HomeoMode.PRESERVE:
        return f1 == f2
    mirror2 = reduce_mod1(-f2.num, f2.den)
    if mode is HomeoMode.REVERSE:
        return f1 == mirror2
    return f1 == f2 or f1 == mirror2


def crossing_invariants(t: FiberedSolidTorus) -> CrossingPair:
    """Crossing pair (mu, beta) of an oriented-normalized torus.

    beta is the inverse of nu modulo mu, taken in [0, mu); beta = 0 happens
    only for the ordinary torus mu = 1. Callers working unoriented should
    fold the result with fold_crossing afterwards.
    """
    mu = t.frac.den
    nu = t.frac.num
    if mu == 1:
        return CrossingPair(1, 0)
    return CrossingPair(mu, pow(nu, -1, mu))


def fold_crossing(p: CrossingPair) -> CrossingPair:
    """Fold beta into [0, mu/2], the unoriented normal range."""
    if 2 * p.beta > p.mu:
        return CrossingPair(p.mu, p.mu - p.beta)
    return p


def meridian_from_crossing(p: CrossingPair) -> BoundaryClass:
    """Meridian class beta*H + mu*Q in the (fiber, crossing-curve) basis."""
    return BoundaryClass(p.beta, p.mu)


def lift_fiber(sigma: int, t: FiberedSolidTorus):
    """Lift the exceptional fiber through the sigma-fold fiberwise cover.

    Returns (components, lifted): the fiber lifts to gcd(sigma, mu) circles,
    each an exceptional fiber of the torus with invariant
    (sigma*nu/g) / (mu/g) where g = gcd(sigma, mu).
    """
    if sigma < 1:
        raise ValidityError(f"cover degree must be >= 1, got {sigma}")
    mu = t.frac.den
    nu = t.frac.num
    g = gcd(sigma, mu)
    lifted = fst_normalize(sigma * nu // g, mu // g, t.oriented)
    return g, lifted


def lift_curve(sigma: int, j: BoundaryClass):
    """Lift a boundary curve alpha*m - beta*l through the sigma-fold cover.

    The cover unwinds the longitude direction. A curve crossing it beta
    times lifts to gcd(sigma, beta) parallel copies, each reading
    (alpha*sigma/g)*m' - (beta/g)*l' upstairs. Pass the curve as the class
    j = (alpha, -beta); the lift is returned the same way.
    """
    if sigma < 1:
        raise ValidityError(f"cover degree must be >= 1, got {sigma}")
    if j.a == 0 and j.b == 0:
        raise ValidityError("null class is not a curve")
    alpha = j.a
    beta = -j.b
    g = gcd(sigma, beta)
    return g, BoundaryClass(alpha * sigma // g, -(beta // g))
