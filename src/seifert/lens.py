"""Lens-space arithmetic.

L(p,q) is two solid tori sewn along their boundaries by a determinant
+-1 matrix whose left column is (q, p). Homeomorphism classification is
p' = p with q' = +-q^{+-1} mod p, so each pair has a canonical
representative. The sewing matrix also transports a fibering of one
torus to the other. A symbol over the sphere with at most two
exceptional fibers is such a sewing, and its (p, q) has a closed form
(Orlik, Seifert Manifolds, LNM 291, 1972; Jankins-Neumann, Lectures on
Seifert Manifolds, 1983).
"""

from __future__ import annotations

from math import gcd

from ._record import record
from .arith import ReducedFraction
from .errors import BadDeterminant, NotCoprime, ValidityError, WrongBase
from .fst import fst_normalize
from .symbol import ClassPart, SeifertSymbol, normalize_symbol


@record
class LensParams:
    """Parameters (p, q) of a lens space; p = 0 is S2xS1 and p = 1 is S3."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0:
            raise ValidityError(f"lens p must be >= 0, got {self.p}")
        if self.p >= 2 and gcd(self.p, self.q) != 1:
            raise NotCoprime(f"gcd({self.p}, {self.q}) != 1")

    def display(self) -> str:
        if self.p == 0:
            return "S2xS1"
        if self.p == 1:
            return "S3"
        return f"L({self.p},{self.q})"


def lens_normalize(p: int, q: int) -> LensParams:
    """Canonical (p, q): the least q in the orbit {+-q^{+-1} mod p}.

    p of 0 or 1 collapses to (0,0) = S2xS1 and (1,0) = S3 regardless
    of q. Raises NotCoprime when p >= 2 and gcd(p, q) != 1.
    """
    if p <= 1:
        return LensParams(p, 0)
    if gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    q0 = q % p
    inv = pow(q0, -1, p)
    return LensParams(p, min(q0, (-q0) % p, inv, (-inv) % p))


def lens_equivalent(a: LensParams, b: LensParams) -> bool:
    """Homeomorphism test: equal normal forms."""
    return lens_normalize(a.p, a.q) == lens_normalize(b.p, b.q)


@record
class GluingMatrix:
    """Sewing matrix (q r; p s) with determinant +-1."""

    q: int
    r: int
    p: int
    s: int

    def __post_init__(self):
        if self.det not in (1, -1):
            raise BadDeterminant(
                f"determinant {self.det} of ({self.q} {self.r}; {self.p} {self.s})")

    @property
    def det(self) -> int:
        return self.q * self.s - self.p * self.r


def fibering_transform(a: GluingMatrix, f: ReducedFraction):
    """Both fibered-solid-torus invariants of the sewing glued along f.

    Fibering the first torus by nu/mu induces on the second the slope
    (q nu + r mu) / (p nu + s mu); both are returned normalized. The
    fiber dies (zero new index) exactly when the matrix sends the chosen
    fibering to a meridian, reported as ZeroDenominator.
    """
    f1 = fst_normalize(f.num, f.den, oriented=True)
    f2 = fst_normalize(a.q * f.num + a.r * f.den,
                       a.p * f.num + a.s * f.den, oriented=True)
    return f1, f2


_S2 = ClassPart("O", "o", 0)

_EXTRA_PLATONIC = frozenset([(2, 3, 3), (2, 3, 4), (2, 3, 5)])


def is_platonic_triple(degrees) -> bool:
    """True for (2,2,r) with r >= 2 and for (2,3,3), (2,3,4), (2,3,5)."""
    a, b, c = sorted(degrees)
    return (a, b) == (2, 2) or (a, b, c) in _EXTRA_PLATONIC


@record
class Recognition:
    """Outcome of recognizing a closed symbol over the sphere.

    kind is one of S3, S2xS1, Lens, Platonic, Generic. Lens outcomes
    carry canonical parameters and a witnessing sewing matrix with left
    column (q, p) (S3 and S2xS1 carry them too, as L(1,0) and L(0,0)).
    Platonic carries the sorted index triple.
    """

    kind: str
    lens: LensParams | None = None
    triple: tuple | None = None
    witness: GluingMatrix | None = None

    def name(self) -> str | None:
        if self.kind in ("S3", "S2xS1"):
            return self.kind
        if self.kind == "Lens":
            return self.lens.display()
        if self.kind == "Platonic":
            return "platonic ({},{},{})".format(*self.triple)
        return None


def sphere_h1_order(b, pairs) -> int:
    """|H1| determinant for a sphere-base symbol; 0 means infinite.

    The closed form sum(beta_i * prod(mu_j, j != i)) - b * prod(mu_i),
    in absolute value; agrees with the Smith-form order of the
    abelianized group.
    """
    prod = 1
    for p in pairs:
        prod *= p.mu
    return abs(sum(p.beta * (prod // p.mu) for p in pairs) - b * prod)


def _sewing_q(b, first, second) -> int:
    """Lens q of the two solid tori around two (mu, beta) fibers.

    With alpha2 u - beta2 v = 1 it is q = alpha1 u + (beta1 - b alpha1) v;
    another solution (u, v) moves q by a multiple of the homology order,
    so q is well defined modulo p. A (1, 0) pair stands for no fiber.
    """
    (a1, b1), (a2, b2) = first, second
    v = -pow(b2, -1, a2)
    u = (1 + b2 * v) // a2
    return a1 * u + (b1 - b * a1) * v


def recognize_S2_symbol(s: SeifertSymbol) -> Recognition:
    """Recognize a closed symbol over the sphere.

    At most two exceptional fibers means a lens space L(p, q), read off
    the sewing of the two solid tori around the fibers (padded with
    (1, 0) where a fiber is missing): p is the order of the first
    homology (0 meaning infinite, hence S2xS1; 1 meaning S3) and q is
    the sewing q reduced mod p. The witness is the determinant +1
    completion of the left column (q, p). Three fibers with a platonic
    index triple give Platonic; anything else is Generic. Raises
    WrongBase away from the closed sphere orbit.
    """
    s = normalize_symbol(s)
    if s.class_part != _S2 or not s.is_closed:
        raise WrongBase("recognition needs a closed symbol with orbit (O,o,0)")
    pairs = s.pairs
    if len(pairs) >= 3:
        triple = tuple(sorted(p.mu for p in pairs))
        if len(pairs) == 3 and is_platonic_triple(triple):
            return Recognition("Platonic", triple=triple)
        return Recognition("Generic")
    padded = [(c.mu, c.beta) for c in pairs] + [(1, 0)] * (2 - len(pairs))
    q = _sewing_q(s.obstruction, *padded)
    p = sphere_h1_order(s.obstruction, pairs)
    if p == 0:
        # b = 0 without fibers, or b = 1 with beta1/mu1 + beta2/mu2 = 1:
        # q = 1 in both cases
        mat = GluingMatrix(q, 0, 0, q)
    else:
        q %= p
        inv = pow(q, -1, p)
        mat = GluingMatrix(q, (q * inv - 1) // p, p, inv)
    params = lens_normalize(p, q)
    if p == 0:
        return Recognition("S2xS1", lens=params, witness=mat)
    if p == 1:
        return Recognition("S3", lens=params, witness=mat)
    return Recognition("Lens", lens=params, witness=mat)
