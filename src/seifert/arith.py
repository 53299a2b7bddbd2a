"""Exact integer primitives: fractions reduced modulo 1 and Smith normal form.

Everything here is plain arbitrary-precision integer arithmetic. The rest of
the package builds its invariants on these two tools, so both are written for
determinism first: the same input always yields the identical output object.

The Smith normal form keeps its intermediate entries bounded by minors of
the input: determinantal divisors for at most two rows or columns, else
unit pivots first, then fraction-free (Bareiss) elimination for a nonzero
minor D, then diagonalization modulo D (Kannan and Bachem 1979; Cohen,
GTM 138, 2.4).
"""

from __future__ import annotations

from math import gcd

from ._record import record
from .errors import ValidityError, ZeroDenominator


@record
class ReducedFraction:
    """A fraction num/den with gcd(num, den) = 1 and den >= 1."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 1:
            raise ValidityError(f"denominator must be positive, got {self.den}")
        if gcd(self.num, self.den) != 1:
            raise ValidityError(f"{self.num}/{self.den} is not reduced")

    def __str__(self):
        return f"{self.num}/{self.den}"


def reduce_mod1(num: int, den: int) -> ReducedFraction:
    """Return the unique reduced fraction in [0, 1) congruent to num/den.

    Adding any integer multiple of the denominator to the numerator does not
    change the result. Raises ZeroDenominator when den = 0.
    """
    if den == 0:
        raise ZeroDenominator("fraction with denominator 0")
    if den < 0:
        num, den = -num, -den
    num %= den
    g = gcd(num, den)
    return ReducedFraction(num // g, den // g)


@record
class IntMatrix:
    """An integer matrix stored row-major as a flat tuple."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValidityError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValidityError(
                f"{self.rows}x{self.cols} matrix needs "
                f"{self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValidityError("ragged rows")
        flat = tuple(int(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    def to_rows(self):
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]


def _xgcd(a, b):
    """(g, x, y) with x a + y b = g = gcd(a, b), for a, b >= 0: x is the
    inverse of a/g modulo b/g, taken in [0, b/g)."""
    if not b:
        return a, 1, 0
    g = gcd(a, b)
    x = pow(a // g, -1, b // g)
    return g, x, (g - x * a) // b


def _eliminate_units(a):
    """Pivot on entries +-1 until none is left; return how many.

    a is a list of nonzero rows, changed in place. Each unit pivot's row
    drops out and its column becomes zero, leaving a factor 1. Schur
    complements of unit pivots are minors of the input, so no entry grows
    past a minor.
    """
    count = 0
    while True:
        for i, top in enumerate(a):
            if 1 in top:
                j = top.index(1)
                break
            if -1 in top:
                j = top.index(-1)
                break
        else:
            return count
        del a[i]
        u = top[j]
        for i, row in enumerate(a):
            f = row[j] * u
            if f:
                a[i] = [x - f * y for x, y in zip(row, top)]
        a[:] = [row for row in a if any(row)]
        count += 1


def _rank_and_minor(a):
    """Rank r of a and the absolute value of a nonzero r x r minor.

    Fraction-free (Bareiss) elimination: every intermediate entry is a
    minor of a.
    """
    a = [row[:] for row in a]
    nr, nc = len(a), len(a[0])
    prev = 1
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        piv = top[c]
        for i in range(r + 1, nr):
            row = a[i]
            f = row[c]
            for j in range(c + 1, nc):
                row[j] = (piv * row[j] - f * top[j]) // prev
        prev = piv
        r += 1
        if r == nr:
            break
    return r, abs(prev)


def _diagonal_mod(a, det):
    """Diagonalize a modulo det by unimodular row and column operations.

    The smallest nonzero residue is the pivot. Row operations clear its
    column, with an extended-gcd 2 x 2 step where it does not divide the
    entry; if the pivot then divides its whole row, column operations
    would change only that row, so pivot row and column drop out.
    Otherwise the block is transposed and cleared again: each round
    replaces the pivot by a proper divisor. Returns the pivots.
    """
    a = [row for row in ([v % det for v in row] for row in a) if any(row)]
    diag = []
    while a:
        best = det
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if v and v < best:
                    best, pi, pj = v, i, j
        a[0], a[pi] = a[pi], a[0]
        if pj:
            for row in a:
                row[0], row[pj] = row[pj], row[0]
        while True:
            top = a[0]
            p = top[0]
            for i in range(1, len(a)):
                row = a[i]
                b = row[0]
                if not b:
                    continue
                if b % p == 0:
                    q = b // p
                    a[i] = [(w - q * s) % det for s, w in zip(top, row)]
                else:
                    g, x, y = _xgcd(p, b)
                    u, v = p // g, b // g
                    top, a[i] = (
                        [(x * s + y * w) % det for s, w in zip(top, row)],
                        [(u * w - v * s) % det for s, w in zip(top, row)])
                    a[0] = top
                    p = g
            if not any(v % p for v in top):
                break
            a = [list(col) for col in zip(*a)]
        diag.append(p)
        a = [row[1:] for row in a[1:]]
        a = [row for row in a if any(row)]
    return diag


def _chain(factors):
    """The invariant factors of the diagonal of positive integers: a
    divisibility chain, smallest first, with the same length and product.

    The factors above 1 are inserted one at a time into runs (d, count)
    whose d strictly increase by divisibility. From the top down, the
    first copy of each d that v does not divide becomes lcm(d, v) and v
    becomes gcd(d, v); the other copies keep d, since the new v divides
    d. There are at most log2 of the largest factor runs, so the cost is
    about linear in the factors. Factors that form such a chain once
    sorted are only sorted.
    """
    factors = sorted(factors)
    if not any(map(int.__mod__, factors[1:], factors)):  # each divides the next
        return factors
    runs = []
    for v in factors:
        top = []
        i = len(runs)
        while i and v > 1:
            d, count = runs[i - 1]
            if v % d == 0:
                break
            g = gcd(d, v)
            top.append((d // g * v, 1))
            if count > 1:
                top.append((d, count - 1))
            v = g
            i -= 1
        if v > 1:
            top.append((v, 1))
        runs = runs[:i]
        for d, count in reversed(top):
            if runs and runs[-1][0] == d:
                runs[-1] = (d, runs[-1][1] + count)
            else:
                runs.append((d, count))
    chain = [d for d, count in runs for _ in range(count)]
    return [1] * (len(factors) - len(chain)) + chain


def _two_row_factors(a):
    """Invariant factors of a matrix of one or two rows (or columns, as
    rows: transposing keeps the factors), read from its determinantal
    divisors: d1 is the gcd of the entries, d1 d2 the gcd of the 2 x 2
    minors. Zero rows and columns may be present; a zero matrix has none."""
    d1 = gcd(*a[0], *a[-1])
    if len(a) == 1 or not d1:
        return (d1,) if d1 else ()
    r0, r1 = a
    n = len(r0)
    d12 = gcd(*[r0[i] * r1[j] - r0[j] * r1[i]
                for i in range(n) for j in range(i + 1, n)])
    return (d1, d12 // d1) if d12 else (d1,)


def _core_factors(a):
    """Invariant factors of an integer matrix of one row or more, 1s
    included, as many as its rank; zero rows and columns may be present.

    A matrix of at most two rows or columns has its factors read from its
    determinantal divisors. A larger one has its pivots +-1 eliminated
    first, each leaving a factor 1, and what is left is read again. With no
    unit left, fraction-free elimination gives its rank r and a nonzero
    r x r minor D, and it is diagonalized modulo D: d1 ... dr divides D, so
    the factors are the r smallest of gcd(pivot, D).
    """
    if len(a) > len(a[0]):
        a = list(zip(*a))
    if len(a) <= 2:
        return _two_row_factors(a)
    a = [list(row) for row in a if any(row)]
    units = _eliminate_units(a)
    if units or not a:  # what is left: its nonzero columns, as rows
        a = [list(col) for col in zip(*a) if any(col)]
        return (1,) * units + (_core_factors(a) if a else ())
    rank, det = _rank_and_minor(a)
    # Each of d1 ... d_rank divides det, so gcd(pivot, det) recovers it;
    # a pivot never reached, its block 0 mod det, stands for det.
    diag = [gcd(v, det) for v in _diagonal_mod(a, det)]
    diag += [det] * (rank - len(diag))
    return tuple(_chain(diag)[:rank])


def smith_normal_form(m: IntMatrix):
    """Invariant factors of m over the integers.

    Returns (invariant_factors, free_rank_defect): the invariant factors are
    positive integers d1 | d2 | ... | dk with k the rank of m over the
    rationals (factors equal to 1 are retained), and free_rank_defect is
    cols - k, the free rank of the cokernel when columns index generators.
    _core_factors reads them off the rows of m.
    """
    _, nc, e = m
    rows = [list(e[i:i + nc]) for i in range(0, len(e), nc or 1)]
    factors = _core_factors(rows) if rows else ()
    return factors, nc - len(factors)
