"""The Smith normal form that abelianization used before entries were
kept bounded, kept as a test oracle.

smith_normal_form pivots on the smallest entry and runs a swap-based
Euclid loop over the whole matrix, then repairs the divisibility chain
with gcd/lcm swaps. Its answers are exact, but its intermediate entries
grow without bound: on some 10-fiber presentations they reach tens of
thousands of bits and take seconds. Compare against it on small matrices.
abelianization applies it to a presentation's unpruned exponent-sum matrix.
"""

from math import gcd

from seifert import AbelianGroup, IntMatrix


def _pick_pivot(a, t, nr, nc):
    # Smallest absolute value wins, ties broken by row-major position.
    best = None
    where = None
    for i in range(t, nr):
        row = a[i]
        for j in range(t, nc):
            v = row[j]
            if v != 0 and (best is None or abs(v) < best):
                best = abs(v)
                where = (i, j)
                if best == 1:
                    return where
    return where


def smith_normal_form(m: IntMatrix):
    """Diagonalize m over the integers by row and column operations.

    Returns (invariant_factors, free_rank_defect): the invariant factors are
    positive integers d1 | d2 | ... | dk with k the rank of m over the
    rationals (factors equal to 1 are retained), and free_rank_defect is
    cols - k, the free rank of the cokernel when columns index generators.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    t = 0
    limit = min(nr, nc)
    while t < limit:
        piv = _pick_pivot(a, t, nr, nc)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            again = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                if q:
                    at = a[t]
                    ai = a[i]
                    for j in range(t, nc):
                        ai[j] -= q * at[j]
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    again = True
            if again:
                continue
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j] != 0:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    again = True
            if not again:
                break
        t += 1
    diag = chain([abs(a[i][i]) for i in range(t)])
    return tuple(diag), nc - len(diag)


def chain(factors):
    """Repair a list of positive integers into a divisibility chain with
    gcd/lcm swaps over every pair; products are preserved, so the factor
    product still equals |det| for square full-rank input."""
    diag = list(factors)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            di, dj = diag[i], diag[j]
            if dj % di != 0:
                g = gcd(di, dj)
                diag[i], diag[j] = g, di * dj // g
    return diag


def abelianization(p):
    """The abelianization of a presentation from its unpruned exponent-sum
    matrix: every relator a row, every generator a column."""
    n = len(p.generators)
    flat = [0] * (len(p.relators) * n)
    for i, word in enumerate(p.relators):
        for g, e in word:
            flat[i * n + g] += e
    factors, defect = smith_normal_form(IntMatrix(len(p.relators), n, tuple(flat)))
    return AbelianGroup(defect, tuple(d for d in factors if d > 1))
