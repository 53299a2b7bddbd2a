"""A reference for two keys of a report, h1 and euler_sum, written from
Seifert's presentation of the fundamental group (Seifert 1933; Orlik,
Seifert Manifolds, LNM 291, 1972) and importing nothing from seifert, so
that a convention shared by two sites of the package cannot hide from
it.

read_symbol reads a normal-form text, as render_symbol writes it. The
group of (T,o,g[,sub]; m=M, kb=K | b, (mu1,beta1), ...) has generators h,
the orbit surface's a_i b_i (orientable orbit) or x_i (crosscaps), one
c_j per fiber (a closed class-N symbol's (b,s) adds s fibers (2,1)) and
one d_k per boundary component, and the relators
- y h y^-1 = h for every generator y that keeps the fiber's direction,
  and h^-1 for one that reverses it: every crosscap of class (O,n), a_1
  of class (N,o), none, x_1 or x_1 and x_2 of subtypes I, II and III,
  and every Klein-bottle boundary d_k;
- c_j^mu_j h^beta_j = 1;
- closed: surface word . c_1 ... c_n = h^b, the surface word being the
  product of the commutators [a_i, b_i], or of the squares x_i^2;
- bounded: surface word . c_1 ... c_n . d_1 ... d_m = 1.
H1 is the cokernel of the exponent sums of these relators, read off a
Smith normal form copied from tests/snf_oracle.py. euler_sum is
b + sum beta_j/mu_j for a closed class-O symbol, None otherwise.

relator_rows(symbol, orlik=False) writes the two conventions the package
keeps today instead: the closed long relator c_1 ... c_n h^b (ROADMAP
item 2) and no long relator on a bounded symbol (item 11).
"""

import re
from fractions import Fraction
from math import gcd

_SYMBOL = re.compile(r"\(([ON]),([on]),(?:(I|II|III),)?(\d+)"
                     r"(?:;m=(\d+)(?:,kb=(\d+))?)?"
                     r"\|(-|-?\d+|\(-?\d+,\d+\))((?:,\(\d+,\d+\))*)\)")
_PAIR = re.compile(r"\((\d+),(\d+)\)")


def read_symbol(text: str) -> dict:
    """The fields of a normal-form text: total, orbit, subtype, genus,
    tori, klein, b (None when bounded), the index-2 count s and pairs."""
    text = "".join(text.split())
    m = _SYMBOL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a normal-form symbol: {text!r}")
    total, orbit, subtype, genus, tori, klein, obstruction, rest = m.groups()
    pairs = [(int(mu), int(beta)) for mu, beta in _PAIR.findall(rest)]
    b, s = None, 0
    if obstruction.startswith("("):
        b, s = map(int, obstruction[1:-1].split(","))
    elif obstruction != "-":
        b = int(obstruction)
    return {"total": total, "orbit": orbit, "subtype": subtype,
            "genus": int(genus), "tori": int(tori or 0),
            "klein": int(klein or 0), "b": b, "s": s, "pairs": pairs}


def _reversing(sym) -> int:
    """How many of the first orbit-surface generators reverse the fiber."""
    g = sym["genus"]
    if sym["orbit"] == "o":
        return 1 if sym["total"] == "N" and g else 0
    if sym["total"] == "O":
        return g
    return {"I": 0, "II": 1, "III": 2}[sym["subtype"]]


def relator_rows(sym: dict, orlik: bool = True):
    """The exponent sums of every relator, one row a relator over the
    columns h, surface generators, c's and d's; and the column count."""
    g, orientable = sym["genus"], sym["orbit"] == "o"
    surface = 2 * g if orientable else g
    fibers = sym["pairs"] + [(2, 1)] * sym["s"]
    boundary = sym["tori"] + sym["klein"]
    c0 = 1 + surface
    d0 = c0 + len(fibers)
    ncols = d0 + boundary
    rows = []
    reversing = set(range(1, 1 + _reversing(sym)))
    reversing |= set(range(ncols - sym["klein"], ncols))
    for y in range(1, ncols):
        row = [0] * ncols  # y h y^-1 h^-1 or y h y^-1 h
        row[0] = 2 if y in reversing else 0
        rows.append(row)
    for j, (mu, beta) in enumerate(fibers):
        row = [0] * ncols
        row[0], row[c0 + j] = beta, mu
        rows.append(row)
    long_row = [0] * ncols
    if not orientable:
        long_row[1:c0] = [2] * surface
    long_row[c0:d0] = [1] * len(fibers)
    if sym["b"] is not None:
        long_row[0] = -sym["b"] if orlik else sym["b"]
        rows.append(long_row)
    elif orlik:
        long_row[d0:] = [1] * boundary
        rows.append(long_row)
    return rows, ncols


def smith_normal_form(rows, ncols):
    """The invariant factors of an integer matrix, copied from
    tests/snf_oracle.py: pivot on the smallest entry, reduce its row and
    column by Euclid's loop, then repair the divisibility chain."""
    a = [list(r) for r in rows]
    nr = len(a)
    t = 0
    while t < min(nr, ncols):
        where, best = None, None
        for i in range(t, nr):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, where = v, (i, j)
        if where is None:
            break
        pi, pj = where
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        again = True
        while again:
            again = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        again = True
            if again:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        again = True
        t += 1
    diag = [abs(a[i][i]) for i in range(t)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                d = gcd(diag[i], diag[j])
                diag[i], diag[j] = d, diag[i] * diag[j] // d
    return diag


def h1(text: str, orlik: bool = True) -> str:
    """H1 of a normal-form text as the report writes it: "trivial", or
    terms like "Z^2 + Z/2 + Z/6"."""
    rows, ncols = relator_rows(read_symbol(text), orlik)
    # zero rows and repeated rows change no invariant factor
    rows = [list(r) for r in dict.fromkeys(tuple(r) for r in rows if any(r))]
    factors = smith_normal_form(rows, ncols)
    free = ncols - len(factors)
    terms = ([] if free == 0 else ["Z"] if free == 1 else [f"Z^{free}"])
    terms += [f"Z/{d}" for d in factors if d > 1]
    return " + ".join(terms) or "trivial"


def euler_sum(text: str):
    """b + sum beta/mu as "n/d" for a closed class-O text, else None."""
    sym = read_symbol(text)
    if sym["total"] != "O" or sym["b"] is None:
        return None
    e = sym["b"] + sum(Fraction(beta, mu) for mu, beta in sym["pairs"])
    return f"{e.numerator}/{e.denominator}"
