"""Identities of covers that hold under any convention for b (ROADMAP
item 14): under a finite cover the first Betti number does not drop
(transfer), and the orientation double cover of a closed class-N symbol
has Euler sum 0. Over a closed orbit other than (O,o) the first Betti
number is read from the class alone (item 16's closed slice).

The covers build their own e and chi, so checking those against each
other would be circular. b1 is read from the group instead: the
exponent-sum matrix of presentation_oracle.pi1_presentation, ranked over
Q by a fraction-free elimination written here, so no expected value comes
from the package's own homology, rank or Smith normal form.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Verbosity, given, settings
from hypothesis import strategies as st

from seifert import (QuotientFinite, euler_sum, fiberless_cover,
                     first_homology, orientable_double_cover, parse_symbol,
                     suggest_cover_sheets)
import presentation_oracle
from symbolgen import closed_nonorientable_symbols, closed_oriented_symbols

# quiet: a strict xfail's expected falsification writes no
# .hypothesis/patches file and loads no patch writer
DRAWS = settings(derandomize=True, max_examples=300, verbosity=Verbosity.quiet)


def rank(rows) -> int:
    """The rank over Q of an integer matrix, by fraction-free (Bareiss)
    elimination: every entry stays a minor of the matrix, so each division
    by the previous pivot is exact and the entries stay small."""
    rows = [list(row) for row in rows]
    r, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot = rows[r]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            rows[i] = [(pivot[c] * row[j] - row[c] * pivot[j]) // prev
                       for j in range(len(row))]
        prev = pivot[c]
        r += 1
    return r


def b1(s) -> int:
    """The first Betti number of a closed symbol: its generators less the
    rank of its nonzero exponent-sum rows, over their nonzero columns."""
    p = presentation_oracle.pi1_presentation(s)
    rows = []
    for word in p.relators:
        sums = Counter()
        for g, e in word:
            sums[g] += e
        row = {g: e for g, e in sums.items() if e}
        if row:
            rows.append(row)
    cols = sorted({g for row in rows for g in row})
    return len(p.generators) - rank([[row.get(g, 0) for g in cols]
                                     for row in rows])


def test_b1_of_known_spaces():
    # spaces whose e is 0, or not, under either sign of b
    cases = {"(O,o,0 | -1, (2,1), (3,1), (5,1))": 0,  # Poincare sphere
             "(O,o,0 | 0)": 1,  # S2 x S1
             "(O,o,1 | 0)": 3,  # the 3-torus
             "(O,o,2 | 1)": 4}
    assert {t: b1(parse_symbol(t)) for t in cases} == cases


@DRAWS
@given(closed_oriented_symbols)
def test_a_fiberless_cover_does_not_lower_b1(s):
    try:
        fc = fiberless_cover(s, suggest_cover_sheets(s))
    except QuotientFinite:
        return
    if fc.symbol is not None:
        assert b1(fc.symbol) >= b1(s)


@DRAWS
@given(closed_nonorientable_symbols)
def test_the_orientation_double_cover_has_euler_sum_zero(s):
    assert euler_sum(orientable_double_cover(s)).value == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the group side "
                   "reads b with the opposite sign")
@DRAWS
@given(closed_nonorientable_symbols)
def test_the_orientation_double_cover_does_not_lower_b1(s):
    assert b1(orientable_double_cover(s)) >= b1(s)


# Over a closed orbit other than (O,o) the rank of H1 over Q does not
# depend on b (Seifert 1933; Orlik, Seifert Manifolds, LNM 291, 1972): 2g
# over (N,o,g), g over (N,n,I,g) and g - 1 over (O,n,g), (N,n,II,g) and
# (N,n,III,g).


def class_b1(cp) -> int:
    if cp.orbit == "o":  # (N,o,g)
        return 2 * cp.genus
    return cp.genus - (cp.subtype != "I")


@DRAWS
@given(st.one_of(closed_nonorientable_symbols,
                 closed_oriented_symbols.filter(
                     lambda s: s.class_part.orbit == "n")))
def test_b1_off_the_orientable_orbit_is_read_from_the_class(s):
    want = class_b1(s.class_part)
    assert first_homology(s).free_rank == want
    assert b1(s) == want


def test_b1_of_the_golden_lines_off_the_orientable_orbit():
    golden = Path(__file__).parent / "data" / "golden_symbols.txt"
    symbols = [parse_symbol(t) for t in golden.read_text().splitlines()]
    symbols = [s for s in symbols
               if s.is_closed and s.class_part[:2] != ("O", "o")]
    assert len(symbols) == 84
    for s in symbols:
        want = class_b1(s.class_part)
        assert (first_homology(s).free_rank, b1(s)) == (want, want), s
