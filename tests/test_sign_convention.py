"""Properties of the obstruction b that hold under any sign convention.

Each pairs the package's Euler number (covers.euler_sum, e = b + sum
beta/mu) or its orientation reversal with the first homology, so each
holds only when the group side reads b with the same sign as the rest of
the package. Today it does not (ROADMAP item 2): the group's long relator
is c1 ... cn h^b, so c1 ... cn = h^-b, where normalize_symbol,
reverse_orientation and euler_sum follow c1 ... cn = h^b. Each test is a
strict xfail until item 2 flips groups._long_relator_exponent.
"""

from math import gcd, prod

import pytest
from hypothesis import Verbosity, given, settings
from hypothesis import strategies as st

from seifert import (ClassPart, CrossingPair, EquivalenceMode, SeifertSymbol,
                     euler_sum, first_homology, normalize_symbol, parse_symbol,
                     reverse_orientation, symbols_equivalent)
from symbolgen import closed_oriented_symbols

ITEM_2 = pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the group "
                           "side reads b with the opposite sign")

# the rows of ROADMAP item 2: the README pair, mirror images that report
# names L(13,5) and L(11,3); a Poincare sphere; a Euclidean torus bundle
README_PAIR = ("(O,o,0 | -1, (2,1), (3,2))", "(O,o,0 | -1, (2,1), (3,1))")
ROWS = README_PAIR + ("(O,o,0 | 1, (2,1), (3,1), (5,1))",
                      "(O,o,0 | -1, (2,1), (3,1), (6,1))")

_pairs = st.integers(2, 9).flatmap(lambda mu: st.sampled_from(
    [CrossingPair(mu, b) for b in range(1, mu) if gcd(b, mu) == 1]))
sphere_symbols = st.builds(
    lambda b, pairs: normalize_symbol(
        SeifertSymbol(ClassPart("O", "o", 0), 0, 0, b, tuple(pairs))),
    st.integers(-5, 5), st.lists(_pairs, max_size=5))

# quiet: a strict xfail's expected falsification writes no
# .hypothesis/patches file and loads no patch writer
DRAWS = settings(derandomize=True, max_examples=300, verbosity=Verbosity.quiet)


def h1_order_and_euler(s):
    """(|H1|, |e| prod(mu)) of a closed (O,o,0) symbol; 0 is infinite."""
    return (first_homology(s).order(),
            int(abs(euler_sum(s).value * prod(p.mu for p in s.pairs))))


def h1_of_both(s, t):
    """H1 of s and t when unoriented equivalence calls them the same."""
    if not symbols_equivalent(s, t, EquivalenceMode.UNORIENTED_FIBER):
        return None, None
    return first_homology(s), first_homology(t)


@ITEM_2
def test_h1_order_is_euler_number_times_indices_on_the_rows():
    got = {row: h1_order_and_euler(parse_symbol(row)) for row in ROWS}
    assert {row: a for row, (a, _) in got.items()} == \
        {row: b for row, (_, b) in got.items()}


@ITEM_2
@DRAWS
@given(sphere_symbols)
def test_h1_order_is_euler_number_times_indices(s):
    a, b = h1_order_and_euler(s)
    assert a == b


@ITEM_2
def test_h1_is_invariant_under_reversal_on_the_rows():
    symbols = [parse_symbol(row) for row in ROWS]
    assert [first_homology(s) for s in symbols] == \
        [first_homology(reverse_orientation(s)) for s in symbols]


@ITEM_2
@DRAWS
@given(closed_oriented_symbols)
def test_h1_is_invariant_under_reversal(s):
    assert first_homology(s) == first_homology(reverse_orientation(s))


@ITEM_2
def test_unoriented_equivalence_keeps_h1_on_the_rows():
    pairs = [README_PAIR] + [
        (row, "(O,o,0 | {}, (2,1), (3,2), ({},{}))".format(b, mu, mu - 1))
        for row, b, mu in ((ROWS[2], -4, 5), (ROWS[3], -2, 6))]
    got = [h1_of_both(parse_symbol(a), parse_symbol(b)) for a, b in pairs]
    assert all(h is not None for h, _ in got)
    assert [h for h, _ in got] == [k for _, k in got]


@ITEM_2
@DRAWS
@given(closed_oriented_symbols, closed_oriented_symbols, st.booleans())
def test_unoriented_equivalence_keeps_h1(s, other, mirror):
    t = reverse_orientation(s) if mirror else other
    h, k = h1_of_both(s, t)
    assert h == k
