"""Normalize once: normalize_symbol marks its result and trusts the mark.

The mark must be invisible (equality, hashing, repr), must never outlive
a change of the data (seifert.replace, the constructor), and must
make every later normalization free, so that a report builds exactly two
symbols per line: the parse and one normal form.
"""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seifert import (CrossingPair, NotClosedOriented, SeifertSymbol,
                     euler_sum, normalize_symbol, replace, reverse_orientation)
from seifert.cli import build_report
from symbolgen import any_symbols, bounded_symbols, closed_oriented_symbols

GOLDEN = Path(__file__).parent / "data" / "golden_symbols.txt"


def rebuilt(s):
    """The same data through the constructor, hence unmarked."""
    return SeifertSymbol(s.class_part, s.boundary_tori, s.boundary_klein,
                         s.obstruction, s.pairs)


@st.composite
def raw_spellings(draw, symbols=any_symbols):
    """(normal form, raw data) with index-1, unfolded and unsorted pairs.

    The raw data always holds at least one (1,0) pair, so it is never a
    normal form itself.
    """
    ns = draw(symbols)
    pairs = [CrossingPair(p.mu, p.mu - p.beta) if draw(st.booleans()) else p
             for p in ns.pairs]
    pairs += [CrossingPair(1, 0)] * draw(st.integers(1, 3))
    obstruction = ns.obstruction
    if ns.is_closed and ns.class_part.total == "O":
        obstruction += draw(st.integers(-3, 3))
    elif ns.is_closed:
        pairs += [CrossingPair(2, 1)] * draw(st.integers(0, 2))
        obstruction = (obstruction[0] + draw(st.integers(0, 3)),
                       obstruction[1])
    pairs = draw(st.permutations(pairs))
    return ns, {"obstruction": obstruction, "pairs": tuple(pairs)}


def raw_symbol(ns, data):
    return SeifertSymbol(ns.class_part, ns.boundary_tori, ns.boundary_klein,
                         data["obstruction"], data["pairs"])


oriented_raw = raw_spellings(st.one_of(
    closed_oriented_symbols,
    bounded_symbols.filter(lambda s: s.class_part.total == "O")))


def test_build_report_builds_two_symbols_per_golden_line(monkeypatch):
    built = []
    post_init = SeifertSymbol.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SeifertSymbol, "__post_init__", counted)
    for line in GOLDEN.read_text().splitlines():
        built.clear()
        build_report(line)
        assert len(built) == 2, f"{line}: built {len(built)} symbols"


@given(any_symbols)
def test_the_mark_is_invisible(ns):
    fresh = rebuilt(ns)
    assert fresh == ns
    assert hash(fresh) == hash(ns)
    assert repr(fresh) == repr(ns)
    assert normalize_symbol(ns) is ns
    assert normalize_symbol(fresh) is not fresh
    assert normalize_symbol(fresh) == ns


@given(raw_spellings())
def test_replace_does_not_carry_the_mark(case):
    ns, data = case
    want = normalize_symbol(raw_symbol(ns, data))
    assert normalize_symbol(replace(ns, **data)) == want
    assert list(want.pairs) == sorted(want.pairs,
                                      key=lambda p: (p.mu, p.beta))
    assert all(p.mu > 1 for p in want.pairs)


@given(raw_spellings())
def test_normalizing_leaves_its_argument_unmarked(case):
    raw = raw_symbol(*case)
    first = normalize_symbol(raw)
    assert first != raw
    assert normalize_symbol(raw) == first
    assert normalize_symbol(raw) is not raw


@given(raw_spellings())
def test_euler_sum_ignores_the_spelling(case):
    raw = raw_symbol(*case)
    if raw.is_closed and raw.class_part.total == "O":
        assert euler_sum(raw) == euler_sum(normalize_symbol(raw))
        return
    for s in (raw, normalize_symbol(raw)):
        with pytest.raises(NotClosedOriented):
            euler_sum(s)


@given(oriented_raw)
def test_reverse_of_raw_data_is_an_involution_onto_the_normal_form(case):
    raw = raw_symbol(*case)
    r = reverse_orientation(raw)
    assert r == normalize_symbol(rebuilt(r))
    assert r == reverse_orientation(normalize_symbol(raw))
    assert reverse_orientation(r) == normalize_symbol(raw)
