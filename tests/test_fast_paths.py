"""What the shortcuts of the report path rely on, checked against the
general code: a marked normal form expands its index-2 count without a
sort, a one-column H1 core is a cyclic group or one more Z, and the lens
helper that recognition shares with lens_normalize gives its parameters."""

from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seifert import (ClassPart, CrossingPair, SeifertSymbol, abelianization,
                     first_homology, lens_normalize, normalize_symbol,
                     parse_symbol, pi1_presentation, render_symbol, replace)
from seifert import groups
from seifert.lens import _lens_params
from symbolgen import (any_symbols, bounded_symbols, fibered_symbols,
                       high_genus_symbols)

DRAWS = settings(derandomize=True, max_examples=300)


@DRAWS
@given(st.one_of(any_symbols, bounded_symbols, fibered_symbols,
                 high_genus_symbols))
def test_a_marked_normal_form_expands_as_the_sort_does(s):
    # every class, closed and bounded
    ns = parse_symbol(render_symbol(s))
    plain = replace(ns)
    assert ns._normal and not plain._normal
    count = plain.obstruction[1] \
        if plain.is_closed and plain.class_part.total == "N" else 0
    expanded = sorted([CrossingPair(2, 1)] * count + list(plain.pairs),
                      key=lambda p: (p.mu, p.beta))
    assert ns.expanded_pairs() == plain.expanded_pairs() == tuple(expanded)


@st.composite
def one_column_symbols(draw):
    """Closed (O,o,g) symbols whose indices are pairwise coprime, so that
    no fold leaves a side row; with no fiber, b = 0 makes the core 0."""
    genus = draw(st.integers(0, 3))
    pairs = []
    for mu in draw(st.lists(st.integers(2, 10**4), max_size=4)):
        if all(gcd(mu, p.mu) == 1 for p in pairs):
            beta = draw(st.integers(1, mu - 1))
            while gcd(mu, beta) != 1:
                beta += 1
            pairs.append(CrossingPair(mu, beta))
    b = draw(st.integers(-5, 5)) if pairs else draw(st.sampled_from((0, 1, -3)))
    return normalize_symbol(SeifertSymbol(ClassPart("O", "o", genus), 0, 0, b,
                                          tuple(pairs)))


def _unreached(*args):
    raise AssertionError("a one-column core reached the general path")


@DRAWS
@given(one_column_symbols())
def test_a_one_column_core_is_read_as_the_presentation_abelianizes(s):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_core_factors", _unreached)
        mp.setattr(groups, "_chain", _unreached)
        h1 = first_homology(s)
    assert h1 == abelianization(pi1_presentation(s))
    if not s.pairs and s.obstruction == 0:
        assert h1.free_rank == 2 * s.class_part.genus + 1


@DRAWS
@given(st.one_of(st.integers(2, 10**4), st.integers(10**30, 10**31)),
       st.integers(-10**31, 10**31))
def test_the_lens_helper_is_lens_normalize(p, q):
    assume(gcd(p, q) == 1)
    q0 = q % p
    inv = pow(q, -1, p)
    params = _lens_params(p, q0, inv)
    assert params == lens_normalize(p, q)
    # the least of the orbit +-q^{+-1} mod p
    assert params.q == min(x % p for x in (q, -q, inv, -inv))
