"""Euler sum, orientation double cover, fiberless covers."""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert import (AlreadyOrientable, CrossingPair, IndexNotDivisible,
                     NotClosed, NotClosedOriented, OddEulerCharacteristic,
                     OutputTooLong, QuotientFinite, SeifertSymbol,
                     ValidityError, euler_sum, fiberless_cover, fuchsian_euler,
                     orientable_double_cover, parse_symbol, render_symbol,
                     reverse_orientation, signature_of_symbol,
                     suggest_cover_sheets)
from seifert.cli import build_report

from symbolgen import (closed_nonorientable_symbols, closed_oriented_symbols,
                       fibered_symbols)


def sym(text):
    return parse_symbol(text)


# the Euler sum


def test_euler_sum_examples():
    assert euler_sum(sym("(O,o,0 | -1, (2,1), (3,1), (7,1))")).value == \
        Fraction(-1, 42)
    assert euler_sum(sym("(O,o,1 | 0)")).value == 0
    assert euler_sum(sym("(O,o,0 | -2, (2,1), (2,1), (2,1), (2,1))")).value == 0
    assert euler_sum(sym("(O,o,0 | 2, (5,3))")).value == Fraction(13, 5)


def test_euler_sum_needs_closed_oriented():
    for text in ["(N,o,1 | (0,0))", "(N,n,II,2 | (0,0))", "(O,o,0; m=1 | -)",
                 "(O,n,1; m=1 | -)"]:
        with pytest.raises(NotClosedOriented):
            euler_sum(sym(text))


@given(closed_oriented_symbols)
def test_euler_sum_negates_under_reversal(s):
    assert euler_sum(reverse_orientation(s)).value == -euler_sum(s).value


def per_pair_euler_sum(s):
    total = Fraction(s.obstruction)
    for p in s.pairs:
        total += Fraction(p.beta, p.mu)
    return total


@st.composite
def with_ordinary_pairs(draw, symbols):
    """A closed class-O symbol with 1-3 (1,0) pairs added, in any order."""
    s = draw(symbols)
    pairs = list(s.pairs) + [CrossingPair(1, 0)] * draw(st.integers(1, 3))
    return SeifertSymbol(s.class_part, 0, 0, s.obstruction,
                         tuple(draw(st.permutations(pairs))))


closed_fibered_oriented = fibered_symbols.filter(
    lambda s: s.is_closed and s.class_part.total == "O")


@settings(max_examples=300)
@given(st.one_of(closed_oriented_symbols, closed_fibered_oriented,
                 with_ordinary_pairs(closed_oriented_symbols),
                 with_ordinary_pairs(closed_fibered_oriented)))
def test_euler_sum_matches_the_per_pair_sum(s):
    # one Fraction over the lcm of the indices, which pass 10^30 here
    assert euler_sum(s).value == per_pair_euler_sum(s)


# the orientation double cover


def test_double_cover_examples():
    table = [
        ("(N,n,I,1 | (0,0), (3,1))", "(O,o,0 | -1, (3,1), (3,2))"),
        ("(N,o,1 | (0,0))", "(O,o,1 | 0)"),
        ("(N,n,I,2 | (0,2))", "(O,o,1 | -2, (2,1), (2,1), (2,1), (2,1))"),
        ("(N,n,II,2 | (0,0))", "(O,n,2 | 0)"),
        ("(N,n,III,3 | (1,0), (5,2))", "(O,n,4 | -1, (5,2), (5,3))"),
        ("(N,o,2 | (0,1))", "(O,o,3 | -1, (2,1), (2,1))"),
    ]
    for base, cover in table:
        assert render_symbol(orientable_double_cover(sym(base))) == cover


def test_double_cover_input_guards():
    with pytest.raises(AlreadyOrientable):
        orientable_double_cover(sym("(O,o,1 | 0)"))
    with pytest.raises(AlreadyOrientable):
        orientable_double_cover(sym("(O,n,1 | 0)"))
    with pytest.raises(NotClosed):
        orientable_double_cover(sym("(N,o,1; m=1 | -)"))


_ORBIT_MAP = {
    ("o", None): lambda g: ("O", "o", 2 * g - 1),
    ("n", "I"): lambda g: ("O", "o", g - 1),
    ("n", "II"): lambda g: ("O", "n", 2 * g - 2),
    ("n", "III"): lambda g: ("O", "n", 2 * g - 2),
}


@settings(max_examples=150)
@given(closed_nonorientable_symbols)
def test_double_cover_shape(s):
    cover = orientable_double_cover(s)
    base_pairs = s.expanded_pairs()
    cp = cover.class_part
    assert cp.total == "O"
    want = _ORBIT_MAP[(s.class_part.orbit, s.class_part.subtype)](
        s.class_part.genus)
    assert (cp.total, cp.orbit, cp.genus) == want
    assert cover.obstruction == -len(base_pairs)
    lifted = Counter()
    for p in base_pairs:
        lifted[(p.mu, p.beta)] += 1
        lifted[(p.mu, p.mu - p.beta)] += 1
    assert Counter((p.mu, p.beta) for p in cover.pairs) == lifted
    assert (fuchsian_euler(signature_of_symbol(cover))
            == 2 * fuchsian_euler(signature_of_symbol(s)))


@given(closed_nonorientable_symbols)
def test_double_cover_is_self_reversing_with_zero_euler(s):
    cover = orientable_double_cover(s)
    if cover.class_part.total == "O" and cover.class_part.orbit == "o":
        assert reverse_orientation(cover) == cover
        assert euler_sum(cover).value == 0


# fiberless covers


def test_fiberless_worked_instance():
    base = sym("(O,o,0 | -1, (2,1), (3,1), (7,1))")
    chi_orb = Fraction(2) - sum(Fraction(m - 1, m) for m in (2, 3, 7))
    assert chi_orb == Fraction(-1, 42)
    fc = fiberless_cover(base, 84)
    assert fc.orbit_known
    assert fc.orbit_chi == 84 * chi_orb == -2
    assert fc.obstruction == 84 * euler_sum(base).value == -2
    assert render_symbol(fc.symbol) == "(O,o,2 | -2)"


def test_fiberless_identity_and_flat_cases():
    fc = fiberless_cover(sym("(O,o,2 | 5)"), 1)
    assert render_symbol(fc.symbol) == "(O,o,2 | 5)"
    fc = fiberless_cover(sym("(O,o,1 | 0)"), 2)
    assert render_symbol(fc.symbol) == "(O,o,1 | 0)"
    fc = fiberless_cover(sym("(O,o,0 | -2, (2,1), (2,1), (2,1), (2,1))"), 2)
    assert render_symbol(fc.symbol) == "(O,o,1 | 0)"


def test_fiberless_nonorientable_orbit_is_partial():
    fc = fiberless_cover(sym("(O,n,2 | 1)"), 2)
    assert fc.symbol is None and not fc.orbit_known
    assert fc.obstruction == 2 and fc.orbit_chi == 0
    fc = fiberless_cover(sym("(O,n,2 | 1)"), 3)
    assert (fc.obstruction, fc.orbit_chi) == (3, 0)


def test_fiberless_input_guards():
    base = sym("(O,o,0 | -1, (2,1), (3,1), (7,1))")
    with pytest.raises(IndexNotDivisible):
        fiberless_cover(base, 41)
    with pytest.raises(OddEulerCharacteristic):
        fiberless_cover(base, 42)
    with pytest.raises(QuotientFinite):
        fiberless_cover(sym("(O,o,0 | -1, (2,1), (3,1), (5,1))"), 60)
    with pytest.raises(NotClosedOriented):
        fiberless_cover(sym("(N,o,2 | (0,0))"), 2)
    with pytest.raises(NotClosedOriented):
        fiberless_cover(sym("(O,o,1; m=1 | -)"), 2)
    with pytest.raises(ValidityError):
        fiberless_cover(sym("(O,o,1 | 0)"), 0)


def test_fiberless_covers_compose():
    base = sym("(O,o,0 | -1, (2,1), (3,1), (7,1))")
    first = fiberless_cover(base, 84)
    second = fiberless_cover(first.symbol, 3)
    assert second.obstruction == 3 * 84 * euler_sum(base).value == -6
    assert second.orbit_chi == 3 * first.orbit_chi
    assert render_symbol(second.symbol) == "(O,o,4 | -6)"


def test_suggested_sheet_counts():
    assert suggest_cover_sheets(sym("(O,o,0 | -1, (2,1), (3,1), (7,1))")) == 84
    assert suggest_cover_sheets(sym("(O,o,1 | 0)")) == 1
    assert suggest_cover_sheets(
        sym("(O,o,0 | -2, (2,1), (2,1), (2,1), (2,1))")) == 2
    assert suggest_cover_sheets(sym("(O,o,0 | -1, (2,1), (3,1), (6,1))")) == 6
    with pytest.raises(QuotientFinite):
        suggest_cover_sheets(sym("(O,o,0 | 1)"))


def test_suggestion_always_feeds_the_cover():
    bases = ["(O,o,0 | -1, (2,1), (3,1), (7,1))", "(O,o,1 | 1, (4,3))",
             "(O,o,2 | -3, (2,1), (3,2), (5,4))", "(O,n,2 | 1)",
             "(O,n,1 | 0, (2,1), (2,1))", "(O,o,0 | 0, (3,1), (4,1), (5,2))"]
    for text in bases:
        s = sym(text)
        sheets = suggest_cover_sheets(s)
        fc = fiberless_cover(s, sheets)
        assert fc.obstruction == sheets * euler_sum(s).value, text


# the report's Euler text, written from integers without a Fraction


@st.composite
def euler_text_symbols(draw):
    """Closed class-O symbol texts whose Euler sum is zero, integral or
    anything, b negative or positive, indices up to past 10^30."""
    orbit = draw(st.sampled_from("on"))
    genus = draw(st.integers(orbit == "n", 2))
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        mu = draw(st.integers(2, 10**33))
        beta = draw(st.integers(1, mu - 1))
        while gcd(mu, beta) != 1:
            beta = beta % (mu - 1) + 1
        pairs.append((mu, beta))
    kind = draw(st.sampled_from(["zero", "integral", "any"]))
    if kind != "any":  # each pair and its complement sum to 1
        pairs += [(mu, mu - beta) for mu, beta in pairs]
    b = -len(pairs) // 2 if kind == "zero" else draw(
        st.integers(-10**31, 10**31))
    body = ", ".join([str(b)] + [f"({mu},{beta})" for mu, beta in pairs])
    return f"(O,{orbit},{genus} | {body})"


@given(euler_text_symbols())
def test_report_euler_text_is_the_euler_sum(text):
    v = euler_sum(sym(text)).value
    assert build_report(text)["euler_sum"] == f"{v.numerator}/{v.denominator}"


def test_report_euler_text_past_the_digit_limit():
    # the sum exists, but its denominator has 4,401 digits
    text = f"(O,o,0 | 0, ({10**2200 + 1},1), ({10**2200 + 3},1))"
    assert euler_sum(sym(text)).value.denominator > 10**4400
    with pytest.raises(OutputTooLong):
        build_report(text)
