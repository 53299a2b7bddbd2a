"""Symbol grammar, normal form, reversal, and class bookkeeping."""

import contextlib
import re
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import parse_oracle
from seifert import (ClassPart, CountTooLarge, CrossingPair, EquivalenceMode,
                     InputError, ModeError, NotOriented, ParseError,
                     SeifertSymbol, SurfaceSpec, ValidityError,
                     classifying_classes, normalize_symbol, parse_symbol,
                     render_symbol, reverse_orientation, symbols_equivalent,
                     total_space_orientability)
from seifert import symbol
from symbolgen import (any_symbols, bounded_symbols, closed_oriented_symbols,
                       fibered_symbols, high_genus_symbols)


def canon(text):
    return normalize_symbol(parse_symbol(text))


# parsing


def test_parse_closed_oriented():
    s = parse_symbol("(O,o,0 | -1, (2,1), (3,2))")
    assert s.class_part == ClassPart("O", "o", 0)
    assert s.obstruction == -1
    assert s.pairs == (CrossingPair(2, 1), CrossingPair(3, 2))
    assert s.is_closed


def test_parse_closed_nonorientable():
    s = parse_symbol("(N,n,I,1 | (0,0), (3,1))")
    assert s.class_part == ClassPart("N", "n", 1, "I")
    assert s.obstruction == (0, 0)
    assert s.pairs == (CrossingPair(3, 1),)


def test_parse_bounded():
    s = parse_symbol("(O,o,1; m=2 | -, (5,2))")
    assert s.boundary_tori == 2
    assert s.boundary_klein == 0
    assert s.obstruction is None
    assert s.is_bounded


def test_parse_klein_boundary():
    s = parse_symbol("(N,o,0; m=0, kb=2 | -)")
    assert s.boundary_klein == 2


def test_parse_whitespace_is_free():
    assert parse_symbol("( O , o , 0|-1,( 2 , 1 ))") == \
        parse_symbol("(O,o,0 | -1, (2,1))")


@pytest.mark.parametrize("spaced, tight", [
    ("(O,o,0 | - 5)", "(O,o,0 | -5)"),
    ("(O,o,0 | -\t5, (2,1))", "(O,o,0 | -5, (2,1))"),
    ("(N,n,I,1 | (- 1, 2))", "(N,n,I,1 | (-1, 2))"),
    ("(O,o,0 | 0, (3, - 1))", "(O,o,0 | 0, (3, -1))"),
    ("(O,o,0 | + 5)", "(O,o,0 | 5)"),
])
def test_parse_whitespace_after_a_sign_is_free(spaced, tight):
    assert parse_symbol(spaced) == parse_symbol(tight)


def test_parse_signed_obstruction_on_bounded_symbol_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_symbol("(O,o,0; m=1 | - 5)")
    assert str(exc.value).startswith('bounded symbols start the tail with "-"')
    assert exc.value.position == 16


def test_parse_dash_at_the_end_is_the_bounded_marker():
    with pytest.raises(ParseError) as exc:
        parse_symbol("(O,o,0; m=1 | -")
    assert str(exc.value).startswith("expected ')'")
    assert exc.value.position == 15


def test_parse_rejects_noncoprime_pair():
    with pytest.raises(ValidityError):
        parse_symbol("(O,o,0 | -1, (2,4))")


def test_parse_rejects_odd_klein_count():
    with pytest.raises(ValidityError):
        parse_symbol("(N,o,1; m=1, kb=1 | -)")


def test_parse_rejects_subtype_on_too_few_crosscaps():
    with pytest.raises(ValidityError):
        parse_symbol("(N,n,III,2 | (0,0))")


def test_parse_rejects_dash_obstruction_on_closed():
    with pytest.raises((ParseError, ValidityError)):
        parse_symbol("(O,o,0 | -)")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_symbol("(O,o,0 | bad)")
    assert exc.value.position == 9


@pytest.mark.parametrize("text", ["(O,o,0 | \u00b2)", "(O,o,0 | \u0663)",
                                  "(O,o,0 | 1, (\uff13,1))"])
def test_parse_reads_ascii_digits_only(text):
    # superscript two, Arabic-Indic three, fullwidth three
    with pytest.raises(ParseError) as exc:
        parse_symbol(text)
    assert str(exc.value).startswith("expected an integer")


def test_parse_error_on_truncated_text():
    with pytest.raises(ParseError):
        parse_symbol("(O,o,0 | -1, (2,1)")


# every place the parser raises a ParseError
PARSE_ERROR_SITES = [
    ("", "expected '('", 0),
    ("(Q,o,0 | 1)", "expected a class like O,o, or N,n,I,", 1),
    ("(O,o,0; m 1 | -)", "expected m=", 8),
    ("(O,o,0; m=1, k=2 | -)", "expected kb=", 13),
    ("(O,o,1 0 | 0)", "expected '|'", 7),  # whitespace splits an integer
    ("(N,n,I,1 | (0,-1))", "expected an integer", 14),
    ("(O,o,0 | 1, (- x,1))", "expected an integer", 13),  # at the sign
    ("(O,o,0 | 1\u0663)", "expected ')'", 10),  # an ASCII digit run ends
    ("(O,o,0; m=1 | -\u00b2)", "expected ')'", 15),  # "-" is the marker
    ("(O,o,0 | " + "9" * 5000 + ")",
     "integer of 5000 digits is too long to convert", 9),
    ("(O,o,0; m=1 | 5)", 'bounded symbols start the tail with "-"', 14),
    ("(O,o,0 | 1) x", "trailing text after the symbol", 12),
    ("(O,o,0 | 1, 2)", "expected '('", 12),
    ("(O,o,x | 1)", "expected an integer", 5),
    ("(O,o,0; m=x | -)", "expected an integer", 10),
    ("(N,o,0; m=0, kb=x | -)", "expected an integer", 16),
    # the error points at b, past the "-" sign and the whitespace after it
    ("(O,o,0; m=1 | - 5)", 'bounded symbols start the tail with "-"', 16),
    ("(N,o,1 | (0 0))", "expected ','", 12),
    ("(N,o,1 | (0,x))", "expected an integer", 12),
    ("(N,o,1 | (0,0 x", "expected ')'", 14),
    ("(O,o,0 | 1, (2 1))", "expected ','", 15),
    ("(O,o,0 | 1, (2,1 x", "expected ')'", 17),
    ("(O,o,0 | 1, (2,1)", "expected ')'", 17),
    ("(N,n,IIII,4 | (0,0))", "expected a class like O,o, or N,n,I,", 1),
    ("(O , o , 0 ; m = 1 | - , (2 , 1) , 3)", "expected '('", 35),
]


def _case_id(value):
    if isinstance(value, str) and len(value) > 60:
        return f"{value[:12]}...{len(value)} chars"
    return None


@pytest.mark.parametrize("text, message, position", PARSE_ERROR_SITES,
                         ids=_case_id)
def test_parse_error_sites(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_symbol(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


@pytest.mark.parametrize("spaced, tight", [
    ("(N , n , I I I , 3 | (0,1))", "(N,n,III,3 | (0,1))"),
    ("(N,o,0; m = 0 , k b = 2 | -)", "(N,o,0; m=0, kb=2 | -)"),
    ("\u3000(O,o,0|\u00a0-\t1)\n", "(O,o,0 | -1)"),
])
def test_parse_whitespace_inside_a_keyword_is_free(spaced, tight):
    assert parse_symbol(spaced) == parse_symbol(tight)


# the old character scanner in tests/parse_oracle.py, whose value the old
# parser left for normalize_symbol to finish, as the oracle

def _outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _oracle_parse(text):
    return normalize_symbol(parse_oracle.parse_symbol(text))


_EDIT_CHARS = list(" \t\n+-()|,;=0123456789ONIonmkb\u00b2\u0663")


@st.composite
def edited_symbol_texts(draw):
    """A rendered symbol of any class, closed or bounded, with 1-4 random
    insertions, deletions or replacements."""
    text = render_symbol(draw(st.one_of(any_symbols, bounded_symbols,
                                        fibered_symbols)))
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        c = "" if edit == "delete" else draw(st.sampled_from(_EDIT_CHARS))
        text = text[:k] + c + text[k + (edit != "insert"):]
    return text


@settings(max_examples=400)
@given(edited_symbol_texts())
def test_parse_matches_the_old_scanner(text):
    assert _outcome(parse_symbol, text) == _outcome(_oracle_parse, text)


@pytest.mark.parametrize("text", [t for t, _, _ in PARSE_ERROR_SITES] + [
    "(N , n , I I I , 3 | (0,1))", "(O,o,0 | - 5)", "(O,o,0; m=1 | -",
    "(O,o,0; m=1 | -5)", "(O,o,0 | -)",
    "(O,o,0 | \u00b2)", "(O,o,0 | \u0663)", "(O,o,0 | -" + "9" * 5000 + ")",
    "(O,o,0 | 1, (0,1))", "(O,o,0 | 1, (2,4))", "(O,o,0 | (1,0))",
], ids=_case_id)
def test_parse_matches_the_old_scanner_on_fixed_cases(text):
    assert _outcome(parse_symbol, text) == _outcome(_oracle_parse, text)


# parse_symbol returns the marked normal form: index-1 pairs drop out with
# their beta carried into b, out-of-range and unsorted pairs are reduced
# and sorted, class-N betas fold into [0, mu/2] (one to b per fold), closed
# class-N index-2 pairs move into s, and class-N b is reduced mod 2 and
# zeroed when s > 0
@pytest.mark.parametrize("text, normal", [
    ("(O,o,0 | 1, (1,0), (3,1), (1,2))", "(O,o,0 | 3, (3,1))"),
    ("(O,o,1 | 0, (5,7), (3,-1))", "(O,o,1 | 0, (3,2), (5,2))"),
    ("(O,o,0 | 0, (5,1), (3,2), (3,1))", "(O,o,0 | 0, (3,1), (3,2), (5,1))"),
    ("(O,o,0; m=1 | -, (5,-1), (1,3))", "(O,o,0; m=1 | -, (5,4))"),
    ("(N,n,I,1 | (0,0), (5,3))", "(N,n,I,1 | (1,0), (5,2))"),
    ("(N,o,2 | 0, (7,-3), (4,3))", "(N,o,2 | (1,0), (4,1), (7,3))"),
    ("(N,n,I,1 | (0,0), (2,1), (3,1))", "(N,n,I,1 | (0,1), (3,1))"),
    ("(N,o,1 | (1,0), (2,-1), (2,3))", "(N,o,1 | (0,2))"),
    ("(N,o,1 | 5)", "(N,o,1 | (1,0))"),
    ("(N,n,II,2 | (-3,0), (7,9))", "(N,n,II,2 | (0,0), (7,2))"),
    ("(N,n,III,3 | (3,0), (1,4), (9,5))", "(N,n,III,3 | (0,0), (9,4))"),
    ("(N,n,I,1 | (1,2))", "(N,n,I,1 | (0,2))"),
    ("(N,o,1; m=1 | -, (2,1), (5,4))", "(N,o,1; m=1 | -, (2,1), (5,1))"),
])
def test_parse_returns_the_marked_normal_form(text, normal):
    s = parse_symbol(text)
    assert s._normal
    assert render_symbol(s) == normal
    assert s == _oracle_parse(text)
    assert normalize_symbol(s) is s


def _respace(text, rng, digit_runs):
    """Rendered text with whitespace put at random boundaries: between two
    digits when digit_runs is set, anywhere else when it is not."""
    out = []
    for k in range(len(text) + 1):
        inside = 0 < k < len(text) and text[k - 1:k + 1].isdigit()
        if inside == digit_runs and rng.random() < 0.3:
            out.append(rng.choice((" ", "\t", "\n", "\u00a0", "\u3000")))
        out.append(text[k:k + 1])
    return "".join(out)


@given(st.one_of(any_symbols, bounded_symbols, fibered_symbols), st.randoms())
def test_whitespace_between_tokens_leaves_the_value(s, rng):
    # a class keyword and a signed integer may be split, an integer not
    assert parse_symbol(_respace(render_symbol(s), rng, False)) == s


@given(st.one_of(fibered_symbols, high_genus_symbols), st.randoms())
def test_whitespace_inside_an_integer_is_a_parse_error(s, rng):
    text = render_symbol(s)
    spaced = _respace(text, rng, True)
    if spaced != text:
        with pytest.raises(ParseError):
            parse_symbol(spaced)


# parse_symbol matches well-formed text with one pattern; the token walker
# reads only text the pattern refuses, a bounded symbol that carries a b or
# a closed one with the marker "-", and an integer past the digit limit,
# and it names every ParseError

ROOT = Path(__file__).resolve().parent.parent
# a symbol with at most one level of nested parentheses in its tail
_SYMBOL_TEXT = re.compile(r"\([ON]\s*,[^|()]*\|(?:[^()\n\"'`]|\([^()\n]*\))*\)")


def _refuse(text):
    raise AssertionError(f"the token walker read {text!r}")


def _without_walker():
    return mock.patch.object(symbol, "_walk_tokens", _refuse)


def _documented_symbols():
    """Every symbol text in the golden corpus, the README and the demos
    that the walker reads to a value."""
    texts = (ROOT / "tests" / "data" / "golden_symbols.txt").read_text() \
        .splitlines()
    for path in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]:
        texts += _SYMBOL_TEXT.findall(path.read_text())
    out = {}
    for text in texts:
        with contextlib.suppress(InputError):
            out[text] = symbol._walk_tokens(text)
    return out


def test_the_pattern_reads_every_documented_symbol():
    want = _documented_symbols()
    assert len(want) >= 230
    with _without_walker():
        assert {text: parse_symbol(text) for text in want} == want


@settings(max_examples=500, derandomize=True)
@given(st.one_of(any_symbols, bounded_symbols, fibered_symbols,
                 high_genus_symbols), st.randoms())
def test_the_pattern_reads_whitespace_between_tokens(s, rng):
    text = _respace(render_symbol(s), rng, False)
    want = symbol._walk_tokens(text)
    with _without_walker():
        assert parse_symbol(text) == want == s


@settings(max_examples=400)
@given(edited_symbol_texts())
def test_the_pattern_reads_every_text_the_walker_reads(text):
    # no integer here is past the digit limit; an invalid pair before a
    # syntax error is the walker's to name, so only values are compared
    want = _outcome(symbol._walk_tokens, text)
    if isinstance(want, SeifertSymbol):
        with _without_walker():
            assert parse_symbol(text) == want


@pytest.mark.parametrize("text", [
    "(O,o,0 | 1, (5,- 2))", "(N,n,I,1 | (- 1, 0), (5,- 2))",
    "(O,o,0; m=1 | -, (3, - 1))",
])
def test_the_pattern_reads_a_sign_parted_from_its_digits(text):
    # rendered symbols and most edits put no whitespace after a sign
    want = symbol._walk_tokens(text)
    with _without_walker():
        assert parse_symbol(text) == want


@pytest.mark.parametrize("text", [t for t, _, _ in PARSE_ERROR_SITES] + [
    "(O,o,0; m=1 | -5)", "(O,o,0 | -)",
    "(O,o,0 | 1, (0,1))", "(O,o,0 | 1, (2,4))", "(O,o,0 | (1,0))",
    "(O,o,0 | -, (2,4))", "(N,n,III,2 | (0,0), (0,1))",
    "(O,o,0 | 1, (2,4), (3," + "9" * 5000 + "))",
    "(O,o,0 | " + "9" * 5000 + ", (2,4))",
    "(O,o," + "9" * 5000 + " | -)",
], ids=_case_id)
def test_parse_errors_are_the_walkers(text):
    assert _outcome(parse_symbol, text) == _outcome(symbol._walk_tokens, text)


_LONG = "(O,o,0 | 0" + ", (2,1)" * 20000


@pytest.mark.parametrize("text", [
    "(O,o,0 |" + " " * 100000 + "1)",
    "(O,o,0 |" + " " * 100000 + "x)",
    "(N,n," + " " * 100000 + "I I,2 | (0,0))",
    "(O,o,0; m=1 |" + " " * 100000 + "-)",
    "(O,o,0 | 1, (2," + " " * 100000 + "1) x",
    _LONG + ")",
    _LONG + " x)",
    _LONG + ", (2,1)",
    _LONG + ", (2 1))",
], ids=_case_id)
def test_parse_time_is_linear_on_long_input(text):
    # a pattern in which two \s* meet backtracks quadratically over a
    # whitespace run: over a minute on the second text
    start = time.perf_counter()
    _outcome(parse_symbol, text)
    assert time.perf_counter() - start < 1


# rendering


def test_render_sorts_pairs():
    s = SeifertSymbol(ClassPart("O", "o", 0), 0, 0, -1,
                      (CrossingPair(3, 1), CrossingPair(2, 1)))
    assert render_symbol(normalize_symbol(s)) == "(O,o,0 | -1, (2,1), (3,1))"


def test_render_bounded():
    assert render_symbol(canon("(O,o,1;m=2|-,(5,2))")) == \
        "(O,o,1; m=2 | -, (5,2))"


def test_render_empty_pair_list():
    assert render_symbol(canon("(O,o,1|0)")) == "(O,o,1 | 0)"


def test_render_nonorientable_obstruction_pair():
    assert render_symbol(canon("(N,o,1|(1,0))")) == "(N,o,1 | (1,0))"


# normalization


def test_normalize_reduces_beta_and_carries_into_b():
    assert canon("(O,o,0 | 0, (3,4))") == canon("(O,o,0 | 1, (3,1))")
    assert render_symbol(canon("(O,o,0 | 0, (3,4))")) == "(O,o,0 | 1, (3,1))"


def test_normalize_moves_index_two_pairs_into_s():
    got = canon("(N,n,I,2 | (1,0), (2,1), (5,2))")
    assert render_symbol(got) == "(N,n,I,2 | (0,1), (5,2))"


def test_normalize_folds_nonorientable_beta():
    got = canon("(N,o,1 | (0,0), (5,4))")
    assert got.pairs == (CrossingPair(5, 1),)


def test_normalize_drops_index_one_pairs():
    got = canon("(O,o,0 | 2, (1,3), (4,1))")
    assert got.obstruction == 5
    assert got.pairs == (CrossingPair(4, 1),)


def test_normalize_zeroes_b_when_s_positive():
    got = canon("(N,n,I,1 | (1,2))")
    assert got.obstruction == (0, 2)


@given(any_symbols)
def test_normalize_idempotent(s):
    assert normalize_symbol(s) == s


@given(any_symbols)
def test_parse_render_round_trip(s):
    text = render_symbol(s)
    assert parse_symbol(text) == s
    assert render_symbol(parse_symbol(text)) == text


# orientation reversal


def test_reverse_example_with_two_pairs():
    got = reverse_orientation(parse_symbol("(O,o,0 | -1, (2,1), (3,2))"))
    assert render_symbol(got) == "(O,o,0 | -1, (2,1), (3,1))"


def test_reverse_fixed_point():
    s = canon("(O,o,1 | 0)")
    assert reverse_orientation(s) == s


def test_reverse_rejects_class_N():
    with pytest.raises(NotOriented):
        reverse_orientation(parse_symbol("(N,o,1 | (0,0))"))


@given(closed_oriented_symbols)
def test_reverse_is_an_involution(s):
    assert reverse_orientation(reverse_orientation(s)) == s


@given(closed_oriented_symbols)
def test_reverse_complements_every_pair(s):
    r = reverse_orientation(s)
    assert sorted(p.mu for p in r.pairs) == sorted(p.mu for p in s.pairs)
    assert r.obstruction == -len(s.pairs) - s.obstruction


# equivalence


def test_equivalent_mirror_pair():
    a = parse_symbol("(O,o,0 | -1, (2,1), (3,1))")
    b = parse_symbol("(O,o,0 | -1, (2,1), (3,2))")
    assert not symbols_equivalent(a, b, EquivalenceMode.ORIENTED_FIBER)
    assert symbols_equivalent(a, b, EquivalenceMode.UNORIENTED_FIBER)


def test_equivalent_obstruction_sign_only():
    a = parse_symbol("(O,o,1 | 3)")
    b = parse_symbol("(O,o,1 | -3)")
    assert symbols_equivalent(a, b, EquivalenceMode.UNORIENTED_FIBER)
    assert not symbols_equivalent(a, b, EquivalenceMode.ORIENTED_FIBER)


def test_oriented_mode_rejects_class_N():
    a = parse_symbol("(N,o,1 | (0,0))")
    with pytest.raises(ModeError):
        symbols_equivalent(a, a, EquivalenceMode.ORIENTED_FIBER)


@given(any_symbols)
def test_every_symbol_is_equivalent_to_itself(s):
    assert symbols_equivalent(s, s)


@given(closed_oriented_symbols)
def test_unoriented_equivalence_sees_through_reversal(s):
    assert symbols_equivalent(s, reverse_orientation(s),
                              EquivalenceMode.UNORIENTED_FIBER)


def test_the_index_2_count_is_written_out_up_to_its_limit():
    pairs = parse_symbol("(N,n,I,1 | (0, 1000000))").expanded_pairs()
    assert pairs == (CrossingPair(2, 1),) * 1000000
    with pytest.raises(CountTooLarge, match="index-2 count over 1000000"):
        parse_symbol("(N,n,I,1 | (0, 1000001))").expanded_pairs()


# classifying classes


def test_class_counts_on_the_named_surfaces():
    sphere = SurfaceSpec(True, 0, 0)
    torus = SurfaceSpec(True, 1, 0)
    projective = SurfaceSpec(False, 1, 0)
    klein = SurfaceSpec(False, 2, 0)
    assert len(classifying_classes(sphere)) == 1
    assert len(classifying_classes(torus)) == 2
    assert len(classifying_classes(projective)) == 2
    assert len(classifying_classes(klein)) == 3
    assert len(classifying_classes(SurfaceSpec(False, 3, 0))) == 4


def test_class_count_table_up_to_six():
    for g in range(7):
        expect = 1 if g == 0 else 2
        assert len(classifying_classes(SurfaceSpec(True, g, 0))) == expect
    for k in range(1, 7):
        expect = {1: 2, 2: 3}.get(k, 4)
        assert len(classifying_classes(SurfaceSpec(False, k, 0))) == expect


def test_class_codes_cover_the_symbol_classes():
    codes = [c.class_code for c in classifying_classes(SurfaceSpec(False, 3, 0))]
    assert codes == ["N,n,I", "O,n", "N,n,II", "N,n,III"]


def test_bounded_surfaces_classify_as_their_capped_off_surfaces():
    for orientable, genus in [(True, 0), (True, 2), (False, 1), (False, 3)]:
        closed = classifying_classes(SurfaceSpec(orientable, genus, 0))
        for boundary in (1, 2, 5):
            assert classifying_classes(
                SurfaceSpec(orientable, genus, boundary)) == closed


TRIVIAL = ("trivial", "O,o", "fiber orientation preserved along every loop")
ONTO = ("onto", "N,o", "a handle loop reverses fiber orientation; total "
        "space non-orientable")
FIXED = ("trivial", "N,n,I", "fiber orientation preserved along every loop; "
         "total space non-orientable")
ORIENTATION = ("orientation", "O,n", "fiber orientation reversed exactly "
               "along orientation-reversing loops; total space orientable")
ONE = ("one-crosscap", "N,n,II", "fiber orientation reversed along the "
       "first crosscap loop only")
TWO = ("two-crosscap", "N,n,III", "fiber orientation reversed along the "
       "first two crosscap loops")


@pytest.mark.parametrize("orientable,genus,classes", [
    (True, 0, [TRIVIAL]),
    *[(True, g, [TRIVIAL, ONTO]) for g in range(1, 5)],
    (False, 1, [FIXED, ORIENTATION]),
    (False, 2, [FIXED, ORIENTATION, ONE]),
    (False, 3, [FIXED, ORIENTATION, ONE, TWO]),
    (False, 4, [FIXED, ORIENTATION, ONE, TWO]),
])
def test_every_class_over_a_surface_is_written_out(orientable, genus, classes):
    got = classifying_classes(SurfaceSpec(orientable, genus))
    assert [(c.name, c.class_code, c.description) for c in got] == classes


def test_total_space_orientability_table():
    assert total_space_orientability(ClassPart("O", "o", 2)) == "O"
    assert total_space_orientability(ClassPart("O", "n", 1)) == "O"
    assert total_space_orientability(ClassPart("N", "o", 1)) == "N"
    assert total_space_orientability(ClassPart("N", "n", 1, "I")) == "N"
    assert total_space_orientability(ClassPart("N", "n", 2, "II")) == "N"
    assert total_space_orientability(ClassPart("N", "n", 3, "III")) == "N"
