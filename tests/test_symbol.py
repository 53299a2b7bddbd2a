"""Symbol grammar, normal form, reversal, and class bookkeeping."""

import pytest
from hypothesis import given

from seifert import (ClassPart, CrossingPair, EquivalenceMode, InvalidSurface,
                     ModeError, NotOriented, ParseError, SeifertSymbol,
                     SurfaceSpec, ValidityError, classifying_classes,
                     normalize_symbol, parse_symbol, render_symbol,
                     reverse_orientation, symbols_equivalent,
                     total_space_orientability)
from symbolgen import any_symbols, closed_oriented_symbols


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


def test_classifying_rejects_mismatched_boundary_flag():
    with pytest.raises(InvalidSurface):
        classifying_classes(SurfaceSpec(True, 1, 2), closed=True)
    with pytest.raises(InvalidSurface):
        classifying_classes(SurfaceSpec(True, 1, 0), closed=False)


def test_total_space_orientability_table():
    assert total_space_orientability(ClassPart("O", "o", 2)) == "O"
    assert total_space_orientability(ClassPart("O", "n", 1)) == "O"
    assert total_space_orientability(ClassPart("N", "o", 1)) == "N"
    assert total_space_orientability(ClassPart("N", "n", 1, "I")) == "N"
    assert total_space_orientability(ClassPart("N", "n", 2, "II")) == "N"
    assert total_space_orientability(ClassPart("N", "n", 3, "III")) == "N"
