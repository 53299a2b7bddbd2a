"""Presentations, abelianization, coset enumeration, triangle groups."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seifert import (AbelianGroup, ClassPart, CrossingPair, FuchsianSignature,
                     IntMatrix, InvalidIndex, LimitTooSmall,
                     OutputTooLong, Presentation, SeifertSymbol, SizeClass,
                     ValidityError,
                     abelianization, classify_small, coset_enumerate,
                     first_homology, fuchsian_euler,
                     fuchsian_quotient, fuchsian_size_class, normalize_symbol,
                     parse_symbol, pi1_presentation, predicates,
                     presentation_text, presentation_texts,
                     recognize_S2_symbol, render_symbol, replace,
                     signature_of_symbol,
                     symbols_equivalent, triangle_info, triangle_presentation)
from seifert import arith, groups
from seifert.groups import _presentation
import presentation_oracle
import snf_oracle
from symbolgen import (any_symbols, bounded_symbols, closed_nonorientable_symbols,
                       closed_oriented_symbols, fibered_symbols,
                       high_genus_symbols, random_bounded,
                       random_closed_nonorientable, random_closed_oriented,
                       random_pair)


# permutation-group oracle: closure size by breadth-first multiplication


def compose(p, q):
    # apply q first, then p
    return tuple(p[i] for i in q)


def closure(gens):
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                e = compose(h, g)
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return seen


def perm(n, *cycles):
    out = list(range(n))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            out[a] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def holds(images, word):
    n = len(images[0])
    acc = tuple(range(n))
    for g, e in word:
        img = images[g]
        if e < 0:
            img = tuple(sorted(range(n), key=img.__getitem__))
        for _ in range(abs(e)):
            acc = compose(img, acc)
    return acc == tuple(range(n))


def check_against_model(pres, images):
    """The images satisfy every relator and their closure bounds the group
    from below; enumeration bounds it from above. Equal counts pin it."""
    for rel in pres.relators:
        assert holds(images, rel)
    model_order = len(closure(list(images)))
    result = coset_enumerate(pres, 100000)
    assert result.is_finite
    assert result.order == model_order
    return model_order


# presentations


def test_presentation_rejects_unmerged_syllables():
    with pytest.raises(ValidityError):
        Presentation(("x",), (((0, 2), (0, 3)),))


def test_presentation_rejects_bad_generator_index():
    with pytest.raises(ValidityError):
        Presentation(("x",), (((1, 2),),))


def test_presentation_text_layout():
    p = Presentation(("h", "c1"), (((1, 2), (0, 1)),))
    assert presentation_text(p) == "< h, c1 | c1^2 h >"
    assert presentation_text(Presentation(("h",), ())) == "< h | - >"
    assert presentation_text(Presentation((), ())) == "< - | - >"


def test_pi1_obstruction_only():
    p = pi1_presentation(parse_symbol("(O,o,0 | 3)"))
    assert p.generators == ("h",)
    assert p.relators == (((0, 3),),)


def test_pi1_three_fiber_presentation():
    p = pi1_presentation(parse_symbol("(O,o,0 | -1, (2,1), (3,1), (5,1))"))
    assert p.generators == ("h", "c1", "c2", "c3")
    assert ((1, 2), (0, 1)) in p.relators
    assert ((2, 3), (0, 1)) in p.relators
    assert ((3, 5), (0, 1)) in p.relators
    assert p.relators[-1] == ((1, 1), (2, 1), (3, 1), (0, -1))
    for c in (1, 2, 3):
        assert ((c, 1), (0, 1), (c, -1), (0, -1)) in p.relators


def test_pi1_projective_product():
    p = pi1_presentation(parse_symbol("(N,n,I,1 | (0,0))"))
    assert p.generators == ("h", "x1")
    assert p.relators == (((1, 1), (0, 1), (1, -1), (0, -1)), ((1, 2),))
    assert abelianization(p) == AbelianGroup(1, (2,))


def test_pi1_bounded_symbol_has_free_boundary_generators():
    p = pi1_presentation(parse_symbol("(O,o,0; m=1 | -, (2,1))"))
    assert p.generators == ("h", "c1", "d1")
    # no long relator: relators are the two conjugations and the pair
    assert len(p.relators) == 3


# Every non-fiber generator y gives the relator y h y^-1 h^-1 when it
# preserves the fiber and y h y^-1 h when it reverses it: the first k
# orbit-surface generators reverse (k = 0 for (O,o), 1 for (N,o), all
# crosscaps for (O,n), 0/1/2 for (N,n,I/II/III)), and so does every
# Klein-bottle boundary generator d.
PI1_BY_CLASS = [
    ("(O,o,1 | 2, (3,1))",
     "< h, a1, b1, c1 | a1 h a1^-1 h^-1, b1 h b1^-1 h^-1, c1 h c1^-1 h^-1,"
     " c1^3 h, a1 b1 a1^-1 b1^-1 c1 h^2 >"),
    ("(O,o,0; m=1 | -, (2,1))",
     "< h, c1, d1 | c1 h c1^-1 h^-1, d1 h d1^-1 h^-1, c1^2 h >"),
    ("(O,n,2 | 1, (2,1))",
     "< h, x1, x2, c1 | x1 h x1^-1 h, x2 h x2^-1 h, c1 h c1^-1 h^-1,"
     " c1^2 h, x1^2 x2^2 c1 h >"),
    ("(O,n,2; m=1 | -, (3,1))",
     "< h, x1, x2, c1, d1 | x1 h x1^-1 h, x2 h x2^-1 h, c1 h c1^-1 h^-1,"
     " d1 h d1^-1 h^-1, c1^3 h >"),
    # the first handle loop reverses the fiber, its partner preserves it
    ("(N,o,1 | (0,0))",
     "< h, a1, b1 | a1 h a1^-1 h, b1 h b1^-1 h^-1, a1 b1 a1^-1 b1^-1 >"),
    ("(N,o,1; m=1 | -, (3,1))",
     "< h, a1, b1, c1, d1 | a1 h a1^-1 h, b1 h b1^-1 h^-1, c1 h c1^-1 h^-1,"
     " d1 h d1^-1 h^-1, c1^3 h >"),
    ("(N,o,1; m=0, kb=2 | -)",
     "< h, a1, b1, d1, d2 | a1 h a1^-1 h, b1 h b1^-1 h^-1, d1 h d1^-1 h,"
     " d2 h d2^-1 h >"),
    ("(N,o,0; m=1, kb=2 | -, (2,1))",
     "< h, c1, d1, d2, d3 | c1 h c1^-1 h^-1, d1 h d1^-1 h^-1, d2 h d2^-1 h,"
     " d3 h d3^-1 h, c1^2 h >"),
    ("(N,n,I,1 | (1,0))",
     "< h, x1 | x1 h x1^-1 h^-1, x1^2 h >"),
    ("(N,n,I,1; m=1 | -)",
     "< h, x1, d1 | x1 h x1^-1 h^-1, d1 h d1^-1 h^-1 >"),
    ("(N,n,I,1; m=0, kb=2 | -)",
     "< h, x1, d1, d2 | x1 h x1^-1 h^-1, d1 h d1^-1 h, d2 h d2^-1 h >"),
    # the index-2 count s = 1 is written out as the pair c1 = (2,1)
    ("(N,n,II,2 | (0,1))",
     "< h, x1, x2, c1 | x1 h x1^-1 h, x2 h x2^-1 h^-1, c1 h c1^-1 h^-1,"
     " c1^2 h, x1^2 x2^2 c1 >"),
    ("(N,n,II,2; m=1 | -, (3,1))",
     "< h, x1, x2, c1, d1 | x1 h x1^-1 h, x2 h x2^-1 h^-1, c1 h c1^-1 h^-1,"
     " d1 h d1^-1 h^-1, c1^3 h >"),
    ("(N,n,II,2; m=0, kb=2 | -)",
     "< h, x1, x2, d1, d2 | x1 h x1^-1 h, x2 h x2^-1 h^-1, d1 h d1^-1 h,"
     " d2 h d2^-1 h >"),
    ("(N,n,III,3 | (1,0))",
     "< h, x1, x2, x3 | x1 h x1^-1 h, x2 h x2^-1 h, x3 h x3^-1 h^-1,"
     " x1^2 x2^2 x3^2 h >"),
    ("(N,n,III,3; m=1 | -)",
     "< h, x1, x2, x3, d1 | x1 h x1^-1 h, x2 h x2^-1 h, x3 h x3^-1 h^-1,"
     " d1 h d1^-1 h^-1 >"),
    ("(N,n,III,3; m=1, kb=2 | -, (3,2))",
     "< h, x1, x2, x3, c1, d1, d2, d3 | x1 h x1^-1 h, x2 h x2^-1 h,"
     " x3 h x3^-1 h^-1, c1 h c1^-1 h^-1, d1 h d1^-1 h^-1, d2 h d2^-1 h,"
     " d3 h d3^-1 h, c1^3 h >"),
]


@pytest.mark.parametrize("text, expected", PI1_BY_CLASS,
                         ids=[t for t, _ in PI1_BY_CLASS])
def test_pi1_conjugation_signs_follow_the_class(text, expected):
    p = pi1_presentation(parse_symbol(text))
    assert presentation_text(p) == expected
    assert presentation_texts(parse_symbol(text))[0] == expected
    # relator y - 1 conjugates h by generator y, in generator order
    for y in range(1, len(p.generators)):
        assert p.relators[y - 1] in (((y, 1), (0, 1), (y, -1), (0, -1)),
                                     ((y, 1), (0, 1), (y, -1), (0, 1)))
    if text == "(N,o,1 | (0,0))":
        assert p.generators == ("h", "a1", "b1")
        assert ((1, 1), (0, 1), (1, -1), (0, 1)) in p.relators
        assert ((2, 1), (0, 1), (2, -1), (0, -1)) in p.relators


@settings(max_examples=400)
@given(st.one_of(fibered_symbols, high_genus_symbols, any_symbols),
       st.sampled_from([0, 2, 4]), st.sampled_from([0, 10**30 + 1, -10**31]))
def test_presentation_texts_match_the_presentations(s, klein, shift):
    # every class, closed and bounded, genus up to 12, up to 12 fibers;
    # bounded class-N symbols get extra Klein-bottle boundaries, closed
    # class-O ones an obstruction past 10^30
    if s.is_bounded and s.class_part.total == "N":
        s = replace(s, boundary_klein=s.boundary_klein + klein)
    elif s.is_closed and s.class_part.total == "O":
        s = replace(s, obstruction=s.obstruction + shift)
    # the one writer of relators against the syllable-by-syllable
    # reference, and the values read back from its texts
    ref = presentation_oracle.pi1_presentation(s)
    quotient = presentation_oracle.quotient_by_h(ref)
    texts = presentation_texts(s)
    assert texts == (presentation_text(ref), presentation_text(quotient))
    assert pi1_presentation(s) == ref
    assert fuchsian_quotient(s) == quotient
    for text in texts:
        assert presentation_text(_presentation(text)) == text


# presentation_texts writes the text that depends only on the shape (class
# part, tori, Klein-bottle boundaries, fiber count) once, and keeps it in
# groups._FRAMES for shapes of at most groups._FRAME_GENERATORS generators
# besides h, up to groups._FRAME_SHAPES shapes


def _shape(s):
    return (s.class_part, s.boundary_tori, s.boundary_klein,
            len(s.expanded_pairs()))


def _generator_count(shape):
    cp, tori, klein, n = shape
    return (2 if cp.orbit == "o" else 1) * cp.genus + n + tori + klein


def _oracle_texts(s):
    ref = presentation_oracle.pi1_presentation(s)
    return (presentation_oracle.presentation_text(ref),
            presentation_oracle.presentation_text(
                presentation_oracle.quotient_by_h(ref)))


def _sibling(s, rng):
    """A symbol of the shape of s with other pairs and, when closed, another
    b: indices 3 to 9 keep the fiber count through normalization."""
    pairs = tuple(random_pair(rng) for _ in s.expanded_pairs())
    pairs = tuple(p if p.mu > 2 else CrossingPair(3, 1) for p in pairs)
    if s.is_bounded:
        obstruction = None
    elif s.class_part.total == "O":
        obstruction = s.obstruction + rng.choice((-2, -1, 1, 2))
    else:
        obstruction = (rng.randint(0, 1), 0)
    return normalize_symbol(replace(s, obstruction=obstruction, pairs=pairs))


def _genus_up_to_80(seed):
    """A symbol of any class, closed or bounded, of genus up to 80: an
    orientable orbit of genus 33 or more, or another of genus 65 or more,
    passes the generator bound."""
    rng = random.Random(seed)
    return rng.choice((random_closed_oriented, random_closed_nonorientable,
                       random_bounded))(rng, g_max=80)


@settings(derandomize=True, max_examples=300)
@given(st.one_of(any_symbols, bounded_symbols, fibered_symbols,
                 high_genus_symbols,
                 st.integers(0, 2**48).map(_genus_up_to_80)),
       st.integers(0, 2**32))
def test_presentation_texts_are_the_oracle_cold_warm_and_past_the_bound(s, seed):
    want = _oracle_texts(s)
    shape = _shape(s)
    kept = _generator_count(shape) <= groups._FRAME_GENERATORS
    sibling = _sibling(s, random.Random(seed))
    assert _shape(sibling) == shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_FRAMES", {})
        assert presentation_texts(s) == want  # cold
        assert list(groups._FRAMES) == ([shape] if kept else [])
        mp.setattr(groups, "_FRAMES", {})
        assert presentation_texts(sibling) == _oracle_texts(sibling)
        assert presentation_texts(s) == want  # warm from the sibling's frame
        assert list(groups._FRAMES) == ([shape] if kept else [])
        # past the generator bound: written on every call, never kept
        mp.setattr(groups, "_FRAME_GENERATORS", _generator_count(shape) - 1)
        mp.setattr(groups, "_FRAMES", {})
        assert presentation_texts(s) == want and not groups._FRAMES
    assert pi1_presentation(s) == presentation_oracle.pi1_presentation(s)


def test_the_frame_table_stops_at_its_cap_and_keeps_no_shape_past_the_bound():
    # 16 shapes past the bound (genus 33 to 48), then 11 x 11 x 13 = 1,573
    # shapes within it, more than the cap of 1,024
    rows = [parse_symbol(f"(O,o,{g} | 1, (7,3))") for g in range(33, 49)]
    rows += [normalize_symbol(SeifertSymbol(ClassPart("O", "o", g), m, 0, None,
                                            (CrossingPair(5, 2),) * n))
             for g in range(11) for m in range(1, 12) for n in range(13)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_FRAMES", {})
        for s in rows:
            assert presentation_texts(s) == _oracle_texts(s)
        frames = dict(groups._FRAMES)
        # a shape past the cap is written each time, a kept one read back
        assert [presentation_texts(s) for s in rows] == \
            [_oracle_texts(s) for s in rows]
    assert len(frames) == groups._FRAME_SHAPES
    assert all(_generator_count(shape) <= groups._FRAME_GENERATORS
               for shape in frames)
    assert len({_shape(s) for s in rows}) > len(frames)


def test_presentations_raise_output_too_long_with_their_texts():
    # both are read from presentation_texts, which cannot print an
    # exponent past the interpreter's int-to-str digit limit
    huge_b = SeifertSymbol(ClassPart("O", "o", 0), 0, 0, 10**5000, ())
    with pytest.raises(OutputTooLong):
        pi1_presentation(huge_b)
    assert first_homology(huge_b) == AbelianGroup(0, (10**5000,))
    huge_mu = SeifertSymbol(ClassPart("O", "o", 0), 0, 0, 0,
                            (CrossingPair(10**5000 + 1, 1),))
    with pytest.raises(OutputTooLong):
        fuchsian_quotient(huge_mu)


def test_fuchsian_triangle_quotient():
    p = fuchsian_quotient(parse_symbol("(O,o,0 | -1, (2,1), (3,1), (5,1))"))
    assert presentation_text(p) == "< c1, c2, c3 | c1^2, c2^3, c3^5, c1 c2 c3 >"


def test_fuchsian_surface_group():
    p = fuchsian_quotient(parse_symbol("(O,o,2 | 7)"))
    assert p.generators == ("a1", "b1", "a2", "b2")
    assert len(p.relators) == 1


def test_fuchsian_trivial_for_obstruction_only():
    p = fuchsian_quotient(parse_symbol("(O,o,0 | 5)"))
    assert p.generators == ()
    assert p.relators == ()


@settings(max_examples=200)
@given(st.one_of(closed_oriented_symbols, closed_nonorientable_symbols,
                 bounded_symbols))
def test_fuchsian_quotient_matches_the_direct_builder(s):
    # the quotient deletes h from the group presentation; the oracle
    # builds the orbifold presentation from scratch
    assert fuchsian_quotient(s) == presentation_oracle.fuchsian_quotient(s)


# abelianization


def test_triangle_abelianizations():
    assert abelianization(triangle_presentation(2, 3, 3)) == AbelianGroup(0, (3,))
    assert abelianization(triangle_presentation(2, 3, 4)) == AbelianGroup(0, (2,))
    assert abelianization(triangle_presentation(2, 3, 5)) == AbelianGroup(0, ())
    assert abelianization(triangle_presentation(2, 2, 6)) == AbelianGroup(0, (2, 2))
    assert abelianization(triangle_presentation(2, 2, 7)) == AbelianGroup(0, (2,))


@pytest.mark.parametrize("r", range(2, 7))
def test_triangle_presentation_relators(r):
    uv = tuple((i % 2, 1) for i in range(2 * r))  # u v u v ... u v
    p = triangle_presentation(2, 3, r)
    assert p.generators == ("u", "v")
    assert p.relators == (((0, 2),), ((1, 3),), uv)
    assert presentation_text(p) == f"< u, v | u^2, v^3, {' '.join(['u v'] * r)} >"


def test_h1_of_poincare_like_symbol_is_trivial():
    p = pi1_presentation(parse_symbol("(O,o,0 | 1, (2,1), (3,1), (5,1))"))
    got = abelianization(p)
    assert got.is_trivial
    # 1*15 + 1*10 + 1*6 - 1*30 = 1
    assert 1 * 15 + 1 * 10 + 1 * 6 - 1 * 30 == 1


def test_abelian_group_describe():
    assert AbelianGroup(0, ()).describe() == "trivial"
    assert AbelianGroup(1, ()).describe() == "Z"
    assert AbelianGroup(2, (2,)).describe() == "Z^2 + Z/2"
    assert AbelianGroup(0, (3,)).describe() == "Z/3"


def test_abelian_group_order():
    assert AbelianGroup(0, (4, 12)).order() == 48
    assert AbelianGroup(1, (2,)).order() == 0
    assert AbelianGroup(0, ()).order() == 1


@given(any_symbols, st.integers(0, 2**32))
def test_abelianization_ignores_presentation_bookkeeping(s, seed):
    rng = random.Random(seed)
    p = pi1_presentation(s)
    base = abelianization(p)
    gens = list(range(len(p.generators)))
    rng.shuffle(gens)
    relabel = {old: new for new, old in enumerate(gens)}
    rels = [tuple((relabel[g], e) for g, e in w) for w in p.relators]
    rng.shuffle(rels)
    shuffled = Presentation(tuple(p.generators[g] for g in gens), tuple(rels))
    assert abelianization(shuffled) == base


@settings(max_examples=200)
@given(st.one_of(closed_oriented_symbols, closed_nonorientable_symbols,
                 bounded_symbols))
def test_abelianization_matches_the_oracle_on_the_full_matrix(s):
    # abelianization prunes zero and repeated rows and columns; the oracle
    # gets every relator and every generator
    p = pi1_presentation(s)
    n = len(p.generators)
    flat = [0] * (len(p.relators) * n)
    for i, word in enumerate(p.relators):
        for g, e in word:
            flat[i * n + g] += e
    factors, defect = snf_oracle.smith_normal_form(
        IntMatrix(len(p.relators), n, tuple(flat)))
    assert abelianization(p) == AbelianGroup(
        defect, tuple(d for d in factors if d > 1))


def _with_snf_input(module, abelianize, p):
    """abelianize(p) and the matrices it hands to module.smith_normal_form."""
    seen = []
    real = module.smith_normal_form
    module.smith_normal_form = lambda m: seen.append(m) or real(m)
    try:
        return abelianize(p), seen
    finally:
        module.smith_normal_form = real


def test_abelianization_merges_equal_rows_written_in_another_order():
    p = Presentation(("a", "b"), (((0, 1), (1, 2)), ((1, 2), (0, 1))))
    assert (_with_snf_input(groups, abelianization, p)
            == _with_snf_input(presentation_oracle,
                               presentation_oracle.abelianization, p)
            == (AbelianGroup(1, ()), [IntMatrix(1, 2, (1, 2))]))


@settings(max_examples=300)
@given(high_genus_symbols, st.sampled_from([0, 2, 4]))
def test_group_block_matches_the_per_syllable_oracle(s, klein):
    # the report's text, quotient and H1, down to the Smith normal form's
    # input matrix, against the per-syllable bodies they replaced; bounded
    # class-N symbols get extra Klein boundaries
    if s.is_bounded and s.class_part.total == "N":
        s = normalize_symbol(replace(s, boundary_klein=s.boundary_klein + klein))
    p = pi1_presentation(s)
    q = fuchsian_quotient(s)
    ref = presentation_oracle.pi1_presentation(s)
    assert p == ref
    assert q == presentation_oracle.quotient_by_h(ref)
    for pres in (p, q):
        assert (presentation_text(pres).encode()
                == presentation_oracle.presentation_text(pres).encode())
        assert (_with_snf_input(groups, abelianization, pres)
                == _with_snf_input(presentation_oracle,
                                   presentation_oracle.abelianization, pres))


def test_class_n_fold_keeps_first_homology():
    # The presentation recipe of pi1_presentation, written out for the
    # unnormalized data of (N,n,I,1 | (0,0), (3,2)): generators h, x1, c1;
    # x1 and c1 commute with h in class (N,n,I); pair c1^3 h^2; long
    # relator x1^2 c1 h^0. It abelianizes to Z + Z/2, the H1 of its normal
    # form (N,n,I,1 | (1,0), (3,1)); (N,n,I,1 | (0,0), (3,1)) has Z.
    p = Presentation(("h", "x1", "c1"), (
        ((1, 1), (0, 1), (1, -1), (0, -1)),
        ((2, 1), (0, 1), (2, -1), (0, -1)),
        ((2, 3), (0, 2)),
        ((1, 2), (2, 1)),
    ))
    assert abelianization(p).describe() == "Z + Z/2"
    s = parse_symbol("(N,n,I,1 | (0,0), (3,2))")
    assert abelianization(pi1_presentation(s)) == abelianization(p)


# first homology from the symbol


@settings(max_examples=400)
@given(st.one_of(fibered_symbols, high_genus_symbols), st.sampled_from([0, 2, 4]))
def test_first_homology_matches_the_oracle(s, klein):
    # every class, closed and bounded; bounded class-N symbols get extra
    # Klein-bottle boundaries; runs of equal pairs leave entangled side rows
    if s.is_bounded and s.class_part.total == "N":
        s = normalize_symbol(replace(s, boundary_klein=s.boundary_klein + klein))
    assert first_homology(s) == abelianization(pi1_presentation(s))


# equal and overlapping indices: side rows that merge, trade for gcd and
# lcm rows, and stay entangled with h into the Smith normal form
@pytest.mark.parametrize("text, h1", [
    ("(O,o,0 | 0, (6,1), (6,1), (6,1), (9,2), (9,2))",
     "Z/3 + Z/3 + Z/6 + Z/306"),
    ("(O,o,0 | 0, (6,1), (6,1), (6,5), (9,2), (10,3), (15,2))",
     "Z/3 + Z/6 + Z/6 + Z/4920"),
    ("(O,o,0 | 0, (6,1), (10,1), (15,1))", "Z/300"),
    ("(O,o,2; m=2 | -, (12,1), (21,5))", "Z^7 + Z/3"),
    ("(O,n,1 | 0, (4,1), (4,1), (4,3), (4,3))", "Z/4 + Z/4 + Z/8 + Z/8"),
    ("(O,o,0; m=1 | -, (4,1), (6,1), (9,2))", "Z^2 + Z/6"),
    ("(N,o,0; m=1, kb=2 | -, (3,1), (3,1), (3,1))", "Z^3 + Z/3 + Z/3 + Z/6"),
    ("(O,o,2; m=2 | -, (12,1), (15,2), (20,7))", "Z^7 + Z/60"),
    ("(O,o,1; m=2 | -, (3,2), (6,1), (8,3), (10,3), (10,3), (12,5))",
     "Z^5 + Z/2 + Z/2 + Z/6 + Z/60"),
])
def test_first_homology_of_entangled_side_rows(text, h1):
    p = pi1_presentation(parse_symbol(text))
    assert abelianization(p).describe() == h1
    assert snf_oracle.abelianization(p).describe() == h1
    assert first_homology(parse_symbol(text)).describe() == h1


# a one-column core, the column h alone, has one invariant factor: the gcd
# of the column, read without a Smith normal form


@st.composite
def any_pair(draw):
    """A pair of index 1 to 30 or past 10^30 with any coprime beta."""
    mu = draw(st.one_of(st.integers(1, 30), st.integers(10**30, 10**31)))
    beta = draw(st.integers(0, mu - 1))
    while gcd(mu, beta) != 1:
        beta += 1
    return CrossingPair(mu, beta % mu)


# closed (O,o,g) symbols with no fiber or one, any b
one_column_closed_symbols = st.builds(
    lambda g, b, pairs: normalize_symbol(
        SeifertSymbol(ClassPart("O", "o", g), 0, 0, b, tuple(pairs))),
    st.integers(0, 4), st.one_of(st.integers(-6, 6), st.integers(-10**31, 10**31)),
    st.lists(any_pair(), max_size=1))


@settings(max_examples=300)
@given(st.one_of(one_column_closed_symbols,
                 bounded_symbols.filter(lambda s: s.class_part.total == "O")))
def test_first_homology_of_a_one_column_core_matches_the_oracle(s):
    assert first_homology(s) == snf_oracle.abelianization(pi1_presentation(s))


def _refuse_elimination(monkeypatch):
    """Make the Smith normal form and the elimination of a core of three
    or more rows and columns raise."""
    def refuse(*args):
        raise AssertionError(f"elimination of {args[0]}")

    monkeypatch.setattr(groups, "smith_normal_form", refuse)
    monkeypatch.setattr(arith, "_rank_and_minor", refuse)
    monkeypatch.setattr(arith, "_diagonal_mod", refuse)


def test_one_column_cores_reach_no_smith_normal_form(monkeypatch):
    heads = [ClassPart("O", "o", g) for g in range(3)]
    rows = [normalize_symbol(SeifertSymbol(cp, 0, 0, b, pairs))
            for cp in heads for b in range(-3, 4)
            for pairs in ((), (CrossingPair(1, 0),), (CrossingPair(5, 2),),
                          (CrossingPair(10**30 + 1, 7),))]
    rows += [SeifertSymbol(cp, m, 0, None, ())
             for cp in heads + [ClassPart("O", "n", 1), ClassPart("O", "n", 2)]
             for m in (1, 2)]
    want = [snf_oracle.abelianization(pi1_presentation(s)) for s in rows]

    _refuse_elimination(monkeypatch)
    assert [first_homology(s) for s in rows] == want


# a one-column core with the row 2h: a closed (N,o,g) symbol, or a bounded
# (N,o,g) one with Klein-bottle boundaries, whose side rows all split. Its
# factor is the gcd of its column, read without arith._core_factors


@st.composite
def two_h_symbols(draw, odd=False):
    """Closed (N,o,g) symbols and bounded (N,o,g) ones with Klein-bottle
    boundaries; with odd, every index is odd and there is no index-2 count,
    so every side row splits (its index is prime to 2)."""
    g = draw(st.integers(0, 3))
    pairs = draw(st.lists(any_pair(), max_size=4))
    if odd:
        pairs = [p for p in pairs if p.mu % 2]
    cp = ClassPart("N", "o", g)
    if g and draw(st.booleans()):
        count = 0 if odd else draw(st.integers(0, 3))
        obstruction = (draw(st.integers(0, 1)) if not count else 0, count)
        return normalize_symbol(SeifertSymbol(cp, 0, 0, obstruction,
                                              tuple(pairs)))
    klein = 2 * draw(st.integers(1, 2))
    return normalize_symbol(SeifertSymbol(cp, draw(st.integers(0, 2)), klein,
                                          None, tuple(pairs)))


@settings(derandomize=True, max_examples=300)
@given(two_h_symbols())
def test_first_homology_with_the_row_2h_matches_the_oracle(s):
    assert first_homology(s) == snf_oracle.abelianization(pi1_presentation(s))


@settings(derandomize=True, max_examples=200)
@given(two_h_symbols(odd=True))
def test_a_one_column_core_with_the_row_2h_reaches_no_core_factors(s):
    want = snf_oracle.abelianization(pi1_presentation(s))

    def refuse(*args):
        raise AssertionError(f"a one-column core reached {args}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_core_factors", refuse)
        mp.setattr(groups, "smith_normal_form", refuse)
        assert first_homology(s) == want


# a two-column core, the column h and the column y of a closed
# non-orientable orbit or the one side row left unsplit, has its invariant
# factors read from its determinantal divisors, with no Smith normal form or
# elimination

_CLOSED_N_ORBIT = [ClassPart("O", "n", 1), ClassPart("O", "n", 3),
                   ClassPart("N", "n", 1, "I"), ClassPart("N", "n", 2, "II"),
                   ClassPart("N", "n", 3, "III")]


def _closed(cp, b, pairs):
    obstruction = b if cp.total == "O" else (b, 0)
    return normalize_symbol(SeifertSymbol(cp, 0, 0, obstruction, tuple(pairs)))


# closed symbols over a non-orientable orbit with no fiber or one, any b
two_column_closed_symbols = st.builds(
    _closed, st.sampled_from(_CLOSED_N_ORBIT),
    st.one_of(st.integers(-6, 6), st.integers(-10**31, 10**31)),
    st.lists(any_pair(), max_size=1))


@st.composite
def side_row_symbols(draw):
    """Bounded symbols, and closed ones over an orientable orbit, with two
    fibers whose indices share a factor: a side row."""
    g = draw(st.sampled_from((2, 3, 6, 10**30)))
    pairs = []
    for _ in range(2):
        mu = g * draw(st.integers(1, 5))
        beta = draw(st.integers(1, 10**6))
        while gcd(mu, beta) != 1:
            beta += 1
        pairs.append(CrossingPair(mu, beta % mu))
    roll = draw(st.integers(0, 3))
    if roll == 0:
        return _closed(draw(st.sampled_from((ClassPart("O", "o", 0),
                                             ClassPart("N", "o", 1)))),
                       draw(st.integers(-6, 6)), pairs)
    cp = ClassPart("O", "o", 0) if roll == 1 else ClassPart("O", "n", 1) \
        if roll == 2 else ClassPart("N", "o", 0)
    tori, klein = (0, 2) if cp.total == "N" else (1, 0)
    return normalize_symbol(SeifertSymbol(cp, tori, klein, None, tuple(pairs)))


@settings(max_examples=300)
@given(st.one_of(two_column_closed_symbols, side_row_symbols()))
def test_first_homology_of_a_two_column_core_matches_the_oracle(s):
    assert first_homology(s) == snf_oracle.abelianization(pi1_presentation(s))


def test_two_column_cores_reach_no_smith_normal_form(monkeypatch):
    rows = [_closed(cp, b, pairs) for cp in _CLOSED_N_ORBIT
            for b in range(-3, 4)
            for pairs in ((), (CrossingPair(3, 1),), (CrossingPair(5, 2),),
                          (CrossingPair(10**30 + 1, 7),))]
    rows += [parse_symbol(t) for t in (
        "(O,o,0 | 0, (4,1), (6,1))", "(O,o,1 | 3, (2,1), (2,1))",
        "(N,o,1 | (0,0), (4,1), (4,1))", "(O,o,0; m=1 | -, (2,1), (2,1))",
        "(O,o,0; m=1 | -, (4,1), (6,5))", "(O,n,1; m=1 | -, (9,2), (6,1))",
        "(N,o,0; m=0, kb=2 | -, (4,1), (6,1))")]
    want = [snf_oracle.abelianization(pi1_presentation(s)) for s in rows]

    _refuse_elimination(monkeypatch)
    assert [first_homology(s) for s in rows] == want


# closed sphere-base symbols with 0 to 3 fibers, lens, platonic, Euclidean
# and hyperbolic, and projective-plane prisms with at most one fiber
_SIGN_HEADS = ["(O,o,0 | {})", "(O,o,0 | {}, (3,1))", "(O,o,0 | {}, (2,1), (3,2))",
               "(O,o,0 | {}, (2,1), (3,1), (5,1))", "(O,o,0 | {}, (2,1), (2,1), (7,3))",
               "(O,o,0 | {}, (2,1), (3,1), (6,1))", "(O,o,0 | {}, (2,1), (3,1), (7,1))",
               "(O,n,1 | {})", "(O,n,1 | {}, (3,1))", "(O,n,1 | {}, (5,2))"]


def _sign_readers(s):
    """Every output that reads the sign of b in the group."""
    small = classify_small(s)
    out = [first_homology(s), presentation_texts(s),
           predicates(s).has_incompressible_surface,
           small and (small.name, small.order)]
    if s.class_part.orbit == "o":
        out.append(recognize_S2_symbol(s))
    return out


def test_long_relator_sign_is_read_in_one_place(monkeypatch):
    # every reader of the long relator's h exponent takes it from one
    # helper, so flipping it flips them all: each output on s becomes the
    # unflipped output on s with b replaced by -b
    s = parse_symbol("(O,o,0 | 1, (2,1), (3,1), (5,1))")
    n = parse_symbol("(N,n,I,1 | (1,0))")
    # the texts below are read with the frames of both shapes kept
    monkeypatch.setattr(groups, "_FRAMES", {})
    before = [pi1_presentation(t).relators[-1] for t in (s, n)]
    texts = [presentation_texts(t) for t in (s, n)]
    assert set(groups._FRAMES) >= {_shape(s), _shape(n)}
    h1 = first_homology(s)
    rows = [normalize_symbol(parse_symbol(head.format(b)))
            for head in _SIGN_HEADS for b in range(-3, 4)]
    mirrored = [_sign_readers(replace(t, obstruction=-t.obstruction))
                for t in rows]
    real = groups._long_relator_exponent
    monkeypatch.setattr(groups, "_long_relator_exponent", lambda t: -real(t))
    for t, expect in zip(rows, mirrored):
        assert _sign_readers(t) == expect, render_symbol(t)
    after = [pi1_presentation(t).relators[-1] for t in (s, n)]
    for old, new in zip(before, after):
        assert old[:-1] == new[:-1] and old[-1][0] == new[-1][0] == 0
        assert new[-1][1] == -old[-1][1] != 0
    flipped = first_homology(s)
    assert flipped == abelianization(pi1_presentation(s)) != h1
    # the report's text writer follows: the last syllable of its pi1 text,
    # as the oracle builder writes it under the same patch
    for t, (pi1, fuchsian) in zip((s, n), texts):
        new_pi1, new_fuchsian = presentation_texts(t)
        assert new_pi1 == presentation_oracle.presentation_text(
            presentation_oracle.pi1_presentation(t)) != pi1
        head, last, _ = pi1.rsplit(" ", 2)
        new_head, new_last, _ = new_pi1.rsplit(" ", 2)
        assert new_head == head and {last, new_last} == {"h", "h^-1"}
        assert new_fuchsian == fuchsian


# pi1_presentation keeps every boundary generator of a bounded symbol free
# and writes no boundary relator, so each boundary adds a free summand too
# many: these four report Z^2, Z^3, Z^2 + Z/2 and Z^3.
@pytest.mark.xfail(strict=True, reason="bounded presentations leave the "
                   "boundary generators free")
def test_first_homology_of_the_bounded_exceptions():
    cases = {
        "(O,o,0; m=1 | -)": "Z",  # solid torus
        "(O,o,0; m=2 | -)": "Z^2",  # T2 x I
        "(O,n,1; m=1 | -)": "Z + Z/2",  # twisted I-bundle over the Klein bottle
        "(N,n,I,1; m=1 | -)": "Z^2",  # Moebius band x S1
    }
    assert {t: first_homology(parse_symbol(t)).describe() for t in cases} == cases


# every pair the parser accepts, index-1 (1,0) and index-2 (2,1) included
raw_pairs = st.integers(1, 9).flatmap(lambda mu: st.sampled_from(
    [CrossingPair(mu, b) for b in range(mu) if gcd(b, mu) == 1]))

class_n_heads = st.one_of(
    st.integers(1, 3).map(lambda g: ClassPart("N", "o", g)),
    st.integers(1, 3).map(lambda g: ClassPart("N", "n", g, "I")),
    st.integers(2, 4).map(lambda g: ClassPart("N", "n", g, "II")),
    st.integers(3, 4).map(lambda g: ClassPart("N", "n", g, "III")))

raw_class_n_symbols = st.builds(
    lambda cp, b, s, pairs: SeifertSymbol(cp, 0, 0, (b, s), tuple(pairs)),
    class_n_heads, st.integers(-3, 3), st.integers(0, 2),
    st.lists(raw_pairs, max_size=4))


def raw_h1(s):
    return abelianization(presentation_oracle.raw_pi1_presentation(s))


@settings(max_examples=300)
@given(raw_class_n_symbols)
def test_class_n_normal_form_keeps_first_homology(s):
    assert raw_h1(s) == abelianization(pi1_presentation(s))


@settings(max_examples=300)
@given(raw_class_n_symbols, st.data())
def test_class_n_equivalent_spellings_have_equal_first_homology(s, data):
    # a respelling mirrors some pairs, moves b and trades listed (2,1)
    # pairs for the count; only some respellings are the same space
    b, count = s.obstruction
    flips = data.draw(st.lists(st.booleans(), min_size=len(s.pairs),
                               max_size=len(s.pairs)))
    pairs = [CrossingPair(p.mu, (p.mu - p.beta) % p.mu) if flip else p
             for p, flip in zip(s.pairs, flips)]
    listed = [p for p in pairs if p.mu != 2]
    moved = sum(p.mu == 2 for p in pairs)
    b2 = b + data.draw(st.integers(-2, 2))
    other = SeifertSymbol(s.class_part, 0, 0, (b2, count + moved), tuple(listed))
    if symbols_equivalent(s, other):
        assert raw_h1(s) == raw_h1(other)


# coset enumeration


def test_enumerate_symmetric_group_on_three_letters():
    pres = Presentation(("x", "y"), (((0, 2),), ((1, 2),),
                                     ((0, 1), (1, 1)) * 3))
    result = coset_enumerate(pres, 1000)
    x = perm(3, (0, 1))
    y = perm(3, (1, 2))
    assert result.is_finite and result.order == 6
    assert len(closure([x, y])) == 6


def test_enumerate_infinite_cyclic_exceeds_any_budget():
    result = coset_enumerate(Presentation(("x",), ()), 50)
    assert not result.is_finite
    assert result.outcome == "exceeded"
    assert result.order is None


def test_enumerate_trivial_presentation():
    result = coset_enumerate(Presentation((), ()), 10)
    assert result.is_finite and result.order == 1


def test_enumerate_rejects_zero_budget():
    with pytest.raises(LimitTooSmall):
        coset_enumerate(Presentation(("x",), (((0, 2),),)), 0)


def test_dihedral_orders_up_to_ten():
    for n in range(2, 11):
        pres = Presentation(("x", "y"),
                            (((0, 2),), ((1, 2),), ((0, 1), (1, 1)) * n))
        result = coset_enumerate(pres, 5000)
        assert result.is_finite and result.order == 2 * n


def test_tetrahedral_triangle_group_against_permutation_model():
    a = perm(4, (0, 1), (2, 3))
    b = perm(4, (0, 1, 2))
    assert check_against_model(triangle_presentation(2, 3, 3), (a, b)) == 12


def test_octahedral_triangle_group_against_permutation_model():
    a = perm(4, (0, 1))
    b = perm(4, (1, 2, 3))
    assert check_against_model(triangle_presentation(2, 3, 4), (a, b)) == 24


def test_icosahedral_triangle_group_against_permutation_model():
    a = perm(5, (0, 1), (2, 3))
    b = perm(5, (0, 2, 4))
    assert check_against_model(triangle_presentation(2, 3, 5), (a, b)) == 60


def test_dihedral_triangle_groups_against_permutation_models():
    # x: i -> -i and y: i -> 1-i generate the dihedral group on n points
    for n in range(3, 8):
        x = tuple((-i) % n for i in range(n))
        y = tuple((1 - i) % n for i in range(n))
        assert check_against_model(triangle_presentation(2, 2, n), (x, y)) == 2 * n
    four = (perm(4, (0, 1)), perm(4, (2, 3)))
    assert check_against_model(triangle_presentation(2, 2, 2), four) == 4


# triangle groups and signatures


def test_triangle_info_platonic_orders():
    assert triangle_info(2, 3, 5).order == 60
    assert triangle_info(2, 3, 4).order == 24
    assert triangle_info(2, 3, 3).order == 12
    assert triangle_info(2, 2, 7).order == 14


def test_triangle_info_geometries():
    assert triangle_info(2, 3, 5).geometry == "spherical"
    assert triangle_info(2, 4, 4).geometry == "euclidean"
    assert not triangle_info(2, 4, 4).finite
    assert triangle_info(2, 4, 4).order is None
    assert triangle_info(2, 3, 7).geometry == "hyperbolic"


def test_triangle_info_sorts_indices():
    assert triangle_info(5, 3, 2).indices == (2, 3, 5)
    assert triangle_info(5, 3, 2) == triangle_info(2, 3, 5)


def test_triangle_info_rejects_index_below_two():
    with pytest.raises(InvalidIndex):
        triangle_info(1, 3, 3)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6))
def test_enumeration_agrees_with_closed_form_small_indices(p, q, r):
    info = triangle_info(p, q, r)
    if not info.finite:
        return
    result = coset_enumerate(triangle_presentation(p, q, r), 100000)
    assert result.is_finite and result.order == info.order


def test_enumeration_agrees_with_closed_form_dihedral_tail():
    for r in range(2, 13):
        result = coset_enumerate(triangle_presentation(2, 2, r), 100000)
        assert result.order == triangle_info(2, 2, r).order == 2 * r


def test_euler_closed_torus_signature():
    assert fuchsian_euler(FuchsianSignature(True, 2, 0, ())) == 0


def test_euler_flat_triangle_signature():
    assert fuchsian_euler(FuchsianSignature(True, 0, 0, (2, 3, 6))) == 0


def test_euler_hyperbolic_triangle_signature():
    sig = FuchsianSignature(True, 0, 0, (2, 3, 7))
    assert fuchsian_euler(sig) == Fraction(-1, 42)


def test_size_class_examples():
    assert fuchsian_size_class(
        FuchsianSignature(True, 0, 0, (2, 2, 2, 2))) == SizeClass.ZERO_CHI
    assert fuchsian_size_class(
        FuchsianSignature(True, 0, 1, (2, 2))) == SizeClass.ZERO_CHI
    assert fuchsian_size_class(
        FuchsianSignature(True, 0, 0, (2, 3, 5))) == SizeClass.FINITE
    assert fuchsian_size_class(
        FuchsianSignature(False, 2, 0, ())) == SizeClass.ZERO_CHI
    assert fuchsian_size_class(
        FuchsianSignature(True, 4, 0, ())) == SizeClass.NEGATIVE_CHI


@given(st.booleans(), st.integers(0, 4), st.integers(0, 3),
       st.lists(st.integers(2, 12), max_size=5))
def test_euler_and_size_class_match_the_fraction_sum(orientable, s, m,
                                                     degrees):
    s += (s % 2) if orientable else (s == 0)
    sig = FuchsianSignature(orientable, s, m, tuple(degrees))
    chi = 2 - s - m - sum(1 - Fraction(1, d) for d in degrees)
    assert fuchsian_euler(sig) == chi
    assert fuchsian_size_class(sig) == (
        SizeClass.FINITE if chi > 0 else SizeClass.ZERO_CHI if chi == 0
        else SizeClass.NEGATIVE_CHI)


def test_signature_of_closed_symbol():
    sig = signature_of_symbol(parse_symbol("(O,o,0 | -1, (2,1), (3,1), (5,1))"))
    assert sig == FuchsianSignature(True, 0, 0, (2, 3, 5))


def test_signature_of_bounded_symbol():
    sig = signature_of_symbol(parse_symbol("(O,o,1; m=2 | -, (5,2))"))
    assert sig == FuchsianSignature(True, 2, 2, (5,))


def test_signature_counts_index_two_fibers():
    sig = signature_of_symbol(parse_symbol("(N,n,I,1 | (0,2))"))
    assert sig == FuchsianSignature(False, 1, 0, (2, 2))


def test_signature_validation():
    with pytest.raises(Exception):
        FuchsianSignature(True, 1, 0, ())
    with pytest.raises(Exception):
        FuchsianSignature(False, 0, 0, ())
    with pytest.raises(Exception):
        FuchsianSignature(True, 0, 0, (1,))
