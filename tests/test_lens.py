"""Lens-space arithmetic and recognition of sphere-base symbols."""

from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lens_oracle import _candidate_bs, _search_witness
from seifert import (BadDeterminant, ClassPart, CrossingPair, GluingMatrix,
                     LensParams, NotCoprime, ReducedFraction, SeifertSymbol,
                     ValidityError, WrongBase, abelianization,
                     crossing_invariants, fibering_transform,
                     lens_equivalent, lens_normalize, normalize_symbol,
                     parse_symbol, pi1_presentation, recognize_S2_symbol,
                     sphere_h1_order, triangle_info)
from seifert.groups import _long_relator_exponent
from seifert.lens import _sewing_q

_S2 = ClassPart("O", "o", 0)


def orbit(p, q):
    """Brute-force orbit of q under negation and inversion mod p."""
    if p == 0:
        return {q}
    out = {q % p, (-q) % p}
    for r in range(p):
        if (q * r) % p == 1 % p:
            out |= {r, (-r) % p}
    return out


def symbols_from_sewing(mat, f):
    """Every sphere symbol consistent with the sewing of two tori by mat.

    The transform fixes the listed pairs; the obstruction is only pinned
    by the order of the first homology, so each admissible b yields one
    candidate (the range of b is symmetric, so the sign of b in the
    group does not matter). The second torus is sewn in with reversed orientation, so
    its crossing pair is complemented. The true manifold is
    L(|mat.p|, mat.q) whatever f is.
    """
    t1, t2 = fibering_transform(mat, f)
    raw = []
    for flip, t in enumerate((t1, t2)):
        if t.frac.den < 2:
            continue
        c = crossing_invariants(t)
        raw.append(type(c)(c.mu, c.mu - c.beta) if flip else c)
    pairs = tuple(sorted(raw, key=lambda c: (c.mu, c.beta)))
    p = abs(mat.p)
    out = []
    for b in range(-p - 3, p + 4):
        s = normalize_symbol(SeifertSymbol(_S2, 0, 0, b, pairs))
        if sphere_h1_order(_long_relator_exponent(s), s.pairs) == p:
            out.append(s)
    return out


def recognized_classes(mat, f):
    return {recognize_S2_symbol(s).lens for s in symbols_from_sewing(mat, f)}


def unimodular(q, p, shift=0):
    """A determinant +1 completion of the left column (q, p)."""
    if p == 0:
        assert q in (1, -1)
        r, s = -q, q
    else:
        g, x, y = extended_gcd(q % p if p else q, p)
        s, r = x, -y
        if q * s - p * r != 1:
            s, r = -x, y
    r += shift * q
    s += shift * p
    if q * s - p * r != 1:
        raise AssertionError("bad completion")
    return GluingMatrix(q, r, p, s)


def crossing_pairs(max_count, mu_max=9):
    """Lists of at most max_count valid (mu, beta) pairs, mu >= 2."""
    pair = st.integers(2, mu_max).flatmap(lambda mu: st.tuples(
        st.just(mu), st.sampled_from([b for b in range(1, mu) if gcd(b, mu) == 1])))
    return st.lists(pair, max_size=max_count)


def sphere_symbol(b, pairs):
    return normalize_symbol(SeifertSymbol(
        _S2, 0, 0, b, tuple(CrossingPair(m, n) for m, n in pairs)))


def extended_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


# normal form and the homeomorphism criterion


def test_normalize_picks_the_orbit_minimum():
    assert lens_normalize(7, 4) == LensParams(7, 2)
    assert lens_normalize(12, 7) == LensParams(12, 5)
    assert lens_normalize(5, 1) == LensParams(5, 1)


def test_normalize_degenerate_orders():
    assert lens_normalize(0, 1) == LensParams(0, 0)
    assert lens_normalize(1, 0) == LensParams(1, 0)
    assert lens_normalize(1, 5) == LensParams(1, 0)
    with pytest.raises(ValidityError, match="^lens p must be >= 0, got -3$"):
        lens_normalize(-3, 1)


def test_normalize_negative_q():
    assert lens_normalize(7, -2) == LensParams(7, 2)


def test_normalize_rejects_common_factor():
    with pytest.raises(NotCoprime):
        lens_normalize(6, 3)


def test_display_names():
    assert LensParams(0, 0).display() == "S2xS1"
    assert LensParams(1, 0).display() == "S3"
    assert LensParams(7, 2).display() == "L(7,2)"


def test_equivalent_inverse_pair():
    assert lens_equivalent(lens_normalize(7, 2), lens_normalize(7, 3))
    assert not lens_equivalent(lens_normalize(7, 1), lens_normalize(7, 2))
    assert lens_equivalent(lens_normalize(9, 4), lens_normalize(9, 4))


def test_equivalence_matches_orbit_oracle_small():
    for p in range(2, 13):
        qs = [q for q in range(1, p) if gcd(q, p) == 1]
        for q1 in qs:
            for q2 in qs:
                expect = q2 in orbit(p, q1)
                got = lens_equivalent(lens_normalize(p, q1),
                                      lens_normalize(p, q2))
                assert got == expect, (p, q1, q2)


@given(st.integers(2, 60).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, p - 1))))
def test_normalize_idempotent_and_canonical(pq):
    p, q = pq
    if gcd(p, q) != 1:
        return
    n = lens_normalize(p, q)
    assert lens_normalize(n.p, n.q) == n
    assert n.q == min(orbit(p, q))


@settings(max_examples=150)
@given(crossing_pairs(6), st.integers(-6, 6))
def test_sphere_h1_order_matches_smith_form(pairs, b):
    s = sphere_symbol(b, pairs)
    order = abelianization(pi1_presentation(s)).order()
    assert sphere_h1_order(_long_relator_exponent(s), s.pairs) == order


# the sewing transform


def test_transform_sphere_sewing():
    mat = GluingMatrix(0, -1, 1, 0)
    f1, f2 = fibering_transform(mat, ReducedFraction(1, 3))
    assert f1.frac == ReducedFraction(1, 3)
    assert f2.frac == ReducedFraction(0, 1)


def test_transform_identity_doubles_the_fiber():
    mat = GluingMatrix(1, 0, 0, 1)
    f1, f2 = fibering_transform(mat, ReducedFraction(2, 5))
    assert f1.frac == f2.frac == ReducedFraction(2, 5)


def test_transform_coprime_index_pair():
    mat = GluingMatrix(3, 5, 1, 2)
    assert mat.det == 1
    f1, f2 = fibering_transform(mat, ReducedFraction(2, 5))
    assert f1.frac == ReducedFraction(2, 5)
    assert f2.frac == ReducedFraction(7, 12)
    assert gcd(f2.frac.den, f1.frac.den) == 1


def test_gluing_matrix_rejects_bad_determinant():
    with pytest.raises(BadDeterminant):
        GluingMatrix(1, 1, 1, 1)
    with pytest.raises(BadDeterminant):
        GluingMatrix(2, 0, 0, 2)


# recognition


def test_recognize_trivial_sewings():
    assert recognize_S2_symbol(parse_symbol("(O,o,0 | 0)")).category == "S2xS1"
    assert recognize_S2_symbol(parse_symbol("(O,o,0 | 1)")).category == "S3"
    assert recognize_S2_symbol(parse_symbol("(O,o,0 | 1)")).name == "S3"


def test_recognize_platonic_triple():
    rec = recognize_S2_symbol(parse_symbol("(O,o,0 | -1, (2,1), (3,1), (5,1))"))
    assert rec.category == "platonic"
    assert rec.triple == (2, 3, 5)
    assert rec.name == "platonic (2,3,5)"


def test_recognize_generic_three_fibers():
    rec = recognize_S2_symbol(parse_symbol("(O,o,0 | -1, (2,1), (3,1), (7,1))"))
    assert rec is None


def test_recognize_two_fiber_lens():
    rec = recognize_S2_symbol(parse_symbol("(O,o,0 | -1, (2,1), (3,1))"))
    assert rec.category == "lens"
    assert rec.lens == LensParams(11, 3)
    assert rec.witness is not None
    assert rec.witness.det in (1, -1)


def test_recognize_takes_the_obstruction_from_the_symbol():
    # both obstructions give |H1| = 8; the old search reported L(8,1) twice
    rec = recognize_S2_symbol(parse_symbol("(O,o,0 | 1, (4,1), (4,1))"))
    assert rec.lens == LensParams(8, 3)
    rec = recognize_S2_symbol(parse_symbol("(O,o,0 | 0, (4,1), (4,1))"))
    assert rec.lens == LensParams(8, 1)


def test_recognize_single_fiber_sphere():
    rec = recognize_S2_symbol(parse_symbol("(O,o,0 | 0, (3,1))"))
    assert rec.category == "S3"


def test_recognize_rejects_other_bases():
    with pytest.raises(WrongBase):
        recognize_S2_symbol(parse_symbol("(O,o,1 | 0)"))
    with pytest.raises(WrongBase):
        recognize_S2_symbol(parse_symbol("(O,n,1 | 0)"))


def test_platonic_triple_membership():
    # the oracle is the classical list of spherical triangle groups:
    # (2,2,r), (2,3,3), (2,3,4) and (2,3,5)
    for t in combinations_with_replacement(range(2, 41), 3):
        platonic = t[:2] == (2, 2) or t in {(2, 3, 3), (2, 3, 4), (2, 3, 5)}
        assert triangle_info(*t).finite == platonic, t


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_recognized_p_is_the_homology_order(seed):
    import random
    rng = random.Random(seed)
    pairs = []
    for _ in range(rng.randint(0, 2)):
        mu = rng.randint(2, 7)
        beta = rng.choice([b for b in range(1, mu) if gcd(b, mu) == 1])
        pairs.append((mu, beta))
    text = "(O,o,0 | {}{})".format(
        rng.randint(-4, 4), "".join(f", ({m},{b})" for m, b in pairs))
    s = normalize_symbol(parse_symbol(text))
    rec = recognize_S2_symbol(s)
    assert rec.lens is not None
    assert rec.lens.p == abelianization(pi1_presentation(s)).order()


def test_round_trip_through_a_sewing_matrix():
    # every lens space comes back out of the search as itself
    for p in range(1, 21):
        for q in ([0] if p == 1 else range(1, p)):
            if gcd(p, q) != 1:
                continue
            target = lens_normalize(p, q)
            hit = False
            for shift in (0, 1, -1, 2):
                mat = unimodular(q, p, shift)
                if mat.p * 0 + mat.s * 1 == 0:
                    continue
                if target in recognized_classes(mat, ReducedFraction(0, 1)):
                    hit = True
                    break
            assert hit, (p, q)


def test_longitude_shift_of_the_sewing_is_invisible():
    base_q, base_r, base_p, base_s = 0, -1, 1, 0
    f = ReducedFraction(1, 3)
    target = lens_normalize(1, 0)
    for b in (-2, -1, 0, 1, 2):
        mat = GluingMatrix(base_q, base_q * b + base_r,
                           base_p, base_p * b + base_s)
        assert target in recognized_classes(mat, f), b


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 12), st.integers(0, 400), st.integers(-2, 2),
       st.integers(1, 6), st.integers(0, 100))
def test_any_sewing_recognizes_as_its_own_lens_space(p, qpick, shift, mu,
                                                     nupick):
    if p == 0:
        q = 1
    elif p == 1:
        q = 0
    else:
        qs = [q for q in range(1, p) if gcd(q, p) == 1]
        q = qs[qpick % len(qs)]
    mat = unimodular(q, p, shift)
    nus = [n for n in range(mu) if gcd(n, mu) == 1] or [1]
    f = ReducedFraction(nus[nupick % len(nus)], mu)
    if mat.p * f.num + mat.s * f.den == 0:
        return
    assert lens_normalize(p, q) in recognized_classes(mat, f)


# the closed form against the old sewing-matrix search


@settings(max_examples=200)
@given(st.integers(-4, 4), crossing_pairs(2))
def test_closed_form_matches_the_old_search(b, pairs):
    s = sphere_symbol(b, pairs)
    rec = recognize_S2_symbol(s)
    p = rec.lens.p
    # where two obstructions give |H1| = p the search may pick either
    assume(len(_candidate_bs(s.pairs, p)) == 1)
    q, _ = _search_witness(s, p)
    assert rec.lens == lens_normalize(p, q)


@given(st.integers(-6, 6), crossing_pairs(2, mu_max=30))
def test_sewing_q_is_symmetric_in_the_two_fibers(b, pairs):
    first, second = (pairs + [(1, 0), (1, 0)])[:2]
    p = sphere_h1_order(b, [CrossingPair(*first), CrossingPair(*second)])
    assert (lens_normalize(p, _sewing_q(b, first, second))
            == lens_normalize(p, _sewing_q(b, second, first)))


@given(st.integers(-50, 50), crossing_pairs(2, mu_max=60))
def test_witness_is_unimodular_with_left_column_q_p(b, pairs):
    rec = recognize_S2_symbol(sphere_symbol(b, pairs))
    w = rec.witness
    assert w.det in (1, -1)
    assert abs(w.p) == rec.lens.p
    assert lens_normalize(abs(w.p), w.q) == rec.lens
