"""Fibered solid torus invariants, crossings, and lifting arithmetic."""

from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seifert import (BoundaryClass, CrossingPair, FiberedSolidTorus, HomeoMode,
                     ReducedFraction, ValidityError, ZeroDenominator,
                     crossing_invariants, fold_crossing, fst_equivalent,
                     fst_normalize, lift_curve, lift_fiber,
                     meridian_from_crossing, reduce_mod1)


def reduced_fractions(mu_max=30):
    def build(pair):
        mu, k = pair
        nus = [n for n in range(mu) if gcd(n, mu) == 1]
        return ReducedFraction(nus[k % len(nus)], mu)
    return st.tuples(st.integers(1, mu_max), st.integers(0, 1000)).map(build)


def walk_lift(sigma, alpha, beta):
    """Path-lifting oracle on the sigma-fold vertical cover of the torus.

    The base curve crosses the unwrapped direction beta times per
    traversal, so one traversal moves the basepoint sheet by beta mod
    sigma. Walk until the sheet returns: that many traversals close one
    component, and the closed lift wraps the two cover directions
    alpha * traversals and beta * traversals / sigma times.
    """
    sheet, traversals = beta % sigma, 1
    while sheet != 0:
        sheet = (sheet + beta) % sigma
        traversals += 1
    components = sigma // traversals
    return components, alpha * traversals, beta * traversals // sigma


def test_normalize_oriented_wraps_mod_one():
    t = fst_normalize(5, 3, oriented=True)
    assert t.frac == ReducedFraction(2, 3)
    assert t.oriented


def test_normalize_unoriented_folds():
    assert fst_normalize(2, 3, oriented=False).frac == ReducedFraction(1, 3)
    assert fst_normalize(1, 2, oriented=False).frac == ReducedFraction(1, 2)


def test_normalize_rejects_zero_denominator():
    with pytest.raises(ZeroDenominator):
        fst_normalize(1, 0, oriented=True)


@given(st.integers(-60, 60), st.integers(-20, 20).filter(lambda d: d != 0),
       st.booleans())
def test_normalize_idempotent(num, den, oriented):
    t = fst_normalize(num, den, oriented)
    again = fst_normalize(t.frac.num, t.frac.den, oriented)
    assert again == t


def test_equivalent_one_third_two_thirds():
    a = fst_normalize(1, 3, oriented=True)
    b = fst_normalize(2, 3, oriented=True)
    assert fst_equivalent(a, b, HomeoMode.REVERSE)
    assert not fst_equivalent(a, b, HomeoMode.PRESERVE)
    assert fst_equivalent(a, b, HomeoMode.ANY)


def test_equivalent_self_half_under_reversal():
    t = fst_normalize(1, 2, oriented=True)
    assert fst_equivalent(t, t, HomeoMode.REVERSE)


@given(reduced_fractions())
def test_equivalent_reflexive(f):
    t = FiberedSolidTorus(f, True)
    assert fst_equivalent(t, t, HomeoMode.PRESERVE)
    assert fst_equivalent(t, t, HomeoMode.ANY)


@given(reduced_fractions(), reduced_fractions())
def test_any_mode_is_the_union(f1, f2):
    t1, t2 = FiberedSolidTorus(f1, True), FiberedSolidTorus(f2, True)
    union = (fst_equivalent(t1, t2, HomeoMode.PRESERVE)
             or fst_equivalent(t1, t2, HomeoMode.REVERSE))
    assert fst_equivalent(t1, t2, HomeoMode.ANY) == union


@given(reduced_fractions(), reduced_fractions())
def test_equivalent_symmetric(f1, f2):
    t1, t2 = FiberedSolidTorus(f1, True), FiberedSolidTorus(f2, True)
    for mode in HomeoMode:
        assert fst_equivalent(t1, t2, mode) == fst_equivalent(t2, t1, mode)


# reduce_mod1 is pure, and caching it keeps the pairwise sweep below short
_reduce = lru_cache(maxsize=None)(reduce_mod1)


def re_reducing_equivalent(t1, t2, mode):
    """The comparison that reduces both stored invariants again first."""
    f1 = _reduce(t1.frac.num, t1.frac.den)
    f2 = _reduce(t2.frac.num, t2.frac.den)
    mirror2 = _reduce(-t2.frac.num, t2.frac.den)
    if mode is HomeoMode.PRESERVE:
        return f1 == f2
    if mode is HomeoMode.REVERSE:
        return f1 == mirror2
    return f1 == f2 or f1 == mirror2


def test_equivalent_matches_the_re_reducing_comparison():
    tori = {fst_normalize(num, den, oriented)
            for num in range(-30, 31) for den in range(1, 31)
            for oriented in (True, False)}
    for mode in HomeoMode:
        for t1 in tori:
            new = [t2 for t2 in tori if fst_equivalent(t1, t2, mode)]
            old = [t2 for t2 in tori if re_reducing_equivalent(t1, t2, mode)]
            assert new == old, (t1, mode)


def test_equivalent_compares_the_stored_invariants():
    # a torus built by hand outside [0, 1) is not reduced again
    odd = FiberedSolidTorus(ReducedFraction(4, 3), True)
    third = fst_normalize(1, 3, oriented=True)
    assert not fst_equivalent(odd, third, HomeoMode.PRESERVE)
    assert re_reducing_equivalent(odd, third, HomeoMode.PRESERVE)


def test_crossing_examples():
    assert crossing_invariants(fst_normalize(1, 2, True)) == CrossingPair(2, 1)
    assert crossing_invariants(fst_normalize(2, 5, True)) == CrossingPair(5, 3)
    assert crossing_invariants(fst_normalize(0, 1, True)) == CrossingPair(1, 0)


def test_crossing_pair_validation():
    assert (CrossingPair(1, 0).mu, CrossingPair(1, 0).beta) == (1, 0)
    with pytest.raises(ValidityError, match=r"^\(2,0\) not coprime$"):
        CrossingPair(2, 0)
    with pytest.raises(ValidityError,
                       match="^crossing number 3 out of range for index 3$"):
        CrossingPair(3, 3)


@given(reduced_fractions())
def test_crossing_is_the_modular_inverse(f):
    p = crossing_invariants(FiberedSolidTorus(f, True))
    assert p.mu == f.den
    if f.den == 1:
        assert p.beta == 0
        return
    # independent oracle: the unique beta in [0, mu) with nu*beta = 1
    expect = next(b for b in range(f.den) if (f.num * b) % f.den == 1)
    assert p.beta == expect
    # and the Bezout certificate (nu alpha; -mu beta) is unimodular
    alpha = (1 - f.num * p.beta) // f.den
    assert f.num * p.beta + f.den * alpha == 1


def test_meridian_recovery():
    assert meridian_from_crossing(CrossingPair(2, 1)) == BoundaryClass(1, 2)
    assert meridian_from_crossing(CrossingPair(1, 0)) == BoundaryClass(0, 1)
    assert meridian_from_crossing(CrossingPair(5, 3)) == BoundaryClass(3, 5)


def test_fold_crossing_into_half_range():
    assert fold_crossing(CrossingPair(5, 3)) == CrossingPair(5, 2)
    assert fold_crossing(CrossingPair(5, 2)) == CrossingPair(5, 2)
    assert fold_crossing(CrossingPair(2, 1)) == CrossingPair(2, 1)
    assert fold_crossing(CrossingPair(1, 0)) == CrossingPair(1, 0)


def test_lift_fiber_examples():
    count, lifted = lift_fiber(2, fst_normalize(1, 2, True))
    assert (count, lifted.frac) == (2, ReducedFraction(0, 1))
    t = fst_normalize(2, 5, True)
    assert lift_fiber(1, t) == (1, t)
    count, lifted = lift_fiber(3, t)
    assert (count, lifted.frac) == (1, ReducedFraction(1, 5))


@given(st.integers(1, 24), reduced_fractions(mu_max=24))
def test_lift_fiber_component_count_is_gcd(sigma, f):
    count, lifted = lift_fiber(sigma, FiberedSolidTorus(f, True))
    assert count == gcd(sigma, f.den)
    assert lifted.frac.den == f.den // count


@given(reduced_fractions(mu_max=24))
def test_lift_by_the_index_removes_the_twist(f):
    count, lifted = lift_fiber(f.den, FiberedSolidTorus(f, True))
    assert count == f.den
    assert lifted.frac == ReducedFraction(0, 1)


def test_lift_curve_examples():
    assert lift_curve(2, BoundaryClass(1, -2)) == (2, BoundaryClass(1, -1))
    assert lift_curve(1, BoundaryClass(4, -7)) == (1, BoundaryClass(4, -7))
    assert lift_curve(6, BoundaryClass(1, -4)) == (2, BoundaryClass(3, -2))
    # a curve that never crosses the unwound direction lifts to sigma copies
    assert lift_curve(3, BoundaryClass(2, 0)) == (3, BoundaryClass(2, 0))
    assert lift_curve(1, BoundaryClass(-1, 0)) == (1, BoundaryClass(-1, 0))


@given(st.integers(1, 30), st.integers(-12, 12), st.integers(-12, 12))
def test_lift_curve_matches_the_walk_oracle(sigma, alpha, beta):
    if (alpha, beta) == (0, 0):
        return
    count, lifted = lift_curve(sigma, BoundaryClass(alpha, -beta))
    wcount, wm, wl = walk_lift(sigma, alpha, beta)
    assert count == wcount
    assert lifted == BoundaryClass(wm, -wl)


@given(st.integers(1, 30), st.integers(-12, 12), st.integers(-12, 12))
def test_lift_curve_primitive_stays_primitive(sigma, alpha, beta):
    if (alpha, beta) == (0, 0) or gcd(alpha, beta) != 1:
        return
    _, lifted = lift_curve(sigma, BoundaryClass(alpha, -beta))
    assert gcd(lifted.a, lifted.b) == 1
