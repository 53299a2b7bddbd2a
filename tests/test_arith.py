"""Reduced fractions mod 1 and Smith normal form."""

import random
import time
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seifert import (IntMatrix, ReducedFraction, ZeroDenominator, reduce_mod1,
                     smith_normal_form)
from seifert.arith import _chain, _xgcd

import snf_oracle


def det_cofactor(rows):
    # direct cofactor expansion, the independent determinant oracle
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


@example(0, 0)
@example(0, 7)
@example(7, 0)
@example(1, 1)
@given(st.one_of(st.integers(0, 50), st.integers(0, 10**40)),
       st.one_of(st.integers(0, 50), st.integers(0, 10**40)))
def test_xgcd_is_a_bezout_pair(a, b):
    # the first homology's folds and the Smith form's 2 x 2 steps use it
    g, x, y = _xgcd(a, b)
    assert x * a + y * b == g == gcd(a, b)


def test_reduce_mod1_wraps_above_one():
    assert reduce_mod1(3, 2) == ReducedFraction(1, 2)


def test_reduce_mod1_zero():
    assert reduce_mod1(0, 1) == ReducedFraction(0, 1)


def test_reduce_mod1_negative_numerator():
    assert reduce_mod1(-1, 3) == ReducedFraction(2, 3)


def test_reduce_mod1_negative_denominator():
    assert reduce_mod1(1, -3) == reduce_mod1(-1, 3)


def test_reduce_mod1_rejects_zero_denominator():
    with pytest.raises(ZeroDenominator):
        reduce_mod1(1, 0)


def test_reduced_fraction_renders_as_num_slash_den():
    assert str(ReducedFraction(2, 3)) == "2/3"
    assert str(ReducedFraction(0, 1)) == "0/1"


def test_reduced_fraction_must_be_reduced():
    with pytest.raises(Exception):
        ReducedFraction(2, 4)


@given(st.integers(-200, 200),
       st.integers(-40, 40).filter(lambda b: b != 0),
       st.integers(-6, 6))
def test_reduce_mod1_invariant_under_whole_shifts(a, b, k):
    assert reduce_mod1(a + k * b, b) == reduce_mod1(a, b)


@given(st.integers(-200, 200), st.integers(-40, 40).filter(lambda b: b != 0))
def test_reduce_mod1_lands_in_unit_interval_reduced(a, b):
    f = reduce_mod1(a, b)
    assert 0 <= f.num < f.den
    assert gcd(f.num, f.den) == 1


def test_smith_identity():
    factors, defect = smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 1]]))
    assert factors == (1, 1)
    assert defect == 0


def test_smith_keeps_trivial_factors():
    factors, defect = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 0]]))
    assert factors == (2,)
    assert defect == 1


def test_smith_unimodular_relation_matrix():
    rows = [[1, 2, 0, 0], [1, 0, 3, 0], [1, 0, 0, 5], [1, 1, 1, 1]]
    assert abs(det_cofactor(rows)) == 1
    factors, defect = smith_normal_form(IntMatrix.from_rows(rows))
    assert factors == (1, 1, 1, 1)
    assert defect == 0


def test_smith_empty_matrix():
    factors, defect = smith_normal_form(IntMatrix(0, 0, ()))
    assert factors == ()
    assert defect == 0


def test_smith_divisibility_chain_example():
    factors, _ = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert factors == (1, 6)


square = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n, max_size=n))


@given(square)
def test_smith_factor_product_is_determinant(rows):
    d = det_cofactor(rows)
    factors, defect = smith_normal_form(IntMatrix.from_rows(rows))
    for i in range(len(factors) - 1):
        assert factors[i + 1] % factors[i] == 0
    if d != 0:
        assert defect == 0
        assert prod(factors) == abs(d)
    else:
        assert defect >= 1


@given(square, st.integers(0, 2**32))
def test_smith_invariant_under_row_and_column_operations(rows, seed):
    rng = random.Random(seed)
    base = smith_normal_form(IntMatrix.from_rows(rows))
    n = len(rows)
    work = [r[:] for r in rows]
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0:
            work[i], work[j] = work[j], work[i]
        elif op == 1:
            for r in work:
                r[i], r[j] = r[j], r[i]
        elif i != j:
            c = rng.randint(-3, 3)
            work[i] = [a + c * b for a, b in zip(work[i], work[j])]
    assert smith_normal_form(IntMatrix.from_rows(work)) == base


def _matrix(rows, ncols):
    return IntMatrix(len(rows), ncols, tuple(x for r in rows for x in r))


# repeated small factors, which form long runs, and a few large ones
chain_factors = st.lists(st.one_of(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18]),
                                   st.integers(1, 10**40)), max_size=40)


@st.composite
def chained_factors(draw):
    """Factors whose values above 1 form a divisibility chain, with 1s
    mixed in, in chain order or any other: the lists _chain only sorts."""
    factors, d = [], 1
    for k in draw(st.lists(st.integers(1, 12), max_size=12)):
        d *= k
        factors.append(d)
    for i in draw(st.lists(st.integers(0, 12), max_size=6)):
        factors.insert(min(i, len(factors)), 1)
    return draw(st.one_of(st.just(factors), st.permutations(factors)))


@given(st.one_of(chain_factors, chained_factors()))
def test_chain_matches_the_pairwise_swaps(factors):
    assert _chain(factors) == snf_oracle.chain(factors)


def test_chain_of_many_equal_factors_is_fast():
    start = time.perf_counter()
    assert _chain([6] * 3000 + [9] * 3000 + [4] * 3000) \
        == [1] * 3000 + [6] * 3000 + [36] * 3000
    assert time.perf_counter() - start < 0.5


@st.composite
def rectangular(draw, max_rows=6, max_cols=6):
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(st.integers(-12, 12), min_size=ncols,
                                  max_size=ncols), max_size=max_rows))
    return rows, ncols


@st.composite
def rank_deficient(draw, max_rows=6, max_cols=6):
    # every row a small combination of at most two basis rows
    ncols = draw(st.integers(1, max_cols))
    basis = draw(st.lists(st.lists(st.integers(-12, 12), min_size=ncols,
                                   max_size=ncols), min_size=1, max_size=2))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(basis),
                                    max_size=len(basis)), max_size=max_rows))
    rows = [[sum(c * b[j] for c, b in zip(co, basis)) for j in range(ncols)]
            for co in coeffs]
    return rows, ncols


@settings(max_examples=300)
@given(st.one_of(rectangular(), rank_deficient()))
def test_smith_matches_the_unbounded_oracle(drawn):
    m = _matrix(*drawn)
    assert smith_normal_form(m) == snf_oracle.smith_normal_form(m)


def _minors_gcd(rows, k):
    # gcd of every k x k minor, by cofactor expansion
    g = 0
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(len(rows[0])), k):
            g = gcd(g, det_cofactor([[rows[i][j] for j in ci] for i in ri]))
    return g


@given(st.one_of(rectangular(4, 5), rank_deficient(4, 5)))
def test_smith_factors_are_determinantal_divisor_ratios(drawn):
    rows, ncols = drawn
    factors, defect = smith_normal_form(_matrix(rows, ncols))
    rank = len(factors)
    assert defect == ncols - rank
    for k in range(1, rank + 1):
        assert prod(factors[:k]) == _minors_gcd(rows, k)
    if rank < min(len(rows), ncols):
        assert _minors_gcd(rows, rank + 1) == 0

