"""Random Seifert symbols for property tests and corpus generation.

Two flavours: plain random.Random builders for seeded, exactly-sized
corpora, and hypothesis strategies wrapping them for shrinkable property
tests. Everything returned is already in normal form.
"""

from functools import partial
from math import gcd

from hypothesis import strategies as st

from seifert import (ClassPart, CrossingPair, SeifertSymbol, normalize_symbol,
                     replace)


def random_pair(rng, mu_max=9):
    mu = rng.randint(2, mu_max)
    betas = [b for b in range(1, mu) if gcd(b, mu) == 1]
    return CrossingPair(mu, rng.choice(betas))


def random_closed_oriented(rng, g_max=3, n_max=5, mu_max=9, b_max=5):
    """A normalized closed symbol of class (O,o) or (O,n)."""
    if rng.random() < 0.7:
        cp = ClassPart("O", "o", rng.randint(0, g_max))
    else:
        cp = ClassPart("O", "n", rng.randint(1, g_max))
    pairs = tuple(random_pair(rng, mu_max) for _ in range(rng.randint(0, n_max)))
    b = rng.randint(-b_max, b_max)
    return normalize_symbol(SeifertSymbol(cp, 0, 0, b, pairs))


def random_closed_nonorientable(rng, g_max=3, n_max=5, mu_max=9):
    """A normalized closed symbol of class (N,o) or (N,n,*)."""
    roll = rng.randrange(4)
    if roll == 0:
        cp = ClassPart("N", "o", rng.randint(1, g_max))
    elif roll == 1:
        cp = ClassPart("N", "n", rng.randint(1, g_max), "I")
    elif roll == 2:
        cp = ClassPart("N", "n", rng.randint(2, max(2, g_max)), "II")
    else:
        cp = ClassPart("N", "n", rng.randint(3, max(3, g_max)), "III")
    pairs = tuple(random_pair(rng, mu_max) for _ in range(rng.randint(0, n_max)))
    obstruction = (rng.randint(0, 1), rng.randint(0, 2))
    return normalize_symbol(SeifertSymbol(cp, 0, 0, obstruction, pairs))


def random_bounded(rng, g_max=2, n_max=3, mu_max=7):
    """A normalized bounded symbol, any class, valid boundary profile."""
    roll = rng.randrange(5)
    tori, klein = rng.randint(1, 2), 0
    if roll == 0:
        cp = ClassPart("O", "o", rng.randint(0, g_max))
    elif roll == 1:
        cp = ClassPart("O", "n", rng.randint(1, g_max))
    elif roll == 2:
        cp = ClassPart("N", "o", rng.randint(0, g_max))
        if cp.genus == 0 or rng.random() < 0.4:
            klein = 2
            tori = rng.randint(0, 1)
    else:
        sub = rng.choice(["I", "II", "III"])
        low = {"I": 1, "II": 2, "III": 3}[sub]
        cp = ClassPart("N", "n", rng.randint(low, max(low, g_max + 1)), sub)
    pairs = tuple(random_pair(rng, mu_max) for _ in range(rng.randint(0, n_max)))
    return normalize_symbol(SeifertSymbol(cp, tori, klein, None, pairs))


def random_large_pair(rng):
    """A pair of index up to 10^6, or past 10^30 one time in eight."""
    if rng.random() < 0.875:
        mu = rng.randint(2, 10**6)
    else:
        mu = rng.randint(10**30, 10**31)
    beta = rng.randrange(1, mu)
    while gcd(beta, mu) != 1:
        beta += 1
    return CrossingPair(mu, beta)


def random_fibered(rng, n_max=12):
    """A normalized symbol of any class, closed or bounded, whose up to
    n_max pairs come in runs of equal pairs, small or large indices."""
    pairs = []
    n = rng.randint(0, n_max)
    while len(pairs) < n:
        if rng.random() < 0.5:
            p = random_pair(rng, rng.choice((3, 9, 30)))
        else:
            p = random_large_pair(rng)
        pairs += [p] * rng.randint(1, n - len(pairs))
    s = rng.choice((random_closed_oriented, random_closed_nonorientable,
                    random_bounded))(rng)
    return normalize_symbol(replace(s, pairs=tuple(pairs)))


def random_symbol(rng):
    roll = rng.random()
    if roll < 0.55:
        return random_closed_oriented(rng)
    if roll < 0.85:
        return random_closed_nonorientable(rng)
    return random_bounded(rng)


# hypothesis wrappers: a seed draws one symbol through the rng builders,
# which keeps the builders as the single source of validity rules

def _wrap(builder):
    import random

    def build(seed):
        return builder(random.Random(seed))

    return st.integers(0, 2**48).map(build)


closed_oriented_symbols = _wrap(random_closed_oriented)
closed_nonorientable_symbols = _wrap(random_closed_nonorientable)
bounded_symbols = _wrap(random_bounded)
any_symbols = _wrap(random_symbol)
# up to 12 fibers in runs of equal pairs, indices up to 10^6 and past 10^30
fibered_symbols = _wrap(random_fibered)
# genus up to 12 over every class, closed and bounded, for properties of
# the work that grows with the genus
high_genus_symbols = st.one_of(
    [_wrap(partial(builder, g_max=12)) for builder in
     (random_closed_oriented, random_closed_nonorientable, random_bounded)])
