"""Presentation builders kept as test oracles.

pi1_presentation is the group builder that groups.pi1_presentation was
before it read its value back from groups.presentation_texts, the one
writer of relators in the package: it lays out the generators and writes
every relator as (generator, exponent) syllables, merged by its own
_word. It shares only groups._long_relator_exponent, the one site of the
sign of b, with the package. quotient_by_h deletes h from it.

fuchsian_quotient is the quotient builder from before the quotient was
derived from the group presentation. It lays out the generators without
h and writes the pair relators c^mu and the closed long relator from
scratch, so it shares no relator code with pi1_presentation.

raw_pi1_presentation writes the group of a closed symbol straight from
its data, without normalizing it first, so that normalization can be
checked against the presentation recipe.

presentation_text, quotient_by_h and abelianization are the report's
rendering, h-deletion and exponent-sum matrix before they were made
linear in the syllables: one call per syllable, a _word re-merge, and a
dense row of every generator for every relator.
"""

from itertools import chain

from seifert import (AbelianGroup, CrossingPair, IntMatrix, Presentation,
                     SeifertSymbol, normalize_symbol, smith_normal_form)
from seifert.groups import _long_relator_exponent


def _word(*syllables):
    """Normalize a syllable list: merge adjacent, drop zero exponents."""
    out = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            e += out[-1][1]
            out.pop()
            if e == 0:
                continue
        out.append((g, e))
    return tuple(out)


def pi1_presentation(s: SeifertSymbol) -> Presentation:
    """The group presentation built syllable by syllable.

    Generators: h, the orbit-surface generators, one c per pair of the
    normal form (the index-2 count written out as (2,1) pairs) and one d
    per boundary component. Every generator y but h gives y h y^-1 h^-1,
    or y h y^-1 h when it reverses the fiber (_fiber_reversing, and every
    Klein-bottle boundary); each pair gives c^mu h^beta, and a closed
    symbol adds the surface word, the c's and h^b.
    """
    s = normalize_symbol(s)
    cp = s.class_part
    names, pairs, c0, _ = _generator_layout(s, with_h=True)
    flips = _fiber_reversing(cp, c0 - 1)
    klein0 = len(names) - s.boundary_klein
    relators = [((y, 1), (0, 1), (y, -1),
                 (0, 1 if (y < c0 and y - 1 in flips) or y >= klein0 else -1))
                for y in range(1, len(names))]
    relators += [_word((c0 + i, p.mu), (0, p.beta))
                 for i, p in enumerate(pairs)]
    if s.is_closed:
        if cp.orbit == "o":
            long_rel = [(y + d, e) for y in range(1, c0, 2)
                        for d, e in ((0, 1), (1, 1), (0, -1), (1, -1))]
        else:
            long_rel = [(y, 2) for y in range(1, c0)]
        w = _word(*long_rel, *((c0 + i, 1) for i in range(len(pairs))),
                  (0, _long_relator_exponent(s)))
        if w:
            relators.append(w)
    return Presentation(tuple(names), tuple(relators))


def _generator_layout(s: SeifertSymbol, with_h: bool):
    cp = s.class_part
    names = ["h"] if with_h else []
    surface = []
    if cp.orbit == "o":
        for i in range(1, cp.genus + 1):
            surface.append(f"a{i}")
            surface.append(f"b{i}")
    else:
        for i in range(1, cp.genus + 1):
            surface.append(f"x{i}")
    names.extend(surface)
    pairs = s.expanded_pairs()
    c_start = len(names)
    names.extend(f"c{i}" for i in range(1, len(pairs) + 1))
    d_start = len(names)
    m = s.boundary_tori + s.boundary_klein
    names.extend(f"d{i}" for i in range(1, m + 1))
    return names, pairs, c_start, d_start


def fuchsian_quotient(s: SeifertSymbol) -> Presentation:
    """The quotient by the fiber class: the orbit 2-orbifold group.

    Same generators without h; conjugation relators vanish, pair relators
    become c^mu, and the closed long relator loses its h tail.
    """
    s = normalize_symbol(s)
    cp = s.class_part
    names, pairs, c_start, d_start = _generator_layout(s, with_h=False)
    base = 0
    relators = []
    for i, p in enumerate(pairs):
        relators.append(_word((c_start + i, p.mu)))
    if s.is_closed:
        long_rel = []
        if cp.orbit == "o":
            for i in range(cp.genus):
                a = base + 2 * i
                bgen = base + 2 * i + 1
                long_rel += [(a, 1), (bgen, 1), (a, -1), (bgen, -1)]
        else:
            for i in range(cp.genus):
                long_rel.append((base + i, 2))
        for i in range(len(pairs)):
            long_rel.append((c_start + i, 1))
        w = _word(*long_rel)
        if w:
            relators.append(w)
    return Presentation(tuple(names), tuple(relators))


def _fiber_reversing(cp, nsurf) -> set:
    """Positions of the orbit-surface generators that reverse the fiber."""
    if (cp.total, cp.orbit) == ("O", "n"):
        return set(range(nsurf))  # every crosscap
    if (cp.total, cp.orbit) == ("N", "o"):
        return {0}  # a1
    return {"II": {0}, "III": {0, 1}}.get(cp.subtype, set())


def raw_pi1_presentation(s: SeifertSymbol) -> Presentation:
    """The group of a closed symbol from its data as given.

    Pairs stay as listed, index-1 and index-2 pairs included, a class-N
    count s adds that many (2,1) pairs, and b is used unreduced.
    Generators: h, the orbit-surface generators, one c per pair. Every
    generator conjugates h to h or h^-1, each pair gives c^mu h^beta, and
    the long relator is the surface word, the c's and h^b.
    """
    cp = s.class_part
    nsurf = 2 * cp.genus if cp.orbit == "o" else cp.genus
    flips = _fiber_reversing(cp, nsurf)
    if cp.total == "O":
        b, count = s.obstruction, 0
    else:
        b, count = s.obstruction
    pairs = list(s.pairs) + [CrossingPair(2, 1)] * count
    names = (["h"] + [f"y{k}" for k in range(1, nsurf + 1)]
             + [f"c{i}" for i in range(1, len(pairs) + 1)])
    relators = []
    for y in range(1, len(names)):
        back = 1 if y - 1 in flips else -1
        relators.append(_word((y, 1), (0, 1), (y, -1), (0, back)))
    c0 = 1 + nsurf
    for i, p in enumerate(pairs):
        relators.append(_word((c0 + i, p.mu), (0, p.beta)))
    if cp.orbit == "o":
        surface = [(1 + k + d, e) for k in range(0, nsurf, 2)
                   for d, e in ((0, 1), (1, 1), (0, -1), (1, -1))]
    else:
        surface = [(1 + k, 2) for k in range(nsurf)]
    word = _word(*surface, *((c0 + i, 1) for i in range(len(pairs))), (0, b))
    if word:
        relators.append(word)
    return Presentation(tuple(names), tuple(relators))


def presentation_text(p: Presentation) -> str:
    """Render like "< h, c1 | c1^2 h, c1 h c1^-1 h^-1 >"."""
    names = p.generators

    def syll(g, e):
        name = names[g]
        return name if e == 1 else f"{name}^{e}"

    rel_texts = [" ".join(syll(g, e) for g, e in w) for w in p.relators]
    gens = ", ".join(p.generators) or "-"
    rels = ", ".join(rel_texts) or "-"
    return f"< {gens} | {rels} >"


def quotient_by_h(p: Presentation) -> Presentation:
    """A pi1_presentation with generator h deleted and words re-merged."""
    relators = []
    for word in p.relators:
        w = _word(*((g - 1, e) for g, e in word if g != 0))
        if w:
            relators.append(w)
    return Presentation(p.generators[1:], tuple(relators))


def abelianization(p: Presentation) -> AbelianGroup:
    """Abelianize by Smith normal form of the exponent-sum matrix.

    Zero and repeated rows and columns change neither the rank nor the
    invariant factors, so only the distinct nonzero ones reach the Smith
    normal form; the free rank is the number of generators minus the rank.
    """
    n = len(p.generators)
    rows = {}
    for word in p.relators:
        row = [0] * n
        for g, e in word:
            row[g] += e
        if any(row):
            rows[tuple(row)] = None
    cols = list(dict.fromkeys(filter(any, zip(*rows))))
    flat = tuple(chain.from_iterable(zip(*cols)))
    factors, _ = smith_normal_form(IntMatrix(len(rows), len(cols), flat))
    return AbelianGroup(n - len(factors), tuple(d for d in factors if d > 1))
