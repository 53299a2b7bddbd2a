"""The Fuchsian quotient builder from before the quotient was derived from
the group presentation, kept as a test oracle.

It lays out the generators without h and writes the pair relators c^mu
and the closed long relator from scratch, so it shares no relator code
with pi1_presentation.
"""

from seifert import Presentation, SeifertSymbol, normalize_symbol
from seifert.groups import _word


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
