"""Symbols: the normal form that names every compact Seifert fibered space.

Parsing, normalization, orientation reversal, the two comparison modes,
and the census of classes over a fixed orbit surface.
"""

from seifert import (EquivalenceMode, SurfaceSpec, classifying_classes,
                     normalize_symbol, parse_symbol, render_symbol,
                     reverse_orientation, symbols_equivalent)


def canon(text):
    return render_symbol(normalize_symbol(parse_symbol(text)))


print("== normalization ==")
examples = [
    "(O,o,0 | 0, (3,4))",            # beta folds into the obstruction
    "(O,o,1 | 2, (1,3), (5,2))",     # index-1 pairs dissolve
    "(N,o,2 | (5,0), (3,2))",        # class N reduces b mod 2, folds beta
    "(N,o,1 | (1,0), (2,1))",        # an index-2 pair becomes an s count
    "(O,o,0; m=1 | -, (4,7))",       # bounded: no obstruction slot
]
for text in examples:
    print(f"{text:34} -> {canon(text)}")

print()
print("== orientation reversal ==")
s = parse_symbol("(O,o,0 | -1, (2,1), (3,2))")
r = reverse_orientation(s)
print(f"{render_symbol(s)} reversed is {render_symbol(r)}")
print(f"reversing twice returns the original: "
      f"{reverse_orientation(r) == normalize_symbol(s)}")

print()
print("== equivalence modes ==")
for mode in (EquivalenceMode.ORIENTED_FIBER, EquivalenceMode.UNORIENTED_FIBER):
    same = symbols_equivalent(s, r, mode)
    print(f"symbol vs its mirror, {mode}: "
          f"{'equivalent' if same else 'distinct'}")

print()
print("== classes over small orbit surfaces ==")
surfaces = [
    ("sphere", SurfaceSpec(orientable=True, genus=0)),
    ("torus", SurfaceSpec(orientable=True, genus=1)),
    ("projective plane", SurfaceSpec(orientable=False, genus=1)),
    ("Klein bottle", SurfaceSpec(orientable=False, genus=2)),
    ("crosscap count 3", SurfaceSpec(orientable=False, genus=3)),
]
for name, spec in surfaces:
    classes = classifying_classes(spec)
    codes = ", ".join(c.class_code for c in classes)
    print(f"{name}: {len(classes)} class(es): {codes}")
