"""Lens spaces: normal forms, sewing matrices, and recognition.

A lens space is two solid tori sewn along their boundaries. This script
normalizes (p, q) parameters, pushes a fibering through a sewing matrix,
and runs the recognizer that names sphere-base symbols with one or two
exceptional fibers (plus the platonic family with three, whose triangle
group is finite).
"""

from seifert import (GluingMatrix, ReducedFraction, fibering_transform,
                     lens_equivalent, lens_normalize, parse_symbol,
                     recognize_S2_symbol, triangle_info)

print("== normal forms ==")
for p, q in [(7, 4), (12, 7), (5, 3), (0, 6), (1, 5), (9, -2)]:
    n = lens_normalize(p, q)
    print(f"({p},{q:2}) -> ({n.p},{n.q})  {n.display()}")

print()
print("== equivalence ==")
pairs = [((7, 2), (7, 3)), ((5, 1), (5, 2)), ((12, 5), (12, 7))]
for (p1, q1), (p2, q2) in pairs:
    a, b = lens_normalize(p1, q1), lens_normalize(p2, q2)
    verdict = "homeomorphic" if lens_equivalent(a, b) else "distinct"
    print(f"L({p1},{q1}) vs L({p2},{q2}): {verdict}")
# q and its inverse mod p name the same space, so L(7,3) = L(7,5) = L(7,2)

print()
print("== fibering a sewing ==")
# the matrix rows record where meridian and longitude of the first torus
# land on the second; pushing a chosen fibering through it yields the
# fibered-solid-torus invariant seen from each side
for mat, (nu, mu) in [
    (GluingMatrix(0, -1, 1, 0), (1, 3)),
    (GluingMatrix(1, 0, 0, 1), (2, 5)),
    (GluingMatrix(3, 5, 1, 2), (2, 5)),
]:
    t1, t2 = fibering_transform(mat, ReducedFraction(nu, mu))
    print(f"matrix ({mat.q} {mat.r}; {mat.p} {mat.s}), fiber {nu}/{mu}: "
          f"sides {t1.frac} and {t2.frac}")

print()
print("== recognition over the sphere ==")
symbols = [
    "(O,o,0 | 0)",
    "(O,o,0 | 1)",
    "(O,o,0 | -1, (3,1), (4,1))",
    "(O,o,0 | 1, (2,1), (3,1), (5,1))",
    "(O,o,0 | -1, (2,1), (3,1), (7,1))",
]
for text in symbols:
    rec = recognize_S2_symbol(parse_symbol(text))
    label = rec.name if rec else "generic (not a lens space)"
    print(f"{text:38} -> {label}")

print()
print("== a witness you can check ==")
rec = recognize_S2_symbol(parse_symbol("(O,o,0 | -1, (3,1), (4,1))"))
w = rec.witness
print(f"{rec.name} via sewing ({w.q} {w.r}; {w.p} {w.s}), det {w.det}")
# the witness completes the left column (q, p) to determinant 1: p is the
# order of H1, q is the sewing q reduced mod p, and L(19,15) = L(19,4)
# because 15 = -4 mod 19

print()
print("== platonic triples ==")
for triple in [(2, 2, 9), (2, 3, 4), (2, 3, 5), (2, 3, 6), (3, 3, 3)]:
    verdict = "platonic" if triangle_info(*triple).finite else "not platonic"
    print(f"{triple}: {verdict}")
