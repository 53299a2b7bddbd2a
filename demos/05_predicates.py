"""Topological predicates: small spaces, flat members, and the report.

classify_small names every space whose Fuchsian quotient is finite,
is_flat reads the base orbifold's Euler characteristic and the Euler
number, and predicates() bundles the usual 3-manifold properties into
one report with its implications enforced.
"""

from seifert import (ExcludedSpace, bounded_equivalent, classify_small,
                     is_flat, parse_symbol, predicates)

print("== small spaces ==")
symbols = [
    "(O,o,0; m=1 | -, (3,2))",
    "(O,o,0 | 1)",
    "(O,o,0 | -1, (3,1), (4,1))",
    "(O,o,0 | 1, (2,1), (3,1), (5,1))",
    "(O,n,1 | 0)",
    "(N,n,I,1 | (0,0))",
    "(N,n,I,1 | (1,0))",
    "(O,o,0 | -1, (2,1), (2,1), (3,1))",
    "(O,o,0 | -1, (2,1), (3,1), (7,1))",
]
for text in symbols:
    res = classify_small(parse_symbol(text))
    label = res.name if res else "not small"
    print(f"{text:38} -> {label}")

print()
print("== flat members ==")
# flat exactly when the base orbifold has Euler characteristic 0 and the
# Euler number is 0: the last row fibers over the Euclidean triangle
# orbifold S2(2,3,6)
for text in [
    "(O,o,1 | 0)",
    "(O,o,1 | -1, (1,1))",
    "(O,o,0 | -2, (2,1), (2,1), (2,1), (2,1))",
    "(N,n,II,2 | (1,0))",
    "(O,o,0; m=2 | -)",
    "(O,o,1 | 1)",
    "(O,o,0 | -1, (2,1), (3,1), (6,1))",
]:
    verdict = "flat" if is_flat(parse_symbol(text)) else "not flat"
    print(f"{text:46} {verdict}")

print()
print("== the predicate report ==")
for text in [
    "(O,o,0 | -1, (2,1), (3,1), (7,1))",
    "(O,o,0 | 1, (2,1), (3,1), (6,1))",
    "(O,o,0 | 0)",
]:
    r = predicates(parse_symbol(text))
    print(text)
    print(f"  small={r.small}  flat={r.flat}  finite pi1={r.pi1_finite}")
    print(f"  irreducible={r.irreducible}  P2-irreducible={r.p2_irreducible}  "
          f"aspherical={r.aspherical}")
    print(f"  incompressible surface={r.has_incompressible_surface}"
          + (f"  named={r.named}" if r.named else ""))
# sphere orbits with three exceptional fibers carry a horizontal
# incompressible surface exactly when first homology is infinite, which
# separates the first two rows

print()
print("== comparing bounded symbols ==")
a = parse_symbol("(O,o,1; m=1 | -, (3,1))")
b = parse_symbol("(O,o,1; m=1 | -, (3,2))")
print("mirror twists on a bounded symbol:", bounded_equivalent(a, b))
try:
    bounded_equivalent(parse_symbol("(O,o,0; m=1 | -, (3,2))"), a)
except ExcludedSpace as e:
    print(f"solid torus refused: {e}")
