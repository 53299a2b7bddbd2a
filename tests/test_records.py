"""The value-class contract: every public value class is an immutable
record that equals only values of its own class, hashes like its equal
values and prints as Name(field=value, ...); `replace` validates."""

from fractions import Fraction

import pytest

import seifert
from seifert import (AbelianGroup, BoundaryClass, ClassInfo, ClassPart,
                     CrossingPair, EnumerationResult, EulerSum,
                     FiberedSolidTorus, FiberlessCover, FuchsianSignature,
                     GluingMatrix, IntMatrix, LensParams, PredicateReport,
                     Presentation, Recognition, ReducedFraction, SeifertSymbol,
                     SmallResult, SurfaceSpec, TriangleInfo, ValidityError,
                     normalize_symbol, parse_symbol)

README_FIRST = "(O,o,0 | -1, (2,1), (3,1), (5,1))"
README_FIRST_REPR = (
    "SeifertSymbol(class_part=ClassPart(total='O', orbit='o', genus=0, "
    "subtype=None), boundary_tori=0, boundary_klein=0, obstruction=-1, "
    "pairs=(CrossingPair(mu=2, beta=1), CrossingPair(mu=3, beta=1), "
    "CrossingPair(mu=5, beta=1)))")

# Every public value class with the keyword arguments of one valid value,
# all fields in declaration order.
VALUES = [
    (ReducedFraction, dict(num=1, den=3)),
    (IntMatrix, dict(rows=1, cols=2, entries=(1, 2))),
    (FiberedSolidTorus, dict(frac=ReducedFraction(1, 3), oriented=True)),
    (CrossingPair, dict(mu=2, beta=1)),
    (BoundaryClass, dict(a=1, b=0)),
    (ClassPart, dict(total="N", orbit="n", genus=2, subtype="II")),
    (SurfaceSpec, dict(orientable=True, genus=1, boundary=2)),
    (SeifertSymbol, dict(class_part=ClassPart("O", "o", 0), boundary_tori=0,
                         boundary_klein=0, obstruction=-1,
                         pairs=(CrossingPair(2, 1), CrossingPair(3, 1),
                                CrossingPair(5, 1)))),
    (ClassInfo, dict(name="trivial", class_code="O,o",
                     description="fiber orientation preserved")),
    (Presentation, dict(generators=("a", "b"), relators=(((0, 2), (1, -1)),))),
    (AbelianGroup, dict(free_rank=1, torsion=(2, 4))),
    (EnumerationResult, dict(outcome="finite", order=6, cosets_used=9)),
    (TriangleInfo, dict(indices=(2, 3, 5), geometry="spherical", finite=True,
                        order=60)),
    (FuchsianSignature, dict(orientable=True, s=2, m=1, degrees=(2, 3))),
    (LensParams, dict(p=5, q=2)),
    (GluingMatrix, dict(q=2, r=1, p=5, s=3)),
    (Recognition, dict(kind="Lens", lens=LensParams(5, 2), triple=None,
                       witness=GluingMatrix(2, 1, 5, 3))),
    (SmallResult, dict(category="lens", name="L(5,2)", lens=LensParams(5, 2),
                       triple=None, order=5)),
    (PredicateReport, dict(small=None, flat=False, pi1_finite=False,
                           irreducible=True, p2_irreducible=True,
                           aspherical=True, boundary_irreducible=True,
                           has_incompressible_surface=True, named=None,
                           notes=("a note",))),
    (EulerSum, dict(value=Fraction(1, 30))),
    (FiberlessCover, dict(symbol=None, obstruction=0, orbit_chi=-2,
                          orbit_known=False)),
]


def test_the_table_covers_every_public_value_class():
    assert len(VALUES) == 21
    assert len({cls for cls, _ in VALUES}) == 21


@pytest.mark.parametrize("cls,kwargs", VALUES,
                         ids=[cls.__name__ for cls, _ in VALUES])
def test_value_class_contract(cls, kwargs):
    value = cls(**kwargs)
    same = cls(*kwargs.values())
    assert value == same and not value != same
    assert hash(value) == hash(same)

    plain = tuple(kwargs.values())
    assert value != plain and plain != value
    assert not value == plain and not plain == value
    twin = type("Twin", (cls,), {})(**kwargs)
    assert value != twin and twin != value

    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == same

    fields = ", ".join(f"{name}={v!r}" for name, v in kwargs.items())
    assert repr(value) == f"{cls.__name__}({fields})"


def test_pinned_reprs():
    assert repr(CrossingPair(2, 1)) == "CrossingPair(mu=2, beta=1)"
    assert repr(parse_symbol(README_FIRST)) == README_FIRST_REPR
    assert repr(normalize_symbol(parse_symbol(README_FIRST))) \
        == README_FIRST_REPR


def test_classes_with_the_same_values_differ():
    assert CrossingPair(2, 1) != BoundaryClass(2, 1)
    assert LensParams(5, 2) != BoundaryClass(5, 2)
    assert len({CrossingPair(2, 1), BoundaryClass(2, 1), (2, 1)}) == 3


def test_the_mark_can_be_neither_set_nor_deleted():
    ns = normalize_symbol(parse_symbol(README_FIRST))
    with pytest.raises(AttributeError):
        ns._normal = False
    with pytest.raises(AttributeError):
        del ns._normal
    assert ns._normal


def test_replace_validates_and_clears_the_mark():
    ns = normalize_symbol(parse_symbol(README_FIRST))
    assert ns._normal
    with pytest.raises(ValidityError):
        seifert.replace(ns, boundary_klein=1)
    same = seifert.replace(ns)
    assert same == ns and same is not ns and not same._normal
    moved = seifert.replace(ns, obstruction=-2)
    assert moved.obstruction == -2 and not moved._normal
    assert moved.pairs is ns.pairs
    with pytest.raises(ValidityError):
        seifert.replace(CrossingPair(3, 1), beta=3)
    # namedtuple's own copy paths validate too
    with pytest.raises(ValidityError):
        ns._replace(boundary_klein=1)
    with pytest.raises(ValidityError):
        CrossingPair._make((3, 3))
