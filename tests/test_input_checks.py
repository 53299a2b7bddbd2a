"""Each input check of a value class or function, one row a raise: the
bad value is built through its constructor or function and raises its
class with its exact message. These are the checks that no report,
parse or command line reaches, because every caller builds valid values
first."""

import pytest

from seifert import (AbelianGroup, BoundaryClass, ClassPart, CountTooLarge,
                     CrossingPair, IntMatrix, InvalidIndex, InvalidSurface,
                     LensParams, ModeError, NotCoprime, OutputTooLong,
                     PredicateReport, Presentation, ReducedFraction,
                     SeifertSymbol, SurfaceSpec, ValidityError, fst_normalize,
                     lift_curve, lift_fiber, parse_symbol, presentation_text,
                     presentation_texts, render_symbol, symbols_equivalent,
                     triangle_presentation)

O = ClassPart("O", "o", 0)
HUGE = 10 ** 5000  # past the interpreter's 4,300-digit int-to-str limit
TOO_LONG = "the result has an integer too long to convert to text"


def _predicates(**flags):
    row = dict(small=None, flat=False, pi1_finite=False, irreducible=True,
               p2_irreducible=True, aspherical=True,
               boundary_irreducible=True, has_incompressible_surface=True,
               named=None, notes=())
    return PredicateReport(**{**row, **flags})


ROWS = {
    "class total flag": (lambda: ClassPart("X", "o", 0), ValidityError,
                         "total space flag must be O or N, got 'X'"),
    "class orbit flag": (lambda: ClassPart("O", "x", 0), ValidityError,
                         "orbit flag must be o or n, got 'x'"),
    "class negative genus": (lambda: ClassPart("O", "o", -1), ValidityError,
                             "negative genus"),
    "class subtype off (N,n)": (
        lambda: ClassPart("O", "o", 0, "I"), ValidityError,
        "subtype is only meaningful for class (N,n)"),
    "class (O,n,0)": (lambda: ClassPart("O", "n", 0), ValidityError,
                      "non-orientable orbit needs at least 1 crosscap"),
    "class (N,n,II,1)": (lambda: ClassPart("N", "n", 1, "II"), ValidityError,
                         "subtype II needs at least 2 crosscaps"),
    "surface negative genus": (lambda: SurfaceSpec(True, -1), InvalidSurface,
                               "negative surface data"),
    "symbol negative boundary": (
        lambda: SeifertSymbol(O, -1, 0, None, ()), ValidityError,
        "negative boundary count"),
    "symbol (N,o,0) with one torus": (
        lambda: SeifertSymbol(ClassPart("N", "o", 0), 1, 0, None, ()),
        ValidityError,
        "(N,o,0) admits no fiber-reversing loop without Klein boundaries"),
    "symbol plain-tuple pair": (
        lambda: SeifertSymbol(O, 0, 0, 0, ((2, 1),)), ValidityError,
        "pairs must be CrossingPair values"),
    "symbol bounded b": (lambda: SeifertSymbol(O, 1, 0, 0, ()), ValidityError,
                         "bounded symbols carry no obstruction"),
    "symbol closed class O (0,0)": (
        lambda: SeifertSymbol(O, 0, 0, (0, 0), ()), ValidityError,
        "closed orientable symbols need integer b"),
    "symbol closed class N plain int": (
        lambda: SeifertSymbol(ClassPart("N", "n", 1, "I"), 0, 0, 0, ()),
        ValidityError, "closed non-orientable symbols need (b, s)"),
    "crossing pair (0,0)": (lambda: CrossingPair(0, 0), ValidityError,
                            "fiber index must be >= 1, got 0"),
    "fraction 1/0": (lambda: ReducedFraction(1, 0), ValidityError,
                     "denominator must be positive, got 0"),
    "matrix negative rows": (lambda: IntMatrix(-1, 0, ()), ValidityError,
                             "matrix dimensions must be nonnegative"),
    "matrix ragged rows": (lambda: IntMatrix.from_rows([[1], [1, 2]]),
                           ValidityError, "ragged rows"),
    "group negative rank": (lambda: AbelianGroup(-1, ()), ValidityError,
                            "negative rank"),
    "group torsion off its chain": (
        lambda: AbelianGroup(0, (2, 3)), ValidityError,
        "torsion factors must form a chain"),
    "presentation zero exponent": (
        lambda: Presentation(("a",), (((0, 0),),)), ValidityError,
        "zero exponent syllable"),
    "lens (4,2)": (lambda: LensParams(4, 2), NotCoprime, "gcd(4, 2) != 1"),
    "predicates P2-irreducible": (
        lambda: _predicates(irreducible=False), ValidityError,
        "P2-irreducible requires irreducible"),
    "predicates aspherical": (
        lambda: _predicates(p2_irreducible=False), ValidityError,
        "aspherical requires P2-irreducible"),
    "lift_fiber degree 0": (
        lambda: lift_fiber(0, fst_normalize(1, 3, True)), ValidityError,
        "cover degree must be >= 1, got 0"),
    "lift_curve degree 0": (
        lambda: lift_curve(0, BoundaryClass(1, 0)), ValidityError,
        "cover degree must be >= 1, got 0"),
    "lift_curve null class": (
        lambda: lift_curve(1, BoundaryClass(0, 0)), ValidityError,
        "null class is not a curve"),
    "triangle index 1": (lambda: triangle_presentation(1, 2, 3), InvalidIndex,
                         "triangle index must be >= 2, got 1"),
    "equivalence mode bogus": (
        lambda: symbols_equivalent(parse_symbol("(O,o,0 | 0)"),
                                   parse_symbol("(O,o,0 | 0)"), "bogus"),
        ModeError, "unknown mode 'bogus'"),
    "render a 5,000-digit b": (
        lambda: render_symbol(SeifertSymbol(O, 0, 0, HUGE, ())),
        OutputTooLong, TOO_LONG),
    "presentation text of a 5,000-digit exponent": (
        lambda: presentation_text(Presentation(("a",), (((0, HUGE),),))),
        OutputTooLong, TOO_LONG),
    "describe a 5,000-digit factor": (
        lambda: AbelianGroup(0, (HUGE,)).describe(), OutputTooLong, TOO_LONG),
    "presentation texts at genus 1,000,001": (
        lambda: presentation_texts(
            SeifertSymbol(ClassPart("O", "o", 1_000_001), 0, 0, 0, ())),
        CountTooLarge, "genus or boundary count over 1000000"),
}


def test_the_table_has_a_row_for_each_check():
    assert len(ROWS) == 32


@pytest.mark.parametrize("build,cls,message", ROWS.values(), ids=ROWS)
def test_a_bad_value_raises_its_class_and_message(build, cls, message):
    with pytest.raises(cls) as info:
        build()
    assert type(info.value) is cls
    assert str(info.value) == message
