"""Every way of calling a record's constructor builds the same value, or
raises the same error: all positional, all keywords, mixed, and
positional with trailing defaults left out (the fast path of __new__)."""

import pytest

from seifert import (AbelianGroup, ClassPart, CrossingPair,
                     FuchsianSignature, GluingMatrix, IntMatrix, InputError,
                     LensParams, PredicateReport, Presentation,
                     ReducedFraction, SeifertSymbol, SurfaceSpec)
from seifert._record import record
from test_records import VALUES

# One invalid value of every class that validates, by its keywords.
INVALID = {
    ReducedFraction: dict(num=2, den=4),
    IntMatrix: dict(rows=1, cols=2, entries=(1,)),
    CrossingPair: dict(mu=3, beta=3),
    ClassPart: dict(total="N", orbit="n", genus=2, subtype=None),
    SurfaceSpec: dict(orientable=False, genus=0, boundary=0),
    SeifertSymbol: dict(class_part=ClassPart("O", "o", 0), boundary_tori=0,
                        boundary_klein=2, obstruction=None, pairs=()),
    Presentation: dict(generators=("a",), relators=(((1, 1),),)),
    AbelianGroup: dict(free_rank=0, torsion=(1,)),
    FuchsianSignature: dict(orientable=True, s=-1, m=0, degrees=()),
    LensParams: dict(p=-1, q=0),
    GluingMatrix: dict(q=1, r=1, p=1, s=1),
    PredicateReport: dict(small=None, flat=False, pi1_finite=False,
                          irreducible=False, p2_irreducible=True,
                          aspherical=False, boundary_irreducible=True,
                          has_incompressible_surface=True, named=None,
                          notes=()),
}


def _calls(cls, kwargs):
    """(args, kwargs) of every call form for the field values kwargs: the
    first k values positional and the rest keywords, for every k, and
    positional with each run of trailing fields that equal their
    defaults left out."""
    names, values = list(kwargs), list(kwargs.values())
    calls = [(values[:k], dict(zip(names[k:], values[k:])))
             for k in range(len(values) + 1)]
    n = len(values)
    defaults = cls._field_defaults
    while n and names[n - 1] in defaults \
            and values[n - 1] == defaults[names[n - 1]]:
        n -= 1
        calls.append((values[:n], {}))
    return calls


def _outcome(cls, args, kwargs):
    try:
        return cls(*args, **kwargs)
    except InputError as exc:
        return type(exc), str(exc)


def _cases():
    for cls, kwargs in VALUES:
        yield cls, kwargs
        if cls._field_defaults:
            yield cls, {**kwargs, **cls._field_defaults}
        if cls in INVALID:
            yield cls, INVALID[cls]


CASES = list(_cases())


def test_the_invalid_table_covers_every_class_that_validates():
    assert set(INVALID) == {cls for cls, _ in VALUES
                            if hasattr(cls, "__post_init__")}
    for cls, kwargs in INVALID.items():
        with pytest.raises(InputError):
            cls(**kwargs)


@pytest.mark.parametrize("cls,kwargs", CASES,
                         ids=[cls.__name__ for cls, _ in CASES])
def test_every_call_form_builds_the_same_value(cls, kwargs):
    calls = _calls(cls, kwargs)
    outcomes = [_outcome(cls, args, kw) for args, kw in calls]
    first = outcomes[0]
    for (args, kw), outcome in zip(calls, outcomes):
        assert type(outcome) is type(first), (args, kw)
        assert outcome == first, (args, kw)
    if isinstance(first, cls):
        assert tuple(first) == tuple(kwargs.values())


def test_defaults_left_out_take_the_declared_values():
    assert ClassPart("O", "o", 0).subtype is None
    assert SurfaceSpec(True, 1) == SurfaceSpec(True, 1, 0)
    with pytest.raises(TypeError, match=r"missing argument 'genus'"):
        ClassPart("O", "o")
    with pytest.raises(TypeError, match=r"takes 4 arguments but 5"):
        ClassPart("N", "n", 1, "I", None)


@record
class _Tail:
    """A record with three trailing defaults, each a different value."""

    first: int
    second: int = 1
    third: int = 2
    fourth: int = 3


def test_trailing_defaults_fill_in_from_the_first_left_out():
    assert [tuple(_Tail(*range(10, 10 + n))) for n in range(1, 5)] == \
        [(10, 1, 2, 3), (10, 11, 2, 3), (10, 11, 12, 3), (10, 11, 12, 13)]
    assert _Tail(10, third=5) == _Tail(10, 1, 5)
    with pytest.raises(TypeError, match=r"missing argument 'first'"):
        _Tail()


@record
class _Gap:
    """A record whose default does not trail."""

    first: int = 7
    second: int


def test_a_default_that_does_not_trail_is_not_filled_in_by_position():
    assert _Gap(1, 2) == _Gap(first=1, second=2) == _Gap(1, second=2)
    assert tuple(_Gap(second=2)) == (7, 2)
    with pytest.raises(TypeError, match=r"^_Gap\(\) missing argument "
                                        r"'second'$"):
        _Gap(1)
    with pytest.raises(TypeError, match=r"missing argument 'second'"):
        _Gap()
