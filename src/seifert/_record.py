"""Immutable value classes on a namedtuple base.

`record` rebuilds a class whose body lists annotated fields (defaults
allowed) as a tuple subclass: construction, field access and hashing run
at C speed, and the repr reads Name(field=value, ...). Defining one
compiles no method but namedtuple's one-line __new__, which keeps
start-up short. A value equals only a value of its own class, never a
plain tuple. A class's __post_init__ runs on every construction path:
the constructor, `replace`, `_make`, `_replace`, copy and pickle.
Assignment is refused; only object.__setattr__ can set a private mark in
the instance __dict__ (SeifertSymbol._normal), and the mark stays out of
==, hash and repr.
"""

from collections import namedtuple


def _eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")


def record(cls):
    """Rebuild cls as an immutable record of its annotated fields."""
    body = dict(vars(cls))
    fields = tuple(cls.__annotations__)
    defaults = [body.pop(f) for f in fields if f in body]
    base = namedtuple(cls.__name__, fields, defaults=defaults)
    del body["__dict__"], body["__weakref__"]
    body.update(__eq__=_eq, __ne__=object.__ne__, __hash__=tuple.__hash__,
                __setattr__=_frozen, __delattr__=_frozen)
    if "__post_init__" in body:
        make, size = base.__new__, len(fields)

        def __new__(cls, *args, **kwargs):
            # Every field given by position: skip namedtuple's own __new__.
            if len(args) == size and not kwargs:
                self = tuple.__new__(cls, args)
            else:
                self = make(cls, *args, **kwargs)
            self.__post_init__()
            return self
        body["__new__"] = __new__
        body["_make"] = classmethod(lambda cls, values: cls(*values))
    return type(cls.__name__, (base,), body)


def replace(obj, **changes):
    """A copy of the record obj with the named fields changed, built and
    validated by the constructor, so it carries no mark set on obj."""
    return type(obj)(**{**obj._asdict(), **changes})
