"""Immutable value classes, each built as one tuple subclass.

`record` rebuilds a class whose body lists annotated fields (defaults
allowed) as a subclass of tuple: construction, field access and hashing
run at C speed, and the repr reads Name(field=value, ...). The fields
are read by the same C getters that collections.namedtuple uses, but no
namedtuple is built and no source is compiled, which keeps start-up
short. Besides its own methods a record has namedtuple's `_make`,
`_replace`, `_asdict`, `_fields`, `_field_defaults`, `__getnewargs__`
and `__match_args__`. A value equals only a value of its own class,
never a plain tuple. A class's __post_init__ runs on every construction
path: the constructor, `replace`, `_make`, `_replace`, copy and pickle.
Assignment is refused; only object.__setattr__ can set a private mark in
the instance __dict__ (SeifertSymbol._normal), and the mark stays out of
==, hash and repr.
"""

from operator import itemgetter

try:
    from _collections import _tuplegetter
except ImportError:  # an interpreter without the C helper
    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)


def _eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")


def _bind(cls, args, kwargs):
    """The field values of a call that gives keywords, gives too few or
    too many values, or leaves out a default where not every default
    trails; it raises such a call's TypeError."""
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments "
                        f"but {len(args)} were given")
    values = list(args)
    for name in fields[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in cls._field_defaults:
            values.append(cls._field_defaults[name])
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__}() got unexpected or repeated "
                        f"arguments {list(kwargs)!r}")
    return values


def _repr(self):
    fields = ", ".join(f"{name}={value!r}"
                       for name, value in zip(self._fields, self))
    return f"{type(self).__name__}({fields})"


def _replace(self, **changes):
    value = self._make(map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"got unexpected field names: {list(changes)!r}")
    return value


def record(cls):
    """Rebuild cls as an immutable record of its annotated fields."""
    body = dict(vars(cls))
    fields = tuple(cls.__annotations__)
    defaults = {f: body.pop(f) for f in fields if f in body}
    size = len(fields)
    post = "__post_init__" in body
    # A positional call needs at least `least` values and takes the rest
    # from `tail`, when every default trails; otherwise _bind reads it.
    tail = tuple(defaults.values())
    least = size - len(tail)
    if fields[least:] != tuple(defaults):
        least = size

    def __new__(cls, *args, **kwargs):
        if len(args) != size or kwargs:
            n = len(args)
            if kwargs or not least <= n < size:
                args = _bind(cls, args, kwargs)
            else:
                args += tail[n - least:]
        self = tuple.__new__(cls, args)
        if post:
            self.__post_init__()
        return self

    del body["__dict__"], body["__weakref__"]
    body.update(
        {name: _tuplegetter(i, None) for i, name in enumerate(fields)},
        _fields=fields, _field_defaults=defaults, __match_args__=fields,
        __new__=__new__, _make=classmethod(lambda cls, values: cls(*values)),
        _replace=_replace, _asdict=lambda self: dict(zip(self._fields, self)),
        __getnewargs__=lambda self: tuple(self), __repr__=_repr, __eq__=_eq,
        __ne__=object.__ne__, __hash__=tuple.__hash__, __setattr__=_frozen,
        __delattr__=_frozen)
    return type(cls.__name__, (tuple,), body)


def replace(obj, **changes):
    """A copy of the record obj with the named fields changed, built and
    validated by the constructor, so it carries no mark set on obj."""
    return type(obj)(**{**obj._asdict(), **changes})
