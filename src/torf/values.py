"""Value classes: the part of `dataclasses` that torf uses, without its import cost.

`@value` takes the fields from the class annotations, in order, and adds
`__init__` (positional or keyword, plain defaults, then `__post_init__`),
same-class `__eq__` and a dataclass-style `__repr__`.  `frozen=True` adds the
dataclass `__hash__` (that of the tuple of fields, computed on the first
lookup and kept with the fields) and forbids assignment; `cached_property`
still works, as it writes to the instance `__dict__`.
"""

from operator import attrgetter


def value(cls=None, *, frozen=False):
    if cls is None:
        return lambda c: value(c, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            if len(args) > len(names) or not kwargs.keys() <= set(names) - given.keys():
                raise TypeError(f"{cls.__name__}() got unexpected arguments")
            given = {**defaults, **given, **kwargs}
            if len(given) < len(names):
                raise TypeError(f"{cls.__name__}() missing {[n for n in names if n not in given]}")
            args = [given[n] for n in names]
        for n, v in zip(names, args):  # filling __dict__ instead would slow every read
            set_field(self, n, v)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __hash__(self):
        try:
            return self._value_hash
        except AttributeError:  # the first lookup hashes the fields
            set_field(self, "_value_hash", hash(key(self)))
        return self._value_hash

    def frozen_field(self, name, *_value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    cls.__init__, cls.__eq__ = __init__, __eq__
    cls.__hash__ = __hash__ if frozen else None
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    if frozen:
        cls.__setattr__ = cls.__delattr__ = frozen_field
    return cls
