"""The bases of the value classes.

A ``Value`` subclass names its fields in ``__slots__``; a slot whose name
starts with ``_`` is a cache, not a field.  Two instances are equal, and
hash alike, when they are of the same class and their field tuples are
equal, and a value prints as a dataclass would, ``Type(name=..., ...)``
over its fields: the one getter of that tuple, built once when the class
is created, serves all three.  An int field, or an int in a tuple field,
too long for CPython's int-to-str digit limit (a PolyMat column of a
large class) prints in hex.  A ``Frozen`` value takes its fields in slot
order, in ``Frozen.__init__``; after that a field refuses assignment and
deletion.
"""

from operator import attrgetter


def _field_repr(value) -> str:
    """repr(value), but an int past the int-to-str digit limit, where repr
    raises ValueError, in hex, and so is each such int in a tuple."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return hex(value)
        if type(value) is not tuple:
            raise
        items = ", ".join(map(_field_repr, value))
        return f"({items},)" if len(value) == 1 else f"({items})"


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # attrgetter of one name gives the bare field, and of none is no getter
        cls._fields = staticmethod(
            attrgetter(*names) if len(names) > 1
            else lambda obj: tuple([getattr(obj, name) for name in names]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = zip(self._names, self._fields(self))
        fields = ", ".join(f"{name}={_field_repr(value)}" for name, value in fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Value):
    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
