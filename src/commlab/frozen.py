"""The bases of the value classes.

A ``Value`` subclass names its fields in ``__slots__``, and two instances
are equal, and hash alike, when they are of the same class and their
field tuples are equal; the getter of that tuple is built once, when the
class is created.  A ``Frozen`` value takes its fields in slot order, in
``Frozen.__init__``; after that a field refuses assignment and deletion,
and the value prints as a dataclass would.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
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


class Frozen(Value):
    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
