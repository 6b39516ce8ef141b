"""The base of the immutable value classes.

A subclass names its fields in ``__slots__`` and sets each once, in its
``__init__``, with ``object.__setattr__``.  After that a field refuses
assignment and deletion, and two instances are equal, and hash alike,
when they are of the same class and their field tuples are equal.
"""


class Frozen:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
