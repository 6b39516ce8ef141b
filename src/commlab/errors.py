"""Exception hierarchy shared across the package, and the readers of an
integer field, an object, a list and a matrix of JSON input.

Every domain error carries a machine-readable ``code``, its class name,
that the command-line interface echoes in its JSON error reports.
"""

import operator


def json_int(x) -> int:
    """x as the int of an integer field of JSON input.  operator.index
    refuses every other JSON value with a TypeError, but takes true and
    false for 1 and 0, so a bool is refused first, and so is a string:
    the CLI reads a JSON number such as 1.5 as the text of its literal."""
    if isinstance(x, (bool, str)):
        text = repr(x) if isinstance(x, str) else str(x).lower()
        raise TypeError(f"an integer field must be a JSON integer, got {text}")
    return operator.index(x)


def json_object(x, name: str) -> dict:
    """x as the object ``name`` of JSON input: a list or a string would be
    indexed by position, and fail on the first key with a message that
    names neither."""
    if not isinstance(x, dict):
        raise TypeError(f"{name} must be a JSON object, got {x!r}")
    return x


def json_list(x, name: str) -> list:
    """x as the list ``name`` of JSON input: an object would be read as
    the list of its keys."""
    if not isinstance(x, list):
        raise TypeError(f"{name} must be a list, got {x!r}")
    return x


def json_matrix(rows, name: str) -> list:
    """rows as the rows of the matrix ``name`` of JSON input, which must
    be a list of lists ([] included): a string row would be read as the
    row of its characters."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise TypeError(f"{name} must be a list of lists, got {rows!r}")
    return rows


class CommLabError(Exception):
    """Base class for all domain errors raised by this package; each
    subclass's code is its name."""

    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, detail=""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class SingularMatrix(CommLabError):
    pass


class SingularMap(CommLabError):
    pass


class NotDivisible(CommLabError):
    pass


class OutOfDomain(CommLabError):
    pass


class NotAHomomorphism(CommLabError):
    pass


class ExponentMismatch(CommLabError):
    pass


class ZeroInput(CommLabError):
    pass


class NotPrime(CommLabError):
    pass


class InvalidTorusSpec(CommLabError):
    pass


class ReducibleCharPoly(CommLabError):
    pass


class FiniteOrder(CommLabError):
    pass


class ExceedsFactorBound(CommLabError):
    pass


class BaseMismatch(CommLabError):
    pass


class IncompatibleCocycle(CommLabError):
    pass


class DegenerateAction(CommLabError):
    pass


class DimensionMismatch(CommLabError):
    pass


class UnknownInstantiation(CommLabError):
    pass


class NotAnAutomorphism(CommLabError):
    pass


class ResourceLimit(CommLabError):
    pass
