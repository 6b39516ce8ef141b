"""Exception hierarchy shared across the package, and the one reader of
an integer field of JSON input.

Every domain error carries a machine-readable ``code`` that the
command-line interface echoes in its JSON error reports.
"""

import operator


def json_int(x) -> int:
    """x as the int of an integer field of JSON input.  operator.index
    refuses every other JSON value with a TypeError, but takes true and
    false for 1 and 0, so a bool is refused first."""
    if isinstance(x, bool):
        raise TypeError(f"an integer field must be a JSON integer, got {str(x).lower()}")
    return operator.index(x)


class CommLabError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"

    def __init__(self, detail=""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class SingularMatrix(CommLabError):
    code = "SingularMatrix"


class SingularMap(CommLabError):
    code = "SingularMap"


class NotDivisible(CommLabError):
    code = "NotDivisible"


class OutOfDomain(CommLabError):
    code = "OutOfDomain"


class NotAHomomorphism(CommLabError):
    code = "NotAHomomorphism"


class ExponentMismatch(CommLabError):
    code = "ExponentMismatch"


class ZeroInput(CommLabError):
    code = "ZeroInput"


class NotPrime(CommLabError):
    code = "NotPrime"


class InvalidTorusSpec(CommLabError):
    code = "InvalidTorusSpec"


class ReducibleCharPoly(CommLabError):
    code = "ReducibleCharPoly"


class FiniteOrder(CommLabError):
    code = "FiniteOrder"


class ExceedsFactorBound(CommLabError):
    code = "ExceedsFactorBound"


class BaseMismatch(CommLabError):
    code = "BaseMismatch"


class IncompatibleCocycle(CommLabError):
    code = "IncompatibleCocycle"


class DegenerateAction(CommLabError):
    code = "DegenerateAction"


class DimensionMismatch(CommLabError):
    code = "DimensionMismatch"


class UnknownInstantiation(CommLabError):
    code = "UnknownInstantiation"


class NotAnAutomorphism(CommLabError):
    code = "NotAnAutomorphism"


class ResourceLimit(CommLabError):
    code = "ResourceLimit"
