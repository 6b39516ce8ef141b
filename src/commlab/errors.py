"""Exception hierarchy shared across the package.

Every domain error carries a machine-readable ``code`` that the
command-line interface echoes in its JSON error reports.
"""


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
