import dataclasses
from fractions import Fraction

import pytest

from commlab.errors import DegenerateAction, InvalidTorusSpec, OutOfDomain, ZeroInput
from commlab.matrices import MatQ
from commlab.solvable import (
    AffineMap,
    BSElement,
    CommDesc,
    CommSpace,
    StructureReport,
    reduced_part,
)
from commlab.storus import RankReport, TorusFactor, TorusSpec

_SPACE = CommSpace(1, 0, 0, 0, reduced_part("bs"))
_BLOCKS = (MatQ.zeros(0, 1), MatQ([[2]]), MatQ.zeros(1, 0), MatQ.zeros(0, 0))

# for each value class, two instances with equal fields and one that differs
_CASES = [
    (AffineMap(2, Fraction(1, 3)), AffineMap(Fraction(2), Fraction(1, 3)), AffineMap(2, 0)),
    (BSElement(2, 1, 3), BSElement(2, 1, Fraction(3)), BSElement(2, 1, Fraction(1, 2))),
    (CommDesc(_SPACE, *_BLOCKS, AffineMap(1, 0)), CommDesc(_SPACE, *_BLOCKS, AffineMap(1, 0)),
     CommDesc(_SPACE, *_BLOCKS, AffineMap(3, 0))),
    (StructureReport(1, 0, "iso", _SPACE), StructureReport(1, 0, "iso", _SPACE),
     StructureReport(1, 0, "other", _SPACE)),
    (TorusFactor("NormOne", 5), TorusFactor("NormOne", 5), TorusFactor("Gm")),
    (TorusSpec(), TorusSpec(()), TorusSpec.gm()),
    (RankReport(1, 0, {3: 1}, 2), RankReport(1, 0, {3: 1}, 2), RankReport(1, 0, {}, 1)),
]


def _as_dataclass(obj):
    """The frozen dataclass these classes were, holding the same fields."""
    cls = dataclasses.make_dataclass(type(obj).__name__, type(obj).__slots__, frozen=True)
    return cls(*(getattr(obj, name) for name in type(obj).__slots__))


@pytest.mark.parametrize("same, equal, other", _CASES, ids=lambda c: type(c).__name__)
def test_value_classes_compare_hash_and_print_as_frozen_dataclasses(same, equal, other):
    ref = _as_dataclass(same)
    assert same == equal and not same != equal
    assert same != other and (same == other) == (ref == _as_dataclass(other))
    assert same != ref and same != tuple(ref.__dict__.values())  # the class is part of equality
    assert repr(same) == repr(ref)
    if isinstance(same, RankReport):  # a dict field: unhashable, as before
        with pytest.raises(TypeError):
            hash(same)
    else:
        assert hash(same) == hash(ref) == hash(equal)


@pytest.mark.parametrize("obj", [case[0] for case in _CASES], ids=lambda c: type(c).__name__)
def test_value_classes_refuse_assignment(obj):
    name = type(obj).__slots__[0]
    before = getattr(obj, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, before)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        obj.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(obj, name)
    assert getattr(obj, name) is before and not hasattr(obj, "__dict__")


def test_constructors_keep_their_checks_in_order():
    with pytest.raises(ZeroInput):
        AffineMap(0, 1)
    with pytest.raises(TypeError):  # the translation is converted before the scale is checked
        AffineMap(0, object())
    with pytest.raises(DegenerateAction):  # the base is checked before the translation
        BSElement(1, 0, Fraction(1, 3))
    with pytest.raises(OutOfDomain):
        BSElement(2, 0, Fraction(1, 3))
    with pytest.raises(InvalidTorusSpec, match="Gm carries no discriminant"):
        TorusFactor("Gm", 5)
    with pytest.raises(InvalidTorusSpec, match="not squarefree"):
        TorusFactor("NormOne", 12)
    assert TorusSpec().factors == () and TorusFactor("Gm").d is None
