import dataclasses
from fractions import Fraction

import pytest

from commlab.errors import DegenerateAction, InvalidTorusSpec, OutOfDomain, ZeroInput
from commlab.f2poly import F2LaurentPoly
from commlab.frozen import Value
from commlab.lamplighter import CommInftyElt, LampComm, LampElement, SubmoduleBasis, VDerElt
from commlab.matrices import MatQ
from commlab.polymat import PolyMat
from commlab.solvable import (
    AffineMap,
    BSElement,
    BSReduced,
    CommDesc,
    CommSpace,
    StructureReport,
    TrivialReduced,
    reduced_part,
)
from commlab.storus import RankReport, TorusFactor, TorusSpec
from commlab.unipotent import LieAut, NilMat, UniTriMat, lie_aut_check

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
    """The frozen dataclass of obj's slots but its ``_`` ones (caches),
    holding the same fields."""
    names = [name for name in type(obj).__slots__ if not name.startswith("_")]
    cls = dataclasses.make_dataclass(type(obj).__name__, names, frozen=True)
    return cls(*(getattr(obj, name) for name in names))


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


_ONE_T = F2LaurentPoly({1})
# the scales of E(0, 1), E(0, 2), E(1, 2): [E(0, 1), E(1, 2)] = E(0, 2), so 2 * 3 = 6
_LIE_SCALES = (2, 6, 3)


def _checked_aut():
    """A Lie map whose lie_aut_check has run: its _checked cache is set,
    where that of a fresh map is None, and it is no field."""
    aut = LieAut.diagonal(3, _LIE_SCALES)
    assert aut._checked is None and lie_aut_check(aut) and aut._checked
    return aut


# for each mutable value class, two instances with equal fields built two
# ways and one with one field changed (the class, for the reduced parts,
# which have no fields)
_VALUE_CASES = [
    (F2LaurentPoly({0, 3}), F2LaurentPoly.from_string("1+t^3"), F2LaurentPoly({1, 4})),
    (PolyMat(2, [1, 2]), PolyMat.identity(2), PolyMat(2, [1, 2], 1)),
    (MatQ.zeros(0, 1), MatQ([], ncols=1), MatQ.zeros(0, 2)),
    (LampElement(_ONE_T, 2), LampElement.from_json({"k": "t", "n": 2}), LampElement(_ONE_T, 3)),
    (VDerElt(2, _ONE_T), VDerElt(2, F2LaurentPoly.from_string("t")), VDerElt(4, _ONE_T)),
    (CommInftyElt.identity(2), CommInftyElt(2, PolyMat.identity(2)),
     CommInftyElt(2, PolyMat.identity(2), 0b11)),
    (SubmoduleBasis.full(1), SubmoduleBasis(1, [[F2LaurentPoly.one()]]),
     SubmoduleBasis(1, [[F2LaurentPoly({0, 1})]])),
    (LampComm.identity(), LampComm(VDerElt.zero(), CommInftyElt.identity(1), False),
     LampComm(VDerElt.zero(), CommInftyElt.identity(1), True)),
    (UniTriMat([[1, 2], [0, 1]]), UniTriMat(MatQ([[1, 2], [0, 1]])), UniTriMat([[1, 3], [0, 1]])),
    (NilMat([[0, 2], [0, 0]]), NilMat(MatQ([[0, 2], [0, 0]])), NilMat([[0, 3], [0, 0]])),
    (TrivialReduced(), reduced_part("trivial"), BSReduced()),
    (BSReduced(), reduced_part("bs"), TrivialReduced()),
    (_checked_aut(), LieAut.diagonal(3, _LIE_SCALES), LieAut.diagonal(3, (2, 1, 3))),
]


def _twin(obj):
    """An instance of another Value class with the same slots and fields."""
    twin = object.__new__(type("Twin", (Value,), {"__slots__": type(obj).__slots__}))
    for name in type(obj).__slots__:
        object.__setattr__(twin, name, getattr(obj, name))
    return twin


@pytest.mark.parametrize("same, equal, other", _VALUE_CASES + _CASES,
                         ids=lambda c: type(c).__name__)
def test_values_are_equal_exactly_when_class_and_fields_are(same, equal, other):
    assert same is not equal and same == equal and not same != equal
    assert same != other and other != same
    twin = _twin(same)
    assert twin._fields(twin) == same._fields(same)
    assert same != twin and twin != same  # the class is part of equality
    if not isinstance(same, RankReport):  # a dict field: unhashable
        assert hash(same) == hash(equal) == hash(same._fields(same))


@pytest.mark.parametrize("obj", [case[0] for case in _VALUE_CASES], ids=lambda c: type(c).__name__)
def test_values_print_as_frozen_dataclasses_of_their_public_slots(obj):
    if isinstance(obj, F2LaurentPoly):  # the atom prints its text
        assert repr(obj) == "F2LaurentPoly('1+t^3')"
    else:
        assert repr(obj) == repr(_as_dataclass(obj))


def test_ints_past_the_int_to_str_limit_print_in_hex():
    # a column of 20000 set bits has about 6000 decimal digits, past the
    # 4300 of CPython's default limit: alone, in a tuple field and in a
    # nested value, it prints in hex, and short ints stay decimal
    big = (1 << 20000) - 1
    assert repr(PolyMat(2, [1, 2])) == "PolyMat(n=2, shift=0, cols=(1, 2))"
    assert repr(PolyMat(1, [big])) == f"PolyMat(n=1, shift=0, cols=({big:#x},))"
    assert repr(PolyMat(2, [big, 2])) == f"PolyMat(n=2, shift=0, cols=({big:#x}, 2))"
    assert repr(CommInftyElt(1, PolyMat(1, [big]))) == (
        f"CommInftyElt(level=1, num=PolyMat(n=1, shift=0, cols=({big:#x},)), den=1)")
    assert repr(MatQ([[big, 1]])) == f"MatQ(num=(({big:#x}, 1),), den=1, ncols=2)"
    assert repr(LampElement(_ONE_T, big)) == f"LampElement(k=F2LaurentPoly('t'), n={big:#x})"
