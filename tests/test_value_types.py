"""The package's frozen value types: immutable fields, equality, hash and
repr by field within one class, and the argument checks of each type."""

import copy
import pickle

import pytest

from spcohom.correspondence import CorrespondencePair
from spcohom.errors import InvalidRankError
from spcohom.ideals import IncreasingSet
from spcohom.liealg import IntMatrix
from spcohom.poincare import IntPolynomial
from spcohom.report import VerificationReport
from spcohom.roots import DIFF, LONG, SUM, Frozen, Root, RootSet, SignedRoot
from spcohom.weyl import Perm, SignedPerm, StandardForm

# one constructor per frozen type; each call builds a new, equal object
VALUES = {
    "Root": lambda: Root(SUM, 1, 2),
    "SignedRoot": lambda: SignedRoot(-1, Root(DIFF, 1, 3)),
    "RootSet": lambda: RootSet(2, 0b1010),
    "Perm": lambda: Perm((2, 3, 1)),
    "SignedPerm": lambda: SignedPerm((2, -3, 1)),
    "StandardForm": lambda: StandardForm((3,), Perm((2, 3, 1))),
    "IncreasingSet": lambda: IncreasingSet.from_profile(2, (2, 1)),
    "IntMatrix": lambda: IntMatrix.from_entries(2, {(0, 1): 3}),
    "IntPolynomial": lambda: IntPolynomial((1, 2, 1)),
    "CorrespondencePair": lambda: CorrespondencePair(
        Perm((2, 1)), IncreasingSet.from_profile(2, (2, 1))
    ),
}

params = pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())


def test_the_table_covers_every_frozen_type():
    assert [type(make()).__name__ for make in VALUES.values()] == list(VALUES)
    package_types = {c.__name__ for c in Frozen.__subclasses__() if c.__module__ != __name__}
    assert package_types == set(VALUES)


@params
def test_fields_can_be_neither_assigned_nor_deleted(make):
    value = make()
    for name in type(value).__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@params
def test_equal_fields_give_equal_objects_and_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: "found"}[b] == "found"
    assert repr(a) == repr(b)
    assert repr(a).startswith(type(a).__name__ + "(")
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is type(a) and clone == a


@params
def test_another_type_with_the_same_fields_is_unequal(make):
    value = make()
    twin_type = type("Twin", (Frozen,), {"__slots__": type(value).__slots__})
    twin = object.__new__(twin_type)
    for name in type(value).__slots__:
        object.__setattr__(twin, name, getattr(value, name))
    assert twin._fields() == value._fields()
    assert value != twin and twin != value


def test_perm_and_signed_perm_with_the_same_images_are_unequal():
    assert Perm((2, 1)) != SignedPerm((2, 1))
    assert len({Perm((2, 1)), SignedPerm((2, 1))}) == 2


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Root("bogus", 1, 2), "unknown root kind 'bogus'"),
        (lambda: Root(DIFF, 0, 1), "root indices are 1-based"),
        (lambda: Root(LONG, 1, 2), "a long root 2*e_i must have j == i"),
        (lambda: Root(SUM, 2, 2), "sum root needs i < j, got (2, 2)"),
        (lambda: Root(DIFF, 3, 1), "diff root needs i < j, got (3, 1)"),
        (lambda: SignedRoot(0, Root(LONG, 1, 1)), "sign must be +1 or -1"),
        (lambda: RootSet(2, 1 << 4), "bitmask outside the positive-root range"),
        (lambda: RootSet(2, -1), "bitmask outside the positive-root range"),
        (lambda: Perm((1, 1)), "(1, 1) is not a permutation of 1..2"),
        (lambda: Perm(()), "() is not a permutation of 1..0"),
        (lambda: SignedPerm((1, -1)), "(1, -1) is not a signed permutation of 1..2"),
        (lambda: SignedPerm((1, 3)), "(1, 3) is not a signed permutation of 1..2"),
    ],
)
def test_bad_arguments_raise_the_same_errors(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_root_set_checks_its_rank():
    with pytest.raises(InvalidRankError, match="rank must be a positive integer, got 0"):
        RootSet(0, 0)


def test_verification_report_by_keyword():
    a, b = VerificationReport(rank=3), VerificationReport(rank=3)
    assert (a.rank, a.records, a.data) == (3, [], {})
    a.add("check", "anchor", True)
    a.data["key"] = 1
    assert (b.records, b.data) == ([], {})
    assert VerificationReport(2, data={"x": 1}).data == {"x": 1}
