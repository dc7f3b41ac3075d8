"""Value semantics of the package's records.

Most records replaced frozen dataclasses, so the oracle here is a frozen
dataclass built with the same name and fields: equality must agree with
it on every sample, and `repr` and hashing on every sample except the
two polynomial classes, which keep their own.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

from fanoperiods import polytope
from fanoperiods._record import Record
from fanoperiods.frobenius import (
    PeriodSequence,
    StructureTable,
    ThetaSeries,
)
from fanoperiods.laurent import LaurentPolynomial, QPolynomial
from fanoperiods.polytope import (
    Halfspace,
    HalfspaceSystem,
    geometry_flags,
    lattice_point_count,
    polar_from_support,
)
from fanoperiods.young import BoxContext, YoungDiagram

CTX24 = BoxContext(2, 4)
TRIANGLE = ((1, 0), (0, 1), (-1, -1))
POLYNOMIALS = (QPolynomial, LaurentPolynomial)

# Each group holds unequal records of one class.
SAMPLES = [
    [CTX24, BoxContext(1, 3)],
    [YoungDiagram(CTX24, (2, 1, 0)), YoungDiagram(CTX24, ())],
    [QPolynomial({0: 1, 2: Fraction(-3, 2)}), QPolynomial.zero()],
    [Halfspace((1, 0), -1), Halfspace([1, 0], Fraction(1, 2))],
    [polar_from_support(TRIANGLE), HalfspaceSystem(1, [Halfspace((1,), 0)])],
    [PeriodSequence([1, 0, 2]), PeriodSequence([QPolynomial.one()])],
    [
        ThetaSeries(1, {1: 2, 3: 0}, 3),
        ThetaSeries(0, {}, 0),
        ThetaSeries(2, {2: QPolynomial({1: Fraction(5, 2)}), 7: 1}, 7),
        ThetaSeries(2, {}, 0),
    ],
    [StructureTable(3, {(1, 1, 0): 2, (0, 1, 0): 0}), StructureTable(1)],
    [
        LaurentPolynomial.from_dict(("x", "y"), {(1, 0): 1, (-1, -1): QPolynomial.of(2, 1)}),
        LaurentPolynomial(("x",)),
    ],
]
RECORDS = [
    pytest.param(record, id=f"{type(record).__name__}-{i}")
    for i, record in enumerate(record for group in SAMPLES for record in group)
]
DATACLASS_RECORDS = [
    param for param in RECORDS if not isinstance(param.values[0], POLYNOMIALS)
]


@lru_cache(maxsize=None)
def _oracle_class(cls):
    return make_dataclass(cls.__name__, cls._fields, frozen=True)


def _as_dataclass(record):
    cls = type(record)
    return _oracle_class(cls)(*(getattr(record, name) for name in cls._fields))


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as err:
        return str(err)


class _Pair(Record):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a, b):
        self._store(a, b)


class _OtherPair(_Pair):
    __slots__ = ()


class _Empty(Record):
    __slots__ = ()


@pytest.mark.parametrize("record", DATACLASS_RECORDS)
def test_repr_and_hash_match_a_frozen_dataclass(record):
    oracle = _as_dataclass(record)
    assert repr(record) == repr(oracle)
    assert _hash_or_error(record) == _hash_or_error(oracle)


@pytest.mark.parametrize("group", SAMPLES, ids=[type(g[0]).__name__ for g in SAMPLES])
def test_equality_matches_a_frozen_dataclass(group):
    for a in group:
        for b in group:
            assert (a == b) == (_as_dataclass(a) == _as_dataclass(b))
            assert (a != b) == (_as_dataclass(a) != _as_dataclass(b))


@pytest.mark.parametrize("record", RECORDS)
def test_copies_and_pickles_are_equal(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_equal_fields_in_another_class_are_unequal():
    assert _Pair(1, 2) == _Pair(1, 2)
    assert hash(_Pair(1, 2)) == hash((1, 2))
    assert _Pair(1, 2) != _OtherPair(1, 2)
    assert _OtherPair(1, 2) != _Pair(1, 2)
    assert _Pair(1, 2) != (1, 2)
    assert CTX24 != (2, 4)
    assert YoungDiagram(CTX24, ()) != YoungDiagram(BoxContext(2, 5), ())


def test_a_record_without_fields_is_a_value():
    a, b = _Empty(), _Empty()
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(())
    assert repr(a) == "_Empty()"
    assert copy.copy(a) == copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    assert a != _Pair(1, 2)


def test_normalized_fields_decide_equality_and_hash():
    assert YoungDiagram(CTX24, [2, 1, 0]) == YoungDiagram(CTX24, (2, 1))
    assert hash(YoungDiagram(CTX24, [2, 1, 0])) == hash(YoungDiagram(CTX24, (2, 1)))
    assert Halfspace([1, 0], -1) == Halfspace((1, 0), Fraction(-1))
    assert StructureTable(2, {(1, 1, 0): 0}) == StructureTable(2)


def test_repr_text_and_the_box_message_are_unchanged():
    assert repr(CTX24) == "BoxContext(k=2, n=4)"
    assert repr(YoungDiagram(CTX24, (2, 1))) == (
        "YoungDiagram(context=BoxContext(k=2, n=4), rows=(2, 1))"
    )
    assert repr(Halfspace((1, 0), -1)) == (
        "Halfspace(normal=(1, 0), offset=Fraction(-1, 1))"
    )
    with pytest.raises(ValueError) as err:
        YoungDiagram(CTX24, (5,))
    assert str(err.value) == "rows (5,) leave the BoxContext(k=2, n=4) box"


@pytest.mark.parametrize("record", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(record):
    for name in type(record)._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_keyword_construction():
    assert BoxContext(k=2, n=4) == CTX24
    assert YoungDiagram(context=CTX24, rows=(1,)) == YoungDiagram(CTX24, (1,))
    assert ThetaSeries(p=1, tail={}, valid_to=0).tail == {}
    table = StructureTable(3)
    assert table.entries == {}
    assert table.entry(1, 1, 0) == QPolynomial.zero()
    assert StructureTable(total=3, entries={(1, 1, 2): 1}).entry(1, 1, 2) == QPolynomial.one()


def test_halfspace_system_builds_its_chain_once(monkeypatch):
    built = []

    def counting(system):
        built.append(system)
        return original(system)

    original = polytope._projection_chain
    monkeypatch.setattr(polytope, "_projection_chain", counting)
    system = polar_from_support(TRIANGLE)
    assert lattice_point_count(system, 1) == 10
    assert lattice_point_count(system, 2) == 28
    assert geometry_flags(system).bounded
    assert system._chain is system._chain
    assert len(built) == 1
    twin = polar_from_support(TRIANGLE)
    assert twin == system and hash(twin) == hash(system)
    assert repr(twin) == repr(system)
    assert lattice_point_count(twin, 1) == 10
    assert len(built) == 2
    assert lattice_point_count(copy.copy(system), 1) == 10
    assert len(built) == 3
