"""The immutable record classes behave as the frozen dataclasses they replace.

Each record is compared with a `dataclasses.make_dataclass` twin that has
the same name and fields: repr, equality and hash must agree.  The
constructor signatures and the validation errors are pinned from the
dataclass versions.  `Chain` and `Triple`, on the same base with their own
equality, share the immutability and copy tests.
"""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

from simplexring._record import Record
from simplexring.chains import (Chain, PlacedPiece, PlacementPlan, TilePiece, _Walked,
                                triangle_chain)
from simplexring.expr import Expr, Group, Lit, Star, Term, parse
from simplexring.forms import FormalCombination, closed_sum
from simplexring.render import RenderOptions
from simplexring.ring import GeomElement, OrthElement, SimplexLiteral
from simplexring.triples import QSqrt3, Triple
from simplexring.witnesses import FactorPair, Witness, composite_witness, factors_from_witness

# Constructor signatures without annotations.  PlacementPlan's `pieces`
# defaulted to a `default_factory=tuple` field before; it now reads `()`.
SIGNATURES = {
    PlacedPiece: "(kind, position, size=1, orientation='up', sign=1, multiplicity=1)",
    PlacementPlan: "(dim, pieces=())",
    TilePiece: "(size, orientation='up', sign=1)",
    Lit: "(scale, suffix=None, negated=False)",
    Star: "(n, m)",
    Group: "(inner)",
    Term: "(coeff, atom)",
    Expr: "(terms)",
    FormalCombination: "(dim, extended, terms)",
    RenderOptions: "(side=40.0, margin=20.0, positive='#333333', positive_open='#999999', "
                   "negative='#cc3333', cancelled='#2e8b57', annotate=True)",
    SimplexLiteral: "(dim, scale, sign=1, extended=False)",
    QSqrt3: "(a, b=Fraction(0, 1))",
    Witness: "(z, a, b, c, d)",
    FactorPair: "(p, q, t, t1, t2, s1, s2)",
}

_TREE = parse("2*<3> + (star(3,2) - -<1>_0) - <-4>")
_WITNESS = composite_witness(15)

# Two or more instances of each class, some equal to each other.
SAMPLES = {
    PlacedPiece: [PlacedPiece("triangle", (0, 0), size=2, sign=-1), PlacedPiece("point", 3),
                  PlacedPiece("point", 3)],
    PlacementPlan: [PlacementPlan(2, [PlacedPiece("vertex", (1, 1), multiplicity=2)]),
                    PlacementPlan(1), PlacementPlan(1, ())],
    TilePiece: [TilePiece(2), TilePiece(1, "down", -1), TilePiece(2, "up", 1)],
    Lit: [Lit(3), Lit(-2, "0", True), Lit(3, None, False)],
    Star: [Star(3, 2), Star(3, -2)],
    Group: [_TREE.terms[1][1].atom, Group(parse("<1>"))],
    Term: [_TREE.terms[0][1], Term(2, Lit(3)), Term(1, Star(3, 2))],
    Expr: [_TREE, parse("2*<3> + (star(3,2) - -<1>_0) - <-4>"), parse("<1>")],
    FormalCombination: [closed_sum((1, 2, 3), 2), closed_sum((1, 2, 3, 4), 3, extended=True),
                        closed_sum((1, 2, 3), 2)],
    RenderOptions: [RenderOptions(), RenderOptions(side=10.0, annotate=False), RenderOptions()],
    SimplexLiteral: [SimplexLiteral(2, 3), SimplexLiteral(3, -1, -1, True),
                     SimplexLiteral(2, Fraction(3))],
    QSqrt3: [QSqrt3(1, Fraction(1, 2)), QSqrt3(0), QSqrt3(Fraction(0))],
    Witness: [_WITNESS, Witness(15, 1, 2, 3, 4)],
    FactorPair: [factors_from_witness(_WITNESS), FactorPair(6, 1, 2, 3, 4, 5, 7)],
}


# Hashable values on Record whose equality is not field equality (a chain
# drops zero cells, a triple is a translation class), so no dataclass twin.
VALUES = {
    Chain: [triangle_chain(2) - triangle_chain(1, "down"), Chain(1, {("point", 3): -2})],
    Triple: [Triple(5, 2, 0), Triple(8, 5, 3)],
}
ALL = {**SAMPLES, **VALUES}


def _twins(cls, records):
    """The records as instances of one frozen dataclass with cls's name and fields."""
    twin = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    return [twin(*(getattr(record, name) for name in cls.__slots__)) for record in records]


def test_every_record_class_is_covered():
    assert set(SIGNATURES) == set(SAMPLES)
    assert len(SIGNATURES) == 14


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_signature(cls):
    sig = inspect.signature(cls)
    bare = sig.replace(parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
                       return_annotation=sig.empty)
    assert str(bare) == SIGNATURES[cls]


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_repr_eq_hash_match_a_dataclass(cls):
    records = SAMPLES[cls]
    twins = _twins(cls, records)
    for record, twin in zip(records, twins):
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert record != twin
    for left, left_twin in zip(records, twins):
        for right, right_twin in zip(records, twins):
            assert (left == right) == (left_twin == right_twin)
            assert (left != right) == (left_twin != right_twin)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_other_classes_compare_not_implemented(cls):
    record = SAMPLES[cls][0]
    for other_cls, others in SAMPLES.items():
        if other_cls is not cls:
            assert record.__eq__(others[0]) is NotImplemented
    assert record.__eq__(tuple(getattr(record, n) for n in cls.__slots__)) is NotImplemented
    assert record != None  # noqa: E711


@pytest.mark.parametrize("cls", ALL, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = ALL[cls][0]
    members = {record}
    before = repr(record), hash(record)
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert (repr(record), hash(record)) == before
    assert record in members


@pytest.mark.parametrize("cls", ALL, ids=lambda cls: cls.__name__)
def test_copy_deepcopy_and_pickle_round_trip(cls):
    for record in ALL[cls]:
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record)),
                      pickle.loads(pickle.dumps(record, protocol=0))):
            assert type(clone) is cls
            assert clone == record
            assert hash(clone) == hash(record)


# (constructor call, exception, message), as the dataclass versions raised them,
# except where `_record.integer` now words a check: "<name> must be an integer,
# got <value>" and "<name> must be >= <least>, got <value>", and where a piece's
# one sign and orientation rule does, as TilePiece's did: "..., got <value>".
ERRORS = [
    (lambda: PlacedPiece("triangle", (0, 0), sign=True), TypeError, "sign must be an integer, got True"),
    (lambda: PlacedPiece("triangle", (0, 0), size=1.5), TypeError, "size must be an integer, got 1.5"),
    (lambda: PlacedPiece("hexagon", (0, 0)), ValueError, "unknown piece kind 'hexagon'"),
    # This row and the orientation row below keep their ids, which name the
    # messages PlacedPiece had before it shared TilePiece's rule.
    pytest.param(lambda: PlacedPiece("triangle", (0, 0), sign=2), ValueError,
                 "sign must be +1 or -1, got 2", id="<lambda>-ValueError-sign must be +1 or -1"),
    # Its id keeps the old message: a 100-character test name cut from the
    # new one would read the same as TilePiece's size case below.
    pytest.param(lambda: PlacedPiece("triangle", (0, 0), size=0), ValueError,
                 "size must be >= 1, got 0", id="<lambda>-ValueError-size must be >= 1"),
    (lambda: PlacedPiece("vertex", (0, 0), multiplicity=0), ValueError,
     "multiplicity must be >= 1, got 0"),
    pytest.param(lambda: PlacedPiece("triangle", (0, 0), orientation="left"), ValueError,
                 "orientation must be 'up' or 'down', got 'left'",
                 id="<lambda>-ValueError-orientation must be 'up' or 'down'"),
    (lambda: PlacementPlan(1, [PlacedPiece("triangle", (0, 0))]), ValueError,
     "piece PlacedPiece(kind='triangle', position=(0, 0), size=1, orientation='up', sign=1, "
     "multiplicity=1) does not live in dimension 1"),
    (lambda: TilePiece(True), TypeError, "size must be an integer, got True"),
    (lambda: TilePiece(-3), ValueError, "size must be >= 1, got -3"),
    (lambda: TilePiece(1, "left"), ValueError, "orientation must be 'up' or 'down', got 'left'"),
    (lambda: TilePiece(1, "up", -2), ValueError, "sign must be +1 or -1, got -2"),
    # GeomElement holds the slice counts SliceBasisVector held, and keeps its messages.
    (lambda: GeomElement(0, ()), ValueError, "dim must be >= 1, got 0"),
    (lambda: GeomElement(2, (1,)), ValueError, "need 2 slice coefficients, got 1"),
    (lambda: OrthElement(2, False, (1,)), ValueError, "expected 2 coefficients, got 1"),
    (lambda: FormalCombination(2, False, ((1.5, SimplexLiteral(2, 1)),)), TypeError,
     "coefficient must be an integer, got 1.5"),
    (lambda: FormalCombination(2, False, ((1, (2, 1)),)), TypeError, "term (2, 1) is not a literal"),
    (lambda: FormalCombination(2, False, ((1, SimplexLiteral(3, 1)),)), ValueError,
     "literal SimplexLiteral(dim=3, scale=1, sign=1, extended=False) does not belong to the "
     "(dim=2, extended=False) family"),
    (lambda: SimplexLiteral(-1, 1), ValueError, "dim must be >= 1, got -1"),
    (lambda: SimplexLiteral(2, 1, sign=0), ValueError, "literal sign must be +1 or -1"),
    (lambda: SimplexLiteral(2, 1.0), TypeError, "scale must be an integer, got 1.0"),
    (lambda: SimplexLiteral(2, Fraction(1, 2)), TypeError,
     "scale must be an integer, got Fraction(1, 2)"),
    (lambda: QSqrt3(0.5), TypeError, "floating point coefficients are not allowed"),
    (lambda: QSqrt3(1, 0.5), TypeError, "floating point coefficients are not allowed"),
    # FactorPair, as Witness, runs every field through `_record.integer`.
    (lambda: FactorPair(1.5, True, "x", None, 2, 3, 4), TypeError, "p must be an integer, got 1.5"),
    (lambda: FactorPair(6, 1, 2, 3, 4, 5, "7"), TypeError, "s2 must be an integer, got '7'"),
]


@pytest.mark.parametrize("make, exc, message", ERRORS)
def test_validation_errors_are_unchanged(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_converted_fields_are_stored_converted():
    assert SimplexLiteral(2, Fraction(3)).scale == 3
    assert type(SimplexLiteral(2, Fraction(3)).scale) is int
    assert QSqrt3(1).a == Fraction(1) and type(QSqrt3(1).b) is Fraction
    assert PlacementPlan(2, [PlacedPiece("vertex", (0, 0))]).pieces == (PlacedPiece("vertex", (0, 0)),)
    assert closed_sum((1, 2, 3), 2).terms[0][0] == 1


class _Inherited(TilePiece):
    """A record class without its own __slots__: it writes TilePiece's fields."""


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


# One instance of every record class: the library's, the base that holds a
# plan's totals and a subclass that inherits its slots.
TRUSTED = {**ALL, _Walked: [_Walked._trusted({})], _Inherited: [_Inherited(2, "down")]}


def test_trusted_building_sets_every_slot():
    library = {cls for cls in _record_classes() if cls.__module__.startswith("simplexring.")}
    assert library | {_Inherited} <= set(TRUSTED)
    for cls, records in TRUSTED.items():
        record = records[0]
        again = cls._trusted(*record._values())
        assert type(again) is cls and again == record
        for name in cls.__slots__:
            assert getattr(again, name) == getattr(record, name), (cls, name)
