"""Immutable records: the one base behind the library's value classes.

A record class lists its fields, in order, in `__slots__`, and writes its
own `__init__`: that checks and converts the arguments, then stores them
with one `self._set(...)` call, in `__slots__` order.  Each class keeps
one setter per field, its slot's `__set__`, read through `getattr` as
`self.__slots__` is (a subclass without its own `__slots__` writes its
base's).  `_set` and `_trusted` call them in turn, and are the only places
that write a field past the refusal below.  From `__slots__` alone, Record
gives every such class what a frozen dataclass would:

* assigning or deleting any attribute raises AttributeError;
* `==` compares the field tuples of two records of the same class, and
  returns NotImplemented for anything else;
* `hash` is the hash of the field tuple;
* `repr` reads `Name(field=value, ...)`;
* `__reduce__` rebuilds a record through its `__init__`, so copy, deepcopy
  and pickle work and re-run the checks.

A class whose equality is not field equality (`Chain`, `Triple`) keeps its
own `__eq__`, `__hash__` and `repr`, and takes the rest from here.

One slot is not a field: `chains.PlacementPlan` inherits `_totals`, where
`chains.walk` keeps a plan's cell totals, from a base class.  Only a class's
own `__slots__` are read here, so `==`, `hash`, `repr`, copy and pickle never see it.

`integer` is the library's one rule for an integer argument (a scale, a
side, a dimension, a coefficient, a witness entry): every boundary that
takes one calls it.  `flag` is the one rule for an on/off argument
(`has_a0`, `extended`, `negated`, `annotate`).  `_quoted` writes any value,
even an int past the digit limit, into an error message.  `Record._trusted`
builds a record from fields its caller has already checked, skipping
`__init__`: the plan builders of `chains` and the formal-sum builders of
`forms` make their pieces, plans, literals and combinations through it.

This module imports only `sys`, so a record costs no import at start-up.
"""

import sys


def _past_digit_limit(kind: str) -> ValueError:
    """The error for a cell or piece with a coordinate too long to write in decimal."""
    return ValueError(f"{kind}: a coordinate has more than {sys.get_int_max_str_digits()} digits")


def _quoted(value, kind=None) -> str:
    """repr(value) for an error message; a value holding an int too long to
    write shows as `<_past_digit_limit(kind)>`, or without a kind by its type."""
    try:
        return repr(value)
    except ValueError:
        if kind is None:
            return f"<{type(value).__name__} past the {sys.get_int_max_str_digits()}-digit limit>"
        return f"<{_past_digit_limit(kind)}>"


def integer(value, name: str, least=None) -> int:
    """`value` as an int, else TypeError; below `least`, ValueError.

    An int passes unchanged.  A rational with denominator one, such as
    `Fraction(6, 2)`, becomes its numerator; it is found by its `numerator`
    and `denominator`, so no `fractions` import is needed.  A bool, a
    float, `Fraction(1, 2)` or a str raises TypeError.  Both errors name
    the argument.
    """
    if type(value) is not int:
        top = getattr(value, "numerator", None)
        if type(top) is not int or type(value) is bool or getattr(value, "denominator", 0) != 1:
            raise TypeError(f"{name} must be an integer, got {_quoted(value)}")
        value = top
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {_quoted(value)}")
    return value


def flag(value, name: str) -> bool:
    """`value` if it is True or False, else TypeError naming the argument.

    1, 0, "yes" and None are refused: a flag is stored and written to JSON
    as given, so only a bool may pass.
    """
    if value is True or value is False:
        return value
    raise TypeError(f"{name} must be a bool, got {_quoted(value)}")


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    @classmethod
    def _trusted(cls, *values):
        out = object.__new__(cls)
        for write, value in zip(cls._setters, values):  # _set's loop, one call fewer a record
            write(out, value)
        return out

    def _set(self, *values):
        for write, value in zip(self._setters, values):
            write(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
