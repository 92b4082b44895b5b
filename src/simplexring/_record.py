"""Immutable records: the one base behind the library's value classes.

A record class lists its fields, in order, in `__slots__`, and writes its
own `__init__`: that checks and converts the arguments, then stores them
with one `self._set(...)` call, in `__slots__` order.  `_set` is the only
place that writes a field past the refusal below.  From `__slots__` alone,
Record gives every such class what a frozen dataclass would:

* assigning or deleting any attribute raises AttributeError;
* `==` compares the field tuples of two records of the same class, and
  returns NotImplemented for anything else;
* `hash` is the hash of the field tuple;
* `repr` reads `Name(field=value, ...)`;
* `__reduce__` rebuilds a record through its `__init__`, so copy, deepcopy
  and pickle work and re-run the checks.

A class whose equality is not field equality (`Chain`, `Triple`) keeps its
own `__eq__`, `__hash__` and `repr`, and takes the rest from here.

This module imports nothing, so a record costs no import at start-up.
"""


class Record:
    __slots__ = ()

    def _set(self, *values):
        write = object.__setattr__  # one lookup per record, not per field
        for name, value in zip(self.__slots__, values):
            write(self, name, value)

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
