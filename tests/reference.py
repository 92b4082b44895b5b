"""Helpers that only the tests call, shared by several test modules.

The library does not need them: each is a second way to build or check
something the library builds, kept here as reference code.  Their integer
arguments follow `_record.integer`, and `tests/test_boundaries.py` holds
them to it as it holds the library.  `fresh_tables` and `fresh_pieces`
give a test empty process-wide tables, so it sees them fill as if it ran
alone in a new process.
"""

import contextlib
from fractions import Fraction

from simplexring import chains, render
from simplexring._record import flag, integer
from simplexring.chains import PlacedPiece, PlacementPlan
from simplexring.ring import GeomElement, OrthElement, _counts, _powers
from simplexring.witnesses import _is_prime


@contextlib.contextmanager
def fresh_tables():
    """Empty shared style tables with the whole budget; the process's own come back after."""
    saved = render._STYLES, render._room
    render._STYLES, render._room = {}, render._BUDGET
    try:
        yield
    finally:
        render._STYLES, render._room = saved


@contextlib.contextmanager
def fresh_pieces():
    """Empty shared piece and cell tables with the whole budget; the process's own come back after."""
    saved = chains._PIECES, chains._CELLS, chains._room
    chains._PIECES, chains._CELLS, chains._room = {}, {}, chains._BUDGET
    try:
        yield
    finally:
        chains._PIECES, chains._CELLS, chains._room = saved


def open_segment_plan_open_units(n: int) -> PlacementPlan:
    """Same chain as open_segment_plan_units, built from negated open units."""
    n = integer(n, "n", 1)
    pieces = [PlacedPiece("open_segment", i, sign=-1) for i in range(n)]
    pieces += [PlacedPiece("point", i, sign=-1) for i in range(1, n)]
    return PlacementPlan(1, tuple(pieces))


def embed20(n) -> OrthElement:
    """Side-n triangle carrying its boundary: (n^2, n, 1) over A_2, A_1, A_0."""
    n = integer(n, "n")
    return OrthElement(2, True, (n * n, n, 1))


def element_from_json(data: dict):
    """Inverse of ring.element_to_json."""
    basis, coeffs = data["basis"], data["coeffs"]
    if not isinstance(coeffs, (list, tuple)):  # a string would be read digit by digit
        raise TypeError(f"coeffs must be a list, got {coeffs!r}")
    for c in coeffs:  # a "p/q" string or an int, never a float or a bool
        if type(c) is not str and type(c) is not int:
            raise TypeError(f"a JSON coefficient must be a string or an int, got {c!r}")
    coeffs = list(map(Fraction, coeffs))
    if basis == OrthElement.basis:
        return OrthElement(data["dim"], flag(data.get("a0", False), "a0"), coeffs)
    if basis == f"geom{data['dim']}":
        return GeomElement(data["dim"], coeffs)
    raise ValueError(f"unknown basis {basis!r}")


def tarry_escott_check(left, right) -> bool:
    """Do the two integer lists agree in their first and second power sums?"""
    left = [integer(v, f"left[{i}]") for i, v in enumerate(left)]
    right = [integer(v, f"right[{i}]") for i, v in enumerate(right)]
    return (sum(left) == sum(right)
            and sum(v * v for v in left) == sum(v * v for v in right))


def is_one_sided_composite(n: int) -> bool:
    """True when n = 2p with p prime (witnesses with a one-sided layout)."""
    n = integer(n, "n", 1)
    return n % 2 == 0 and _is_prime(n // 2)


def evaluate_per_term(comb):
    """forms.evaluate one element per term: each literal's slice counts, or
    powers if extended, as an element of its own, added to the family's zero."""
    dim = comb.dim
    total = OrthElement.zero(dim, True) if comb.extended else GeomElement(dim, (0,) * dim)
    for coeff, lit in comb.terms:
        n = lit.scale
        value = _powers(dim, True, n) if lit.extended else GeomElement(dim, _counts(dim, n))
        total = total + coeff * (-value if lit.sign < 0 else value)
    return total
