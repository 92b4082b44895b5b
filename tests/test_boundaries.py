"""Every integer argument of the library follows one rule, `_record.integer`.

An int passes, an integral rational such as Fraction(6, 2) counts as its
numerator, and anything else (a float, a bool, Fraction(1, 2), a str)
raises TypeError naming the argument.  Where an argument has a least value,
a smaller one raises ValueError naming it.  The table below lists each
integer boundary once, as (make, name, least, good): `make(v)` passes v as
that argument, and `good` is a value it accepts.

Every on/off argument follows `_record.flag`: True and False pass, and
anything else (1, 0, "yes", None) raises TypeError naming the argument.

The helpers of `tests/reference.py` follow the same rules.  Its
`element_from_json` reads outside data: its coefficients come in a list,
each a string or an int that is not a bool.

A `Chain` cell is a tuple of its kind and coordinates, each coordinate
following the integer rule; any other cell raises an error naming it.  A
tiling window's cells follow the same rule, and must be faces.

An orientation is "up" or "down" and a piece's sign +1 or -1, one rule
each wherever they are taken; anything else raises ValueError naming it.
"""

import sys
from fractions import Fraction

import pytest

from simplexring._record import flag, integer
from simplexring.chains import (
    Chain,
    PlacedPiece,
    PlacementPlan,
    TilePiece,
    closed_triangle_chain,
    closed_triangle_plan,
    difference_plan,
    hexagon_plan,
    open_segment_plan_units,
    parallelogram_plan,
    partition_plan,
    realize,
    segment_sum_plan,
    tetrahedron_slabs,
    tiling_search,
    triangle_chain,
    triangle_face_cells,
    triangle_window,
)
from simplexring.eulerian import (
    binomial,
    embed_nd,
    eulerian,
    eulerian_row,
    falling_factorial,
    orthogonal_basis_matrix,
    slice_decomposition,
    worpitzky,
)
from simplexring.expr import Lit, evaluate_expression, parse
from simplexring.forms import (
    FormalCombination,
    arithmetic_form,
    closed_sum,
    closed_sum_shifted,
    combination,
    pairwise_sum,
    segment_form,
    star_product,
    three_term_form,
)
from simplexring.ring import (
    GeomElement,
    GeomElement2,
    OrthElement,
    SimplexLiteral,
    embed2,
    embed3,
    series_partial_sum,
    zero,
)
from simplexring.render import RenderOptions, chain_svg
from simplexring.triples import Triple, t_element
from simplexring.witnesses import (
    FactorPair,
    Witness,
    composite_witness,
    factors_from_witness,
    witness_from_factors,
)

from reference import (
    element_from_json,
    embed20,
    is_one_sided_composite,
    open_segment_plan_open_units,
    tarry_escott_check,
)

UP_FACE = ("face", 0, 0, "up")

# id -> (make, name, least, good)
BOUNDARIES = {
    # ring
    "embed2": (lambda v: embed2(v), "n", None, 3),
    "embed3": (lambda v: embed3(v), "n", None, 3),
    "embed20": (lambda v: embed20(v), "n", None, 3),
    "SimplexLiteral.dim": (lambda v: SimplexLiteral(v, 2), "dim", 1, 3),
    "SimplexLiteral.scale": (lambda v: SimplexLiteral(2, v), "scale", None, 3),
    "SimplexLiteral.sign": (lambda v: SimplexLiteral(2, 3, v), "sign", None, 1),
    "OrthElement.dim": (lambda v: OrthElement(v, False, (1, 2, 3)), "dim", 1, 3),
    "OrthElement.zero": (lambda v: OrthElement.zero(v), "dim", 1, 3),
    "GeomElement.dim": (lambda v: GeomElement(v, (1, 2, 3)), "dim", 1, 3),
    "series_partial_sum": (lambda v: series_partial_sum(v), "terms", 1, 3),
    "zero.dim": (lambda v: zero(v, False), "dim", 1, 3),
    # forms
    "FormalCombination.dim": (lambda v: FormalCombination(v, False, ()), "dim", 1, 3),
    "FormalCombination.coefficient": (
        lambda v: FormalCombination(2, False, ((v, SimplexLiteral(2, 1)),)),
        "coefficient", None, 3),
    "closed_sum.values": (lambda v: closed_sum((v, 1, 2), 2), "value", None, 3),
    "closed_sum.dim": (lambda v: closed_sum((1, 2, 3, 4), v), "dim", 1, 3),
    "closed_sum_shifted.n": (lambda v: closed_sum_shifted(v, 1, 2, 0), "n", None, 3),
    "closed_sum_shifted.k": (lambda v: closed_sum_shifted(1, v, 2, 0), "k", None, 3),
    "closed_sum_shifted.l": (lambda v: closed_sum_shifted(1, 2, v, 0), "l", None, 3),
    "closed_sum_shifted.t": (lambda v: closed_sum_shifted(1, 2, 0, v), "t", None, 3),
    "pairwise_sum": (lambda v: pairwise_sum((v, 1, 2)), "value", None, 3),
    "star_product.n": (lambda v: star_product(v, 2), "n", None, 3),
    "star_product.m": (lambda v: star_product(4, v), "m", None, 3),
    "arithmetic_form": (lambda v: arithmetic_form(v, 3), "n", None, 3),
    "arithmetic_form.dim": (lambda v: arithmetic_form(5, v), "dim", 1, 3),
    "three_term_form.n": (lambda v: three_term_form(v, 1), "n", None, 3),
    "three_term_form.k": (lambda v: three_term_form(5, v), "k", None, 3),
    "segment_form.n": (lambda v: segment_form(v, 1), "n", None, 3),
    "segment_form.k": (lambda v: segment_form(5, v), "k", None, 3),
    # triples
    "Triple.n": (lambda v: Triple(v, 1, 0), "n", None, 3),
    "Triple.k": (lambda v: Triple(5, v, 0), "k", None, 3),
    "Triple.l": (lambda v: Triple(5, 1, v), "l", None, 3),
    # chains
    "Chain.dim": (lambda v: Chain(v, {}), "dim", None, 2),
    "PlacementPlan.dim": (lambda v: PlacementPlan(v), "dim", None, 2),
    "Chain.multiplicity": (
        lambda v: Chain(2, {UP_FACE: v}), f"multiplicity of {UP_FACE!r}", None, 3),
    "Chain.factor": (lambda v: Chain(2, {UP_FACE: 1}) * v, "factor", None, 3),
    "PlacedPiece.size": (lambda v: PlacedPiece("triangle", (0, 0), size=v), "size", 1, 3),
    "PlacedPiece.sign": (lambda v: PlacedPiece("triangle", (0, 0), sign=v), "sign", None, 1),
    "PlacedPiece.multiplicity": (
        lambda v: PlacedPiece("vertex", (0, 0), multiplicity=v), "multiplicity", 1, 3),
    "PlacedPiece.position": (lambda v: PlacedPiece("segment", v), "position", None, 3),
    "PlacedPiece.position[0]": (lambda v: PlacedPiece("vertex", (v, 0)), "position[0]", None, 3),
    "PlacedPiece.position[1]": (
        lambda v: PlacedPiece("triangle", (0, v), size=2), "position[1]", None, 3),
    "TilePiece.size": (lambda v: TilePiece(v), "size", 1, 3),
    "TilePiece.sign": (lambda v: TilePiece(2, "up", v), "sign", None, 1),
    "segment_sum_plan": (lambda v: segment_sum_plan(v), "n", 1, 3),
    "open_segment_plan_units": (lambda v: open_segment_plan_units(v), "n", 1, 3),
    "open_segment_plan_open_units": (lambda v: open_segment_plan_open_units(v), "n", 1, 3),
    "closed_triangle_plan": (lambda v: closed_triangle_plan(v), "n", 1, 3),
    "difference_plan.n": (lambda v: difference_plan(v, 1), "n", None, 3),
    "difference_plan.k": (lambda v: difference_plan(5, v), "k", None, 3),
    "partition_plan.n": (lambda v: partition_plan(v, 1, 2), "n", 1, 3),
    "partition_plan.k": (lambda v: partition_plan(1, v, 2), "k", 1, 3),
    "partition_plan.l": (lambda v: partition_plan(1, 2, v), "l", 1, 3),
    "parallelogram_plan.n": (lambda v: parallelogram_plan(v, 1), "n", 1, 3),
    "parallelogram_plan.k": (lambda v: parallelogram_plan(1, v), "k", 1, 3),
    "hexagon_plan.n": (lambda v: hexagon_plan(v, 1, 1, 1), "n", 1, 3),
    "hexagon_plan.k": (lambda v: hexagon_plan(1, v, 1, 1), "k", 1, 3),
    "hexagon_plan.l": (lambda v: hexagon_plan(1, 1, v, 1), "l", 1, 3),
    "hexagon_plan.t": (lambda v: hexagon_plan(1, 1, 1, v), "t", 1, 3),
    "tetrahedron_slabs": (lambda v: tetrahedron_slabs(v), "n", 1, 3),
    "closed_triangle_chain.n": (lambda v: closed_triangle_chain(v), "n", None, 3),
    "closed_triangle_chain.position": (
        lambda v: closed_triangle_chain(2, (v, 0)), "position[0]", None, 3),
    "triangle_chain.n": (lambda v: triangle_chain(v), "n", None, 3),
    "triangle_chain.position": (
        lambda v: triangle_chain(2, "down", (0, v)), "position[1]", None, 3),
    "triangle_window.n": (lambda v: triangle_window(v), "n", None, 3),
    "triangle_window.position": (lambda v: triangle_window(2, (v, 1)), "position[0]", None, 3),
    "tiling_search.cap": (
        lambda v: tiling_search(triangle_chain(1), [TilePiece(1)], triangle_window(1), cap=v),
        "cap", 0, 3),
    # eulerian
    "eulerian_row": (lambda v: eulerian_row(v), "m", 1, 3),
    "eulerian.m": (lambda v: eulerian(v, 1), "m", 1, 3),
    "eulerian.k": (lambda v: eulerian(4, v), "k", None, 3),
    "worpitzky.n": (lambda v: worpitzky(v, 3), "n", None, 3),
    "worpitzky.m": (lambda v: worpitzky(2, v), "m", 1, 3),
    "falling_factorial": (lambda v: falling_factorial(5, v), "m", 0, 3),
    "binomial.a": (lambda v: binomial(v, 2), "a", None, 3),
    "binomial.m": (lambda v: binomial(5, v), "m", 0, 3),
    "slice_decomposition.n": (lambda v: slice_decomposition(v, 3), "n", None, 3),
    "slice_decomposition.m": (lambda v: slice_decomposition(2, v), "m", 1, 3),
    "orthogonal_basis_matrix": (lambda v: orthogonal_basis_matrix(v), "m", 1, 3),
    "embed_nd.n": (lambda v: embed_nd(v, 3), "n", None, 3),
    "embed_nd.m": (lambda v: embed_nd(2, v), "m", 1, 3),
    # witnesses
    "Witness.z": (lambda v: Witness(v, 11, 34, 4, 6), "z", None, 35),
    "Witness.a": (lambda v: Witness(35, v, 34, 4, 6), "a", None, 11),
    "Witness.b": (lambda v: Witness(35, 11, v, 4, 6), "b", None, 34),
    "Witness.c": (lambda v: Witness(35, 11, 34, v, 6), "c", None, 4),
    "Witness.d": (lambda v: Witness(35, 11, 34, 4, v), "d", None, 6),
    "FactorPair.p": (lambda v: FactorPair(v, 1, 2, 3, 4, 5, 7), "p", None, 6),
    "FactorPair.q": (lambda v: FactorPair(6, v, 2, 3, 4, 5, 7), "q", None, 1),
    "FactorPair.t": (lambda v: FactorPair(6, 1, v, 3, 4, 5, 7), "t", None, 2),
    "FactorPair.t1": (lambda v: FactorPair(6, 1, 2, v, 4, 5, 7), "t1", None, 3),
    "FactorPair.t2": (lambda v: FactorPair(6, 1, 2, 3, v, 5, 7), "t2", None, 4),
    "FactorPair.s1": (lambda v: FactorPair(6, 1, 2, 3, 4, v, 7), "s1", None, 5),
    "FactorPair.s2": (lambda v: FactorPair(6, 1, 2, 3, 4, 5, v), "s2", None, 7),
    "composite_witness": (lambda v: composite_witness(v), "z", 2, 35),
    "witness_from_factors.x": (lambda v: witness_from_factors(v, 1, 1, 1), "x", 1, 3),
    "witness_from_factors.y": (lambda v: witness_from_factors(1, v, 1, 1), "y", 1, 3),
    "witness_from_factors.m": (lambda v: witness_from_factors(1, 1, v, 1), "m", 1, 3),
    "witness_from_factors.n": (lambda v: witness_from_factors(1, 1, 1, v), "n", 1, 3),
    "is_one_sided_composite": (lambda v: is_one_sided_composite(v), "n", 1, 3),
    "tarry_escott_check.left": (lambda v: tarry_escott_check((1, v), (v, 1)), "left[1]", None, 3),
    "tarry_escott_check.right": (lambda v: tarry_escott_check((1, 3), (1, v)), "right[1]", None, 3),
    # expr
    "parse.dim": (lambda v: parse("<1>", v), "dim", None, 3),
}


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_integer_boundary(boundary):
    make, name, least, good = BOUNDARIES[boundary]
    for bad in (2.5, True, Fraction(1, 2), "3"):
        with pytest.raises(TypeError) as info:
            make(bad)
        assert str(info.value) == f"{name} must be an integer, got {bad!r}"
    assert make(Fraction(2 * good, 2)) == make(good)
    if least is not None:
        with pytest.raises(ValueError) as info:
            make(least - 1)
        assert str(info.value) == f"{name} must be >= {least}, got {least - 1}"


# id -> (make, name): make(v) passes v as that flag, and make(True) is valid.
FLAGS = {
    "OrthElement.has_a0": (lambda v: OrthElement(2, v, (4, 2, 1)), "has_a0"),
    "element_from_json.a0": (lambda v: element_from_json(
        {"basis": "orth", "dim": 2, "a0": v, "coeffs": ["4", "2", "1"]}), "a0"),
    "zero.extended": (lambda v: zero(2, v), "extended"),
    "SimplexLiteral.extended": (lambda v: SimplexLiteral(2, 3, 1, v), "extended"),
    "FormalCombination.extended": (lambda v: FormalCombination(2, v, ()), "extended"),
    "closed_sum.extended": (lambda v: closed_sum((1, 2, 3), 2, extended=v), "extended"),
    "Lit.negated": (lambda v: Lit(3, negated=v), "negated"),
    "evaluate_expression.extended": (
        lambda v: evaluate_expression(parse("<1>_0"), 2, v), "extended"),
    "RenderOptions.annotate": (lambda v: RenderOptions(annotate=v), "annotate"),
}


@pytest.mark.parametrize("boundary", FLAGS)
def test_flag_boundary(boundary):
    make, name = FLAGS[boundary]
    for bad in (1, 0, "yes", None):
        with pytest.raises(TypeError) as info:
            make(bad)
        assert str(info.value) == f"{name} must be a bool, got {bad!r}"
    make(True)


def test_the_flag_rule():
    assert flag(True, "f") is True and flag(False, "f") is False
    for bad in (1, 0, "yes", None, 1.0, (True,)):
        with pytest.raises(TypeError, match="^f must be a bool, got "):
            flag(bad, "f")


# A value Python refuses to write in decimal (more than
# sys.get_int_max_str_digits() digits) is named by its type in a message,
# and the error keeps its own type.
LONG = 10 ** 5000


def _past_limit(kind):
    return f"<{kind} past the {sys.get_int_max_str_digits()}-digit limit>"


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_integer_boundary_past_the_digit_limit(boundary):
    make, name, least, good = BOUNDARIES[boundary]
    for bad in (Fraction(LONG + 1, 2), Fraction(-LONG - 1, 2)):
        with pytest.raises(TypeError) as info:
            make(bad)
        assert str(info.value) == f"{name} must be an integer, got {_past_limit('Fraction')}"
    if least is not None:
        with pytest.raises(ValueError) as info:
            make(-LONG)
        assert str(info.value) == f"{name} must be >= {least}, got {_past_limit('int')}"


@pytest.mark.parametrize("boundary", FLAGS)
def test_flag_boundary_past_the_digit_limit(boundary):
    make, name = FLAGS[boundary]
    for bad in (LONG, -LONG):
        with pytest.raises(TypeError) as info:
            make(bad)
        assert str(info.value) == f"{name} must be a bool, got {_past_limit('int')}"


# id -> (make, exception, message) for each message that prints the value
MESSAGES_PAST_THE_LIMIT = {
    "integer.least": (lambda: PlacedPiece("triangle", (0, 0), size=-LONG), ValueError,
                      f"size must be >= 1, got {_past_limit('int')}"),
    "sign": (lambda: PlacedPiece("triangle", (0, 0), sign=LONG), ValueError,
             f"sign must be +1 or -1, got {_past_limit('int')}"),
    "orientation": (lambda: Chain(2, {("face", 0, 0, LONG): 1}), ValueError,
                    f"cell <face: a coordinate has more than {sys.get_int_max_str_digits()} digits>: "
                    f"orientation must be 'up' or 'down', got {_past_limit('int')}"),
    "pair": (lambda: PlacedPiece("triangle", [LONG, 0, 1]), TypeError,
             f"position must be a pair of integers, got {_past_limit('list')}"),
    "family": (lambda: FormalCombination(2, False, ((1, SimplexLiteral(3, LONG)),)), ValueError,
               f"literal {_past_limit('SimplexLiteral')} does not belong to the "
               "(dim=2, extended=False) family"),
    "term": (lambda: FormalCombination(2, False, ((1, (LONG,)),)), TypeError,
             f"term {_past_limit('tuple')} is not a literal"),
    "piece kind": (lambda: PlacedPiece(LONG, (0, 0)), ValueError,
                   f"unknown piece kind {_past_limit('int')}"),
    "tile": (lambda: tiling_search(Chain(2, {UP_FACE: 1}), [(LONG,)], {UP_FACE}), TypeError,
             f"piece {_past_limit('tuple')} is not a TilePiece"),
    "placed piece": (lambda: PlacementPlan(2, [(LONG, 0)]), TypeError,
                     f"piece {_past_limit('tuple')} is not a PlacedPiece"),
    "window cell": (lambda: tiling_search(Chain(2), [TilePiece(1)], {UP_FACE, ("vertex", LONG, 0)}),
                    ValueError, f"window cell <vertex: a coordinate has more than "
                                f"{sys.get_int_max_str_digits()} digits> is not a face cell"),
    "coefficient": (lambda: GeomElement(2, (1, [LONG])), TypeError,
                    f"coefficient must be an int or a Fraction, got {_past_limit('list')}"),
    "sqrt(3) field": (lambda: t_element((LONG,)), TypeError,
                      f"cannot coerce {_past_limit('tuple')} into the sqrt(3) field"),
}


@pytest.mark.parametrize("case", MESSAGES_PAST_THE_LIMIT)
def test_messages_that_print_a_value_past_the_digit_limit(case):
    make, exc, message = MESSAGES_PAST_THE_LIMIT[case]
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc and str(info.value) == message


# Each of these returned an answer before every boundary called the rule.
USED_TO_PASS = {
    "tetrahedron_slabs(2.5)": lambda: tetrahedron_slabs(2.5),
    "PlacedPiece('segment', 2.5)": lambda: PlacedPiece("segment", 2.5),
    "PlacedPiece('vertex', (0.5, 0))": lambda: PlacedPiece("vertex", (0.5, 0)),
    "PlacedPiece('point', (0, 0))": lambda: PlacedPiece("point", (0, 0)),
    "factors_from_witness(Witness(35.0, ...))":
        lambda: factors_from_witness(Witness(35.0, 11, 34, 4, 6)),
    "combination(2.0, ...)": lambda: combination(2.0, False, [(1, 2)]),
    "evaluate_expression(..., 2.0)": lambda: evaluate_expression(parse("<1>"), 2.0),
    "Chain(True, {})": lambda: Chain(True, {}),
    "PlacementPlan(2.0)": lambda: PlacementPlan(2.0),
    "PlacementPlan(True, [PlacedPiece('segment', 0)])":
        lambda: PlacementPlan(True, [PlacedPiece("segment", 0)]),
    "Chain(2, {('face', 0.5, 0, 'up'): 1})": lambda: Chain(2, {("face", 0.5, 0, "up"): 1}),
    "triangle_chain(1) * True": lambda: triangle_chain(1) * True,
    "eulerian_row(True)": lambda: eulerian_row(True),
    "series_partial_sum(True)": lambda: series_partial_sum(True),
    "witness_from_factors(True, 1, 1, 1)": lambda: witness_from_factors(True, 1, 1, 1),
    "binomial(4.0, 2)": lambda: binomial(4.0, 2),
    "tarry_escott_check([1.5], [1.5])": lambda: tarry_escott_check([1.5], [1.5]),
    "arithmetic_form(4, 2.0)": lambda: arithmetic_form(4, 2.0),
    "element_from_json(coeffs=[0.1])":
        lambda: element_from_json({"basis": "geom1", "dim": 1, "coeffs": [0.1]}),
    "element_from_json(coeffs=[True, 1])":
        lambda: element_from_json({"basis": "geom2", "dim": 2, "coeffs": [True, 1]}),
}


@pytest.mark.parametrize("case", USED_TO_PASS)
def test_non_integers_that_used_to_pass_raise(case):
    with pytest.raises(TypeError):
        USED_TO_PASS[case]()


# (dim, cell, error): Chain(dim, {cell: 1}) raises error, naming the cell, and
# so does chain_svg(Chain(dim), covered=[cell]).
BAD_CELLS = [
    (2, ("face", 0.5, 0, "up"), TypeError),
    (2, ("face", 0, True, "down"), TypeError),
    (2, ("face", "0", 0, "up"), TypeError),
    (2, ("face", 0, 0, "left"), ValueError),
    (2, ("face", 0, 0, "sideways"), ValueError),
    (2, ("face", True, 1, "up"), TypeError),
    (2, ("face", 0, 0), ValueError),
    (2, ("face", 0, 0, "up", 1), ValueError),
    (2, ("edge", (0, 0), (0, 1.5)), TypeError),
    (2, ("edge", (Fraction(1, 2), 0), (0, 1)), TypeError),
    (2, ("edge", (0, 0), (0, 1, 2)), TypeError),
    (2, ("edge", 0, 1), TypeError),
    (2, ("edge", (0, 0)), ValueError),
    # not a lattice edge: reversed, far, and across the wrong diagonal
    (2, ("edge", (1, 0), (0, 0)), ValueError),
    (2, ("edge", (0, 0), (5, 7)), ValueError),
    (2, ("edge", (0, 0), (1, 1)), ValueError),
    (2, ("vertex", 0, 2.0), TypeError),
    (2, ("vertex", None, 0), TypeError),
    (2, ("vertex", 0), ValueError),
    (2, ("point", 0), ValueError),
    (2, ("bogus",), ValueError),
    (1, ("point", 1.0), TypeError),
    (1, ("point", 0, 1), ValueError),
    (1, ("interval", False), TypeError),
    (1, ("interval",), ValueError),
    (1, ("face", 0, 0, "up"), ValueError),
    (2, "face", TypeError),
    (2, (), TypeError),
    (2, (0, 0), TypeError),
    # unhashable, so only a list of pairs can hold them
    (2, ("edge", [0, 0], (0, 1)), TypeError),
    (2, ["face", 0, 0, "up"], TypeError),
]


def _hashable(cell):
    try:
        hash(cell)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("dim, cell, error", BAD_CELLS,
                         ids=[f"dim{dim} {cell!r}" for dim, cell, _ in BAD_CELLS])
def test_bad_cells_raise_naming_the_cell(dim, cell, error):
    # in a list of pairs, in a dict where the cell can be a key, as a
    # covered cell of a render and as a 2-d cell in a tiling window: each
    # checks the cell before hashing it
    makes = [lambda: Chain(dim, [(cell, 1)]), lambda: chain_svg(Chain(dim), covered=[cell])]
    if _hashable(cell):
        makes.append(lambda: Chain(dim, {cell: 1}))
    if dim == 2:
        makes.append(lambda: tiling_search(Chain(2), [TilePiece(1)], [UP_FACE, cell]))
    for make in makes:
        with pytest.raises(error) as info:
            make()
        assert repr(cell) in str(info.value)


def _past_the_limit(cell, big, in_pairs=False):
    """The cell with each of its int coordinates, or each int inside its pairs, set to big."""
    if type(cell) not in (tuple, list):
        return cell

    def swap(x):
        return big if type(x) is int else x
    if in_pairs:
        return type(cell)(type(x)(map(swap, x)) if type(x) in (tuple, list) else x for x in cell)
    return type(cell)(map(swap, cell))


# Each row of BAD_CELLS with its coordinates at 10**5000 and -10**5000, and
# each edge row with its pairs holding 10**5000.
BAD_CELLS_PAST_THE_LIMIT = [
    pytest.param(dim, _past_the_limit(cell, big), error, id=f"dim{dim} {cell!r} at {sign}")
    for dim, cell, error in BAD_CELLS for sign, big in (("+", LONG), ("-", -LONG))
] + [
    pytest.param(dim, _past_the_limit(cell, LONG, in_pairs=True), error, id=f"dim{dim} {cell!r} pairs")
    for dim, cell, error in BAD_CELLS if cell[:1] in (("edge",), ["edge"])
]


@pytest.mark.parametrize("dim, cell, error", BAD_CELLS_PAST_THE_LIMIT)
def test_bad_cells_past_the_digit_limit_raise_their_own_error(dim, cell, error):
    makes = [lambda: Chain(dim, [(cell, 1)]), lambda: chain_svg(Chain(dim), covered=[cell])]
    if _hashable(cell):
        makes.append(lambda: Chain(dim, {cell: 1}))
    if dim == 2:
        makes.append(lambda: tiling_search(Chain(2), [TilePiece(1)], [UP_FACE, cell]))
    for make in makes:
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error
        assert "Exceeds the limit" not in str(info.value)


@pytest.mark.parametrize("dim, piece", [(2, (0, 0)), (2, None), (1, "segment")], ids=repr)
def test_plan_pieces_are_placed_pieces(dim, piece):
    with pytest.raises(TypeError) as info:
        PlacementPlan(dim, [piece])
    assert str(info.value) == f"piece {piece!r} is not a PlacedPiece"


@pytest.mark.parametrize("cell", [("edge", (0, 0), (0, 1)), ("vertex", 0, 0)], ids=repr)
def test_a_window_holds_only_faces(cell):
    with pytest.raises(ValueError) as info:
        tiling_search(Chain(2), [TilePiece(1)], {UP_FACE, cell})
    assert str(info.value) == f"window cell {cell!r} is not a face cell"


@pytest.mark.parametrize("piece", [(1, "up", 1), PlacedPiece("triangle", (0, 0)), None], ids=repr)
def test_tiling_pieces_are_tile_pieces(piece):
    with pytest.raises(TypeError) as info:
        tiling_search(Chain(2, {UP_FACE: 1}), [TilePiece(1), piece], {UP_FACE})
    assert str(info.value) == f"piece {piece!r} is not a TilePiece"


def test_window_coordinates_follow_the_integer_rule():
    # a window reads Fraction(0) as 0, as a Chain does
    target = Chain(2, {UP_FACE: 1})
    window = {("face", Fraction(0), Fraction(4, 4) - 1, "up")}
    assert realize(tiling_search(target, [TilePiece(1)], window)) == target


# id -> (make, name): make(v) passes v as that orientation, and make("down") is valid.
ORIENTATIONS = {
    "PlacedPiece": (lambda v: PlacedPiece("triangle", (0, 0), orientation=v), "orientation"),
    "TilePiece": (lambda v: TilePiece(1, v), "orientation"),
    "triangle_face_cells": (lambda v: triangle_face_cells(2, v, (0, 0)), "orientation"),
    "triangle_chain": (lambda v: triangle_chain(2, v), "orientation"),
    "Chain.cell": (lambda v: Chain(2, {("face", 0, 0, v): 1}), "cell ('face', 0, 0, {v!r}): orientation"),
}


@pytest.mark.parametrize("boundary", ORIENTATIONS)
def test_orientation_boundary(boundary):
    make, name = ORIENTATIONS[boundary]
    for bad in ("left", "UP", None, 1):
        with pytest.raises(ValueError) as info:
            make(bad)
        assert str(info.value) == f"{name.format(v=bad)} must be 'up' or 'down', got {bad!r}"
    make("down")


# id -> make: make(v) passes v as a piece's sign, and make(-1) is valid.
SIGNS = {
    "PlacedPiece": lambda v: PlacedPiece("vertex", (0, 0), sign=v),
    "TilePiece": lambda v: TilePiece(1, "up", v),
}


@pytest.mark.parametrize("boundary", SIGNS)
def test_sign_boundary(boundary):
    make = SIGNS[boundary]
    for bad in (0, 2, -2, Fraction(4, 2)):
        with pytest.raises(ValueError) as info:
            make(bad)
        assert str(info.value) == f"sign must be +1 or -1, got {int(bad)}"
    assert make(Fraction(-3, 3)).sign == -1


@pytest.mark.parametrize("boundary", ORIENTATIONS)
def test_orientation_boundary_past_the_digit_limit(boundary):
    make, _ = ORIENTATIONS[boundary]
    for bad, kind in ((LONG, "int"), (-LONG, "int"), ((LONG,), "tuple")):
        with pytest.raises(ValueError) as info:
            make(bad)
        assert str(info.value).endswith(f"orientation must be 'up' or 'down', got {_past_limit(kind)}")
        assert "Exceeds" not in str(info.value)


@pytest.mark.parametrize("boundary", SIGNS)
def test_sign_boundary_past_the_digit_limit(boundary):
    for bad in (LONG, -LONG):
        with pytest.raises(ValueError) as info:
            SIGNS[boundary](bad)
        assert str(info.value) == f"sign must be +1 or -1, got {_past_limit('int')}"


def test_cell_coordinates_follow_the_integer_rule():
    half = Fraction(4, 2)
    assert Chain(2, {("face", half, -1, "up"): 1}) == Chain(2, {("face", 2, -1, "up"): 1})
    assert Chain(2, {("edge", (half, 0), (2, 1)): 1}) == Chain(2, {("edge", (2, 0), (2, 1)): 1})
    assert Chain(1, {("interval", half): 1}).cells() == {("interval", 2): 1}


# A chain and a plan take their dim by one rule: an integer (above), 1 or 2.
@pytest.mark.parametrize("make", [Chain, PlacementPlan], ids=["Chain", "PlacementPlan"])
@pytest.mark.parametrize("dim", [0, 3])
def test_a_dim_is_1_or_2(make, dim):
    with pytest.raises(ValueError, match=r"^dim must be 1 or 2$"):
        make(dim)
    assert type(make(Fraction(2, 2)).dim) is int


@pytest.mark.parametrize("bad", [0.1, True, None, [1]], ids=repr)
def test_json_coefficients_are_strings_or_ints(bad):
    with pytest.raises(TypeError) as info:
        element_from_json({"basis": "geom2", "dim": 2, "coeffs": [bad, "1/2"]})
    assert str(info.value) == f"a JSON coefficient must be a string or an int, got {bad!r}"


def test_json_coefficients_are_a_list():
    read = element_from_json({"basis": "geom2", "dim": 2, "coeffs": [3, "1/2"]})
    assert read == GeomElement2(3, Fraction(1, 2))
    with pytest.raises(TypeError, match="^coeffs must be a list, got '12'$"):
        element_from_json({"basis": "geom2", "dim": 2, "coeffs": "12"})


def test_the_rule():
    class Small(int):
        pass

    assert integer(7, "n") == 7
    assert type(integer(Fraction(6, 2), "n")) is int and integer(Fraction(6, 2), "n") == 3
    assert type(integer(Small(4), "n")) is int
    assert integer(-5, "n") == -5 and integer(2, "n", least=2) == 2
    for bad in (2.0, False, Fraction(5, 3), None, "7", (1,), 1j):
        with pytest.raises(TypeError, match="^n must be an integer, got "):
            integer(bad, "n")
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        integer(Fraction(-2, 2), "n", least=0)


def test_right_positions_are_stored_unchanged():
    position = (2, -1)
    assert PlacedPiece("triangle", position).position is position
    assert PlacedPiece("vertex", [Fraction(4, 2), 1]).position == (2, 1)
    assert PlacedPiece("point", Fraction(6, 2)).position == 3
    for kind, bad in (("vertex", 1), ("vertex", (1, 2, 3)), ("triangle", "ab")):
        with pytest.raises(TypeError, match="^position must be a pair of integers"):
            PlacedPiece(kind, bad)
