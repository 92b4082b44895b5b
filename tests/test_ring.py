"""Element types, embeddings and basis changes."""

import copy
import inspect
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from simplexring import ring
from simplexring.eulerian import orthogonal_basis_matrix, slice_decomposition
from simplexring.ring import (
    D_UNIT,
    E_UNIT,
    GeomElement,
    GeomElement2,
    GeomElement3,
    ONE2,
    ONE3,
    OrthElement,
    RepresentationError,
    SimplexLiteral,
    element_to_json,
    embed2,
    embed3,
    embed_literal,
    from_orth,
    literal_orth,
    series_partial_sum,
    to_orth,
)
from simplexring.triples import QSqrt3, t_element

from reference import element_from_json, embed20


def _tri(n):
    # triangular numbers, written out so the embedding has an independent check
    return n * (n + 1) // 2


def _tet(n):
    return n * (n + 1) * (n + 2) // 6


def test_embed2_matches_triangular_numbers():
    for n in range(-8, 9):
        e = embed2(n)
        assert e.x == _tri(n)
        assert e.y == _tri(n - 1)


def test_embed3_matches_tetrahedral_numbers():
    for n in range(-6, 8):
        e = embed3(n)
        assert (e.x, e.y, e.z) == (_tet(n), _tet(n - 1), _tet(n - 2))


def test_embed3_frozen_examples():
    assert embed3(6) == GeomElement3(56, 35, 20)
    assert embed3(7) == GeomElement3(84, 56, 35)
    assert embed3(-1) == GeomElement3(0, 0, -1)


def test_mul2_is_multiplicative_on_embeddings():
    for a in range(-7, 8):
        for b in range(-7, 8):
            assert embed2(a) * embed2(b) == embed2(a * b)


def test_mul3_is_multiplicative_on_embeddings():
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert embed3(a) * embed3(b) == embed3(a * b)


def test_mul2_commutes_and_distributes():
    p = GeomElement2(2, -1)
    q = GeomElement2(Fraction(1, 2), 3)
    r = GeomElement2(0, 5)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p - q) * r == p * r - q * r


def test_mul3_commutes_and_distributes():
    p = GeomElement3(1, 2, 3)
    q = GeomElement3(-2, 0, Fraction(5, 3))
    r = GeomElement3(4, -1, 1)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p * (q * r) == (p * q) * r


def test_units_multiply_by_table():
    # e * e = 1 and D * e = D, the defining relations of the unit pieces
    assert E_UNIT * E_UNIT == ONE3
    assert D_UNIT * E_UNIT == D_UNIT
    assert D_UNIT * D_UNIT == 4 * ONE3 + 2 * D_UNIT + 4 * E_UNIT


def test_scalar_multiplication_both_sides():
    assert 3 * embed2(2) == embed2(2) * 3 == GeomElement2(9, 3)
    assert Fraction(1, 2) * GeomElement2(4, 6) == GeomElement2(2, 3)
    assert -2 * embed3(2) == GeomElement3(-8, -2, 0)


def test_a_unit_scalar_makes_no_product():
    # every element class, with its coefficient type
    fracs = [Fraction(k, 3) - 2 for k in range(9)]
    cases = [(GeomElement(dim, fracs[:dim]), Fraction) for dim in range(1, 9)]
    cases += [(OrthElement(3, a0, fracs[:4 if a0 else 3]), Fraction) for a0 in (False, True)]
    cases.append((t_element(QSqrt3(1, -2), Fraction(1, 2), QSqrt3(0, 3), -4), QSqrt3))
    for x, kind in cases:
        negated = -x
        for one in (1, Fraction(1)):
            assert x * one is x and one * x is x
        assert x * -1 == -1 * x == x * Fraction(-1) == negated
        assert [c * -1 for c in x.coeffs] == list(negated.coeffs)
        assert all(type(c) is kind for c in (x * -1).coeffs + (x * 2).coeffs)
        if kind is QSqrt3:  # a QSqrt3 scalar keeps the product
            assert x * QSqrt3(1) == x and x * QSqrt3(1) is not x
        # a bool is no scalar, as before the rule
        for flag in (True, False):
            with pytest.raises(RepresentationError, match=r"^cannot combine .* with bool$"):
                x * flag
            with pytest.raises(RepresentationError, match=r"^cannot combine .* with bool$"):
                flag * x


def test_orth_round_trip_dim2():
    for n in range(-9, 10):
        assert from_orth(to_orth(embed2(n))) == embed2(n)
    g = GeomElement2(Fraction(3, 7), -2)
    assert from_orth(to_orth(g)) == g


def test_orth_round_trip_dim3():
    for n in range(-6, 8):
        assert from_orth(to_orth(embed3(n))) == embed3(n)
    g = GeomElement3(1, Fraction(-2, 5), 3)
    assert from_orth(to_orth(g)) == g


def test_to_orth_diagonalizes_multiplication():
    for a in range(-5, 6):
        for b in range(-5, 6):
            pa, pb = embed3(a), embed3(b)
            assert to_orth(pa * pb) == to_orth(pa) * to_orth(pb)


def test_orth_embedding_is_powers():
    assert to_orth(embed2(4)).coeffs == (16, 4)
    assert to_orth(embed3(4)).coeffs == (64, 16, 4)
    assert to_orth(embed3(-2)).coeffs == (-8, 4, -2)


def test_mirror_units_square_to_one():
    # the other two sign patterns over the 3-d idempotents
    f_unit = from_orth(OrthElement(3, False, (-1, 1, 1)))
    g_unit = from_orth(OrthElement(3, False, (1, 1, -1)))
    assert f_unit * f_unit == ONE3
    assert g_unit * g_unit == ONE3
    # their product is the reflected unit, the side -1 embedding
    assert f_unit * g_unit == embed3(-1) == -E_UNIT


def test_orth_element_componentwise():
    u = OrthElement(2, False, (Fraction(1), Fraction(2)))
    v = OrthElement(2, False, (Fraction(3), Fraction(5)))
    assert u * v == OrthElement(2, False, (Fraction(3), Fraction(10)))
    assert u + v == OrthElement(2, False, (Fraction(4), Fraction(7)))
    assert 2 * u == OrthElement(2, False, (Fraction(2), Fraction(4)))


def test_orth_family_mismatch_rejected():
    u = OrthElement(2, False, (1, 2))
    v = OrthElement(2, True, (1, 2, 1))
    w = OrthElement(3, False, (1, 2, 3))
    with pytest.raises(RepresentationError):
        u + v
    with pytest.raises(RepresentationError):
        u * w


def test_geom_orth_mix_rejected():
    with pytest.raises(RepresentationError):
        embed2(2) + to_orth(embed2(2))
    with pytest.raises(RepresentationError):
        embed2(2) + embed3(2)
    with pytest.raises(RepresentationError, match="^cannot convert OrthElement to the orthogonal basis$"):
        to_orth(to_orth(embed2(2)))
    with pytest.raises(RepresentationError, match="^expected an orthogonal element, got GeomElement$"):
        from_orth(embed2(2))
    with pytest.raises(RepresentationError, match="^elements with an A_0 component have no plain"):
        from_orth(embed20(2))
    # An element is not an int, not even one equal to its value.
    assert embed2(1).__eq__(1) is NotImplemented and embed2(1) != 1


def test_floats_rejected_everywhere():
    with pytest.raises(TypeError):
        GeomElement2(0.5, 1)
    with pytest.raises(TypeError):
        GeomElement3(1, 2, 3.0)
    with pytest.raises(TypeError):
        OrthElement(2, False, (1.5, 2))
    with pytest.raises(TypeError):
        embed2(2) * 0.5

    # A coefficient is an int that is not a bool, or a Fraction; these were
    # once converted to a Fraction without a word.
    for bad in (True, "1/2", " 3 ", Decimal("0.1")):
        for make in (lambda: GeomElement2(bad, 0), lambda: GeomElement(4, (1, 2, bad, 4)),
                     lambda: OrthElement(2, False, (1, bad)), lambda: QSqrt3(bad),
                     lambda: QSqrt3(1, bad)):
            with pytest.raises(TypeError) as info:
                make()
            assert str(info.value) == f"coefficient must be an int or a Fraction, got {bad!r}"


def test_embed_needs_integers():
    with pytest.raises(TypeError):
        embed2(Fraction(1, 2))
    with pytest.raises(TypeError):
        embed3(2.0)


def test_embed20_carries_boundary_coordinate():
    for n in range(-5, 6):
        assert embed20(n) == OrthElement(2, True, (n * n, n, 1))


def test_literal_dispatch():
    assert embed_literal(SimplexLiteral(2, 5)) == embed2(5)
    assert embed_literal(SimplexLiteral(3, 4)) == embed3(4)
    assert embed_literal(SimplexLiteral(2, 3, sign=-1)) == -embed2(3)
    assert embed_literal(SimplexLiteral(2, 3, extended=True)) == embed20(3)
    assert to_orth(embed_literal(SimplexLiteral(4, 2))) == OrthElement(4, False, (16, 8, 4, 2))
    assert embed_literal(SimplexLiteral(1, 7, extended=True)) == OrthElement(1, True, (7, 1))


def test_literal_orth_unsigned_option():
    lit = SimplexLiteral(2, 3, sign=-1)
    assert literal_orth(lit) == OrthElement(2, False, (-9, -3))


def test_json_round_trip():
    for e in [embed2(5), embed3(-2), embed20(4),
              OrthElement(4, False, (Fraction(1, 3), 2, -1, Fraction(7, 2)))]:
        blob = element_to_json(e)
        assert element_from_json(blob) == e
    blob = element_to_json(GeomElement2(Fraction(-2, 9), 4))
    assert blob["coeffs"] == ["-2/9", "4"]
    with pytest.raises(TypeError, match="^not a ring element: int$"):
        element_to_json(5)


def _series_oracle(terms):
    """The shrinking-triangle series added term by term.

    Term j is 3^(j-1) triangles scaled by -1/2^j, each (1/4^j) A_2 - (1/2^j) A_1.
    """
    a2 = a1 = Fraction(0)
    for j in range(1, terms + 1):
        weight = 3 ** (j - 1)
        a2 += Fraction(weight, 4 ** j)
        a1 -= Fraction(weight, 2 ** j)
    return OrthElement(2, False, (a2, a1))


def test_series_closed_form_matches_the_sum():
    for terms in [*range(1, 201), 7000]:
        element = series_partial_sum(terms)
        assert element_to_json(element) == element_to_json(_series_oracle(terms)), terms
    with pytest.raises(ValueError):
        series_partial_sum(0)


# --- the derived slice rings -------------------------------------------------
# The 2-d and 3-d product tables and basis changes were once written by hand.
# They stay here as oracle data for the tables `ring` derives from piece counts.
HAND_TABLES = {
    2: (
        (((0, 1),), ((1, 1),)),
        (((1, 1),), ((0, 1),)),
    ),
    3: (
        (((0, 1),), ((1, 1),), ((2, 1),)),
        (((1, 1),), ((0, 4), (1, 2), (2, 4)), ((1, 1),)),
        (((2, 1),), ((1, 1),), ((0, 1),)),
    ),
}


def _hand_to_orth(x, y, z=None):
    if z is None:
        return (x + y, x - y)
    return (x + 4 * y + z, x - z, x - 2 * y + z)


def _hand_from_orth(*coords):
    if len(coords) == 2:
        a2, a1 = coords
        return ((a2 + a1) / 2, (a2 - a1) / 2)
    a3, a2, a1 = coords
    return (a3 / 6 + a2 / 2 + a1 / 3, a3 / 6 - a1 / 6, a3 / 6 - a2 / 2 + a1 / 3)


COEFFS = [Fraction(3, 7), -2, Fraction(-5, 2), 0, 4, Fraction(1, 9), -1, 6]


def _unit(dim, k):
    return GeomElement(dim, [int(i == k) for i in range(dim)])


@pytest.mark.parametrize("dim", [2, 3])
def test_derived_tables_equal_the_hand_tables(dim):
    table = _unit(dim, 0)._table
    assert table == HAND_TABLES[dim]
    assert {type(c) for row in table for cell in row for _, c in cell} == {int}


@pytest.mark.parametrize("dim", [2, 3])
def test_basis_changes_equal_the_hand_formulas(dim):
    for start in range(len(COEFFS) - dim):
        coeffs = [Fraction(c) for c in COEFFS[start:start + dim]]
        assert to_orth(GeomElement(dim, coeffs)).coeffs == _hand_to_orth(*coeffs)
        assert from_orth(OrthElement(dim, False, coeffs)).coeffs == _hand_from_orth(*coeffs)


def test_the_8d_table_has_the_counted_constants():
    table = ring._derived(ring._product_table, 8)
    constants = [c for row in table for cell in row for _, c in cell]
    assert (len(constants), max(map(abs, constants))) == (284, 8436)
    assert {type(c) for c in constants} == {int}


@pytest.mark.parametrize("dim", range(1, 9))
def test_piece_matrix_times_basis_matrix_transposed_is_identity(dim):
    # column k of the piece matrix holds the orthogonal coordinates of piece k
    pieces = [to_orth(_unit(dim, k)).coeffs for k in range(dim)]
    matrix = orthogonal_basis_matrix(dim)
    product = [[sum(pieces[k][i] * matrix[j][k] for k in range(dim)) for j in range(dim)]
               for i in range(dim)]
    assert product == [[int(i == j) for j in range(dim)] for i in range(dim)]


@pytest.mark.parametrize("dim", range(1, 9))
def test_slice_counts_multiply_like_integers(dim):
    for a in range(-4, 6):
        for b in range(-4, 6):
            product = slice_decomposition(a, dim) * slice_decomposition(b, dim)
            assert product == slice_decomposition(a * b, dim)


@pytest.mark.parametrize("dim", range(1, 9))
def test_orth_round_trip_every_dim(dim):
    x = GeomElement(dim, COEFFS[:dim])
    assert from_orth(to_orth(x)) == x
    assert to_orth(_unit(dim, 0)).coeffs == (1,) * dim  # the unit simplex is neutral
    assert to_orth(x * x) == to_orth(x) * to_orth(x)


def test_coordinate_names_stop_at_the_dim():
    assert (embed3(3).x, embed3(3).y, embed3(3).z) == (10, 4, 1)
    assert (embed2(3).x, embed2(3).y) == (6, 3)
    assert not hasattr(embed2(1), "z")
    assert not hasattr(GeomElement(1, (5,)), "y")
    assert GeomElement(5, range(5)).z == 2


def test_geom_element_reads_and_writes():
    makers = (GeomElement, GeomElement2, GeomElement3)
    signatures = [list(inspect.signature(make).parameters) for make in makers]
    assert signatures == [["dim", "coeffs"], ["x", "y"], ["x", "y", "z"]]
    assert GeomElement2(6, 3) == GeomElement(2, (6, 3)) == embed2(3)
    assert copy.deepcopy(embed3(4)) == embed3(4)
    assert pickle.loads(pickle.dumps(slice_decomposition(4, 5))) == slice_decomposition(4, 5)
    assert repr(embed2(3)) == "GeomElement(2, 6, 3)"
    assert (embed3(2).dim, embed3(2).basis, embed3(2).has_a0) == (3, "geom3", False)
    x = GeomElement(5, COEFFS[:5])
    assert element_to_json(x)["basis"] == "geom5"
    assert element_from_json(element_to_json(x)) == x
    with pytest.raises(RepresentationError, match=r"^cannot combine GeomElement\(2\) with "
                                                  r"GeomElement\(3\)$"):
        embed2(2) + embed3(2)
